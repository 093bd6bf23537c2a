"""Curvature algebra, pinching-cone sweeps, and mean curvature flow for
surfaces in the unit sphere."""

from .errors import (BadDims, BadParams, BlowupDetected, DegenerateAfterPerturb,
                     DegenerateJet, EmptyFeasibleSet, Extinct,
                     InsufficientStencil, OffSphere, PinchflowError, PoleRow)
from .tensor_kernel import BatchGeometry, Jet2, batch_geometry, point_geometry
from .frames import ABCFrame, TracelessSplit, reconstruct, specialize, split_traceless
from .identities import (GradientMargins, KperpChecks, ReactionTerms,
                         gradient_margins, kperp_checks, kperp_scalar,
                         reaction_terms)
from .grids import GridSurface, batch_jets, discrete_jet
from .canonical import (CanonicalSurface, geodesic_sphere_jet, make_surface,
                        perturb, sample_grid)
from .pinching import (BlowupTime, ConeParams, SweepGrid, SweepReport,
                       blowup_time, discriminant_report, harnack_bound,
                       q_from_invariants, q_value, reaction_of_Q, reaction_sweep,
                       realize_argmax)
from .flow import (FlowConfig, FlowResult, FlowState, MonitorRecord,
                   mcf_velocity, monitor, read_snapshot, run,
                   sphere_extinction_time, sphere_ode_oracle, step,
                   write_monitor_csv, write_snapshot)

__version__ = "0.1.0"
