"""Exception types shared across the package."""


class PinchflowError(Exception):
    """Base class for all package-specific errors."""


class DegenerateJet(PinchflowError):
    """First derivatives of a jet are (numerically) linearly dependent."""


class OffSphere(PinchflowError):
    """A sample point does not lie on the unit sphere within tolerance."""


class BadDims(PinchflowError):
    """An operation restricted to (n, k) = (2, 2) received other dimensions."""


class BadParams(PinchflowError):
    """Parameters violate a documented precondition."""


class DegenerateAfterPerturb(PinchflowError):
    """A perturbed grid surface failed the embedding/degeneracy check."""


class InsufficientStencil(PinchflowError):
    """A finite-difference stencil does not fit (non-periodic boundary)."""


class PoleRow(PinchflowError):
    """Jet evaluation was requested on an excluded pole row."""


class BlowupDetected(PinchflowError):
    """Curvature exceeded the configured ceiling during a flow step."""


class Extinct(PinchflowError):
    """The shrinking-sphere ODE was evaluated past its extinction time."""


class EmptyFeasibleSet(PinchflowError):
    """A sweep slice contains no configuration with |H|^2 >= 0."""


class SlicePolynomialMismatch(PinchflowError):
    """A sweep's slice polynomial does not reproduce the cone reaction."""
