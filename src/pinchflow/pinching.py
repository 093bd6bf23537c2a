"""Pinching cones and the negativity sweeps for their reaction terms.

A cone is the region Q < 0 of a curvature polynomial Q; preservation under
the flow hinges on the sign of Q's reaction terms on the boundary Q = 0.
Those signs are claims under test here.  Each variant's reaction is written
once, in _reaction, from the defining contractions of the identities module;
reaction_of_Q evaluates it at one h.  On the Q = 0 slice the reaction is a
low-degree polynomial in the slice coordinates, and the sweeps evaluate that
polynomial on their lattices, reporting the measured supremum, its argmax,
and bisected critical constants.  No polynomial is written out: each sweep
fits the reaction once to _reaction, as a polynomial in the slice
coordinates, |H|^2 and the cone constants (_fit_reaction), checks the fit
at points and a constant off its nodes, raising SlicePolynomialMismatch if
it misses, and substitutes the Q = 0 value of |H|^2 for each cone constant
it visits (_slice_polynomial).  The reported supremum is reaction_of_Q
re-evaluated at the argmax.

The Q = 0 slice is compactified by degree-4 homogeneity: scaling h by
lambda and kbar by lambda^2 scales every reaction by lambda^4, so it is
enough to sweep

    Thm1:  |Atr1|^2 + |Atr-|^2 + kbar = 1     (h realized with 2 normals)
    Thm2:  a^2 + b^2 + c^2 + kbar = 1          (special-frame coordinates)

with |H|^2 >= 0 recovered from the Q = 0 constraint and infeasible
configurations masked to -inf.  Every stratum is sampled on one kind of
lattice, resolution evenly spaced values on [0, 1] per free coordinate:
(x, y) = (|Atr1|^2, |Atr-|^2) for Thm1, (a, b, c) for Thm2, and the split
tau = x / (x + y) on the Thm1 |H| = 0 stratum.  A sweep walks each lattice
once, keeping its points inside the slice with their slice quantities
(_lattice_table), and a pass for one constant is its quadratic form there.
Sweeps are deterministic: a fixed lattice, a serial pass over its chunks,
and one reduction, _lattice_max, under which a tie within the sign test's
tolerance goes to the first point in lattice order, whatever the roundoff.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import BadDims, BadParams, EmptyFeasibleSet, SlicePolynomialMismatch
from .identities import kperp_scalar, norms_batch, r1_batch, r2_batch

SUP_SIGN_TOL = 1e-9      # "sup is positive" threshold, at least (see _sign_tol)
BRACKET_WIDTH = 1e-4
REFINE_FACTOR = 4        # lattice spacing shrink per refinement round
CRITICAL_MAX_RES = 64    # lattice resolution cap of the critical-constant search
CHUNK_MIN = 1024         # least SweepGrid.chunk
# free coordinates of each stratum: (x, y) for thm1, tau on |H| = 0, (a, b, c) for thm2
_FREE_DIMS = {("thm1", "full"): 2, ("thm1", "hzero"): 1, ("thm2", "full"): 3}


# ---------------------------------------------------------------------------
# cone parameters

@dataclass
class ConeParams:
    """Constants of a pinching cone.

    variant "thm1": Q = |A|^2 - alpha |H|^2 - beta kbar
        defaults alpha = 4/(3n) (n <= 3) or 1/(n-1) (n >= 4); beta = n/2 or 2.
    variant "thm2": Q = |A|^2 + 2 gamma |Kperp| - k |H|^2 - epsilon kbar
        defaults k = 29/40, gamma = 1 - (4/3)k - delta, epsilon = 4(k - 1/2);
        requires gamma >= 0, which caps k at 3(1 - delta)/4.  The catalogued
        statement uses k <= 29/40; larger k is allowed here so the critical
        threshold can be located by bisection.  delta enters only through the
        gamma rule, so a nonzero delta needs gamma by that rule.
    Every constant must be finite, and the other variant's must be unset.
    """

    variant: str
    n: int = 2
    alpha: float | None = None
    beta: float | None = None
    k: float | None = None
    gamma: float | None = None
    epsilon: float | None = None
    delta: float = 0.0
    kbar: float = 1.0

    def __post_init__(self):
        v = self.variant
        if v not in ("thm1", "thm2"):
            raise BadParams("variant must be thm1 or thm2, got %r" % (v,))
        for name in ("alpha", "beta", "k", "gamma", "epsilon", "delta", "kbar"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise BadParams("%s must be finite, got %r" % (name, value))
        if not float(self.n).is_integer():
            raise BadParams("n must be an integer, got %r" % (self.n,))
        self.n = int(self.n)
        if self.n < 2:
            raise BadParams("need n >= 2")
        if self.delta < 0:
            raise BadParams("delta must be nonnegative")
        if v == "thm1":
            if (self.k, self.gamma, self.epsilon) != (None, None, None) or self.delta != 0:
                raise BadParams("k, gamma, epsilon and delta are thm2 constants")
            if self.alpha is None:
                self.alpha = 4.0 / (3.0 * self.n) if self.n <= 3 else 1.0 / (self.n - 1)
            if self.beta is None:
                self.beta = self.n / 2.0 if self.n <= 3 else 2.0
            if self.alpha <= 1.0 / self.n:
                raise BadParams("thm1 needs alpha > 1/n")
            if self.beta < 0:
                raise BadParams("thm1 needs beta >= 0")
        else:
            if self.alpha is not None or self.beta is not None:
                raise BadParams("alpha and beta are thm1 constants")
            if self.n != 2:
                raise BadParams("thm2 is a codimension-two surface cone (n = 2)")
            if self.k is None:
                self.k = 29.0 / 40.0
            gamma, epsilon = _thm2_default_rules(self.k, self.delta)
            if self.epsilon is None:
                self.epsilon = epsilon
            if self.gamma is None:
                self.gamma = gamma
            elif self.delta != 0 and self.gamma != gamma:
                raise BadParams("delta enters only through the default gamma rule; "
                                "an explicit gamma leaves it unused")
            if self.gamma < 0:
                raise BadParams("thm2 needs gamma >= 0 (k too large for this delta)")


def _thm2_default_rules(k: float, delta: float):
    """(gamma, epsilon) of the thm2 cone with constant k by the default rules
    gamma = 1 - (4/3)k - delta and epsilon = 4(k - 1/2)."""
    return 1.0 - (4.0 / 3.0) * k - delta, 4.0 * (k - 0.5)


def q_from_invariants(normA2, normH2, kperp, params: ConeParams):
    """Q from raw invariants; array-friendly."""
    if params.variant == "thm1":
        return normA2 - params.alpha * normH2 - params.beta * params.kbar
    if kperp is None:
        raise BadDims("thm2 needs the normal curvature, i.e. (n, k) = (2, 2)")
    return (normA2 + 2.0 * params.gamma * np.abs(kperp)
            - params.k * normH2 - params.epsilon * params.kbar)


def q_value(g, params: ConeParams):
    """Q at a BatchGeometry; negative means inside the cone."""
    kp = g.kperp if params.variant == "thm2" else None
    return q_from_invariants(g.normA2, g.normH2, kp, params)


def reaction_of_Q(h, params: ConeParams) -> float:
    """Zeroth-order reaction of Q along the flow, assembled from the
    identities-module contractions.

    Thm1:  2 R1 - 2 alpha R2 - 2n kbar |Atr|^2 - 2n(alpha - 1/n) kbar |H|^2
    Thm2:  2 R1 + 2 gamma sign(Kperp) Kperp (|A|^2 + 2|Atr|^2) - 2 k R2
           - 4 kbar |Atr|^2 + 2 kbar |H|^2 - 4 k kbar |H|^2 - 8 gamma kbar |Kperp|

    The last term is 2 gamma sign(Kperp) times the -4 kbar Kperp that the
    background curvature adds to the Kperp reaction (see kperp_checks).
    """
    comp = np.asarray(h, float)
    if comp.ndim != 3 or comp.shape[0] != comp.shape[1]:
        raise BadDims("expected a single (n, n, k) array of components")
    if params.variant == "thm1":
        if comp.shape[0] != params.n:
            raise BadDims("h has n = %d but params.n = %d" % (comp.shape[0], params.n))
    elif comp.shape != (2, 2, 2):
        raise BadDims("thm2 reaction needs (n, k) = (2, 2)")
    return float(_reaction(params, comp, params.kbar))


def _reaction(params: ConeParams, h, kb):
    """reaction_of_Q's formula, batched: h is one (n, n, k) array or an
    (n, n, k, m) batch, and kb the background curvature of each."""
    r1 = r1_batch(h)
    r2 = r2_batch(h)
    normA2, normH2, traceless = norms_batch(h)
    if params.variant == "thm1":
        n = params.n
        return (2.0 * r1 - 2.0 * params.alpha * r2
                - 2.0 * n * kb * traceless
                - 2.0 * n * (params.alpha - 1.0 / n) * kb * normH2)
    kp = kperp_scalar(h)
    r3 = kp * (normA2 + 2.0 * traceless)
    return (2.0 * r1 + 2.0 * params.gamma * np.sign(kp) * r3
            - 2.0 * params.k * r2
            - 4.0 * kb * traceless + 2.0 * kb * normH2
            - 4.0 * params.k * kb * normH2
            - 8.0 * params.gamma * kb * np.abs(kp))


# ---------------------------------------------------------------------------
# slice realizations

def thm1_config_h(n: int, x, y, hsq) -> np.ndarray:
    """Special-frame h with |Atr1|^2 = x, |Atr-|^2 = y, |H|^2 = hsq.

    Two normal directions: the first carries the mean curvature and a
    diagonal traceless part, the second a pure off-diagonal block.  For
    surfaces (n = 2) this realization maximizes R1 at fixed (x, y), so the
    sweep supremum is attained on it; for higher n it realizes the same
    |Atr1|^2/|Atr-|^2 split the estimates are phrased in.  Returns the
    (n, n, 2, m) batch.
    """
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    hsq = np.atleast_1d(np.asarray(hsq, float))
    m = x.shape[0]
    h = np.zeros((n, n, 2, m))
    idx = np.arange(n)
    h[idx, idx, 0] = np.sqrt(hsq) / n
    s = np.sqrt(x / 2.0)
    h[0, 0, 0] += s
    h[1, 1, 0] -= s
    t = np.sqrt(y / 2.0)
    h[0, 1, 1] = t
    h[1, 0, 1] = t
    return h


def thm2_config_h(a, b, c, hsq) -> np.ndarray:
    """Special-frame h for (n, k) = (2, 2) from (a, b, c) and |H|^2, as
    a (2, 2, 2, m) batch."""
    a = np.atleast_1d(np.asarray(a, float))
    b = np.atleast_1d(np.asarray(b, float))
    c = np.atleast_1d(np.asarray(c, float))
    hsq = np.atleast_1d(np.asarray(hsq, float))
    m = a.shape[0]
    h = np.zeros((2, 2, 2, m))
    half = np.sqrt(hsq) / 2.0
    h[0, 0, 0] = half + a
    h[1, 1, 0] = half - a
    h[0, 0, 1] = b
    h[1, 1, 1] = -b
    h[0, 1, 1] = c
    h[1, 0, 1] = c
    return h


def realize_argmax(params: ConeParams, argmax: dict):
    """(h components, params with kbar = slice value) for an argmax record."""
    return _config_h(params, argmax)[..., 0], replace(params, kbar=float(argmax["kbar"]))


# ---------------------------------------------------------------------------
# sweep machinery

@dataclass
class SweepGrid:
    """Sampling plan for reaction_sweep.

    resolution^d lattice evaluations at the base level, d the number of
    free coordinates (2 for thm1, 3 for thm2, 1 for the hzero stratum),
    then `refine_rounds` local refinements
    shrinking the lattice spacing by REFINE_FACTOR around the incumbent
    argmax.  stratum "full" sweeps the whole Q = 0 slice; "hzero" (thm1
    only) restricts to |H| = 0, where the beta boundary lives.
    """

    resolution: int = 200
    refine_rounds: int = 3
    # configurations per chunk, at least CHUNK_MIN; it bounds the memory of
    # one evaluation, a few arrays of chunk entries
    chunk: int = 32768
    stratum: str = "full"
    bisect: bool = True

    def __post_init__(self):
        if self.resolution < 2:
            raise BadParams("resolution must be at least 2")
        if self.stratum not in ("full", "hzero"):
            raise BadParams("stratum must be 'full' or 'hzero'")
        if self.chunk < CHUNK_MIN:
            raise BadParams("chunk must be at least %d, got %r" % (CHUNK_MIN, self.chunk))
        if self.refine_rounds < 0:
            raise BadParams("bad sweep grid settings")


@dataclass
class SweepReport:
    variant: str
    stratum: str
    params: dict
    sup_value: float
    argmax: dict
    samples: int
    critical_constant: float | None
    bracket_width: float | None
    notes: list


def _inside(params, stratum, coords):
    """Mask of the free coordinates, or broadcast axes, some cone constant
    can make feasible on the Q = 0 slice: the simplex for thm1 (alpha only
    scales |H|^2), the ball octant for thm2, tau in [0, 1] for hzero."""
    if stratum == "hzero":
        return (coords[0] >= 0.0) & (coords[0] <= 1.0)
    if params.variant == "thm1":
        x, y = coords
        return (x >= 0.0) & (y >= 0.0) & (1.0 - x - y >= -1e-15)
    a, b, c = coords
    kb = 1.0 - (a * a + b * b + c * c)
    return (a >= 0.0) & (b >= 0.0) & (c >= 0.0) & (kb >= -1e-15)


def _slice_quantities(params, stratum, coords):
    """(quantity, point) table z of the slice polynomial's variables at free
    coordinates, 1-D arrays, which no cone constant changes: 1 and tau on
    the |H| = 0 stratum, kbar, x and y for thm1, and kbar, a^2, b^2, c^2
    and ac for thm2, with kbar = 1 - (x + y) or 1 - (a^2 + b^2 + c^2)
    clamped at 0."""
    if stratum == "hzero":
        return np.stack([np.ones_like(coords[0]), coords[0]])
    if params.variant == "thm1":
        x, y = coords
        return np.stack([np.maximum(1.0 - x - y, 0.0), x, y])
    a, b, c = coords
    a2, b2, c2 = a * a, b * b, c * c
    return np.stack([np.maximum(1.0 - (a2 + b2 + c2), 0.0), a2, b2, c2, a * c])


def _slice_configs(params, stratum, coords, z):
    """(|H|^2 >= 0 mask, config arrays) of params at free coordinates and
    their slice quantities z: the slice coordinates that rebuild the point
    (see _config_h), meaningful where this mask and _inside's hold."""
    if stratum == "hzero":
        tau, s_tot = coords[0], params.beta / (1.0 + params.beta)
        hsq = np.zeros_like(tau)
        return hsq >= 0.0, {"x": tau * s_tot, "y": (1.0 - tau) * s_tot,
                            "kbar": np.full_like(tau, 1.0 / (1.0 + params.beta)), "hsq": hsq}
    kb = z[0]
    if params.variant == "thm1":
        x, y = coords
        hsq = (x + y - params.beta * kb) / (params.alpha - 1.0 / params.n)
        return hsq >= 0.0, {"x": x, "y": y, "kbar": kb, "hsq": hsq}
    a, b, c = coords
    hsq = (2.0 * (z[1] + z[2] + z[3]) + 4.0 * params.gamma * a * c
           - params.epsilon * kb) / (params.k - 0.5)
    return hsq >= 0.0, {"a": a, "b": b, "c": c, "kbar": kb, "hsq": hsq}


def _config_h(params, cfg):
    """The (n, n, k, m) batch of h at slice configurations cfg."""
    if params.variant == "thm1":
        return thm1_config_h(params.n, cfg["x"], cfg["y"], cfg["hsq"])
    return thm2_config_h(cfg["a"], cfg["b"], cfg["c"], cfg["hsq"])


# ---------------------------------------------------------------------------
# the reaction polynomial
#
# The reactions are polynomials.  Realized by thm1_config_h or
# thm2_config_h, h enters _reaction through its quantities of degree 2, w:
# (kbar, x, y, |H|^2) for thm1 and (kbar, a^2, b^2, c^2, ac, |H|^2) for
# thm2 (a, c >= 0, sign(Kperp) Kperp = 2ac).  Each reaction is a quadratic
# form in w, 10 or 20 monomials, with coefficients affine in the constants
# _reaction reads, (1, alpha) or (1, gamma, k); beta and epsilon enter only
# through the Q = 0 value of |H|^2.  _fit_reaction takes the 2 x 10 or
# 3 x 20 coefficients from _reaction once per sweep.  On the Q = 0 slice
# w = S z, linear in the slice's quantities of degree 2, z (see
# _slice_quantities), so substituting S gives each constant's slice
# polynomial, a quadratic form in z (_slice_polynomial), which, written in
# kbar, holds off the normalization kbar = 1 - (x + y) too.

FIT_TOL = 1e-12          # fit residual bound, relative to the reaction's size
FIT_CHECKS = 16          # check points of the fit

# exponents of w in the fit variables, (kbar, x, y, |H|^2) for thm1 and
# (kbar, a, b^2, c, |H|^2) for thm2
_W = {"thm1": np.eye(4, dtype=int),
      "thm2": np.array([(1, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 1, 0, 0),
                        (0, 0, 0, 2, 0), (0, 1, 0, 1, 0), (0, 0, 0, 0, 1)])}
# the node constants, then the check constant; the reaction is affine in them
_FIT_CONSTANTS = {"thm1": [{"alpha": 1.0}, {"alpha": 2.0}, {"alpha": 1.5}],
                  "thm2": [{"gamma": 0.0, "k": 0.0}, {"gamma": 1.0, "k": 0.0},
                           {"gamma": 0.0, "k": 1.0}, {"gamma": 0.25, "k": 0.625}]}


def _products(exps):
    """Monomials of a quadratic form in variables with exponents exps: the
    distinct sums exps[i] + exps[j], and for each the first (i, j) giving it
    (i <= j)."""
    m, rows = len(exps), exps.tolist()
    sums = [tuple(p + q for p, q in zip(a, b)) for a in rows for b in rows]
    monomials = sorted(set(sums))
    return np.array(monomials), np.divmod([sums.index(mono) for mono in monomials], m)


def _monomial_values(monomials, fv):
    """(point, monomial) values of monomials at fit variables fv."""
    return np.prod(fv[None] ** monomials[:, :, None], axis=1).T


def _fit_nodes(monomials, levels):
    """One fit node per monomial, in fit variables: the variables of its
    support at their levels and the rest at 0 (the first at half or twice
    its level for the second and third monomial of a support).  A node
    sees only the monomials inside its support, so, as in polarization,
    each coefficient of the interpolant is fixed by the reaction on its
    own variables and carries their roundoff: a least-squares fit over
    spread nodes would spread the roundoff of the largest values over
    every coefficient, and the slice multiplies the |H|^4 coefficient by
    up to 1/(k - 1/2)^2."""
    nodes, supports = [], []
    for mono in monomials.tolist():
        support = [e > 0 for e in mono]
        node = [level if on else 0.0 for level, on in zip(levels, support)]
        node[support.index(True)] *= (1.0, 0.5, 2.0)[supports.count(support)]
        supports.append(support)
        nodes.append(node)
    return np.array(nodes).T


_FIT_MONOMIALS = {key: _products(w) for key, w in _W.items()}
# node levels of the fit variables: the realized h has entries 0, 1/2, 1
# and 2 (and 2/n for |H|^2), so _reaction rounds little there
_FIT_NODES = {"thm1": _fit_nodes(_FIT_MONOMIALS["thm1"][0], (1.0, 2.0, 2.0, 4.0)),
              "thm2": _fit_nodes(_FIT_MONOMIALS["thm2"][0], (1.0, 1.0, 1.0, 1.0, 4.0))}


def _multipliers(params):
    """What multiplies each coefficient block of the fit."""
    if params.variant == "thm1":
        return np.array([1.0, params.alpha])
    return np.array([1.0, params.gamma, params.k])


def _realize(params, fv):
    """(h, kbar) at fit variables fv."""
    if params.variant == "thm1":
        kb, x, y, hsq = fv
        return thm1_config_h(params.n, x, y, hsq), kb
    kb, a, b2, c, hsq = fv
    return thm2_config_h(a, np.sqrt(b2), c, hsq), kb


def _fit_reaction(params):
    """(multiplier, monomial) coefficients of _reaction as a quadratic form
    in w with coefficients affine in the cone constants (see _multipliers).

    The fit interpolates _reaction at the fit nodes for each node constant,
    as many node constants as multipliers.  Raises SlicePolynomialMismatch
    unless it reproduces _reaction at FIT_CHECKS points of the Kronecker
    sequence frac(i sqrt(p)), one prime p per fit variable, at the check
    constant, to FIT_TOL times the reaction's size there, max(|reaction|,
    (1 + |H|^2)^2).
    """
    monomials = _FIT_MONOMIALS[params.variant][0]
    nodes = _FIT_NODES[params.variant]
    *consts, check = (replace(params, delta=0.0, **const)
                      for const in _FIT_CONSTANTS[params.variant])
    h, kb = _realize(params, nodes)
    # one polynomial per node constant, then the affine blocks from them
    per_const = np.linalg.solve(_monomial_values(monomials, nodes),
                                np.stack([_reaction(at, h, kb) for at in consts], 1))
    coef = np.linalg.solve(np.stack([_multipliers(at) for at in consts]), per_const.T)
    fv = np.modf(np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0][:len(nodes)])[:, None]
                 * np.arange(1, FIT_CHECKS + 1))[0]
    values = _reaction(check, *_realize(params, fv))
    resid = float(np.max(np.abs(_monomial_values(monomials, fv)
                                @ (_multipliers(check) @ coef) - values)))
    # _reaction sums terms of size (1 + |H|^2)^2, which dwarf the reaction
    # where it cancels
    bound = FIT_TOL * float(np.max(np.maximum(np.abs(values), (1.0 + fv[-1]) ** 2)))
    if not resid <= bound:   # a NaN fails too
        raise SlicePolynomialMismatch(
            "%s reaction: the polynomial misses _reaction by %.3e (bound %.3e)"
            % (params.variant, resid, bound))
    return coef


def _substitution(params, stratum):
    """The matrix S with w = S z on the Q = 0 slice of params (see
    _slice_configs)."""
    if stratum == "hzero":
        s_tot = params.beta / (1.0 + params.beta)
        return np.array([[1.0 / (1.0 + params.beta), 0.0], [0.0, s_tot],
                         [s_tot, -s_tot], [0.0, 0.0]])
    if params.variant == "thm1":
        hsq = np.array([-params.beta, 1.0, 1.0]) / (params.alpha - 1.0 / params.n)
    else:
        hsq = (np.array([-params.epsilon, 2.0, 2.0, 2.0, 4.0 * params.gamma])
               / (params.k - 0.5))
    return np.vstack([np.eye(len(hsq)), hsq])


def _slice_polynomial(fit, params, stratum):
    """Coefficient matrix P of the reaction on the Q = 0 slice of params,
    the quadratic form z^T P z in the variables of _slice_quantities: the
    fit at params' constants, with |H|^2 substituted."""
    coef = _multipliers(params) @ fit
    _, (i, j) = _FIT_MONOMIALS[params.variant]
    s = _substitution(params, stratum)
    return np.einsum("m,mp,mq->pq", coef, s[i], s[j])


def _eval_configs(params, stratum, coords, form=None, z=None, printed=True):
    """Reaction on explicit free coordinates, 1-D arrays; infeasible
    entries -> -inf.

    The reaction is z^T P z with P = form, params' slice polynomial (without
    it the call fits its own, unless no entry is feasible), where params'
    |H|^2 >= 0.  A lattice table passes the slice quantities z of its points
    inside the slice; without them they and _inside's mask are computed
    here.  The thm2 printed-R3 route, when printed, is the reaction less
    its pinned gap 4 gamma |Kperp| b^2, with |Kperp| = 2ac on the slice.
    Returns (values, printed_values or None, feasible_mask, config_arrays),
    config_arrays meaningful at feasible entries only (see _slice_configs).
    """
    inside = True if z is not None else _inside(params, stratum, coords)
    z = _slice_quantities(params, stratum, coords) if z is None else z
    ok, cfg = _slice_configs(params, stratum, coords, z)
    ok &= inside
    if ok.any():
        if form is None:
            form = _slice_polynomial(_fit_reaction(params), params, stratum)
        vals = np.where(ok, np.einsum("pk,pk->k", z, form @ z), -np.inf)
    else:
        vals = np.full(ok.shape, -np.inf)
    if params.variant == "thm1" or not printed:
        return vals, None, ok, cfg
    a, b, c = coords
    return vals, vals - 4.0 * params.gamma * (2.0 * a * c) * (b * b), ok, cfg


def _lattice_chunk(params, stratum, res, lo, hi):
    """Free coordinates of lattice indices [lo, hi) in lexicographic order:
    res evenly spaced values on [0, 1] per free coordinate.

    [lo, hi) is a run of whole res^j blocks inside one res^(j+1) block (see
    _chunk_ranges), so the coordinates come as broadcast axes: fixed leading
    coordinates, one range, then j whole axes; their broadcast shape lists
    the chunk in lattice order.
    """
    dim = _FREE_DIMS[params.variant, stratum]
    j = dim - 1
    while lo % res ** j or hi % res ** j:
        j -= 1
    block, count = lo // res ** j, (hi - lo) // res ** j
    first = block % res
    if first + count > res:
        raise ValueError("lattice range [%d, %d) crosses a block boundary" % (lo, hi))
    lead = []
    for _ in range(dim - 1 - j):
        block //= res
        lead.insert(0, slice(block % res, block % res + 1))
    values = np.arange(res) / (res - 1.0)
    axes = [values[i] for i in lead + [slice(first, first + count)] + [slice(None)] * j]
    return tuple(v.reshape([-1 if ax == k else 1 for k in range(dim)])
                 for ax, v in enumerate(axes))


def _chunk_ranges(params, stratum, res, chunk):
    """Lattice index ranges [lo, hi) of at most chunk configurations, in
    lattice order, each a run of whole res^j blocks inside one res^(j+1)
    block, j as large as the chunk size allows."""
    dim = _FREE_DIMS[params.variant, stratum]
    j = max(i for i in range(dim) if res ** i <= chunk)
    unit = res ** j
    per = min(res, chunk // unit)
    for top in range(0, res ** dim, unit * res):
        for first in range(0, res, per):
            yield top + first * unit, top + min(first + per, res) * unit


def _lattice_table(params, stratum, res, chunk):
    """Blocks of the lattice in lattice order, a chunk at a time: the free
    coordinates of the points inside the slice (see _inside) and their
    slice quantities, which every cone constant shares."""
    for lo, hi in _chunk_ranges(params, stratum, res, chunk):
        axes = _lattice_chunk(params, stratum, res, lo, hi)
        inside = _inside(params, stratum, axes)
        if inside.any():
            coords = [co[inside] for co in np.broadcast_arrays(*axes)]
            yield coords, _slice_quantities(params, stratum, coords)


def _lattice_max(params, stratum, form, blocks, printed=False):
    """(sup, argmax config, feasible count, printed sup, argmax free
    coordinates) of slice polynomial form over blocks of (free coordinates,
    z or None), one _eval_configs call each.  A tie goes to the first point:
    the argmax is the first entry, in block order, within the sign test's
    tolerance at it (_sign_tol) of the max, so roundoff cannot pick between
    points of equal exact value.  With no feasible entry the config is None.
    """
    top, samples, printed_sup, near = -np.inf, 0, -np.inf, []
    for coords, z in blocks:
        vals, prt, ok, cfg = _eval_configs(params, stratum, coords, form, z, printed)
        samples += int(np.count_nonzero(ok))
        printed_sup = printed_sup if prt is None else max(printed_sup, float(prt.max()))
        top = max(top, float(vals.max()))
        if top == -np.inf:
            continue
        # the tolerance at the block's largest |H|^2, doubled, bounds it at
        # every entry that can tie with top
        hsq = cfg["hsq"]
        at = np.flatnonzero(vals >= top - 2.0 * _sign_tol(top, float(hsq.max())))
        reach = vals[at] + _sign_tol(vals[at], hsq[at])
        near = [block for block in near + [(reach, at, vals, cfg, coords)]
                if (block[0] >= top).any()]
    if not near:
        return top, None, samples, printed_sup, None
    reach, at, vals, cfg, coords = near[0]
    i = at[np.argmax(reach >= top)]
    return (float(vals[i]), {key: float(v[i]) for key, v in cfg.items()}, samples,
            printed_sup, [float(co[i]) for co in coords])


def _run_base_sweep(params, stratum, res, chunk, form):
    """(sup, argmax config, feasible samples, printed sup, argmax free
    coordinates, table) of slice polynomial form over the base lattice: up
    to CRITICAL_MAX_RES the table the critical search reuses, else streamed
    (and the table is None)."""
    blocks = _lattice_table(params, stratum, res, chunk)
    table = list(blocks) if res <= CRITICAL_MAX_RES else None
    return _lattice_max(params, stratum, form, blocks if table is None else table,
                        printed=True) + (table,)


def _refine(params, grid, best, best_cfg, center, form):
    """Local lattice refinement around the incumbent, whose free coordinates
    are center; monotone in sup, and a tie keeps the incumbent."""
    spacing, extra = 1.0 / grid.resolution, 0
    for _ in range(grid.refine_rounds):
        axes = [np.linspace(co - spacing, co + spacing, 2 * REFINE_FACTOR + 1)
                for co in center]
        coords = [np.ravel(co) for co in np.meshgrid(*axes, indexing="ij")]
        val, cfg, count, _, at = _lattice_max(params, grid.stratum, form, [(coords, None)])
        extra += count
        if val - best > _sign_tol(best, best_cfg["hsq"]):
            best, best_cfg, center = val, cfg, at
        spacing /= REFINE_FACTOR
    return best, best_cfg, extra


def _sup_at(params, stratum, form, table):
    """(sup, argmax config) of one pass over a lattice table."""
    return _lattice_max(params, stratum, form, table)[:2]


def _sign_tol(sup, hsq):
    """The "sup is positive" threshold at a value sup where |H|^2 = hsq,
    elementwise: SUP_SIGN_TOL, or FIT_TOL times the reaction's size there
    (see _fit_reaction)."""
    return np.maximum(SUP_SIGN_TOL, FIT_TOL * np.maximum(np.abs(sup), (1.0 + hsq) ** 2))


def _with_constant(params, stratum, value):
    if params.variant == "thm2":
        gamma, epsilon = _thm2_default_rules(value, params.delta)
        return replace(params, k=value, gamma=gamma, epsilon=epsilon)
    if stratum == "hzero":
        return replace(params, beta=value)
    return replace(params, alpha=value)


def _scan_range(params, stratum):
    if params.variant == "thm2":
        hi = 0.75 * (1.0 - params.delta) - 1e-4
        return np.linspace(0.52, min(0.7499, hi), 21)
    n = params.n
    if stratum == "hzero":
        b0 = 2.0 * n / 3.0
        return np.linspace(0.2 * b0, 1.8 * b0, 21)
    span = max(params.alpha - 1.0 / n, 1.0 / (n - 1) - 1.0 / n)
    return np.linspace(1.0 / n + 0.05 * span, 1.0 / n + 2.0 * span, 21)


def _critical_constant(params, grid, fit, table=None):
    """Scan the cone constant, bracket every sign change of the sweep sup,
    and bisect the first bracket down to BRACKET_WIDTH, each constant's
    slice polynomial from the reaction fit, each pass over one lattice
    table at min(resolution, CRITICAL_MAX_RES): the base sweep's, if kept."""
    stratum = grid.stratum
    res = min(grid.resolution, CRITICAL_MAX_RES)
    if table is None:
        table = list(_lattice_table(params, stratum, res, grid.chunk))
    values = _scan_range(params, stratum)
    notes = []

    def positive(cv):
        at = _with_constant(params, stratum, float(cv))
        sup, cfg = _sup_at(at, stratum, _slice_polynomial(fit, at, stratum), table)
        return cfg is not None and sup > _sign_tol(sup, cfg["hsq"])

    flags = [positive(cv) for cv in values]
    brackets = [(float(values[i]), float(values[i + 1]), flags[i])
                for i in range(len(values) - 1) if flags[i] != flags[i + 1]]
    if not brackets:
        notes.append("critical scan: no sign change of sup over [%.4f, %.4f]"
                     % (values[0], values[-1]))
        return None, None, notes
    if len(brackets) > 1:
        notes.append("critical scan: multiple sign changes at %s; bisecting the first"
                     % (["(%.4f, %.4f)" % b[:2] for b in brackets],))
    lo, hi, lo_pos = brackets[0]
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if positive(mid) == lo_pos:
            lo = mid
        else:
            hi = mid
    notes.append("bracket_width %.3e is the bisection width on a resolution-%d "
                 "lattice (min(resolution, %d)); it excludes the lattice error"
                 % (hi - lo, res, CRITICAL_MAX_RES))
    return 0.5 * (lo + hi), hi - lo, notes


def reaction_sweep(params: ConeParams, grid: SweepGrid | None = None) -> SweepReport:
    """Supremum of reaction_of_Q over the compactified Q = 0 slice.

    params.kbar must be 1: the background curvature is a slice coordinate
    under the homogeneity normalization, so no other value is swept.  The
    reported sup_value is the scalar re-evaluation of the argmax through
    reaction_of_Q, so the report is reproducible from its own argmax record.  The reaction is fitted
    once, raising SlicePolynomialMismatch if the fit misses _reaction, and
    the lattice passes evaluate the slice polynomial of each cone constant
    they visit.
    """
    if grid is None:
        grid = SweepGrid()
    if params.kbar != 1.0:
        raise BadParams("the sweep's kbar is a slice coordinate; params.kbar must be 1, "
                        "got %r" % params.kbar)
    if grid.stratum == "hzero" and params.variant != "thm1":
        raise BadParams("the |H| = 0 stratum sweep is a thm1 construction")
    if (grid.bisect and params.variant == "thm2"
            and (params.gamma, params.epsilon) != _thm2_default_rules(params.k, params.delta)):
        raise BadParams("the critical-k search resets gamma and epsilon to their default "
                        "rules; with an explicit gamma or epsilon add --no-bisect")
    if params.variant == "thm2" and abs(params.k - 0.5) < 1e-12:
        raise BadParams("at k = 1/2 |H|^2 drops out of Q, so Q = 0 does not fix it")

    fit = _fit_reaction(params)
    form = _slice_polynomial(fit, params, grid.stratum)
    best, best_cfg, samples, printed_sup, center, table = _run_base_sweep(
        params, grid.stratum, grid.resolution, grid.chunk, form)
    base_best = best
    if best_cfg is None:
        raise EmptyFeasibleSet("no feasible configuration on the Q = 0 slice")
    if grid.refine_rounds > 0:
        best, best_cfg, extra = _refine(params, grid, best, best_cfg, center, form)
        samples += extra

    h, p_at = realize_argmax(params, best_cfg)
    sup = float(reaction_of_Q(h, p_at))
    notes = []
    tol = _sign_tol(sup, best_cfg["hsq"])
    # a move within the sign test's tolerance is roundoff of the reaction's terms
    if abs(sup - best) > tol:
        notes.append("argmax recheck moved sup from %.15e to %.15e" % (best, sup))

    claim = ("sup <= 0 (negativity claim holds on this slice)" if sup <= tol
             else "sup > 0 (negativity claim FAILS on this slice)")
    notes.append("measured sup = %.6e: %s" % (sup, claim))
    if params.variant == "thm2":
        notes.append("base-lattice max (before refinement): reaction %.6e, "
                     "printed-R3 variant %.6e" % (base_best, printed_sup))

    critical = width = None
    if grid.bisect:
        critical, width, extra_notes = _critical_constant(params, grid, fit, table)
        notes.extend(extra_notes)

    return SweepReport(
        variant=params.variant,
        stratum=grid.stratum,
        params=asdict(params),
        sup_value=sup,
        argmax=best_cfg,
        samples=int(samples),
        critical_constant=critical,
        bracket_width=width,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# discriminant bookkeeping

def discriminant_report(n: int, alpha: float, beta: float) -> dict:
    """Evaluate the catalogued discriminant formulas verbatim and, separately,
    test negativity of the underlying quadratic form by direct sweep.

    The quadratic form in (x, w) = (|Atr-|^2, kbar) is

        q = c_x x^2 + 4 (B' - n) x w - 2 beta (B' - n) w^2,
        B' = beta / (n (alpha - 1/n)),
        c_x = -3 (n <= 4)  or  -(2(n - 4) + 3) (n >= 4),

    and direct_negativity reports whether q < 0 on the nonnegative quadrant
    away from the origin, from quadrant_max, the exact maximum of q on the
    segment x + w = 1 (q is homogeneous).  The printed formulas are recorded
    as-is; their sign is not asserted anywhere.
    """
    n = int(n)
    if n < 2:
        raise BadParams("need n >= 2")
    if alpha <= 1.0 / n:
        raise BadParams("need alpha > 1/n")
    bprime = beta / (n * (alpha - 1.0 / n))
    cross = bprime - n
    printed1 = 8.0 * cross * (2.0 * bprime - 3.0 * beta)
    printed2 = 8.0 * cross * (2.0 * bprime - (2.0 * (n - 4) + 3.0) * beta)
    c_x = -3.0 if n <= 4 else -(2.0 * (n - 4) + 3.0)

    # on the segment x = t, w = 1 - t the form is A t^2 + B t + C, whose
    # maximum over [0, 1] sits at an end or at the vertex of a concave A
    A = c_x - 4.0 * cross - 2.0 * beta * cross
    B = 4.0 * cross * (1.0 + beta)
    C = -2.0 * beta * cross
    qmax = max(C, c_x)
    if A < 0.0 and 0.0 < -B / (2.0 * A) < 1.0:
        qmax = max(qmax, C - B * B / (4.0 * A))
    qmax = float(qmax)
    return {
        "n": n,
        "alpha": alpha,
        "beta": beta,
        "delta_printed_1": float(printed1),
        "delta_printed_2": float(printed2),
        "quadratic_coeffs": {"xx": float(c_x), "xw": float(4.0 * cross),
                             "ww": float(-2.0 * beta * cross)},
        "direct_negativity": bool(qmax < 0.0),
        "quadrant_max": qmax,
    }


# ---------------------------------------------------------------------------
# blow-up comparison and the curvature lower bound along paths

@dataclass
class BlowupTime:
    b0: float
    tau: float
    n: int
    t_star: float

    def b(self, t):
        t = np.asarray(t, dtype=float)
        denom = self.n - 8.0 * self.b0 * (t - self.tau)
        out = np.where(t < self.t_star, self.n * self.b0 / np.where(denom > 0, denom, 1.0),
                       np.inf)
        return float(out) if out.ndim == 0 else out


def blowup_time(b0: float, tau: float, n: int) -> BlowupTime:
    """Comparison solution b(t) = n b0 / (n - 8 b0 (t - tau)) and its blow-up
    time t_star = tau + n/(8 b0)."""
    if b0 <= 0:
        raise BadParams("need b0 > 0")
    return BlowupTime(b0=float(b0), tau=float(tau), n=int(n),
                      t_star=float(tau) + n / (8.0 * float(b0)))


def harnack_bound(h0: float, csharp: float, t: float, delta0: float, d) -> float:
    """Lower bound for |H| at distance d from a point where |H| = h0:

        h0 / (1 + csharp * exp(-(delta0/2) t) * d * h0)

    Preconditions h0, csharp > 0 and d >= 0 are the caller's contract; the
    bound is monotone nonincreasing in d and equals h0 at d = 0.
    """
    d = np.asarray(d, dtype=float)
    out = h0 / (1.0 + csharp * np.exp(-0.5 * delta0 * t) * d * h0)
    return float(out) if out.ndim == 0 else out
