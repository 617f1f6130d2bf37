"""Mixture-of-product-states and off-axis ellipsoid families.

Two families probe the geometry beyond X states:

* rank-2 mixtures rho = lambda |00><00| + (1-lambda) |psi phi><psi phi|
  with |psi> = cos(alpha)|0> + sin(alpha)|1> on A and |phi> likewise with
  beta on B.  Their R matrix is singular (the y2 row vanishes) and the
  steered points fall on the line y3 + y1 tan(alpha) = 1.  Conjecture
  under test: the optimal two-outcome ensemble is always equi-entropy,
  |OE| = |OF|.
* a nine-entry R template whose ellipsoid sits centered on the y3 axis
  while Alice's state A = (r1, 0, r3) leaves the axis.  The numerically
  observed dichotomy: either the optimal chord through A is horizontal
  (Class I, an equi-entropy decomposition with a closed-form value), or
  it is not, in which case the projected point (0, 0, r3) is optimized
  by the vertical apex pair (Class II).

Monte-Carlo drivers sample both families reproducibly (one RNG stream
spawned per sample index, so parallel runs give identical output).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import (
    P_FLOOR,
    _avg_entropy,
    _cached_grid,
    _entropy_of_norms,
    _outcomes,
    _sphere_descent,
)
from .discord import (
    BRANCH_EQUI_ENTROPY,
    CIRCLE_TOL,
    DEFAULT_GRID,
    ProjectiveMeasurement,
    _assemble,
    _core,
    _minimum,
    _split,
    brute_force_min_entropy,
    post_measurement_ensemble,
)
from .qstate import (
    EIGENVALUE_FLOOR,
    CorrelationMatrix,
    TwoQubitState,
    _density_matrix,
    _lowest_eigenvalue,
    binary_entropy,
    reconstruct_state,
)
from .steering import SteeringEllipsoid

__all__ = [
    "ConjectureViolationError",
    "MixtureParams",
    "GeneralRParams",
    "GapSample",
    "ConjectureRun",
    "ClassifiedState",
    "make_mixture_state",
    "mixture_bloch_a",
    "mixture_ensemble",
    "sample_mixture_params",
    "test_equi_entropy_conjecture",
    "mixture_correlations_via_conjecture",
    "sweep_mixture",
    "general_r_matrix",
    "general_r_geometry",
    "make_general_r_state",
    "sample_general_r_params",
    "class_one_min_entropy",
    "classify_optimal_line",
    "min_chord_entropy",
    "offaxis_reference_state",
]

GAP_TOL = 1e-6  # equi-entropy gap below this counts as zero
CHORD_TOL = 1e-6  # relative y3 component below this counts as horizontal
_TURNS = np.arange(4) * (np.pi / 4)  # turns of Bob's x-z axes tried by the maximiser
_MAX_TRIES = 100000  # rejection draws allowed per general-R sample
_DRAW_BLOCK = 128  # general-R draws checked for positivity by one stacked eigvalsh


class ConjectureViolationError(RuntimeError):
    """Constrained and unconstrained optima disagree; carries the case."""

    def __init__(self, message, params, constrained, unconstrained, measurement):
        super().__init__(message)
        self.params = params
        self.constrained = constrained
        self.unconstrained = unconstrained
        self.measurement = measurement


@dataclass(frozen=True, eq=False)
class MixtureParams:
    """Mixing weight and the two Bloch polar angles (JSON key "lambda" maps
    to ``lam``)."""

    lam: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"mixing weight must lie in [0, 1], got {self.lam!r}")
        for name in ("alpha", "beta"):
            val = getattr(self, name)
            if not 0.0 <= val <= np.pi / 2 + 1e-12:
                raise ValueError(f"{name} must lie in [0, pi/2], got {val!r}")


@dataclass(frozen=True, eq=False)
class GeneralRParams:
    """Free entries of the off-axis R template; t11 and t33 are derived.

    The template fixes rows (1, s1, 0, s3), (r1, t11, 0, t13),
    (0, 0, t22, 0), (r3, t31, 0, t33) with t11 = (r1 - s3 t13)/s1 and
    t33 = (r1 r3 s1 - r1 t31 + s3 t13 t31)/(s1 t13).
    """

    r1: float
    r3: float
    s1: float
    s3: float
    t13: float
    t22: float
    t31: float

    def __post_init__(self):
        if abs(self.s1) < 1e-12 or abs(self.t13) < 1e-12:
            raise ValueError("template requires s1 != 0 and t13 != 0")

    @property
    def t11(self):
        return (self.r1 - self.s3 * self.t13) / self.s1

    @property
    def t33(self):
        return (
            self.r1 * self.r3 * self.s1
            - self.r1 * self.t31
            + self.s3 * self.t13 * self.t31
        ) / (self.s1 * self.t13)


@dataclass(frozen=True, eq=False)
class GapSample:
    """One Monte-Carlo draw: oracle optimum and its equi-entropy gap."""

    params: MixtureParams
    optimal_measurement: ProjectiveMeasurement
    gap: float
    min_entropy: float


@dataclass(frozen=True, eq=False)
class ConjectureRun:
    samples: tuple
    max_gap: float
    fraction_tiny: float  # fraction of samples with gap <= GAP_TOL


@dataclass(frozen=True, eq=False)
class ClassifiedState:
    """Oracle-based dichotomy diagnostics for one template state."""

    params: GeneralRParams
    label: str  # "I" or "II"
    gap: float
    chord_y3: float  # |y3 component| of the unit chord direction
    s_min_a: float
    s_min_atilde: float
    optimal_measurement: ProjectiveMeasurement


def _mixture_r(lam, alpha, beta):
    """Closed-form Pauli coefficient matrix R of mixture states.

    (4, 4) for scalar parameters, (N, 4, 4) for arrays of N: lam z z^T +
    (1 - lam) u v^T with z = (1, 0, 0, 1), u = (1, sin 2a, 0, cos 2a) and
    v = (1, sin 2b, 0, cos 2b), the product of the two pure states' Bloch
    4-vectors, written out entry by entry.  Row and column 2 are exactly
    zero.  The family's measurement algebra is ``_kernels._outcomes`` (or
    ``post_measurement_ensemble``) on this R, and its states are this R
    reconstructed (``make_mixture_state``).
    """
    w = 1.0 - lam
    sa, ca = np.sin(2 * alpha), np.cos(2 * alpha)
    sb, cb = np.sin(2 * beta), np.cos(2 * beta)
    r = np.zeros(np.shape(lam) + (4, 4))
    r[..., 0, 0] = 1.0
    r[..., 0, 1], r[..., 0, 3] = w * sb, lam + w * cb
    r[..., 1, 0], r[..., 3, 0] = w * sa, lam + w * ca
    r[..., 1, 1], r[..., 1, 3] = w * sa * sb, w * sa * cb
    r[..., 3, 1], r[..., 3, 3] = w * ca * sb, lam + w * ca * cb
    return r


def make_mixture_state(p):
    """rho = lam |00><00| + (1 - lam) |psi phi><psi phi|, rebuilt from its R."""
    return reconstruct_state(_mixture_r(p.lam, p.alpha, p.beta))


def mixture_bloch_a(p):
    """Bloch vector of the A marginal, ((1-lam) sin 2a, 0, lam + (1-lam) cos 2a).

    Column 0 of the closed-form R (``_mixture_r``).
    """
    return _mixture_r(p.lam, p.alpha, p.beta)[1:, 0]


def mixture_ensemble(p, m):
    """Both ensemble members: ``post_measurement_ensemble`` on the closed-form R.

    No state is built.  Both members satisfy y1 sin(alpha) + (y3 - 1)
    cos(alpha) = 0 (the line L).
    """
    return post_measurement_ensemble(_mixture_r(p.lam, p.alpha, p.beta), m)


def sample_mixture_params(count, seed):
    """Uniform (lam, alpha, beta) draws, one spawned RNG stream per sample."""
    children = np.random.SeedSequence(seed).spawn(count)
    out = []
    for child in children:
        rng = np.random.default_rng(child)
        out.append(
            MixtureParams(
                lam=rng.uniform(0.0, 1.0),
                alpha=rng.uniform(0.0, np.pi / 2),
                beta=rng.uniform(0.0, np.pi / 2),
            )
        )
    return out


def test_equi_entropy_conjecture(samples, seed, grid=DEFAULT_GRID, refine_tol=1e-9):
    """Monte-Carlo scan of the |OE| = |OF| conjecture over the mixture family.

    Draws ``samples`` parameter sets, runs the unconstrained oracle on
    each and records the gap ||y+| - |y-|| at the optimum.  Not a proof in
    either direction: violations are recorded in the returned summary, not
    raised.  The refine tolerance is tighter than the oracle default
    because the gap is first-order in the measurement angle while the
    entropy value is only second-order.

    The oracle is the correlation core's minimum (``discord._minimum``),
    on the whole stack of samples and without I or S(rho_A), which the
    survey does not report: the family's R ignores the measured qubit's y
    axis, so its exact minimum lies on the x-z great circle (see
    ``discord._circle_minimum``).  It is independent of the equi-entropy
    constraint under test.  ``grid`` is read for its polar count only: the
    scan visits the 2 (polar - 1) grid nodes that lie on the circle.  The
    gap comes from the oracle's outcome map (``_kernels._outcomes``) at the
    optimum: an outcome with p <= P_FLOOR has no Bloch vector, so its
    sample's gap is 0 (the ensemble is one point).  No state is built, and
    the whole survey runs on the calling thread.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples!r}")
    drawn = sample_mixture_params(samples, seed)
    params = np.array([(p.lam, p.alpha, p.beta) for p in drawn]).T
    r = _mixture_circle_r(*params)
    values, ns, _ = _minimum(r, _density_matrix(r), "auto", grid, refine_tol)
    prob, norm = _outcomes(r, ((1, ns[:, :1]), (3, ns[:, 2:])))
    gaps = np.where((prob > P_FLOOR).all(axis=0), np.abs(norm[0] - norm[1]), 0.0)[:, 0]
    results = tuple(
        GapSample(
            params=p,
            optimal_measurement=ProjectiveMeasurement(n),
            gap=gap,
            min_entropy=value,
        )
        for p, n, gap, value in zip(drawn, ns, gaps.tolist(), values.tolist())
    )
    return ConjectureRun(
        samples=results,
        max_gap=float(gaps.max()),
        fraction_tiny=float(np.mean(gaps <= GAP_TOL)),
    )


def _cubic_form(r):
    """Coefficients of G(sin xi, cos xi) = 4 (p-^2 |w+|^2 - p+^2 |w-|^2), per state.

    ``r`` is an (N, 4, 4) stack; the result is (N, 4), entry j the
    coefficient of sin^(3-j) xi cos^j xi.  On n = (sin xi, 0, cos xi), with
    l = b.n and m = T n, G = (a.m)(1 + l^2) - l (|a|^2 + |m|^2), made a cubic
    form by |n|^2 = 1.  G = 4 p+^2 p-^2 (|y+|^2 - |y-|^2), so where both
    p+- > 0 its roots are exactly the equi-norm measurements.
    """

    def times(linear, quadratic):  # (x s + y c)(A s^2 + B s c + C c^2)
        (x, y), (qa, qb, qc) = linear, quadratic
        return np.stack((x * qa, x * qb + y * qa, x * qc + y * qb, y * qc), axis=-1)

    b1, b3 = r[:, 0, 1], r[:, 0, 3]
    vectors = r[:, 1:, [0, 1, 3]]  # a, T e_x and T e_z as columns
    (aa, ax, az), (_, xx, xz), (_, _, zz) = np.einsum("nki,nkj->ijn", vectors, vectors)
    # a.m = ax s + az c, while 1 + l^2 and |a|^2 + |m|^2 are quadratic forms
    one_plus_l_sq = (1.0 + b1 * b1, 2.0 * b1 * b3, 1.0 + b3 * b3)
    return times((ax, az), one_plus_l_sq) - times((b1, b3), (aa + xx, 2.0 * xz, aa + zz))


def _form_at(g, xi):
    """Cubic forms ``g`` (N, 4) at angles xi, (m,) shared or (N, m) per state."""
    s, c = np.sin(xi), np.cos(xi)
    return sum(g[:, j, np.newaxis] * s ** (3 - j) * c**j for j in range(4))


def _constrained_optimum(r):
    """Least average entropy over the equi-norm measurements |y+| = |y-|, per state.

    ``r`` is an (N, 4, 4) stack of the family's R (``_mixture_r``), measured
    along n(xi) = (sin xi, 0, cos xi).  The equi-norm angles are the real
    roots of the cubic form G (``_cubic_form``), at most three in [0, pi).
    Bob's x-z axes are first turned by the angle of {0, pi/4, pi/2, 3 pi/4}
    where |G| is largest, which keeps every root off the chart's point at
    infinity; one stacked ``eigvals`` of the companion matrices in cot xi'
    then gives all states' roots.  The real part of a root is kept where the
    turned form is at most 1e-9 times its leading coefficient: a double root
    that round-off split off the real axis passes, a complex pair does not.
    Each kept root is scored by ``_kernels._avg_entropy``, the circle scan's
    own evaluator, h(|y+-|) there, and the least is taken.

    Returns ``(values, xis)``, arrays of N with xi in [0, pi).  A state
    whose coefficients are all at most 1e-13 has every xi equi-norm: the
    constraint is vacuous, and its value and angle are NaN.
    """
    g = _cubic_form(r)
    values, xis = np.full((2, len(r)), np.nan)
    rows = np.flatnonzero(np.abs(g).max(axis=1) > 1e-13)
    r = r[rows]
    turn = _TURNS[np.abs(_form_at(g[rows], _TURNS)).argmax(axis=1)]
    c, s = np.cos(turn)[:, np.newaxis], np.sin(turn)[:, np.newaxis]
    turned = r.copy()
    turned[..., 1], turned[..., 3] = r[..., 1] * c - r[..., 3] * s, r[..., 1] * s + r[..., 3] * c
    g = _cubic_form(turned)  # its leading coefficient is G at xi = turn
    companion = np.zeros((len(r), 3, 3))
    companion[:, 0] = -g[:, 2::-1] / g[:, 3:]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    turned_xi = np.arctan2(1.0, np.linalg.eigvals(companion).real)  # from cot xi'
    kept = np.abs(_form_at(g, turned_xi)) <= 1e-9 * np.abs(g[:, 3:])
    xi = np.mod(turn[:, np.newaxis] + turned_xi, np.pi)
    h = np.where(kept, _avg_entropy(r, ((1, np.sin(xi)), (3, np.cos(xi)))), np.inf)
    best = (np.arange(len(r)), h.argmin(axis=1))
    values[rows], xis[rows] = h[best], xi[best]
    return values, xis


class _MixtureStack(NamedTuple):
    """Mixture states as arrays, one entry per state: parameters, closed-form
    R, the core's exact minimum and direction, I and S(rho_A)."""

    lam: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    r: np.ndarray
    oracle_value: np.ndarray
    oracle_n: np.ndarray
    info: np.ndarray
    s_a: np.ndarray


def _mixture_circle_r(lam, alpha, beta):
    """``_mixture_r``, checked to ignore the measured qubit's y axis.

    Raises RuntimeError if column 2 of some R is not zero within 1e-12:
    the family's constrained maximiser measures on the x-z circle only.
    """
    r = _mixture_r(lam, alpha, beta)
    y_column = np.abs(r[..., 2]).max()
    if y_column > CIRCLE_TOL:
        raise RuntimeError(
            f"mixture state has |R[:, 2]| = {y_column:.3g}; the x-z circle does not apply"
        )
    return r


def _mixture_stack(lam, alpha, beta, grid, refine_tol=1e-6):
    """One stacked pass over the mixture states of the parameter arrays.

    R comes in closed form (``_mixture_circle_r``) and goes to the
    correlation core in one call, which gives I, S(rho_A) and the exact
    minimum: X rows by their closed forms, the others by the x-z circle in
    chunks.  No state is built.
    """
    r = _mixture_circle_r(lam, alpha, beta)
    info, s_a, values, ns, _ = _core(r, "auto", grid, refine_tol)
    return _MixtureStack(lam, alpha, beta, r, values, ns, info, s_a)


def _conjecture_reports(stack):
    """Correlation reports of a ``_MixtureStack``'s states, assuming the conjecture.

    The constrained maximiser runs on the whole stack and gives each state's
    least equi-norm average entropy h(|y+-|); C = S(rho^A) less that.
    Where the constraint is vacuous (every measurement equi-norm, as on
    product states) the constrained optimum is the circle's minimum, so the
    stack's oracle value and direction are taken, exact by definition.  The
    oracle values are also the guard: a disagreement beyond 1e-4 bits raises
    :class:`ConjectureViolationError` with the counterexample attached.
    """
    values, xis = _constrained_optimum(stack.r)
    flat = np.isnan(values)
    values = np.where(flat, stack.oracle_value, values)
    off = np.flatnonzero(np.abs(values - stack.oracle_value) > 1e-4)
    if len(off):
        k = off[0]
        p = MixtureParams(lam=stack.lam[k], alpha=stack.alpha[k], beta=stack.beta[k])
        raise ConjectureViolationError(
            f"constrained optimum {values[k]:.9g} vs oracle {stack.oracle_value[k]:.9g} "
            f"at lam={p.lam:.9g} alpha={p.alpha:.9g} beta={p.beta:.9g}",
            params=p,
            constrained=float(values[k]),
            unconstrained=float(stack.oracle_value[k]),
            measurement=ProjectiveMeasurement(stack.oracle_n[k]),
        )
    n = np.stack((np.sin(xis), np.zeros_like(xis), np.cos(xis)), axis=-1)
    n = np.where(flat[:, np.newaxis], stack.oracle_n, n)
    return _assemble(stack.r, stack.info, stack.s_a, values, n, [BRANCH_EQUI_ENTROPY] * len(n))


def mixture_correlations_via_conjecture(p, grid=DEFAULT_GRID):
    """Correlation report for the mixture family assuming the conjecture.

    Maximizes |y+| under |y+| = |y-|, in closed form: the equi-norm
    measurements are the real roots of a cubic (``_constrained_optimum``),
    and C = S(rho^A) - h(|y+|*).  The correlation core's exact minimum,
    which does not assume the conjecture, is computed alongside as a guard:
    disagreement beyond 1e-4 bits raises :class:`ConjectureViolationError`
    with the counterexample attached.  ``grid`` is read for its polar
    count only.  This is the one-state call of the sweep's stacked pass
    (``_mixture_stack`` and ``_conjecture_reports``).
    """
    params = (np.array([v], dtype=np.float64) for v in (p.lam, p.alpha, p.beta))
    return _conjecture_reports(_mixture_stack(*params, grid))[0]


def sweep_mixture(lam, grid_points, oracle_grid=DEFAULT_GRID):
    """Correlations on a (alpha, beta) grid at fixed mixing weight.

    Returns rows (alpha, beta, I, C, Q) in row-major alpha-then-beta
    order, suitable for surface plots.  alpha runs over [0, pi/2]; beta
    runs over the full [0, pi] so reflection symmetry about beta = pi/2
    is visible in the surface.  Cells with beta <= pi/2 go through the
    constrained maximiser, the closed-form roots of a cubic
    (``_constrained_optimum``); the mirror half uses the correlation core's
    exact minimum directly, which does not assume the conjecture, so the
    two halves agreeing is a cross-check, not a construction.
    ``oracle_grid`` is read for its polar count only.

    All cells make one stacked pass (``_mixture_stack``) on the calling
    thread: closed-form R and one correlation-core call, which gives I,
    S(rho_A), the mirror cells' minimum and the guard of the others.  The
    constrained cells then go to ``_conjecture_reports`` as one stack, whose
    maximiser is one stacked ``eigvals`` call with no per-cell loop.  Raises
    ValueError if ``lam`` lies outside [0, 1] or ``grid_points`` is below 2.
    """
    MixtureParams(lam=lam, alpha=0.0, beta=0.0)  # the range check on lam
    if grid_points < 2:
        raise ValueError(f"need at least 2 grid points per axis, got {grid_points!r}")
    alpha, beta = (
        axis.ravel()
        for axis in np.meshgrid(
            np.linspace(0.0, np.pi / 2, grid_points),
            np.linspace(0.0, np.pi, grid_points),
            indexing="ij",
        )
    )
    constrained = beta <= np.pi / 2 + 1e-12
    stack = _mixture_stack(
        np.full(alpha.shape, lam, dtype=np.float64),
        alpha,
        np.where(constrained, np.minimum(beta, np.pi / 2), beta),
        oracle_grid,
    )
    reports = _conjecture_reports(_MixtureStack(*(field[constrained] for field in stack)))
    columns = np.stack((stack.info, *_split(stack.info, stack.s_a, stack.oracle_value)), axis=-1)
    columns[constrained] = [(rep.mutual_info, rep.classical, rep.discord) for rep in reports]
    return [(a, b, *row) for a, b, row in zip(alpha.tolist(), beta.tolist(), columns.tolist())]


class _TemplateDraws(NamedTuple):
    """Free template entries as arrays, one entry per draw; t11 and t33 are
    derived by GeneralRParams' own formulas."""

    r1: np.ndarray
    r3: np.ndarray
    s1: np.ndarray
    s3: np.ndarray
    t13: np.ndarray
    t22: np.ndarray
    t31: np.ndarray
    t11 = GeneralRParams.t11
    t33 = GeneralRParams.t33


def _template_entries(p):
    """The template's R from p's fields: (4, 4), or (N, 4, 4) for ``_TemplateDraws``."""
    one, zero = np.ones_like(p.s1), np.zeros_like(p.s1)
    rows = (
        (one, p.s1, zero, p.s3),
        (p.r1, p.t11, zero, p.t13),
        (zero, zero, p.t22, zero),
        (p.r3, p.t31, zero, p.t33),
    )
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def general_r_matrix(p):
    """The off-axis template R as a CorrelationMatrix."""
    return CorrelationMatrix(_template_entries(p))


def general_r_geometry(p):
    """Closed-form (l1, l2, l3, Y3) of the template's steering ellipsoid."""
    d = 1.0 - p.s1**2 - p.s3**2
    num = p.r1**2 * (1.0 - p.s1**2) - 2.0 * p.r1 * p.s3 * p.t13 + (
        p.s1**2 + p.s3**2
    ) * p.t13**2
    l1_sq = num / (p.s1**2 * d)
    l2_sq = p.t22**2 / d
    l3_sq = num * (p.r3 * p.s1 - p.t31) ** 2 / (p.s1**2 * p.t13**2 * d**2)
    y3 = (
        p.r3 * p.s1 * p.t13
        - p.r1 * p.s3 * (p.r3 * p.s1 - p.t31)
        - p.t13 * p.t31 * (p.s1**2 + p.s3**2)
    ) / (p.s1 * p.t13 * d)
    if min(l1_sq, l2_sq, l3_sq) < 0.0 or d <= 0.0:
        raise ValueError("template parameters do not describe an ellipsoid")
    return float(np.sqrt(l1_sq)), float(np.sqrt(l2_sq)), float(np.sqrt(l3_sq)), float(y3)


def make_general_r_state(p):
    """Density matrix of the template; raises on nonpositive parameter sets."""
    return reconstruct_state(general_r_matrix(p))


def sample_general_r_params(count, seed):
    """Rejection-sample valid template states, free entries uniform in [-1, 1].

    Rejection criteria: near-zero s1 or t13, a singular R, or a
    reconstructed matrix that fails positivity.  One RNG stream per sample
    keeps runs reproducible under any parallel schedule; each sample is
    the first valid draw of its stream (``_first_valid_template``).
    """
    children = np.random.SeedSequence(seed).spawn(count)
    return [_first_valid_template(np.random.default_rng(child)) for child in children]


def _parallel_map(fn, items, threads):
    """``[fn(item) for item in items]``, over ``threads`` worker threads when
    above 1; the CLI's map over general-R samples, whole samples being the
    units of work."""
    if threads <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _first_valid_template(rng):
    """The first valid template draw of ``rng``, in draw order.

    Draws come in blocks of ``_DRAW_BLOCK`` rows of seven, the numbers that
    one draw of seven at a time would give.  Rows with near-zero s1 or t13
    are dropped, and the first of the rest whose template R passes both
    stacked checks is taken: positivity by one ``eigvalsh`` of the density
    matrices, bitwise the single check, and |det R| > 1e-10.  No state is
    built: R_00 = 1 fixes the trace and the template is Hermitian by
    construction.
    """
    for start in range(0, _MAX_TRIES, _DRAW_BLOCK):
        draws = rng.uniform(-1.0, 1.0, size=(min(_DRAW_BLOCK, _MAX_TRIES - start), 7))
        draws = draws[(np.abs(draws[:, 2]) >= 1e-3) & (np.abs(draws[:, 4]) >= 1e-3)]
        r = _template_entries(_TemplateDraws(*draws.T))
        positive = ~(_lowest_eigenvalue(_density_matrix(r)) < EIGENVALUE_FLOOR)
        valid = np.flatnonzero(positive & (np.abs(np.linalg.det(r)) > 1e-10))
        if len(valid):
            return GeneralRParams(*draws[valid[0]])
    raise RuntimeError(f"no valid template state found in {_MAX_TRIES} draws")


def class_one_min_entropy(p):
    """Closed-form Class I value: the better of the two horizontal chords.

    Through A = (r1, 0, r3) the chord along y1 reaches the surface at
    (+-w, 0, r3) and the chord along y2 at (r1, +-w2, r3); both are
    equi-entropy pairs, so the value is h of the larger endpoint norm.
    """
    l1, l2, l3, y3 = general_r_geometry(p)
    drop = 1.0 - (p.r3 - y3) ** 2 / l3**2
    if drop < -1e-12:
        raise ValueError("point A lies outside the ellipsoid's y3 range")
    drop = max(drop, 0.0)
    w_sq = l1**2 * drop
    best = w_sq
    rest = drop - p.r1**2 / l1**2
    if rest >= 0.0:
        best = max(best, p.r1**2 + l2**2 * rest)
    return binary_entropy(np.sqrt(best + p.r3**2))


def _apex_entropy(p):
    # quasi-eigen value at the projected point (0, 0, r3)
    l1, l2, l3, y3 = general_r_geometry(p)
    g3, h3 = y3 + l3, y3 - l3
    weight = np.clip((p.r3 - h3) / (g3 - h3), 0.0, 1.0)
    return float(
        weight * binary_entropy(abs(g3)) + (1.0 - weight) * binary_entropy(abs(h3))
    )


def classify_optimal_line(p, grid=DEFAULT_GRID, chord_tol=CHORD_TOL, gap_tol=GAP_TOL):
    """Run the oracle on a template state and classify the optimal chord.

    Class I: the chord through the two optimal ensemble points is
    horizontal (unit-direction |y3| <= chord_tol) and equi-entropy
    (gap <= gap_tol).  Everything else is Class II, for which the apex
    value at the projection (0, 0, r3) is reported alongside.
    """
    r = general_r_matrix(p)
    value, measurement = brute_force_min_entropy(r, grid=grid)
    members = post_measurement_ensemble(r, measurement)
    y_plus, y_minus = members[0].bloch, members[1].bloch
    chord = y_plus - y_minus
    length = np.linalg.norm(chord)
    chord_y3 = abs(chord[2]) / length if length > 1e-12 else 0.0
    gap = abs(np.linalg.norm(y_plus) - np.linalg.norm(y_minus))
    label = "I" if (chord_y3 <= chord_tol and gap <= gap_tol) else "II"
    return ClassifiedState(
        params=p,
        label=label,
        gap=float(gap),
        chord_y3=float(chord_y3),
        s_min_a=float(value),
        s_min_atilde=_apex_entropy(p),
        optimal_measurement=measurement,
    )


def min_chord_entropy(ellipsoid, point, n_polar=61, n_azimuth=120, refine_tol=1e-7):
    """Minimal average entropy over chords of an ellipsoid through a point.

    Pure geometry, no measurement involved: each unit direction d gives
    the chord point + s d with surface intersections s- < 0 < s+, weights
    p+ = -s_- / (s_+ - s_-).  Used to probe the sliding invariance of
    Class I states at points that are not Bloch vectors of any marginal.
    Refines the best grid direction to ``refine_tol`` > 0 by the Newton
    descent on the sphere of the 2-D oracle (``_kernels._sphere_descent``),
    5-8 calls of 9 directions on Ginibre states' ellipsoids, even one with
    semi-axes 0.578, 0.232 and 0.0066; 17 on the rotationally symmetric one
    of ``offaxis_reference_state``, whose minima form a flat ring.  The x-z
    circle scan keeps the step-halving coordinate descent.
    """
    if isinstance(ellipsoid, SteeringEllipsoid):
        if ellipsoid.degeneracy != "full":
            raise ValueError("chord search needs a nondegenerate ellipsoid")
        rot = ellipsoid.rotation
        metric = rot @ np.diag(1.0 / ellipsoid.semi_axes**2) @ rot.T
        center = ellipsoid.center
    else:
        center, semi_axes = ellipsoid  # (center, semi_axes) for axis-aligned
        metric = np.diag(1.0 / np.asarray(semi_axes, float) ** 2)
        center = np.asarray(center, float)
    point = np.asarray(point, float)
    delta = point - center
    c0 = delta @ metric @ delta - 1.0
    if c0 > 1e-12:
        raise ValueError("point lies outside the ellipsoid")
    no_chord = binary_entropy(np.linalg.norm(point))

    def chord_values(ds):
        # chord point + s d meets the surface where a2 s^2 + 2 b1 s + c0 = 0
        md = ds @ metric
        a2 = np.einsum("ij,ij->i", md, ds)
        b1 = md @ delta
        disc = b1 * b1 - a2 * c0
        root = np.sqrt(np.maximum(disc, 0.0))
        s_plus = (-b1 + root) / a2
        s_minus = (-b1 - root) / a2
        width = s_plus - s_minus
        out = np.full(len(ds), no_chord)
        ok = (disc > 0.0) & (width > 1e-14)
        w_plus = -s_minus[ok] / width[ok]
        y_plus = np.linalg.norm(point + s_plus[ok, None] * ds[ok], axis=1)
        y_minus = np.linalg.norm(point + s_minus[ok, None] * ds[ok], axis=1)
        out[ok] = w_plus * _entropy_of_norms(np.minimum(y_plus, 1.0)) + (
            1.0 - w_plus
        ) * _entropy_of_norms(np.minimum(y_minus, 1.0))
        return out

    _, _, ds = _cached_grid(n_polar, n_azimuth)
    vals = chord_values(ds)
    k = int(np.argmin(vals))
    step = max(np.pi / 2 / max(n_polar - 1, 1), 2.0 * np.pi / n_azimuth)
    refined, _ = _sphere_descent(chord_values, ds[k], vals[k], step, refine_tol)
    return float(refined)


def offaxis_reference_state():
    """Reference state with an off-axis A inside a rotationally symmetric
    ellipsoid: half-half superposition of |psi0>|0> and |psi1>|1> with
    |psi0> = (|0>+|1>)/sqrt(2), |psi1> = (4|0>+3|1>)/5, sent through the
    single-qubit channel A1 = |0><0| + |1><1|/sqrt(2), A2 = |0><1|/sqrt(2)
    on qubit A.  Its ellipsoid is y1^2 + y2^2 + 2 (y3 - 1/2)^2 = 1/2.
    """
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    psi1 = np.array([4.0, 3.0]) / 5.0
    vec = (np.kron(psi0, [1.0, 0.0]) + np.kron(psi1, [0.0, 1.0])) / np.sqrt(2.0)
    pure = np.outer(vec, vec.conj()).astype(np.complex128)
    a1 = np.array([[1.0, 0.0], [0.0, 1.0 / np.sqrt(2.0)]], dtype=np.complex128)
    a2 = np.array([[0.0, 1.0 / np.sqrt(2.0)], [0.0, 0.0]], dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    out = np.zeros((4, 4), dtype=np.complex128)
    for op in (np.kron(a1, eye), np.kron(a2, eye)):
        out += op @ pure @ op.conj().T
    return TwoQubitState(out)
