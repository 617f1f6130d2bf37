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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    P_FLOOR,
    _cached_grid,
    _directions,
    _entropy_of_norms,
    _refine_python,
    min_entropy_circle_scan,
)
from .discord import (
    BRANCH_EQUI_ENTROPY,
    DEFAULT_GRID,
    CorrelationReport,
    EnsembleMember,
    ProjectiveMeasurement,
    _onto_unit_ball,
    brute_force_min_entropy,
    post_measurement_ensemble,
)
from .qstate import (
    CorrelationMatrix,
    TwoQubitState,
    _check_positive,
    _density_matrix,
    binary_entropy,
    mutual_information,
    partial_trace,
    pauli_expansion,
    reconstruct_state,
    von_neumann_entropy,
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
_XI_GRID = 4096  # scan resolution for the constrained maximizer


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


def _mixture_matrix(lam, alpha, beta):
    psi = np.array([np.cos(alpha), np.sin(alpha)])
    phi = np.array([np.cos(beta), np.sin(beta)])
    pure = np.kron(psi, phi).astype(np.complex128)
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0] = lam
    m += (1.0 - lam) * np.outer(pure, pure.conj())
    return m


def make_mixture_state(p):
    """rho = lam |00><00| + (1 - lam) |psi phi><psi phi|."""
    return TwoQubitState(_mixture_matrix(p.lam, p.alpha, p.beta))


def mixture_bloch_a(p):
    """Bloch vector of the A marginal, ((1-lam) sin 2a, 0, lam + (1-lam) cos 2a)."""
    w = 1.0 - p.lam
    return np.array([w * np.sin(2 * p.alpha), 0.0, p.lam + w * np.cos(2 * p.alpha)])


def _mixture_outcomes(p, x1, x3):
    """Closed-form p_pm and y_pm for measurement x-vector (1/2, x1, x2, x3).

    The x2 component never enters: the y2 row and column of R vanish.
    Vectorized over x1, x3 arrays.  Returns (p+, p-, y1+, y1-, y3+, y3-);
    entries where an outcome probability is 0 hold NaN Bloch components.
    """
    w = 1.0 - p.lam
    sa, ca = np.sin(2 * p.alpha), np.cos(2 * p.alpha)
    sb, cb = np.sin(2 * p.beta), np.cos(2 * p.beta)
    p_plus = 0.5 + x1 * w * sb + x3 * (p.lam + w * cb)
    p_minus = 1.0 - p_plus
    num1 = 0.5 * w * sa
    bend1 = x1 * w * sa * sb + x3 * w * sa * cb
    num3 = 0.5 * (p.lam + w * ca)
    bend3 = x1 * w * ca * sb + x3 * (p.lam + w * ca * cb)
    with np.errstate(divide="ignore", invalid="ignore"):
        y1_plus = np.where(p_plus > P_FLOOR, (num1 + bend1) / p_plus, np.nan)
        y1_minus = np.where(p_minus > P_FLOOR, (num1 - bend1) / p_minus, np.nan)
        y3_plus = np.where(p_plus > P_FLOOR, (num3 + bend3) / p_plus, np.nan)
        y3_minus = np.where(p_minus > P_FLOOR, (num3 - bend3) / p_minus, np.nan)
    return p_plus, p_minus, y1_plus, y1_minus, y3_plus, y3_minus


def mixture_ensemble(p, m):
    """Both ensemble members from the family's closed forms.

    Matches ``post_measurement_ensemble`` on the constructed state; both
    members satisfy y1 sin(alpha) + (y3 - 1) cos(alpha) = 0 (the line L).
    """
    n = m.direction
    pp, pm, y1p, y1m, y3p, y3m = _mixture_outcomes(p, 0.5 * n[0], 0.5 * n[2])
    members = []
    for prob, y1, y3 in ((pp, y1p, y3p), (pm, y1m, y3m)):
        prob = float(prob)
        if prob <= P_FLOOR:
            members.append(EnsembleMember(0.0, np.zeros(3), zero_probability=True))
            continue
        y = np.array([float(y1), 0.0, float(y3)])
        members.append(EnsembleMember(min(prob, 1.0), _onto_unit_ball(y, prob)))
    return tuple(members)


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


def _parallel_map(fn, items, threads):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _circle_oracle(r, n_polar, refine_tol=1e-6):
    """Exact ``(value, ProjectiveMeasurement)`` minimum for a mixture-family R.

    Column 2 of a mixture state's R (Bob's y axis) vanishes, so p_pm and
    T n do not depend on n2.  A direction with n2 != 0 therefore yields
    the same ensemble as an unsharp measurement along (n1, 0, n3)/|.|,
    which by concavity of h cannot beat the sharp one: the unconstrained
    minimum over the sphere lies on the x-z great circle, whatever the
    equi-entropy conjecture says.  The circle scan visits the grid's nodes
    on that circle, so only ``n_polar`` sets its resolution.  Raises
    RuntimeError if the column is not zero within 1e-12.
    """
    y_column = np.abs(r.entries[:, 2]).max()
    if y_column > 1e-12:
        raise RuntimeError(
            f"mixture state has |R[:, 2]| = {y_column:.3g}; the x-z circle "
            "oracle does not apply"
        )
    value, xi = min_entropy_circle_scan(r.entries, n_polar, refine_tol)
    return value, ProjectiveMeasurement(np.array([np.sin(xi), 0.0, np.cos(xi)]))


def _gap_sample(params, grid, refine_tol):
    """Circle-oracle optimum of one mixture state and its equi-entropy gap."""
    r = pauli_expansion(make_mixture_state(params))
    value, measurement = _circle_oracle(r, grid[0], refine_tol)
    members = post_measurement_ensemble(r, measurement)
    if any(member.zero_probability for member in members):
        gap = 0.0  # single-outcome edge: the ensemble is one point
    else:
        gap = abs(np.linalg.norm(members[0].bloch) - np.linalg.norm(members[1].bloch))
    return GapSample(
        params=params, optimal_measurement=measurement, gap=float(gap), min_entropy=value
    )


def test_equi_entropy_conjecture(samples, seed, grid=DEFAULT_GRID, threads=1, refine_tol=1e-9):
    """Monte-Carlo scan of the |OE| = |OF| conjecture over the mixture family.

    Draws ``samples`` parameter sets, runs the unconstrained oracle on
    each and records the gap ||y+| - |y-|| at the optimum.  Not a proof in
    either direction: violations are recorded in the returned summary, not
    raised.  The refine tolerance is tighter than the oracle default
    because the gap is first-order in the measurement angle while the
    entropy value is only second-order.

    The oracle is the exact one-dimensional scan of the x-z great circle
    (``min_entropy_circle_scan``): the family's R ignores the measured
    qubit's y axis, so by concavity of h no direction off that circle does
    better (see ``_circle_oracle``).  It is independent of the equi-entropy
    constraint under test.  ``grid`` is read for its polar count only: the
    scan visits the 2 (polar - 1) grid nodes that lie on the circle.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples!r}")
    drawn = sample_mixture_params(samples, seed)
    results = _parallel_map(lambda p: _gap_sample(p, grid, refine_tol), drawn, threads)
    gaps = np.array([s.gap for s in results])
    return ConjectureRun(
        samples=tuple(results),
        max_gap=float(gaps.max()),
        fraction_tiny=float(np.mean(gaps <= GAP_TOL)),
    )


def _constrained_optimum(p):
    """Maximal |y+| subject to |y+| = |y-| over in-plane measurement angles.

    The measurement direction is n(xi) = (sin xi, 0, cos xi); antipodal
    angles swap the outcomes, so xi runs over [0, pi].  Returns
    (best |y+|, best xi).  Roots of |y+|^2 - |y-|^2 are located by a
    dense scan plus bisection; a sign change always exists because the
    difference is odd under xi -> xi + pi.
    """
    xi = np.linspace(0.0, np.pi, _XI_GRID + 1)

    def arrays(angles):
        x1 = 0.5 * np.sin(angles)
        x3 = 0.5 * np.cos(angles)
        pp, pm, y1p, y1m, y3p, y3m = _mixture_outcomes(p, x1, x3)
        rp = y1p * y1p + y3p * y3p
        rm = y1m * y1m + y3m * y3m
        return pp, pm, rp, rm, rp - rm

    pp, pm, rp, rm, delta = arrays(xi)
    valid = (pp > 1e-13) & (pm > 1e-13)
    # points where delta sits at rounding noise are already roots; counting
    # them here also keeps noise wiggles out of the bisection brackets
    noise = 1e-13
    flat = valid & (np.abs(delta) <= noise)
    sign_change = (
        valid[:-1]
        & valid[1:]
        & (delta[:-1] * delta[1:] < 0.0)
        & ((np.abs(delta[:-1]) > noise) | (np.abs(delta[1:]) > noise))
    )
    # bisect all brackets at once until a step moves none; an exact root sets lo = hi = mid
    i = np.flatnonzero(sign_change)
    lo, hi, lo_positive = xi[i], xi[i + 1], delta[i] > 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        d_mid = arrays(mid)[4]
        same_sign = (d_mid > 0.0) == lo_positive
        new_lo = np.where((d_mid == 0.0) | same_sign, mid, lo)
        new_hi = np.where((d_mid == 0.0) | ~same_sign, mid, hi)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    mid = 0.5 * (lo + hi)
    # first largest |y+|^2 over the flat roots, then the brackets in order
    r_mid = np.nan_to_num(arrays(mid)[2], nan=-1.0)
    r2 = np.concatenate((np.where(flat, rp, -1.0), r_mid))
    k = int(np.argmax(r2))
    if r2[k] < 0.0:
        raise RuntimeError("no equi-norm measurement found; should be unreachable")
    return float(np.sqrt(r2[k])), float(np.concatenate((xi, mid))[k])


def mixture_correlations_via_conjecture(p, grid=DEFAULT_GRID):
    """Correlation report for the mixture family assuming the conjecture.

    Maximizes |y+| under |y+| = |y-| (a one-dimensional search), then
    C = S(rho^A) - h(|y+|*).  The exact circle oracle (``_circle_oracle``),
    which does not assume the conjecture, runs alongside as a guard:
    disagreement beyond 1e-4 bits raises :class:`ConjectureViolationError`
    with the counterexample attached.  ``grid`` is read for its polar
    count only.
    """
    radius, xi = _constrained_optimum(p)
    value = binary_entropy(radius)
    measurement = ProjectiveMeasurement(np.array([np.sin(xi), 0.0, np.cos(xi)]))

    state = make_mixture_state(p)
    oracle_value, oracle_m = _circle_oracle(pauli_expansion(state), grid[0])
    if abs(value - oracle_value) > 1e-4:
        raise ConjectureViolationError(
            f"constrained optimum {value:.9g} vs oracle {oracle_value:.9g} "
            f"at lam={p.lam:.9g} alpha={p.alpha:.9g} beta={p.beta:.9g}",
            params=p,
            constrained=value,
            unconstrained=oracle_value,
            measurement=oracle_m,
        )

    info = mutual_information(state)
    s_a = binary_entropy(np.linalg.norm(mixture_bloch_a(p)))
    classical = s_a - value
    return CorrelationReport(
        mutual_info=info,
        classical=classical,
        discord=info - classical,
        min_avg_entropy=value,
        optimal_measurement=measurement,
        optimal_ensemble=mixture_ensemble(p, measurement),
        branch=BRANCH_EQUI_ENTROPY,
    )


def sweep_mixture(lam, grid_points, oracle_grid=DEFAULT_GRID, threads=1, beta_max=np.pi):
    """Correlations on a (alpha, beta) grid at fixed mixing weight.

    Returns rows (alpha, beta, I, C, Q) in row-major alpha-then-beta
    order, suitable for surface plots.  alpha runs over [0, pi/2]; beta
    runs over [0, beta_max], by default the full [0, pi] so reflection
    symmetry about beta = pi/2 is visible in the surface.  Cells with
    beta <= pi/2 go through the constrained maximizer; the mirror half
    uses the exact circle oracle directly, which does not assume the
    conjecture, so the two halves agreeing is a cross-check, not a
    construction.  ``oracle_grid`` is read for its polar count only.
    """
    alphas = np.linspace(0.0, np.pi / 2, grid_points)
    betas = np.linspace(0.0, beta_max, grid_points)
    cells = [(a, b) for a in alphas for b in betas]

    def one(cell):
        a, b = cell
        if b <= np.pi / 2 + 1e-12:
            report = mixture_correlations_via_conjecture(
                MixtureParams(lam=lam, alpha=a, beta=min(b, np.pi / 2)),
                grid=oracle_grid,
            )
            return (a, b, report.mutual_info, report.classical, report.discord)
        state = TwoQubitState(_mixture_matrix(lam, a, b))
        value, _ = _circle_oracle(pauli_expansion(state), oracle_grid[0])
        s_a = von_neumann_entropy(partial_trace(state, "A"))
        info = mutual_information(state)
        classical = s_a - value
        return (a, b, info, classical, info - classical)

    return _parallel_map(one, cells, threads)


def general_r_matrix(p):
    """The off-axis template R as a CorrelationMatrix."""
    entries = np.array(
        [
            [1.0, p.s1, 0.0, p.s3],
            [p.r1, p.t11, 0.0, p.t13],
            [0.0, 0.0, p.t22, 0.0],
            [p.r3, p.t31, 0.0, p.t33],
        ]
    )
    return CorrelationMatrix(entries)


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


def sample_general_r_params(count, seed, max_tries=100000):
    """Rejection-sample valid template states, free entries uniform in [-1, 1].

    Rejection criteria: near-zero s1 or t13, a singular R, or a
    reconstructed matrix that fails positivity.  Positivity is checked on
    the raw matrix first, so only accepted draws build a TwoQubitState.
    One RNG stream per sample keeps runs reproducible under any parallel
    schedule.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    out = []
    for child in children:
        rng = np.random.default_rng(child)
        for _ in range(max_tries):
            r1, r3, s1, s3, t13, t22, t31 = rng.uniform(-1.0, 1.0, size=7)
            if abs(s1) < 1e-3 or abs(t13) < 1e-3:
                continue
            params = GeneralRParams(r1=r1, r3=r3, s1=s1, s3=s3, t13=t13, t22=t22, t31=t31)
            rho = _density_matrix(general_r_matrix(params))
            try:
                _check_positive(rho)  # most draws fail here, before a state is built
                state = TwoQubitState(rho)
            except ValueError:
                continue
            if abs(pauli_expansion(state).det) <= 1e-10:
                continue
            out.append(params)
            break
        else:
            raise RuntimeError(f"no valid template state found in {max_tries} draws")
    return out


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
    Refines the best grid direction by ``_refine_python`` to ``refine_tol`` > 0.
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

    def value_at(angles):
        return chord_values(_directions(angles[:, 0], angles[:, 1]))

    tt, pp, ds = _cached_grid(n_polar, n_azimuth)
    vals = chord_values(ds)
    k = int(np.argmin(vals))
    step = max(np.pi / 2 / max(n_polar - 1, 1), 2.0 * np.pi / n_azimuth)
    refined, _ = _refine_python(value_at, (tt[k], pp[k]), vals[k], step, refine_tol)
    return refined


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
