"""Reference computations for the benchmark's output checks.

Nothing here imports discordlab.  Every quantity is rebuilt from the
density matrix itself:

* ``avg_entropy`` applies the projectors (1 +- n.sigma)/2 to qubit B,
  traces B out and takes the entropies of the 2x2 results from their
  eigenvalues, instead of the program's Bloch-vector formula
  p h(|y|) over the Pauli coefficient matrix;
* ``min_avg_entropy`` searches a Fibonacci point set over the upper
  hemisphere (not aligned with the program's polar/azimuth grid) and
  refines the best few points by a pattern search in the tangent plane,
  instead of the program's coordinate descent in (theta, phi);
* channels act through their Pauli transfer matrices on the coefficient
  matrix R, instead of the program's Kraus operators.

Entropies are in bits.  Qubit A is the left tensor factor.
"""

import math

import numpy as np

SIGMA = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=np.complex128,
)

FIB_POINTS = 3000  # hemisphere points of the reference search
REFINE_STARTS = 3  # best separated points refined per search
START_SEPARATION = 0.25  # radians between refined starting points
REFINE_STEP = 0.06  # initial tangent step, about twice the point spacing
REFINE_TOL = 1e-9  # final tangent step


def xlog2x(x):
    x = np.asarray(x, dtype=np.float64)
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, x * np.log2(safe), 0.0)


def entropy(rho):
    """Von Neumann entropy (bits) from the eigenvalues of a density matrix."""
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    return float(-xlog2x(lam).sum())


def h(x):
    """Entropy of a qubit whose Bloch vector has length x."""
    x = min(abs(float(x)), 1.0)
    return float(-xlog2x(0.5 * (1.0 + x)) - xlog2x(0.5 * (1.0 - x)))


def trace_out_b(rho):
    return np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))


def trace_out_a(rho):
    return np.einsum("kikj->ij", rho.reshape(2, 2, 2, 2))


def swap(rho):
    """The same state with qubits A and B exchanged."""
    return rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def mutual_information(rho):
    return entropy(trace_out_b(rho)) + entropy(trace_out_a(rho)) - entropy(rho)


def classical_correlation(rho, min_entropy):
    return entropy(trace_out_b(rho)) - min_entropy


# --- states -------------------------------------------------------------

def x_state(a, b, c, d, u, v, mu=0.0, nu=0.0):
    rho = np.diag(np.array([a, b, c, d], dtype=np.complex128))
    rho[0, 3] = u * np.exp(1j * mu)
    rho[3, 0] = np.conj(rho[0, 3])
    rho[1, 2] = v * np.exp(1j * nu)
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def mixture_state(lam, alpha, beta):
    """lam |00><00| + (1 - lam) |psi phi><psi phi| (polar angles alpha, beta)."""
    pure = np.kron([math.cos(alpha), math.sin(alpha)], [math.cos(beta), math.sin(beta)])
    rho = (1.0 - lam) * np.outer(pure, pure).astype(np.complex128)
    rho[0, 0] += lam
    return rho


def coefficients(rho):
    """R[a, b] = Tr[rho (sigma_a x sigma_b)]."""
    return np.array(
        [[np.trace(rho @ np.kron(SIGMA[i], SIGMA[j])).real for j in range(4)] for i in range(4)]
    )


def from_coefficients(r):
    return 0.25 * sum(
        r[i, j] * np.kron(SIGMA[i], SIGMA[j]) for i in range(4) for j in range(4)
    )


def bell_diagonal_state(t1, t2, t3):
    return from_coefficients(np.diag([1.0, t1, t2, t3]))


def transfer_matrix(channel, strength):
    """Pauli transfer matrix of a single-qubit channel at the CLI's strength.

    phase_damping: strength gamma scales the x and y Bloch components.
    amplitude_damping: strength p, z -> p + (1 - p) z, x, y -> sqrt(1 - p).
    pauli(px,py,pz): strength scales the flip probabilities; a flip about
    one axis reverses the other two Bloch components.
    """
    if channel == "phase_damping":
        return np.diag([1.0, strength, strength, 1.0])
    if channel == "amplitude_damping":
        s = math.sqrt(1.0 - strength)
        return np.array(
            [[1.0, 0, 0, 0], [0, s, 0, 0], [0, 0, s, 0], [strength, 0, 0, 1.0 - strength]]
        )
    if channel.startswith("pauli(") and channel.endswith(")"):
        px, py, pz = (strength * float(x) for x in channel[6:-1].split(","))
        return np.diag([1.0, 1 - 2 * (py + pz), 1 - 2 * (px + pz), 1 - 2 * (px + py)])
    raise ValueError(f"no transfer matrix for channel {channel!r}")


def apply_channel_both(rho, channel, strength):
    """The channel applied to both qubits: R -> T R T^T."""
    t = transfer_matrix(channel, strength)
    return from_coefficients(t @ coefficients(rho) @ t.T)


# --- average post-measurement entropy -------------------------------------

def _branches(rho, ns):
    """Unnormalised states of A after the outcomes +- of measuring B along ns.

    Returns two (N, 2, 2) arrays Tr_B[(1 x P) rho (1 x P)] with
    P = (1 +- n.sigma)/2, computed as Tr_B[(1 x P) rho] since P^2 = P
    and the partial trace over B is cyclic in operators on B.
    """
    ns = np.atleast_2d(np.asarray(ns, dtype=np.float64))
    n_sigma = np.einsum("nk,kij->nij", ns, SIGMA[1:])
    blocks = rho.reshape(2, 2, 2, 2)
    return [
        np.einsum("nbc,icjb->nij", 0.5 * (SIGMA[0] + sign * n_sigma), blocks)
        for sign in (1.0, -1.0)
    ]


def avg_entropy(rho, ns):
    """sum_pm p_pm S(rho_A|pm) for each direction row of ``ns`` (bits)."""
    total = 0.0
    for branch in _branches(rho, ns):
        mu = np.clip(np.linalg.eigvalsh(branch), 0.0, None)
        # p S(rho/p) = p log2 p - sum mu log2 mu, with mu the eigenvalues of rho
        total = total + xlog2x(mu.sum(axis=1)) - xlog2x(mu).sum(axis=1)
    return total


def outcome_norms(rho, n):
    """(p+, p-, |y+|, |y-|) for one direction; |y| is NaN where p = 0."""
    out = []
    for branch in _branches(rho, n):
        mu = np.clip(np.linalg.eigvalsh(branch[0]), 0.0, None)
        p = mu.sum()
        out.append((p, (mu[1] - mu[0]) / p if p > 0.0 else math.nan))
    return out[0][0], out[1][0], out[0][1], out[1][1]


def fibonacci_hemisphere(count):
    """Quasi-uniform points with n3 > 0 (golden-angle spiral)."""
    k = np.arange(count) + 0.5
    z = k / count
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    s = np.sqrt(1.0 - z * z)
    return np.column_stack((s * np.cos(phi), s * np.sin(phi), z))


_HEMISPHERE = fibonacci_hemisphere(FIB_POINTS)
_COMPASS = np.array(
    [(math.cos(a), math.sin(a)) for a in np.arange(8) * (math.pi / 4.0)]
)


def _cross(a, b):
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def _tangent_basis(n):
    helper = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = _cross(n, helper)
    e1 /= np.linalg.norm(e1)
    return e1, _cross(n, e1)


def _pattern_search(f, n, value):
    step = REFINE_STEP
    while step >= REFINE_TOL:
        e1, e2 = _tangent_basis(n)
        cand = n + step * (np.outer(_COMPASS[:, 0], e1) + np.outer(_COMPASS[:, 1], e2))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        vals = f(cand)
        k = int(np.argmin(vals))
        if vals[k] < value:
            n, value = cand[k], float(vals[k])
        else:
            step *= 0.5
    return value, n


def _separated_starts(points, vals, count):
    starts = []
    for k in np.argsort(vals):
        n = points[k]
        if all(abs(n @ m) < math.cos(START_SEPARATION) for m in starts):
            starts.append(n)
            if len(starts) == count:
                break
    return starts


def min_avg_entropy(rho):
    """Minimum of ``avg_entropy`` over all measurement directions on B.

    Returns ``(value, direction)``.  Antipodal directions give the same
    measurement, so the upper hemisphere suffices.
    """
    f = lambda ns: avg_entropy(rho, ns)  # noqa: E731
    vals = f(_HEMISPHERE)
    best = (math.inf, None)
    for n in _separated_starts(_HEMISPHERE, vals, REFINE_STARTS):
        best = min(best, _pattern_search(f, n, float(f(n)[0])), key=lambda vn: vn[0])
    return best


def min_two_chord(rho):
    """The better of the z axis and the best x-y plane direction.

    This is the two-candidate rule of Ali, Rau & Alber (PRA 81, 042105,
    2010) for X states, evaluated through ``avg_entropy`` rather than
    through its closed forms.
    """
    axis = float(avg_entropy(rho, [0.0, 0.0, 1.0])[0])
    phi = np.arange(720) * (math.pi / 720)
    ring = np.column_stack((np.cos(phi), np.sin(phi), np.zeros_like(phi)))
    vals = avg_entropy(rho, ring)
    k = int(np.argmin(vals))
    lo, hi = phi[k] - math.pi / 720, phi[k] + math.pi / 720
    for _ in range(60):  # golden-section search around the best ring node
        m1, m2 = lo + 0.382 * (hi - lo), hi - 0.382 * (hi - lo)
        v1, v2 = (
            float(avg_entropy(rho, [math.cos(m), math.sin(m), 0.0])[0]) for m in (m1, m2)
        )
        lo, hi = (lo, m2) if v1 < v2 else (m1, hi)
    mid = 0.5 * (lo + hi)
    plane = min(float(vals[k]), float(avg_entropy(rho, [math.cos(mid), math.sin(mid), 0.0])[0]))
    return min(axis, plane)
