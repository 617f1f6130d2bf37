"""Two-qubit density matrices, Pauli expansion and entropy utilities.

Conventions used throughout the package:

* The computational basis is ordered |00>, |01>, |10>, |11> with qubit A
  as the left tensor factor.
* Pauli labels 0..3 mean identity, sigma_x, sigma_y, sigma_z.
* Bloch vectors are plain float arrays of shape (3,).
* Entropies are in bits (logarithm base 2).
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import _entropy_of_norms

__all__ = [
    "InvalidStateError",
    "TwoQubitState",
    "XStateParams",
    "BellDiagonalParams",
    "CorrelationMatrix",
    "binary_entropy",
    "make_x_state",
    "make_bell_diagonal",
    "pauli_expansion",
    "reconstruct_state",
    "partial_trace",
    "bloch_vector",
    "von_neumann_entropy",
    "mutual_information",
    "swap_parties",
    "extract_x_params",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
POSITIVITY_SLACK = 1e-12
X_STRUCTURE_TOL = 1e-12


class InvalidStateError(ValueError):
    """A matrix or parameter set is not a valid density operator."""


SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)

# PAULI_PRODUCTS[a, b] = sigma_a (x) sigma_b
PAULI_PRODUCTS = np.array(
    [np.kron(SIGMA[a], SIGMA[b]) for a in range(4) for b in range(4)]
).reshape(4, 4, 4, 4)

_SWAP_PERM = (0, 2, 1, 3)
_OFF_X = ((0, 0, 1, 2, 1, 3, 2, 3), (1, 2, 0, 0, 3, 1, 3, 2))  # entries an X state lacks


def binary_entropy(x):
    """Entropy in bits of a qubit whose Bloch vector has norm ``x``.

    h(x) = -((1+x)/2) log2((1+x)/2) - ((1-x)/2) log2((1-x)/2), by the
    scan kernels' own formula (``_kernels._entropy_of_norms``).  Values
    outside [0, 1] are clamped, so rounding overshoot is harmless.
    """
    return float(_entropy_of_norms(min(abs(float(x)), 1.0)))


def _lowest_eigenvalue(m):
    """Lowest eigenvalue of a Hermitian matrix, or of each in a stack
    (complex128 ``eigvalsh``; a stacked call gives the single calls' bits)."""
    return np.linalg.eigvalsh(np.asarray(m, dtype=np.complex128)).min(axis=-1)


def _check_positive(m):
    """Raise InvalidStateError if the Hermitian matrix ``m`` has an
    eigenvalue below EIGENVALUE_FLOOR."""
    lowest = _lowest_eigenvalue(m)
    if lowest < EIGENVALUE_FLOOR:
        raise InvalidStateError(f"matrix has negative eigenvalue {lowest:.3e}")


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Validated 4x4 density matrix of a qubit pair.

    The constructor checks that the entries are finite and that the matrix
    is Hermitian, of unit trace and positive, and raises
    :class:`InvalidStateError` with the offending entry otherwise.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if not np.isfinite(m).all():
            raise InvalidStateError("matrix has a non-finite (NaN or infinite) entry")
        if m.shape != (4, 4):
            raise InvalidStateError(f"expected a 4x4 matrix, got shape {m.shape}")
        dev = np.abs(m - m.conj().T)
        if dev.max() > HERMITICITY_TOL:
            i, j = np.unravel_index(int(np.argmax(dev)), (4, 4))
            raise InvalidStateError(f"matrix is not Hermitian at entry ({i}, {j})")
        tr = m.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidStateError(f"trace is {tr:.12g}, expected 1")
        _check_positive(m)
        m = 0.5 * (m + m.conj().T)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class XStateParams:
    """Parameters of an X-shaped density matrix.

    Diagonal (a, b, c, d) in the computational basis, outer coherence
    u*exp(i*mu) between |00> and |11|, inner coherence v*exp(i*nu) between
    |01> and |10>.  Positivity requires u^2 <= a*d and v^2 <= b*c.
    """

    a: float
    b: float
    c: float
    d: float
    u: float
    v: float
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        diag = (self.a, self.b, self.c, self.d)
        if min(diag) < -POSITIVITY_SLACK:
            raise InvalidStateError("diagonal entries must be nonnegative")
        if abs(sum(diag) - 1.0) > 1e-12:
            raise InvalidStateError(
                f"diagonal entries sum to {sum(diag)!r}, expected 1"
            )
        if self.u < 0.0 or self.v < 0.0:
            raise InvalidStateError("coherence magnitudes u, v must be nonnegative")
        if self.u**2 > self.a * self.d + POSITIVITY_SLACK:
            raise InvalidStateError("positivity violated: u^2 > a*d")
        if self.v**2 > self.b * self.c + POSITIVITY_SLACK:
            raise InvalidStateError("positivity violated: v^2 > b*c")


@dataclass(frozen=True)
class BellDiagonalParams:
    """State diagonal in the Bell basis, rho = (1/4) sum_k t_k sigma_k x sigma_k.

    The identity coefficient is fixed to 1; (t1, t2, t3) must satisfy
    1 +- t3 >= |t1 -+ t2| for positivity.
    """

    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        if 1.0 + self.t3 < abs(self.t1 - self.t2) - POSITIVITY_SLACK:
            raise InvalidStateError("positivity violated: 1 + t3 < |t1 - t2|")
        if 1.0 - self.t3 < abs(self.t1 + self.t2) - POSITIVITY_SLACK:
            raise InvalidStateError("positivity violated: 1 - t3 < |t1 + t2|")

    def to_x_params(self):
        """Equivalent X-matrix parameters (phases 0 or pi absorb signs)."""
        du = 0.25 * (self.t1 - self.t2)
        sv = 0.25 * (self.t1 + self.t2)
        return XStateParams(
            a=0.25 * (1.0 + self.t3),
            b=0.25 * (1.0 - self.t3),
            c=0.25 * (1.0 - self.t3),
            d=0.25 * (1.0 + self.t3),
            u=abs(du),
            v=abs(sv),
            mu=0.0 if du >= 0.0 else np.pi,
            nu=0.0 if sv >= 0.0 else np.pi,
        )


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Hilbert-Schmidt coefficients R[a, b] = Tr[rho (sigma_a x sigma_b)].

    Row 0 (entries 1..3) is the Bloch vector of qubit B, column 0 that of
    qubit A, and the lower-right 3x3 block carries the correlations.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=np.float64)
        if e.shape != (4, 4):
            raise ValueError(f"expected a 4x4 coefficient matrix, got {e.shape}")
        if abs(e[0, 0] - 1.0) > 1e-10:
            raise ValueError(f"R[0,0] is {e[0, 0]!r}, expected 1 (unit trace)")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @property
    def alice_bloch(self):
        return np.array(self.entries[1:, 0])

    @property
    def bob_bloch(self):
        return np.array(self.entries[0, 1:])

    @property
    def det(self):
        return float(np.linalg.det(self.entries))


def _x_matrix(params):
    """Unvalidated density matrix described by :class:`XStateParams`."""
    p = params
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = p.a, p.b, p.c, p.d
    m[0, 3] = p.u * np.exp(1j * p.mu)
    m[3, 0] = np.conj(m[0, 3])
    m[1, 2] = p.v * np.exp(1j * p.nu)
    m[2, 1] = np.conj(m[1, 2])
    return m


def make_x_state(params):
    """Assemble the density matrix described by :class:`XStateParams`."""
    return TwoQubitState(_x_matrix(params))


def make_bell_diagonal(params):
    """Assemble rho = (1/4)(1 + t1 XX + t2 YY + t3 ZZ)."""
    m = PAULI_PRODUCTS[0, 0] + (
        params.t1 * PAULI_PRODUCTS[1, 1]
        + params.t2 * PAULI_PRODUCTS[2, 2]
        + params.t3 * PAULI_PRODUCTS[3, 3]
    )
    return TwoQubitState(0.25 * m)


def _as_matrix(state):
    if isinstance(state, TwoQubitState):
        return state.matrix
    return np.asarray(state, dtype=np.complex128)


def pauli_expansion(state):
    """Expansion coefficients of a two-qubit state in the Pauli basis."""
    rho = _as_matrix(state)
    r = np.einsum("abij,ji->ab", PAULI_PRODUCTS, rho)
    return CorrelationMatrix(r.real)


def _density_matrix(r):
    """Unvalidated inverse of :func:`pauli_expansion`: the 4x4 matrix of R,
    or one per matrix of an (N, 4, 4) stack."""
    entries = r.entries if isinstance(r, CorrelationMatrix) else np.asarray(r, float)
    return 0.25 * np.einsum("...ab,abij->...ij", entries, PAULI_PRODUCTS)


def reconstruct_state(r):
    """Inverse of :func:`pauli_expansion`; validates the result."""
    return TwoQubitState(_density_matrix(r))


def partial_trace(state, keep="A"):
    """Reduced 2x2 density matrix of one qubit, or one per matrix of an (N, 4, 4) stack.

    Parameters
    ----------
    keep : "A" to trace out qubit B, "B" to trace out qubit A.
    """
    rho = _as_matrix(state)
    rho = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    if keep in ("A", "a"):
        return np.einsum("...ikjk->...ij", rho)
    if keep in ("B", "b"):
        return np.einsum("...kikj->...ij", rho)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def bloch_vector(rho_qubit):
    """Bloch vector of a single-qubit density matrix."""
    rho = np.asarray(rho_qubit, dtype=np.complex128)
    return np.array([np.trace(rho @ SIGMA[k]).real for k in (1, 2, 3)])


def von_neumann_entropy(state):
    """Von Neumann entropy in bits of a density matrix of any dimension.

    A stack of N matrices gives an array of N entropies from one stacked
    ``eigvalsh``, each bitwise its matrix's single call.  Eigenvalues
    within rounding tolerance of 0 or 1 are clamped before the logarithm;
    an eigenvalue below -1e-10 raises InvalidStateError.
    """
    rho = _as_matrix(state)
    lam = np.linalg.eigvalsh(rho)
    if lam.min() < EIGENVALUE_FLOOR:
        raise InvalidStateError(f"negative eigenvalue {lam.min():.3e}")
    lam = np.clip(lam, 0.0, 1.0)
    positive = lam > 0.0
    s = -np.where(positive, lam * np.log2(np.where(positive, lam, 1.0)), 0.0).sum(axis=-1)
    return float(s) if s.ndim == 0 else s


def mutual_information(state):
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho_AB), in bits; an array for a stack."""
    sa = von_neumann_entropy(partial_trace(state, "A"))
    sb = von_neumann_entropy(partial_trace(state, "B"))
    return sa + sb - von_neumann_entropy(state)


def swap_parties(state):
    """The same joint state with the roles of qubits A and B exchanged."""
    m = _as_matrix(state)[np.ix_(_SWAP_PERM, _SWAP_PERM)]
    return TwoQubitState(m)


def extract_x_params(state, tol=X_STRUCTURE_TOL):
    """X-matrix parameters of a state, or None if it is not X-shaped.

    A state qualifies when every entry outside the diagonal and the
    anti-diagonal has magnitude below ``tol``.
    """
    m = _as_matrix(state)
    if np.abs(m[_OFF_X]).max() > tol:
        return None
    m = m / m.trace().real
    diag = np.clip(np.diag(m).real, 0.0, None)
    diag = diag / diag.sum()
    u = abs(m[0, 3])
    v = abs(m[1, 2])
    return XStateParams(
        a=float(diag[0]),
        b=float(diag[1]),
        c=float(diag[2]),
        d=float(diag[3]),
        u=float(u),
        v=float(v),
        mu=float(np.angle(m[0, 3])) if u > 1e-15 else 0.0,
        nu=float(np.angle(m[1, 2])) if v > 1e-15 else 0.0,
    )
