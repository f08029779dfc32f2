"""Kraus channels on a reference basis: classification, Schur form, fixed points.

Classification is decomposition-relative: it inspects the Kraus list actually
supplied, in the declared reference basis (default: the standard basis).
Entries below 1e-10 in absolute value are treated as zero throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BadParameterError,
    DiagonalNotOneError,
    DimMismatchError,
    NotGIOError,
    NotHermitianError,
    NotIOFormError,
    NotPSDError,
    NotTracePreservingError,
    NotUnitalError,
    ShapeMismatchError,
)
from .states import DensityMatrix, as_generator, random_unitary

ZERO_TOL = 1e-10
RANK_TOL = 1e-12

GIO = "GIO"
SIO_NOT_GIO = "SIO-not-GIO"
IO_NOT_SIO = "IO-not-SIO"
NOT_IO = "not-IO"


@dataclass(eq=False)
class KrausChannel:
    """A completely positive map given by its Kraus operators."""

    kraus: tuple[np.ndarray, ...]
    trace_preserving: bool
    unital: bool

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)


def kraus_channel(ops, tol: float = linalg.DEFAULT_TOL) -> KrausChannel:
    """Wrap a Kraus list, computing the trace-preserving and unital flags.

    Non-trace-preserving lists are accepted as quantum operations provided
    sum K^dag K <= 1 within tolerance.
    """
    ops = tuple(linalg.as_square(k) for k in ops)
    if not ops:
        raise BadParameterError("at least one Kraus operator is required")
    d = ops[0].shape[0]
    if d == 0:
        raise ShapeMismatchError("Kraus operators must not be empty matrices")
    for k in ops:
        if k.shape != (d, d):
            raise DimMismatchError("Kraus operator dimensions differ")
    total = sum(k.conj().T @ k for k in ops)
    tp = bool(np.max(np.abs(total - np.eye(d))) <= tol)
    if not tp:
        w = linalg.hermitian_eig(linalg.hermitize(total)).eigenvalues
        if w.max(initial=0.0) > 1.0 + tol:
            raise BadParameterError("sum K^dag K exceeds the identity: not an operation")
    dual = sum(k @ k.conj().T for k in ops)
    unital = bool(np.max(np.abs(dual - np.eye(d))) <= tol)
    return KrausChannel(kraus=ops, trace_preserving=tp, unital=unital)


def apply_to_operator(ch: KrausChannel, x) -> np.ndarray:
    """Linear action sum_i K_i X K_i^dag on an arbitrary operator."""
    m = linalg.as_square(x)
    if m.shape[0] != ch.dim:
        raise DimMismatchError("operator and channel dimensions differ")
    out = np.zeros_like(m, dtype=complex)
    for k in ch.kraus:
        out += k @ m @ k.conj().T
    return out


def apply_channel(ch: KrausChannel, rho):
    """Apply the channel to a state.

    Trace-preserving channels return a DensityMatrix; otherwise the
    unnormalized output operator is returned together with its trace.
    """
    out = apply_to_operator(ch, rho)
    if ch.trace_preserving:
        return DensityMatrix(matrix=linalg.hermitize(out))
    return out, float(np.real(np.trace(out)))


def phase_damping(p: float) -> KrausChannel:
    """Qubit phase damping: off-diagonals shrink by the factor 2p - 1."""
    if not 0.0 <= p <= 1.0:
        raise BadParameterError(f"p must lie in [0, 1], got {p}")
    k0 = np.sqrt(p) * np.eye(2, dtype=complex)
    k1 = np.sqrt(1.0 - p) * np.diag([1.0, -1.0]).astype(complex)
    return kraus_channel([k0, k1])


@dataclass(eq=False)
class IndexMap:
    """A map i -> f(i) of basis indices, as read off an operator's column pattern."""

    mapping: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.mapping)

    @property
    def kind(self) -> str:
        return "permutation" if len(set(self.mapping)) == self.dim else "relabeling"

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for i, f_i in enumerate(self.mapping):
            m[f_i, i] = 1.0
        return m


def _rotated_kraus(ops, basis) -> list[np.ndarray]:
    if basis is None:
        return list(ops)
    b = linalg.basis_matrix(basis, ops[0].shape[0])
    return [b.conj().T @ k @ b for k in ops]


def _all_diagonal(ops, zero_tol: float = ZERO_TOL) -> bool:
    # the one zero test behind GIO: every off-diagonal entry below zero_tol
    return all(np.max(np.abs(k - np.diag(np.diag(k)))) < zero_tol for k in ops)


def _factor_matrix(k: np.ndarray, zero_tol: float) -> tuple[IndexMap, np.ndarray]:
    d = k.shape[0]
    mapping, coeffs = [], []
    for i in range(d):
        rows = np.flatnonzero(np.abs(k[:, i]) >= zero_tol)
        if rows.size > 1:
            raise NotIOFormError(f"column {i} has {rows.size} nonzero entries")
        if rows.size == 1:
            mapping.append(int(rows[0]))
            coeffs.append(k[rows[0], i])
        else:
            # an all-zero column leaves the index where it is
            mapping.append(i)
            coeffs.append(0.0 + 0.0j)
    return IndexMap(mapping=tuple(mapping)), np.diag(np.asarray(coeffs, dtype=complex))


def factor_kraus(k, basis=None, zero_tol: float = ZERO_TOL) -> tuple[IndexMap, np.ndarray]:
    """Split an incoherent-form Kraus operator as K = M(f) . K_diag.

    Each column may carry at most one entry at or above zero_tol; its row
    index defines f. Columns with no such entry keep their own index, so a
    diagonal operator always factors through the identity map. The product
    M(f) @ K_diag reproduces K exactly (up to entries treated as zero).
    """
    kk = _rotated_kraus([linalg.as_square(k)], basis)[0]
    return _factor_matrix(kk, zero_tol)


def classify(ch: KrausChannel, basis=None, zero_tol: float = ZERO_TOL) -> str:
    """Strongest incoherence class of the Kraus list in the reference basis.

    GIO: every operator diagonal. SIO-not-GIO: every operator a permutation
    times a diagonal, not all diagonal. IO-not-SIO: at most one nonzero per
    column, some index map non-bijective. not-IO: anything else.
    """
    if not ch.trace_preserving:
        raise NotTracePreservingError("classification is defined for channels")
    ks = _rotated_kraus(ch.kraus, basis)
    if _all_diagonal(ks, zero_tol):
        return GIO
    kinds = []
    for k in ks:
        try:
            index_map, _ = _factor_matrix(k, zero_tol)
        except NotIOFormError:
            return NOT_IO
        kinds.append(index_map.kind)
    if all(kind == "permutation" for kind in kinds):
        return SIO_NOT_GIO
    return IO_NOT_SIO


def io_completeness_check(ch: KrausChannel, basis=None, tol: float = linalg.DEFAULT_TOL) -> bool:
    """Evaluate the incoherent-form completeness constraint.

    sum over {n : f_n(i) = f_n(j)} of conj(c_i^(n)) c_j^(n) must equal
    delta_ij; this is algebraically the same as sum K^dag K = 1 restricted to
    incoherent-form lists.
    """
    ks = _rotated_kraus(ch.kraus, basis)
    d = ch.dim
    gram = np.zeros((d, d), dtype=complex)
    for k in ks:
        index_map, diag = _factor_matrix(k, ZERO_TOL)
        c = np.diag(diag)
        f = index_map.mapping
        gram += np.outer(c.conj(), c) * np.equal.outer(f, f)
    return bool(np.max(np.abs(gram - np.eye(d))) <= tol)


def _correlation_spectrum(c: np.ndarray, tol: float) -> linalg.Spectrum:
    # the correlation-matrix contract: nonempty, Hermitian, unit diagonal, PSD
    if c.size == 0:
        raise ShapeMismatchError("a correlation matrix must not be empty")
    if linalg.hermiticity_defect(c) > tol:
        raise NotHermitianError("correlation matrix is not Hermitian")
    if np.max(np.abs(np.diag(c) - 1.0)) > tol:
        raise DiagonalNotOneError("correlation matrix diagonal is not 1")
    spec = linalg.hermitian_eig(c, tol=tol)
    if spec.eigenvalues.min(initial=0.0) < -tol:
        raise NotPSDError(f"correlation matrix eigenvalue {spec.eigenvalues.min()} below -{tol}")
    return spec


@dataclass(eq=False)
class CorrelationMatrix:
    """Gram matrix of the dynamical vectors of a diagonal-Kraus channel.

    vectors[:, i] is the i-th dynamical vector (one component per Kraus
    operator); the matrix is its Gram matrix, PSD with unit diagonal.
    """

    matrix: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def validate(self, tol: float = linalg.DEFAULT_TOL) -> "CorrelationMatrix":
        c = linalg.as_square(self.matrix)
        _correlation_spectrum(c, tol)
        if np.max(np.abs(self.vectors.conj().T @ self.vectors - c)) > tol:
            raise BadParameterError("vectors are not a Gram factorization of the matrix")
        return self


def correlation_matrix_of(ch: KrausChannel, basis=None, tol: float = linalg.DEFAULT_TOL) -> CorrelationMatrix:
    """Read the dynamical vectors off a diagonal Kraus list."""
    if not ch.trace_preserving:
        raise NotTracePreservingError("correlation matrices describe channels")
    ks = _rotated_kraus(ch.kraus, basis)
    if not _all_diagonal(ks):
        raise NotGIOError("Kraus operators are not all diagonal in this basis")
    vectors = np.array([np.diag(k) for k in ks])  # shape (r, d)
    c = vectors.conj().T @ vectors
    if np.max(np.abs(np.diag(c) - 1.0)) > tol:
        raise DiagonalNotOneError("dynamical vectors are not normalized")
    return CorrelationMatrix(matrix=c, vectors=vectors)


def gio_from_correlation(c, tol: float = linalg.DEFAULT_TOL) -> KrausChannel:
    """Diagonal Kraus channel realizing a given correlation matrix.

    The Gram factor keeps only eigenvalue components above 1e-12, so the
    number of Kraus operators equals the matrix rank.
    """
    mat = c.matrix if isinstance(c, CorrelationMatrix) else linalg.as_square(c)
    spec = _correlation_spectrum(mat, tol)
    keep = spec.eigenvalues > RANK_TOL
    vectors = (np.sqrt(spec.eigenvalues[keep])[:, None]) * spec.eigenvectors[:, keep].conj().T
    return kraus_channel([np.diag(row) for row in vectors])


def channel_superoperator(ch: KrausChannel) -> np.ndarray:
    """Matrix of the channel on row-major vectorized operators."""
    d = ch.dim
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in ch.kraus:
        s += np.kron(k, k.conj())
    return s


def commutant(ch: KrausChannel, cutoff: float = 1e-9) -> list[np.ndarray]:
    """Hilbert-Schmidt-orthonormal basis of {X : [X, K_i] = [X, K_i^dag] = 0}.

    The commutator constraints are linear in X, so the basis is the SVD
    nullspace (singular values at or below cutoff) of the stacked constraint
    matrix. For a unital channel this algebra is exactly the fixed-point set.
    """
    if not ch.unital:
        raise NotUnitalError("the commutant equals the fixed points only for unital channels")
    d = ch.dim
    eye = np.eye(d)
    rows = []
    for k in ch.kraus:
        for m in (k, k.conj().T):
            rows.append(np.kron(eye, m.T) - np.kron(m, eye))
    a = np.vstack(rows)
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > cutoff))
    return [vh[i].conj().reshape(d, d) for i in range(rank, d * d)]


@dataclass(eq=False)
class FixedPointResult:
    """Residuals reported by fixed_point_check."""

    fixedness_residual: float
    identity_residual: float


def fixed_point_check(ch: KrausChannel, x) -> FixedPointResult:
    """How far X is from being fixed, plus the commutator-expansion residual.

    The second number is the Hilbert-Schmidt residual of
    sum_i [X,K_i][X,K_i]^dag =
        Phi(XX^dag) - Phi(X)X^dag - X Phi(X^dag) + X (sum_i K_i K_i^dag) X^dag,
    which is an algebraic identity of every Kraus list, so it stays at
    rounding level for all inputs. On a fixed point of a unital channel the
    right side collapses to Phi(XX^dag) - XX^dag.
    """
    m = linalg.as_square(x)
    if m.shape[0] != ch.dim:
        raise DimMismatchError("operator and channel dimensions differ")
    phi_x = apply_to_operator(ch, m)
    fixedness = linalg.hs_norm(phi_x - m)
    lhs = np.zeros_like(m, dtype=complex)
    dual = np.zeros_like(m, dtype=complex)
    for k in ch.kraus:
        comm = m @ k - k @ m
        lhs += comm @ comm.conj().T
        dual += k @ k.conj().T
    rhs = (
        apply_to_operator(ch, m @ m.conj().T)
        - phi_x @ m.conj().T
        - m @ apply_to_operator(ch, m.conj().T)
        + m @ dual @ m.conj().T
    )
    return FixedPointResult(
        fixedness_residual=fixedness, identity_residual=linalg.hs_norm(lhs - rhs)
    )


def evolve_path(ch: KrausChannel, rho, n: int) -> list[DensityMatrix]:
    """States after 0..n applications. Diagonal-Kraus channels step through
    their Schur form, so entry (i, j) follows the exact power law C_ji^n rho_ij."""
    if n < 0:
        raise BadParameterError("step count must be nonnegative")
    if not ch.trace_preserving:
        raise NotTracePreservingError("evolution is defined for channels")
    x = linalg.as_square(rho)
    schur = correlation_matrix_of(ch).matrix.T if _all_diagonal(ch.kraus) else None
    path = [DensityMatrix(matrix=x)]
    for _ in range(n):
        x = schur * x if schur is not None else apply_to_operator(ch, x)
        path.append(DensityMatrix(matrix=x))
    return path


def iterate_channel(ch: KrausChannel, rho, n: int) -> DensityMatrix:
    """n-fold application of the channel."""
    return evolve_path(ch, rho, n)[-1]


def random_gio(dim: int, n_kraus: int, seed=0) -> KrausChannel:
    """Channel of diagonal Kraus operators from random unit dynamical vectors."""
    rng = as_generator(seed)
    v = rng.standard_normal((n_kraus, dim)) + 1j * rng.standard_normal((n_kraus, dim))
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    return kraus_channel([np.diag(row) for row in v])


def random_mixed_unitary(dim: int, n_unitaries: int, seed=0) -> KrausChannel:
    """Random convex mixture of unitaries; always unital and trace preserving."""
    rng = as_generator(seed)
    weights = rng.dirichlet(np.ones(n_unitaries))
    ops = [np.sqrt(w) * random_unitary(dim, rng) for w in weights]
    return kraus_channel(ops)


def random_sio(dim: int, n_kraus: int, seed=0) -> KrausChannel:
    """Random channel of permutation-times-diagonal Kraus operators."""
    rng = as_generator(seed)
    coeffs = rng.standard_normal((n_kraus, dim)) + 1j * rng.standard_normal((n_kraus, dim))
    coeffs /= np.linalg.norm(coeffs, axis=0, keepdims=True)
    ops = []
    for n in range(n_kraus):
        perm = rng.permutation(dim)
        k = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            k[perm[i], i] = coeffs[n, i]
        ops.append(k)
    return kraus_channel(ops)


def random_io(dim: int, seed=0) -> KrausChannel:
    """Random measure-and-prepare channel K_n = |b_n><w_n| with orthonormal w."""
    rng = as_generator(seed)
    w = random_unitary(dim, rng)
    prep = rng.integers(0, dim, size=dim)
    ops = []
    for n in range(dim):
        k = np.zeros((dim, dim), dtype=complex)
        k[prep[n], :] = w[:, n].conj()
        ops.append(k)
    return kraus_channel(ops)
