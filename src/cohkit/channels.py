"""Kraus channels on a reference basis: classification, Schur form, fixed points.

Classification is decomposition-relative: it inspects the Kraus list actually
supplied, in the declared reference basis (default: the standard basis).
Entries below ``linalg.ZERO_TOL`` in absolute value are treated as zero
throughout, and the factoring K_n = M(f_n) K_diag is the one place that test
is made: every class is read off it, and GIO is the case where every index
map f_n is the identity. Channels are immutable: one read-only (r, d, d)
stack of Kraus operators, factored in one vectorized pass on first use and
kept. A reference basis gives a new, rotated channel, factored afresh. To
change a channel, build a new one.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import cached_property

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
from .states import DensityMatrix, _integer, _read_only, as_generator, random_unitary

GIO = "GIO"
SIO_NOT_GIO = "SIO-not-GIO"
IO_NOT_SIO = "IO-not-SIO"
NOT_IO = "not-IO"


@dataclass(eq=False, frozen=True)
class KrausChannel:
    """A completely positive map given by its Kraus operators.

    Immutable: kraus is a read-only (r, d, d) copy of the operators given.
    Its standard-basis factoring is computed on first use and reused after it.
    """

    kraus: np.ndarray
    trace_preserving: bool
    unital: bool

    def __post_init__(self):
        object.__setattr__(self, "kraus", _read_only(self.kraus))

    @cached_property
    def _form(self) -> tuple[np.ndarray, np.ndarray]:
        # the read-only factoring (f, c) of the whole stack; a not-IO list
        # raises NotIOFormError on every use, since a raising property caches nothing
        return tuple(map(_read_only, _factor_stack(self.kraus)))

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)


def kraus_channel(ops) -> KrausChannel:
    """Wrap a Kraus list, computing the trace-preserving and unital flags.

    Non-trace-preserving lists are accepted as quantum operations provided
    sum K^dag K <= 1 within tolerance.
    """
    ops = [linalg.as_square(k) for k in ops]
    if not ops:
        raise BadParameterError("at least one Kraus operator is required")
    d = ops[0].shape[0]
    if d == 0:
        raise ShapeMismatchError("Kraus operators must not be empty matrices")
    if any(k.shape != (d, d) for k in ops):
        raise DimMismatchError("Kraus operator dimensions differ")
    ks = np.array(ops)
    ks_dag = ks.conj().transpose(0, 2, 1)
    total = np.sum(ks_dag @ ks, axis=0)
    tp = bool(np.max(np.abs(total - np.eye(d))) <= linalg.DEFAULT_TOL)
    if not tp:
        w = linalg.hermitian_eigvals(linalg.hermitize(total))
        if w.max(initial=0.0) > 1.0 + linalg.DEFAULT_TOL:
            raise BadParameterError("sum K^dag K exceeds the identity: not an operation")
    dual = np.sum(ks @ ks_dag, axis=0)
    unital = bool(np.max(np.abs(dual - np.eye(d))) <= linalg.DEFAULT_TOL)
    return KrausChannel(kraus=ks, trace_preserving=tp, unital=unital)


def apply_to_operator(ch: KrausChannel, x) -> np.ndarray:
    """Linear action sum_i K_i X K_i^dag on an arbitrary operator."""
    m = linalg.as_square(x)
    if m.shape[0] != ch.dim:
        raise DimMismatchError("operator and channel dimensions differ")
    ks = ch.kraus
    # np.sum adds the products in Kraus order onto +0, as `out += K X K^dag`
    # per operator would: the same bits, signed zeros included
    return np.sum(ks @ m @ ks.conj().transpose(0, 2, 1), axis=0)


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
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise BadParameterError(f"p must be a real number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise BadParameterError(f"p must lie in [0, 1], got {p}")
    k0 = np.sqrt(p) * np.eye(2, dtype=complex)
    k1 = np.sqrt(1.0 - p) * np.diag([1.0, -1.0]).astype(complex)
    return kraus_channel([k0, k1])


@dataclass(eq=False, frozen=True)
class IndexMap:
    """A map i -> f(i) of basis indices, as read off an operator's column pattern.

    Immutable: mapping is a tuple of integers in [0, len(mapping)).
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        try:
            mapping = tuple(self.mapping)
        except TypeError:
            raise BadParameterError("an index map is a sequence of integers") from None
        if not all(0 <= _integer("an index map entry", i) < len(mapping) for i in mapping):
            raise BadParameterError(f"index map entries must lie in [0, {len(mapping)})")
        object.__setattr__(self, "mapping", mapping)

    @property
    def dim(self) -> int:
        return len(self.mapping)

    @property
    def kind(self) -> str:
        return "permutation" if len(set(self.mapping)) == self.dim else "relabeling"

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[np.asarray(self.mapping, dtype=int), np.arange(self.dim)] = 1.0
        return m


def _rotated_kraus(ks: np.ndarray, basis) -> np.ndarray:
    if basis is None:
        return ks
    b = linalg.basis_matrix(basis, ks.shape[1])
    return b.conj().T @ ks @ b


def _in_basis(ch: KrausChannel, basis) -> KrausChannel:
    # the channel written in the reference basis; with none, ch itself and its cache
    return ch if basis is None else replace(ch, kraus=_rotated_kraus(ch.kraus, basis))


def _factor_stack(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (r, d) arrays f, c: column i of K_n has its one entry >= ZERO_TOL in row
    # f[n, i], value c[n, i] (i and 0 if none); the first (n, i) with more raises
    d = ks.shape[1]
    large = np.abs(ks) >= linalg.ZERO_TOL
    counts = large.sum(axis=1)
    bad = np.argwhere(counts > 1)
    if bad.size:
        n, i = bad[0]
        raise NotIOFormError(f"column {i} has {counts[n, i]} nonzero entries")
    rows = (large * np.arange(d)[:, None]).sum(axis=1)  # the row of the one large entry
    hit = counts == 1
    f = np.where(hit, rows, np.arange(d))
    c = np.where(hit, np.take_along_axis(ks, rows[:, None, :], axis=1)[:, 0, :], 0j)
    return f, c


def factor_kraus(k, basis=None) -> tuple[IndexMap, np.ndarray]:
    """Split an incoherent-form Kraus operator as K = M(f) . K_diag.

    Each column may carry at most one entry at or above ``linalg.ZERO_TOL``;
    its row index defines f. Columns with no such entry keep their own index,
    so a diagonal operator always factors through the identity map. The
    product M(f) @ K_diag reproduces K exactly (up to entries treated as
    zero).
    """
    f, c = _factor_stack(_rotated_kraus(linalg.as_square(k)[None], basis))
    return IndexMap(mapping=tuple(f[0].tolist())), np.diag(c[0])


def classify(ch: KrausChannel, basis=None) -> str:
    """Strongest incoherence class of the Kraus list in the reference basis.

    GIO: every operator diagonal. SIO-not-GIO: every operator a permutation
    times a diagonal, not all diagonal. IO-not-SIO: at most one nonzero per
    column, some index map non-bijective. not-IO: anything else. Every class
    is read off the one factoring K_n = M(f_n) K_diag; GIO is the case where
    every f_n is the identity.
    """
    if not ch.trace_preserving:
        raise NotTracePreservingError("classification is defined for channels")
    try:
        f, _ = _in_basis(ch, basis)._form
    except NotIOFormError:
        return NOT_IO
    if np.all(f == np.arange(ch.dim)):
        return GIO
    # a permutation maps the d columns to d distinct rows
    if np.all(np.diff(np.sort(f, axis=1), axis=1) != 0):
        return SIO_NOT_GIO
    return IO_NOT_SIO


def _completeness(f: np.ndarray, c: np.ndarray) -> bool:
    # sum over n of conj(c_i^(n)) c_j^(n) [f_n(i) = f_n(j)], against delta_ij
    same = f[:, :, None] == f[:, None, :]
    gram = np.sum(c.conj()[:, :, None] * c[:, None, :] * same, axis=0)
    return bool(np.max(np.abs(gram - np.eye(f.shape[1]))) <= linalg.DEFAULT_TOL)


def io_completeness_check(ch: KrausChannel, basis=None) -> bool:
    """Evaluate the incoherent-form completeness constraint.

    sum over {n : f_n(i) = f_n(j)} of conj(c_i^(n)) c_j^(n) must equal
    delta_ij; this is algebraically the same as sum K^dag K = 1 restricted to
    incoherent-form lists.
    """
    return _completeness(*_in_basis(ch, basis)._form)


def _correlation_spectrum(c: np.ndarray) -> linalg.Spectrum:
    # the correlation-matrix contract: nonempty, Hermitian, unit diagonal, PSD
    if c.size == 0:
        raise ShapeMismatchError("a correlation matrix must not be empty")
    if linalg.hermiticity_defect(c) > linalg.DEFAULT_TOL:
        raise NotHermitianError("correlation matrix is not Hermitian")
    if np.max(np.abs(np.diag(c) - 1.0)) > linalg.DEFAULT_TOL:
        raise DiagonalNotOneError("correlation matrix diagonal is not 1")
    spec = linalg.hermitian_eig(c)
    linalg._require_psd(spec.eigenvalues, NotPSDError, "correlation matrix ")
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

    def validate(self) -> "CorrelationMatrix":
        c = linalg.as_square(self.matrix)
        _correlation_spectrum(c)
        if np.max(np.abs(self.vectors.conj().T @ self.vectors - c)) > linalg.DEFAULT_TOL:
            raise BadParameterError("vectors are not a Gram factorization of the matrix")
        return self


def correlation_matrix_of(ch: KrausChannel, basis=None) -> CorrelationMatrix:
    """Read the dynamical vectors off a diagonal Kraus list."""
    if not ch.trace_preserving:
        raise NotTracePreservingError("correlation matrices describe channels")
    ch = _in_basis(ch, basis)
    if classify(ch) != GIO:
        raise NotGIOError("Kraus operators are not all diagonal in this basis")
    vectors = np.diagonal(ch.kraus, axis1=1, axis2=2).copy()  # shape (r, d)
    c = vectors.conj().T @ vectors
    if np.max(np.abs(np.diag(c) - 1.0)) > linalg.DEFAULT_TOL:
        raise DiagonalNotOneError("dynamical vectors are not normalized")
    return CorrelationMatrix(matrix=c, vectors=vectors)


def gio_from_correlation(c) -> KrausChannel:
    """Diagonal Kraus channel realizing a given correlation matrix.

    The Gram factor keeps only eigenvalue components above
    ``linalg.RANK_TOL``, so the number of Kraus operators equals the matrix
    rank.
    """
    mat = c.matrix if isinstance(c, CorrelationMatrix) else linalg.as_square(c)
    spec = _correlation_spectrum(mat)
    keep = spec.eigenvalues > linalg.RANK_TOL
    vectors = (np.sqrt(spec.eigenvalues[keep])[:, None]) * spec.eigenvectors[:, keep].conj().T
    return kraus_channel([np.diag(row) for row in vectors])


def channel_superoperator(ch: KrausChannel) -> np.ndarray:
    """Matrix of the channel on row-major vectorized operators."""
    d = ch.dim
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in ch.kraus:
        s += linalg._kron(k, k.conj())
    return s


def commutant(ch: KrausChannel) -> list[np.ndarray]:
    """Hilbert-Schmidt-orthonormal basis of {X : [X, K_i] = [X, K_i^dag] = 0}.

    The commutator constraints are linear in X, so the basis is the SVD
    nullspace (singular values at or below ``linalg.NULL_TOL``) of the
    stacked constraint matrix. For a unital channel this algebra is exactly
    the fixed-point set.
    """
    if not ch.unital:
        raise NotUnitalError("the commutant equals the fixed points only for unital channels")
    d = ch.dim
    eye = np.eye(d)
    a = np.vstack([linalg._kron(eye, m.T) - linalg._kron(m, eye)
                   for k in ch.kraus for m in (k, k.conj().T)])
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > linalg.NULL_TOL))
    return [vh[i].conj().reshape(d, d) for i in range(rank, d * d)]


@dataclass(eq=False, frozen=True)
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
    comm = m @ ch.kraus - ch.kraus @ m
    lhs = np.sum(comm @ comm.conj().transpose(0, 2, 1), axis=0)
    dual = np.sum(ch.kraus @ ch.kraus.conj().transpose(0, 2, 1), axis=0)
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
    if _integer("step count", n) < 0:
        raise BadParameterError("step count must be nonnegative")
    if not ch.trace_preserving:
        raise NotTracePreservingError("evolution is defined for channels")
    x = linalg.as_square(rho)
    if x.shape[0] != ch.dim:
        raise DimMismatchError("operator and channel dimensions differ")
    schur = correlation_matrix_of(ch).matrix.T if classify(ch) == GIO else None
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
    rng = as_generator(seed, dim=dim, n_kraus=n_kraus)
    v = rng.standard_normal((n_kraus, dim)) + 1j * rng.standard_normal((n_kraus, dim))
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    return kraus_channel([np.diag(row) for row in v])


def random_mixed_unitary(dim: int, n_unitaries: int, seed=0) -> KrausChannel:
    """Random convex mixture of unitaries; always unital and trace preserving."""
    rng = as_generator(seed, dim=dim, n_unitaries=n_unitaries)
    weights = rng.dirichlet(np.ones(n_unitaries))
    return kraus_channel([np.sqrt(w) * random_unitary(dim, rng) for w in weights])


def random_sio(dim: int, n_kraus: int, seed=0) -> KrausChannel:
    """Random channel of permutation-times-diagonal Kraus operators."""
    rng = as_generator(seed, dim=dim, n_kraus=n_kraus)
    coeffs = rng.standard_normal((n_kraus, dim)) + 1j * rng.standard_normal((n_kraus, dim))
    coeffs /= np.linalg.norm(coeffs, axis=0, keepdims=True)
    perms = [rng.permutation(dim) for _ in range(n_kraus)]
    ks = np.zeros((n_kraus, dim, dim), dtype=complex)
    ks[np.arange(n_kraus)[:, None], perms, np.arange(dim)] = coeffs
    return kraus_channel(ks)


def random_io(dim: int, seed=0) -> KrausChannel:
    """Random measure-and-prepare channel K_n = |b_n><w_n| with orthonormal w."""
    rng = as_generator(seed, dim=dim)
    w = random_unitary(dim, rng)
    prep = rng.integers(0, dim, size=dim)
    ks = np.zeros((dim, dim, dim), dtype=complex)
    ks[np.arange(dim), prep, :] = w.conj().T
    return kraus_channel(ks)
