"""Dense complex linear algebra kernel and the library's tolerance policy.

All entropic quantities are in bits (log base 2). Eigenvalues within
``EIG_CLAMP`` of zero are clamped to exactly zero before any logarithm is
taken, so rank-deficient states are handled without sign noise.

Two eigen kernels share one input check (square, finite, Hermitian within
``DEFAULT_TOL``). ``hermitian_eig`` returns eigenvalues and eigenvectors
(LAPACK ``eigh``); it serves the callers that use the vectors: the second
argument of every relative entropy, ``Observable.block_basis``,
``spectral_decompose``, ``optimal_fine_grain``, ``generalized_luders``,
``random_povm`` and ``gio_from_correlation``. ``hermitian_eigvals`` returns
the eigenvalues alone (LAPACK ``eigvalsh``, which skips building the
vectors); it serves every caller that needs only a spectrum:
``von_neumann_entropy``, the first argument of a relative entropy, the
density check that builds a ``DensityMatrix``, ``make_povm``'s positivity
check and ``kraus_channel``'s bound on sum K^dag K. A ``DensityMatrix`` keeps
the spectrum its check computed, and the entropies of one read it from there
(found by attribute, as ``as_matrix`` finds ``.matrix``), so a state the
library holds is diagonalized once.
Each kernel is its check, ``_hermitian``, then a private LAPACK call that
checks nothing: ``_eigh`` or ``_eigvalsh``. Only code holding an array that
``_hermitian`` (or the same test) has just checked, or that ``hermitize`` has
just made, calls the private pair: the density check, ``make_povm``,
``optimal_fine_grain``'s blocks and the pinchings' blocks. So no value is
checked twice. Both also take a (count, k, k) stack, each matrix's result
along the last axis.
Pinched and dephased states take their spectrum from their blocks: ``luders``,
``luders_on_b`` and ``classical_correlation``'s conditional states compress a
state once into their observable's frame and diagonalize only its diagonal
blocks, stacked by width, and ``dephase`` keeps its diagonal. Each is checked
as a state on that spectrum, so none runs a d x d decomposition;
``c_re_coarse`` and ``qi_coherence`` read their entropy off that spectrum
without building the pinched state, and ``hierarchy_gap`` is that entropy's
difference from the entropy of the state's diagonal in the fine-graining.
The two drivers agree to rounding, not bit for bit: results are
byte-reproducible across reruns on one numpy and LAPACK, and differ by up to
about 2e-15 from versions that took every spectrum from ``eigh``.

Every numerical threshold of the library is defined here, once, as a fixed
absolute constant; no function takes a tolerance keyword except
``majorizes`` and ``weakly_majorizes``, whose slack is part of the question.

- ``DEFAULT_TOL`` 1e-8: every validation check (Hermitian, unit trace, PSD,
  orthonormal, sums to the identity, trace preserving, unital) fails on a
  defect ``>`` it.
- ``EIG_CLAMP`` 1e-9: eigenvalues and probabilities with ``|w| <=`` it
  count as 0 in entropies; a weight ``>`` it on a zero eigenvalue of sigma
  makes a relative entropy infinite.
- ``ZERO_TOL`` 1e-10: a Kraus entry is zero when ``|k| <`` it (GIO, SIO and
  IO classification and factoring).
- ``RANK_TOL`` 1e-12: eigenvalue components ``>`` it are kept in a Gram
  factor (``gio_from_correlation``) and a POVM square root.
- ``PROB_FLOOR`` 1e-12: an outcome with probability ``<=`` it has no Lüders
  post-state; ``classical_correlation`` skips outcomes ``<`` it.
- ``NULL_TOL`` 1e-9: singular values ``<=`` it of ``commutant``'s reduced
  constraint matrix span the commutant.
- ``GROUP_TOL`` 1e-6: sorted eigenvalues a gap ``<`` it apart share a
  cluster, in ``spectral_decompose`` and in the spectrum of ``commutant``'s
  probe element.
- ``IMAG_TOL`` 1e-12: majorization rejects a vector whose imaginary parts
  reach ``>`` it.

One size bound is defined here too: ``MAX_ENTRIES`` 2**24 complex entries
(256 MiB). ``channel_superoperator`` and ``generalized_cnot`` (d**4 entries)
and ``commutant`` (its reduced constraint matrix) raise BadParameterError
above it, before allocating; the CLI's ``gen`` and ``evolve`` use the same
bound.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadBasisError,
    BadParameterError,
    DimMismatchError,
    InvalidStateError,
    LengthMismatchError,
    NoConvergenceError,
    NotHermitianError,
    NotPositiveError,
    ShapeMismatchError,
    TraceNotOneError,
)

DEFAULT_TOL = 1e-8
EIG_CLAMP = 1e-9
ZERO_TOL = 1e-10
RANK_TOL = 1e-12
PROB_FLOOR = 1e-12
NULL_TOL = 1e-9
GROUP_TOL = 1e-6
IMAG_TOL = 1e-12
MAX_ENTRIES = 2**24


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` (array-like or object with a ``.matrix``) to a complex 2-D array."""
    a = _array(getattr(m, "matrix", m))
    if a.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.dtype.kind == "O" and all(isinstance(z, numbers.Number) for z in a.flat):
        a = a.astype(complex)  # numbers numpy holds as objects: Fraction, big ints
    return _finite(a, "matrix").astype(complex, copy=False)


def _array(m) -> np.ndarray:
    # np.asarray, with numpy's refusal of a ragged nesting as ShapeMismatchError
    try:
        return np.asarray(m)
    except ValueError:
        raise ShapeMismatchError("matrix rows differ in length") from None


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    # the one entry check: numbers only (numpy would read the string "1" as
    # 1), and a NaN or inf entry is an error, never dropped
    if a.dtype.kind not in "biufc":
        raise BadParameterError(f"{what} entries must be numbers")
    if not np.isfinite(a).all():
        raise BadParameterError(f"{what} entries must be finite")
    return a


def as_square(m, dim: int | None = None, what: str = "") -> np.ndarray:
    """Coerce ``m`` as ``as_matrix`` does and require it square.

    The one home of the operand-size check: with ``dim`` given, a matrix of
    another size raises DimMismatchError("{what} dimensions differ").
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise DimMismatchError(f"{what} dimensions differ")
    return a


def hermiticity_defect(m) -> float:
    return _hermiticity_defect(as_square(m))


def _hermiticity_defect(a: np.ndarray) -> float:
    return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dag) / 2, which removes rounding asymmetry.

    A (count, d, d) stack is hermitized matrix by matrix.
    """
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def orthonormality_defect(b: np.ndarray) -> float:
    """Largest entry of B^dag B - 1: how far the columns of B are from orthonormal."""
    return float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1]))))


def basis_matrix(basis, dim: int) -> np.ndarray:
    """A dim x dim unitary whose columns form the basis.

    ``basis`` is a matrix or an object with a ``.basis`` (a fine-graining).
    """
    b = _finite(np.asarray(getattr(basis, "basis", basis), dtype=complex), "basis")
    if dim == 0:
        raise ShapeMismatchError("a basis needs at least one vector")
    if b.shape != (dim, dim):
        raise BadBasisError(f"basis must be {dim}x{dim}, got {b.shape}")
    if orthonormality_defect(b) > DEFAULT_TOL:
        raise BadBasisError("basis columns are not orthonormal")
    return b


@dataclass(eq=False, frozen=True)
class Spectrum:
    """Eigenvalues sorted non-increasing, with aligned orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _hermitian(m) -> np.ndarray:
    # the input check of both eigen kernels: square, finite, Hermitian
    a = as_square(m)
    if _hermiticity_defect(a) > DEFAULT_TOL:
        raise NotHermitianError(f"matrix is not Hermitian within {DEFAULT_TOL}")
    return a


def hermitian_eig(m) -> Spectrum:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues come back sorted non-increasing; ties keep the solver's
    ordering so repeated calls are deterministic. The reconstruction
    ``V diag(w) V^dag`` matches the input to 1e-10 for the dimensions this
    toolkit works at (d <= 64).
    """
    return _eigh(_hermitian(m))


def _eigh(a: np.ndarray) -> Spectrum:
    # hermitian_eig without the input check, for an array _hermitian checked
    # or hermitize made; a (count, k, k) stack gives each matrix's pairs
    # along the last axis, each ordered as a single matrix's would be
    try:
        w, v = np.linalg.eigh(hermitize(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    order = np.argsort(-w, axis=-1, kind="stable")
    return Spectrum(np.take_along_axis(w, order, -1), np.take_along_axis(v, order[..., None, :], -1))


def hermitian_eigvals(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted non-increasing, without eigenvectors.

    The checks and errors of ``hermitian_eig``, then LAPACK's values-only
    driver (``eigvalsh``), which skips building the eigenvectors. The values
    agree with ``hermitian_eig``'s to rounding, not bit for bit.
    """
    return _eigvalsh(_hermitian(m))


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    # hermitian_eigvals without the input check, on the same terms as _eigh;
    # a (count, k, k) stack gives one row of eigenvalues per matrix
    try:
        w = np.linalg.eigvalsh(hermitize(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    return w[..., ::-1]  # eigvalsh sorts ascending


def _check_entries(entries: int, what: str) -> None:
    # the one size refusal, made before an array of that many entries exists
    if entries > MAX_ENTRIES:
        raise BadParameterError(f"{what} would hold {entries} entries, above {MAX_ENTRIES}")


def _clusters(w: np.ndarray) -> np.ndarray:
    # cluster labels 0, 1, ... of non-increasing eigenvalues: a new cluster
    # starts wherever the gap to the previous value is >= GROUP_TOL
    return np.cumsum(np.concatenate(([False], w[:-1] - w[1:] >= GROUP_TOL)))[: w.size]


def schur_product(a, b) -> np.ndarray:
    """Entrywise (Hadamard) product of two equally shaped matrices."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise ShapeMismatchError(f"shapes {ma.shape} and {mb.shape} differ")
    return ma * mb


def tensor(a, b) -> np.ndarray:
    """Kronecker product, first factor on the left (slowest index)."""
    return _kron(as_matrix(a), as_matrix(b))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron of two 2-D arrays: the same products a[i, j] * b[k, l], so the
    # same bits, without np.kron's general-rank shape handling
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    dims = (d_first, d_second); keep = 0 keeps the first factor, 1 the second.
    """
    a = as_square(m)
    if not all(isinstance(d, numbers.Integral) for d in dims):
        raise BadParameterError(f"subsystem dimensions {tuple(dims)} must be integers")
    d0, d1 = int(dims[0]), int(dims[1])
    if d0 < 1 or d1 < 1:
        raise BadParameterError("subsystem dimensions must be positive")
    if a.shape[0] != d0 * d1:
        raise DimMismatchError(f"matrix of size {a.shape[0]} is not {d0}x{d1}")
    if keep not in (0, 1):
        raise BadParameterError("keep must be 0 (first factor) or 1 (second)")
    t = a.reshape(d0, d1, d0, d1)
    return np.einsum("ibjb->ij", t) if keep == 0 else np.einsum("aiaj->ij", t)


def entrywise_l1(m) -> float:
    """Sum of the absolute values of all matrix entries."""
    return float(np.sum(np.abs(as_matrix(m))))


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(as_matrix(m)))


def _require_density(tr, w: np.ndarray) -> None:
    """The one density check on a matrix's trace and its eigenvalues.

    ``_hermitian`` has raised NotHermitianError already, before the eigen
    kernel gave ``w``, so the order is Hermitian, then unit trace
    (TraceNotOneError), then PSD (NotPositiveError).
    """
    tr = complex(tr)
    if abs(tr - 1.0) > DEFAULT_TOL:
        raise TraceNotOneError(f"trace {tr} is not 1 within {DEFAULT_TOL}")
    _require_psd(w, NotPositiveError)


def _density_eigvals(m) -> tuple[np.ndarray, np.ndarray]:
    # the density check on eigenvalues alone: the coerced matrix and its spectrum
    a = _hermitian(m)
    w = _eigvalsh(a)
    _require_density(np.trace(a), w)
    return a, w


def _require_psd(w: np.ndarray, error, what: str = "") -> None:
    # the one positivity test: no eigenvalue below -DEFAULT_TOL
    if w.min(initial=0.0) < -DEFAULT_TOL:
        raise error(f"{what}eigenvalue {w.min()} below -{DEFAULT_TOL}")


def _clamped(w: np.ndarray) -> np.ndarray:
    # a copy with entries within EIG_CLAMP of zero, and negative ones, set to 0
    w = w.copy()
    w[np.abs(w) <= EIG_CLAMP] = 0.0
    w[w < 0.0] = 0.0
    return w


_STATE_ERRORS = (NotHermitianError, TraceNotOneError, NotPositiveError)


def _clamped_density_eigvals(m) -> np.ndarray:
    # the density check with InvalidStateError, then eigenvalues clamped at 0;
    # a DensityMatrix, checked when it was built, passes the spectrum it keeps
    w = getattr(m, "_eigvals", None)
    if w is None:
        try:
            _, w = _density_eigvals(m)
        except _STATE_ERRORS as exc:
            raise InvalidStateError(f"state: {exc}") from None
    return _clamped(w)


def _clamped_density_eigs(m) -> tuple[np.ndarray, np.ndarray]:
    # _clamped_density_eigvals, with the eigenvectors too
    try:
        a = _hermitian(m)
        spec = _eigh(a)
        _require_density(np.trace(a), spec.eigenvalues)
    except _STATE_ERRORS as exc:
        raise InvalidStateError(f"state: {exc}") from None
    return _clamped(spec.eigenvalues), spec.eigenvectors


def shannon_entropy(p) -> float:
    """Shannon entropy of a probability vector, in bits."""
    q = _finite(np.asarray(p, dtype=float), "probability")
    if q.ndim != 1:
        raise ShapeMismatchError("expected a 1-D probability vector")
    if q.min(initial=0.0) < -DEFAULT_TOL:
        raise BadParameterError(f"probability {q.min()} below -{DEFAULT_TOL}")
    if abs(q.sum() - 1.0) > DEFAULT_TOL:
        raise BadParameterError(f"probabilities sum to {q.sum()}, not 1 within {DEFAULT_TOL}")
    return _entropy(_clamped(q))


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in bits. Raises InvalidStateError on a non-state."""
    return _entropy(_clamped_density_eigvals(rho))


def _entropy(w: np.ndarray) -> float:
    # -sum w log2 w over the positive entries of clamped values
    pos = w[w > 0.0]
    return float(-np.sum(pos * np.log2(pos)))


def _relative_entropy_core(
    rho: np.ndarray, sigma: np.ndarray, sigma_eigs=None, rho_eigs=None
) -> float:
    # S(rho||sigma) with sigma allowed to be sub-normalized (PSD, trace <= 1).
    # Returns +inf when supp(rho) is not contained in supp(sigma). A caller
    # that has checked sigma passes its clamped eigenvalues and eigenvectors
    # as sigma_eigs, and one that has checked rho its clamped eigenvalues as
    # rho_eigs, so neither is diagonalized a second time.
    wr = _clamped_density_eigvals(rho) if rho_eigs is None else rho_eigs
    if sigma_eigs is None:
        spec = hermitian_eig(sigma)
        _require_psd(spec.eigenvalues, InvalidStateError, "second argument has ")
        sigma_eigs = _clamped(spec.eigenvalues), spec.eigenvectors
    ws, vs = sigma_eigs
    # weights <u_j| rho |u_j> in the eigenbasis of sigma, rho @ vs through BLAS
    u = np.real(np.einsum("ij,ij->j", vs.conj(), rho @ vs))
    tr_rho_log_sigma = 0.0
    for weight, ev in zip(u, ws):
        if ev > 0.0:
            tr_rho_log_sigma += weight * math.log2(ev)
        elif weight > EIG_CLAMP:
            return float("inf")
    return -_entropy(wr) - tr_rho_log_sigma


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy S(rho||sigma) in bits; +inf on support violation."""
    a, b = as_square(rho), as_square(sigma)
    if a.shape != b.shape:
        raise DimMismatchError(f"shapes {a.shape} and {b.shape} differ")
    # the second argument must itself be a state here; its check's spectrum is
    # reused, and so is the spectrum a DensityMatrix first argument keeps
    return _relative_entropy_core(a, b, _clamped_density_eigs(b), _clamped_density_eigvals(rho))


def _sorted_desc(x) -> np.ndarray:
    v = _finite(np.asarray(x, dtype=complex), "vector")
    if v.ndim != 1 or v.size == 0:
        raise ShapeMismatchError("expected a nonempty 1-D vector")
    if np.max(np.abs(v.imag), initial=0.0) > IMAG_TOL:
        raise BadParameterError("majorization is defined for real vectors")
    return np.sort(v.real)[::-1]


def majorizes(x, y, tol: float = DEFAULT_TOL) -> bool:
    """True when x majorizes y: all partial sums dominate and totals agree within tol."""
    xs, ys = _sorted_desc(x), _sorted_desc(y)
    if xs.shape != ys.shape:
        raise LengthMismatchError(f"lengths {xs.size} and {ys.size} differ")
    cx, cy = np.cumsum(xs), np.cumsum(ys)
    if np.any(cy > cx + tol):
        return False
    return bool(abs(cx[-1] - cy[-1]) <= tol)


def weakly_majorizes(x, y, tol: float = DEFAULT_TOL) -> bool:
    """Partial-sum domination only (no total-sum equality)."""
    xs, ys = _sorted_desc(x), _sorted_desc(y)
    if xs.shape != ys.shape:
        raise LengthMismatchError(f"lengths {xs.size} and {ys.size} differ")
    return bool(not np.any(np.cumsum(ys) > np.cumsum(xs) + tol))
