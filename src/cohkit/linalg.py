"""Dense complex linear algebra kernel and the library's tolerance policy.

All entropic quantities are in bits (log base 2). Eigenvalues within
``EIG_CLAMP`` of zero are clamped to exactly zero before any logarithm is
taken, so rank-deficient states are handled without sign noise.

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
- ``NULL_TOL`` 1e-9: singular values ``<=`` it span ``commutant``.
- ``GROUP_TOL`` 1e-6: sorted eigenvalues a gap ``<`` it apart share a
  cluster in ``spectral_decompose``.
- ``IMAG_TOL`` 1e-12: majorization rejects a vector whose imaginary parts
  reach ``>`` it.
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


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` (array-like or object with a ``.matrix``) to a complex 2-D array."""
    a = np.asarray(getattr(m, "matrix", m), dtype=complex)
    if a.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return _finite(a, "matrix")


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    # the one finiteness check: a NaN or inf entry is an error, never dropped
    if not np.isfinite(a).all():
        raise BadParameterError(f"{what} entries must be finite")
    return a


def as_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {a.shape}")
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


@dataclass(eq=False)
class Spectrum:
    """Eigenvalues sorted non-increasing, with aligned orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m) -> Spectrum:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues come back sorted non-increasing; ties keep the solver's
    ordering so repeated calls are deterministic. The reconstruction
    ``V diag(w) V^dag`` matches the input to 1e-10 for the dimensions this
    toolkit works at (d <= 64).
    """
    a = as_square(m)
    if _hermiticity_defect(a) > DEFAULT_TOL:
        raise NotHermitianError(f"matrix is not Hermitian within {DEFAULT_TOL}")
    try:
        w, v = np.linalg.eigh(hermitize(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    order = np.argsort(-w, kind="stable")
    return Spectrum(eigenvalues=w[order], eigenvectors=v[:, order])


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


def _density_spectrum(m) -> tuple[np.ndarray, Spectrum]:
    """The one density check: Hermitian, then unit trace, then PSD.

    Returns the coerced matrix and its spectrum. Raises NotHermitianError
    (from hermitian_eig), TraceNotOneError or NotPositiveError.
    """
    a = as_square(m)
    spec = hermitian_eig(a)
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > DEFAULT_TOL:
        raise TraceNotOneError(f"trace {tr} is not 1 within {DEFAULT_TOL}")
    _require_psd(spec.eigenvalues, NotPositiveError)
    return a, spec


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


def _clamped_density_eigs(m) -> tuple[np.ndarray, np.ndarray]:
    # the density check with InvalidStateError, then eigenvalues clamped at 0
    try:
        _, spec = _density_spectrum(m)
    except (NotHermitianError, TraceNotOneError, NotPositiveError) as exc:
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
    q = _clamped(q)
    pos = q[q > 0.0]
    return float(-np.sum(pos * np.log2(pos)))


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in bits. Raises InvalidStateError on a non-state."""
    w, _ = _clamped_density_eigs(rho)
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
    wr = _clamped_density_eigs(rho)[0] if rho_eigs is None else rho_eigs
    if sigma_eigs is None:
        spec = hermitian_eig(sigma)
        _require_psd(spec.eigenvalues, InvalidStateError, "second argument has ")
        sigma_eigs = _clamped(spec.eigenvalues), spec.eigenvectors
    ws, vs = sigma_eigs
    pos = wr[wr > 0.0]
    tr_rho_log_rho = float(np.sum(pos * np.log2(pos)))
    # weights <u_j| rho |u_j> in the eigenbasis of sigma
    u = np.real(np.einsum("ij,ik,kj->j", vs.conj(), rho, vs))
    tr_rho_log_sigma = 0.0
    for weight, ev in zip(u, ws):
        if ev > 0.0:
            tr_rho_log_sigma += weight * math.log2(ev)
        elif weight > EIG_CLAMP:
            return float("inf")
    return tr_rho_log_rho - tr_rho_log_sigma


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy S(rho||sigma) in bits; +inf on support violation."""
    a, b = as_square(rho), as_square(sigma)
    if a.shape != b.shape:
        raise DimMismatchError(f"shapes {a.shape} and {b.shape} differ")
    # the second argument must itself be a state here; its check's spectrum is reused
    return _relative_entropy_core(a, b, _clamped_density_eigs(b))


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
