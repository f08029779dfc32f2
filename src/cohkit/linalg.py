"""Dense complex linear algebra kernel.

All entropic quantities are in bits (log base 2). Eigenvalues within
``EIG_CLAMP`` of zero are clamped to exactly zero before any logarithm is
taken, so rank-deficient states are handled without sign noise.
"""

from __future__ import annotations

import math
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
    ShapeMismatchError,
)

DEFAULT_TOL = 1e-8
EIG_CLAMP = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` (array-like or object with a ``.matrix``) to a complex 2-D array."""
    a = np.asarray(getattr(m, "matrix", m), dtype=complex)
    if a.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise BadParameterError("matrix entries must be finite")
    return a


def as_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermiticity_defect(m) -> float:
    a = as_square(m)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dag) / 2, which removes rounding asymmetry."""
    return (m + m.conj().T) / 2.0


def orthonormality_defect(b: np.ndarray) -> float:
    """Largest entry of B^dag B - 1: how far the columns of B are from orthonormal."""
    return float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1]))))


def basis_matrix(basis, dim: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A dim x dim unitary whose columns form the basis.

    ``basis`` is a matrix or an object with a ``.basis`` (a fine-graining).
    """
    b = np.asarray(getattr(basis, "basis", basis), dtype=complex)
    if b.shape != (dim, dim):
        raise BadBasisError(f"basis must be {dim}x{dim}, got {b.shape}")
    if orthonormality_defect(b) > tol:
        raise BadBasisError("basis columns are not orthonormal")
    return b


@dataclass(eq=False)
class Spectrum:
    """Eigenvalues sorted non-increasing, with aligned orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m, tol: float = DEFAULT_TOL) -> Spectrum:
    """Spectral decomposition of a Hermitian matrix.

    Eigenvalues come back sorted non-increasing; ties keep the solver's
    ordering so repeated calls are deterministic. The reconstruction
    ``V diag(w) V^dag`` matches the input to 1e-10 for the dimensions this
    toolkit works at (d <= 64).
    """
    a = as_square(m)
    if hermiticity_defect(a) > tol:
        raise NotHermitianError(f"matrix is not Hermitian within {tol}")
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
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    dims = (d_first, d_second); keep = 0 keeps the first factor, 1 the second.
    """
    a = as_square(m)
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


def _clamped_density_eigs(m, tol: float) -> tuple[np.ndarray, np.ndarray]:
    # Shared validation path: Hermitian, unit trace, PSD within tol.
    a = as_square(m)
    if hermiticity_defect(a) > tol:
        raise InvalidStateError(f"state is not Hermitian within {tol}")
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > tol:
        raise InvalidStateError(f"state trace {tr} is not 1 within {tol}")
    spec = hermitian_eig(a, tol=tol)
    w = spec.eigenvalues.copy()
    if w.min(initial=0.0) < -tol:
        raise InvalidStateError(f"state has eigenvalue {w.min()} below -{tol}")
    w[np.abs(w) <= EIG_CLAMP] = 0.0
    w[w < 0.0] = 0.0
    return w, spec.eigenvectors


def shannon_entropy(p, tol: float = DEFAULT_TOL) -> float:
    """Shannon entropy of a probability vector, in bits."""
    q = np.asarray(p, dtype=float).copy()
    if q.ndim != 1:
        raise ShapeMismatchError("expected a 1-D probability vector")
    if q.min(initial=0.0) < -tol:
        raise BadParameterError(f"probability {q.min()} below -{tol}")
    if abs(q.sum() - 1.0) > tol:
        raise BadParameterError(f"probabilities sum to {q.sum()}, not 1 within {tol}")
    q[np.abs(q) <= EIG_CLAMP] = 0.0
    q[q < 0.0] = 0.0
    pos = q[q > 0.0]
    return float(-np.sum(pos * np.log2(pos)))


def von_neumann_entropy(rho, tol: float = DEFAULT_TOL) -> float:
    """Von Neumann entropy in bits. Raises InvalidStateError on a non-state."""
    w, _ = _clamped_density_eigs(rho, tol)
    pos = w[w > 0.0]
    return float(-np.sum(pos * np.log2(pos)))


def _relative_entropy_core(rho: np.ndarray, sigma: np.ndarray, tol: float) -> float:
    # S(rho||sigma) with sigma allowed to be sub-normalized (PSD, trace <= 1).
    # Returns +inf when supp(rho) is not contained in supp(sigma).
    wr, _ = _clamped_density_eigs(rho, tol)
    spec = hermitian_eig(sigma, tol=tol)
    ws = spec.eigenvalues.copy()
    if ws.min(initial=0.0) < -tol:
        raise InvalidStateError(f"second argument has eigenvalue {ws.min()} below -{tol}")
    ws[np.abs(ws) <= EIG_CLAMP] = 0.0
    ws[ws < 0.0] = 0.0
    pos = wr[wr > 0.0]
    tr_rho_log_rho = float(np.sum(pos * np.log2(pos)))
    # weights <u_j| rho |u_j> in the eigenbasis of sigma
    u = np.real(np.einsum("ij,ik,kj->j", spec.eigenvectors.conj(), rho, spec.eigenvectors))
    tr_rho_log_sigma = 0.0
    for weight, ev in zip(u, ws):
        if ev > 0.0:
            tr_rho_log_sigma += weight * math.log2(ev)
        elif weight > EIG_CLAMP:
            return float("inf")
    return tr_rho_log_rho - tr_rho_log_sigma


def relative_entropy(rho, sigma, tol: float = DEFAULT_TOL) -> float:
    """Quantum relative entropy S(rho||sigma) in bits; +inf on support violation."""
    a, b = as_square(rho), as_square(sigma)
    if a.shape != b.shape:
        raise DimMismatchError(f"shapes {a.shape} and {b.shape} differ")
    _clamped_density_eigs(b, tol)  # second argument must itself be a state here
    return _relative_entropy_core(a, b, tol)


def _sorted_desc(x) -> np.ndarray:
    v = np.asarray(x, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ShapeMismatchError("expected a nonempty 1-D vector")
    if np.max(np.abs(v.imag), initial=0.0) > 1e-12:
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
