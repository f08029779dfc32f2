"""States, observables, fine-grainings, POVMs and seeded random generators.

All random generators are deterministic functions of their seed. A single
64-bit seed is split into independent streams with numpy's SeedSequence
spawning, so every consumer can derive child seeds without correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    AmbiguousGroupingError,
    BadParameterError,
    BadProfileError,
    DimMismatchError,
    NonOrthonormalError,
    NotHermitianError,
    NotPositiveError,
    ShapeMismatchError,
    TraceNotOneError,
    VectorOutsideEigenspaceError,
)


def as_generator(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence or a Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(eq=False)
class DensityMatrix:
    """A validated density matrix. Construct through validate_density or a generator."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return linalg.hermitian_eig(self.matrix).eigenvalues

    def validate(self, tol: float = linalg.DEFAULT_TOL) -> "DensityMatrix":
        validate_density(self.matrix, tol)
        return self


def validate_density(m, tol: float = linalg.DEFAULT_TOL) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity, and wrap the matrix."""
    a = linalg.as_square(m)
    if linalg.hermiticity_defect(a) > tol:
        raise NotHermitianError(f"density matrix is not Hermitian within {tol}")
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > tol:
        raise TraceNotOneError(f"trace {tr} differs from 1 by more than {tol}")
    w = linalg.hermitian_eig(a, tol=tol).eigenvalues
    if w.min(initial=0.0) < -tol:
        raise NotPositiveError(f"eigenvalue {w.min()} below -{tol}")
    return DensityMatrix(matrix=a)


@dataclass(eq=False)
class Observable:
    """A Hermitian observable as distinct eigenvalues with orthogonal projectors."""

    eigenvalues: np.ndarray        # distinct, strictly decreasing
    projectors: tuple[np.ndarray, ...]
    degeneracies: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)

    def matrix(self) -> np.ndarray:
        return sum(r * p for r, p in zip(self.eigenvalues, self.projectors))

    def block_basis(self, n: int) -> np.ndarray:
        """Deterministic orthonormal basis (columns) of range(P_n)."""
        spec = linalg.hermitian_eig(self.projectors[n])
        cols = spec.eigenvectors[:, spec.eigenvalues > 0.5]
        if cols.shape[1] != self.degeneracies[n]:
            raise VectorOutsideEigenspaceError(
                f"projector {n} has rank {cols.shape[1]}, expected {self.degeneracies[n]}"
            )
        return cols

    def validate(self, tol: float = linalg.DEFAULT_TOL) -> "Observable":
        vals = np.asarray(self.eigenvalues, dtype=float)
        if vals.ndim != 1 or len(self.projectors) != vals.size:
            raise ShapeMismatchError("eigenvalue/projector count mismatch")
        if not self.projectors:
            raise BadParameterError("an observable needs at least one outcome")
        if np.any(np.diff(vals) >= 0):
            raise BadParameterError("distinct eigenvalues must be strictly decreasing")
        d = self.dim
        total = np.zeros((d, d), dtype=complex)
        for n, p in enumerate(self.projectors):
            if p.shape != (d, d):
                raise DimMismatchError("projector dimensions differ")
            if linalg.hermiticity_defect(p) > tol:
                raise NotHermitianError(f"projector {n} is not Hermitian within {tol}")
            for m_, q in enumerate(self.projectors):
                prod = p @ q
                target = p if m_ == n else 0.0
                if np.max(np.abs(prod - target)) > tol:
                    raise BadParameterError(f"projectors {n},{m_} are not orthogonal idempotents")
            if abs(np.real(np.trace(p)) - self.degeneracies[n]) > tol:
                raise BadParameterError(f"projector {n} trace differs from its degeneracy")
            total += p
        if np.max(np.abs(total - np.eye(d))) > tol:
            raise BadParameterError("projectors do not resolve the identity")
        return self


def observable_from_projectors(values, projectors, tol: float = linalg.DEFAULT_TOL) -> Observable:
    """Build an Observable from eigenvalues and projectors, sorting values decreasing."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or len(projectors) != vals.size:
        raise ShapeMismatchError("eigenvalue/projector count mismatch")
    order = np.argsort(-vals, kind="stable")
    projs = tuple(linalg.as_square(projectors[i]) for i in order)
    degs = tuple(int(round(float(np.real(np.trace(p))))) for p in projs)
    obs = Observable(eigenvalues=vals[order], projectors=projs, degeneracies=degs)
    return obs.validate(tol)


def spectral_decompose(h, group_tol: float = 1e-6) -> Observable:
    """Spectral decomposition with eigenvalue clustering.

    Consecutive sorted eigenvalues are split whenever their gap reaches
    group_tol. Afterwards every cluster must have spread strictly below
    group_tol and every split gap must be strictly above it; a spectrum that
    cannot be separated this way raises AmbiguousGroupingError.
    """
    spec = linalg.hermitian_eig(h)
    w, v = spec.eigenvalues, spec.eigenvectors
    if w.size == 0:
        raise ShapeMismatchError("cannot decompose an empty matrix")
    groups: list[list[int]] = [[0]]
    for i in range(1, w.size):
        if w[i - 1] - w[i] >= group_tol:
            groups.append([i])
        else:
            groups[-1].append(i)
    values, projectors = [], []
    for g in groups:
        spread = w[g[0]] - w[g[-1]]
        if spread >= group_tol:
            raise AmbiguousGroupingError(
                f"cluster spread {spread} is not below group_tol={group_tol}"
            )
        cols = v[:, g]
        values.append(float(np.mean(w[g])))
        projectors.append(cols @ cols.conj().T)
    for a, b in zip(groups[:-1], groups[1:]):
        gap = w[a[-1]] - w[b[0]]
        if gap <= group_tol:
            raise AmbiguousGroupingError(
                f"cluster gap {gap} is not above group_tol={group_tol}"
            )
    degs = tuple(len(g) for g in groups)
    return Observable(
        eigenvalues=np.asarray(values, dtype=float),
        projectors=tuple(projectors),
        degeneracies=degs,
    )


@dataclass(eq=False)
class FineGraining:
    """Per-block orthonormal bases refining an observable's eigenspaces.

    blocks[n] holds the d x d_n basis columns of range(P_n); labels[n] holds
    the distinct fine-grained outcome labels, chosen so block membership is
    recoverable from the label alone.
    """

    parent: Observable
    blocks: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.parent.dim

    @property
    def basis(self) -> np.ndarray:
        return np.hstack(self.blocks)

    def block_slices(self) -> list[slice]:
        out, start = [], 0
        for b in self.blocks:
            out.append(slice(start, start + b.shape[1]))
            start += b.shape[1]
        return out

    def refines(self, obs: Observable, tol: float = linalg.DEFAULT_TOL) -> bool:
        if len(self.blocks) != obs.n_outcomes or self.dim != obs.dim:
            return False
        for b, p in zip(self.blocks, obs.projectors):
            if np.max(np.abs(b @ b.conj().T - p)) > tol:
                return False
        return True


def _label_step(obs: Observable) -> float:
    if obs.n_outcomes < 2:
        return 1.0
    gaps = -np.diff(obs.eigenvalues)
    return float(gaps.min() / (2.0 * max(obs.degeneracies)))


def fine_graining(obs: Observable, blocks=None, tol: float = linalg.DEFAULT_TOL) -> FineGraining:
    """Build a fine-graining of obs; blocks default to each projector's eigenbasis."""
    if blocks is None:
        blocks = tuple(obs.block_basis(n) for n in range(obs.n_outcomes))
    else:
        blocks = tuple(np.asarray(b, dtype=complex) for b in blocks)
        if len(blocks) != obs.n_outcomes:
            raise BadProfileError("one block of vectors per outcome is required")
        for n, (b, p, d_n) in enumerate(zip(blocks, obs.projectors, obs.degeneracies)):
            if b.shape != (obs.dim, d_n):
                raise DimMismatchError(f"block {n} must be {obs.dim}x{d_n}")
            if linalg.orthonormality_defect(b) > tol:
                raise NonOrthonormalError(f"block {n} columns are not orthonormal")
            if np.max(np.abs(p @ b - b)) > tol:
                raise VectorOutsideEigenspaceError(f"block {n} leaves range(P_{n})")
    eps = _label_step(obs)
    labels = tuple(
        obs.eigenvalues[n] + eps * np.arange(b.shape[1], dtype=float)
        for n, b in enumerate(blocks)
    )
    return FineGraining(parent=obs, blocks=blocks, labels=labels)


@dataclass(eq=False)
class BipartiteState:
    """A density matrix on a tensor product, with the factor dimensions recorded."""

    dims: tuple[int, int]
    state: DensityMatrix

    @property
    def dim_a(self) -> int:
        return self.dims[0]

    @property
    def dim_b(self) -> int:
        return self.dims[1]

    def reduced_a(self) -> DensityMatrix:
        return DensityMatrix(linalg.partial_trace(self.state.matrix, self.dims, keep=0))

    def reduced_b(self) -> DensityMatrix:
        return DensityMatrix(linalg.partial_trace(self.state.matrix, self.dims, keep=1))


def bipartite(state, dim_a: int, dim_b: int, tol: float = linalg.DEFAULT_TOL) -> BipartiteState:
    rho = state if isinstance(state, DensityMatrix) else validate_density(state, tol)
    if rho.dim != dim_a * dim_b:
        raise DimMismatchError(f"state dimension {rho.dim} is not {dim_a}*{dim_b}")
    return BipartiteState(dims=(dim_a, dim_b), state=rho)


@dataclass(eq=False)
class Povm:
    """A positive operator-valued measure: Hermitian PSD effects summing to 1."""

    effects: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


def make_povm(effects, tol: float = linalg.DEFAULT_TOL) -> Povm:
    ops = tuple(linalg.as_square(e) for e in effects)
    if not ops:
        raise BadParameterError("a POVM needs at least one effect")
    d = ops[0].shape[0]
    total = np.zeros((d, d), dtype=complex)
    for n, e in enumerate(ops):
        if e.shape != (d, d):
            raise DimMismatchError("effect dimensions differ")
        if linalg.hermiticity_defect(e) > tol:
            raise NotHermitianError(f"effect {n} is not Hermitian within {tol}")
        w = linalg.hermitian_eig(e, tol=tol).eigenvalues
        if w.min(initial=0.0) < -tol:
            raise NotPositiveError(f"effect {n} has eigenvalue {w.min()} below -{tol}")
        total += e
    if np.max(np.abs(total - np.eye(d))) > tol:
        raise BadParameterError("effects do not sum to the identity")
    return Povm(effects=ops)


def random_density(dim: int, rank: int | None = None, seed=0) -> DensityMatrix:
    """G G^dag / Tr with G a seeded dim x rank complex Gaussian matrix."""
    if dim < 1:
        raise BadParameterError("dim must be positive")
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise BadParameterError(f"rank must lie in [1, {dim}]")
    rng = as_generator(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(matrix=m / np.trace(m).real)


def random_unitary(dim: int, seed=0) -> np.ndarray:
    """Haar-style unitary from the QR factorization of a seeded complex Gaussian."""
    if dim < 1:
        raise BadParameterError("dim must be positive")
    rng = as_generator(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_observable(dim: int, profile, seed=0) -> Observable:
    """Random observable whose eigenspace dimensions follow the profile."""
    profile = tuple(int(p) for p in profile)
    if any(p < 1 for p in profile) or sum(profile) != dim:
        raise BadProfileError(f"profile {profile} does not sum to dim={dim}")
    rng = as_generator(seed)
    u = random_unitary(dim, rng)
    # gaps of 0.5 plus Dirichlet shares of the spare room, so every gap
    # exceeds 0.5 by construction; the values span [0, max(10, n)]
    n = len(profile)
    spare = max(10.0, n) - 0.5 * (n - 1)
    shares = rng.dirichlet(np.ones(n + 1))[:n]
    vals = (0.5 * np.arange(n) + spare * np.cumsum(shares))[::-1]
    projectors, start = [], 0
    for p in profile:
        cols = u[:, start:start + p]
        projectors.append(cols @ cols.conj().T)
        start += p
    return Observable(
        eigenvalues=vals, projectors=tuple(projectors), degeneracies=profile
    )


def random_povm(dim: int, n_effects: int, seed=0) -> Povm:
    """Random full-rank POVM: normalized seeded Wishart blocks."""
    if n_effects < 1:
        raise BadParameterError("n_effects must be positive")
    rng = as_generator(seed)
    blocks = []
    for _ in range(n_effects):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    spec = linalg.hermitian_eig(total)
    inv_sqrt = spec.eigenvectors @ np.diag(spec.eigenvalues**-0.5) @ spec.eigenvectors.conj().T
    return Povm(effects=tuple(inv_sqrt @ b @ inv_sqrt for b in blocks))


def random_bipartite(dim_a: int, dim_b: int, rank: int | None = None, seed=0) -> BipartiteState:
    return BipartiteState(dims=(dim_a, dim_b), state=random_density(dim_a * dim_b, rank, seed))


def random_pure(dim: int, seed=0) -> np.ndarray:
    """A seeded Haar-style unit vector."""
    rng = as_generator(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
