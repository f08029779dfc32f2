"""States, observables, fine-grainings, POVMs and seeded random generators.

All random generators are deterministic functions of their seed. A single
64-bit seed is split into independent streams with numpy's SeedSequence
spawning, so every consumer can derive child seeds without correlation.

Observables, fine-grainings and POVMs are immutable: their fields cannot be
reassigned and every array they hold is a read-only copy, so an object never
changes after it is built (to change one, build a new one). A POVM holds its
effects as one read-only (r, d, d) stack. Structure derived from an
observable, its block bases and the fine-grained basis, is therefore computed
once, on first use, and shared by every later call.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

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
    VectorOutsideEigenspaceError,
)


def _integer(name: str, value):
    """Return value if it is an integer; raise BadParameterError otherwise."""
    if not isinstance(value, numbers.Integral):
        raise BadParameterError(f"{name} must be an integer")
    return value


def as_generator(seed, **sizes: int) -> np.random.Generator:
    """Accept an int seed, a SeedSequence or a Generator and return a Generator.

    Every random generator enters here and names the dimensions and counts
    it draws with as keywords; one that is not an integer, or is below 1,
    raises BadParameterError.
    """
    for name, value in sizes.items():
        if _integer(name, value) < 1:
            raise BadParameterError(f"{name} must be positive")
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

    def validate(self) -> "DensityMatrix":
        validate_density(self.matrix)
        return self


def validate_density(m) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity, and wrap the matrix."""
    a, _ = linalg._density_spectrum(m)
    return DensityMatrix(matrix=a)


def _read_only(a) -> np.ndarray:
    # a private copy that nothing can write to, so no caller's array is aliased
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(eq=False, frozen=True)
class Observable:
    """A Hermitian observable as distinct eigenvalues with orthogonal projectors.

    Immutable: the fields cannot be reassigned and the eigenvalues and
    projectors are read-only copies of what the constructor was given. Each
    block basis is computed on its first use and reused after it.
    """

    eigenvalues: np.ndarray        # distinct, strictly decreasing
    projectors: tuple[np.ndarray, ...]
    degeneracies: tuple[int, ...]

    def __post_init__(self):
        # a frozen dataclass sets its own fields through object.__setattr__
        object.__setattr__(self, "eigenvalues", _read_only(self.eigenvalues))
        object.__setattr__(self, "projectors", tuple(_read_only(p) for p in self.projectors))
        object.__setattr__(self, "degeneracies", tuple(self.degeneracies))

    @cached_property
    def _block_bases(self) -> list:
        # slot n holds block_basis(n) once it has been computed
        return [None] * self.n_outcomes

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)

    def matrix(self) -> np.ndarray:
        return sum(r * p for r, p in zip(self.eigenvalues, self.projectors))

    def block_basis(self, n: int) -> np.ndarray:
        """Deterministic orthonormal basis (columns) of range(P_n), read-only.

        The first call for n diagonalizes P_n; later calls return the same
        array. A rank that differs from the degeneracy raises on every call.
        """
        cols = self._block_bases[n]
        if cols is None:
            spec = linalg.hermitian_eig(self.projectors[n])
            cols = spec.eigenvectors[:, spec.eigenvalues > 0.5]
            if cols.shape[1] != self.degeneracies[n]:
                raise VectorOutsideEigenspaceError(
                    f"projector {n} has rank {cols.shape[1]}, expected {self.degeneracies[n]}"
                )
            cols.setflags(write=False)
            self._block_bases[n] = cols
        return cols

    def validate(self) -> "Observable":
        vals = linalg._finite(np.asarray(self.eigenvalues, dtype=float), "eigenvalue")
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
            if linalg.hermiticity_defect(p) > linalg.DEFAULT_TOL:
                raise NotHermitianError(f"projector {n} is not Hermitian within {linalg.DEFAULT_TOL}")
            for m_, q in enumerate(self.projectors):
                prod = p @ q
                target = p if m_ == n else 0.0
                if np.max(np.abs(prod - target)) > linalg.DEFAULT_TOL:
                    raise BadParameterError(f"projectors {n},{m_} are not orthogonal idempotents")
            if abs(np.real(np.trace(p)) - self.degeneracies[n]) > linalg.DEFAULT_TOL:
                raise BadParameterError(f"projector {n} trace differs from its degeneracy")
            total += p
        if np.max(np.abs(total - np.eye(d))) > linalg.DEFAULT_TOL:
            raise BadParameterError("projectors do not resolve the identity")
        return self


def observable_from_projectors(values, projectors) -> Observable:
    """Build an Observable from eigenvalues and projectors, sorting values decreasing."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or len(projectors) != vals.size:
        raise ShapeMismatchError("eigenvalue/projector count mismatch")
    order = np.argsort(-vals, kind="stable")
    projs = tuple(linalg.as_square(projectors[i]) for i in order)
    degs = tuple(int(round(float(np.real(np.trace(p))))) for p in projs)
    obs = Observable(eigenvalues=vals[order], projectors=projs, degeneracies=degs)
    return obs.validate()


def spectral_decompose(h) -> Observable:
    """Spectral decomposition with eigenvalue clustering.

    Consecutive sorted eigenvalues are split whenever their gap reaches
    ``linalg.GROUP_TOL``. Afterwards every cluster must have spread strictly
    below it and every split gap must be strictly above it; a spectrum that
    cannot be separated this way raises AmbiguousGroupingError.
    """
    spec = linalg.hermitian_eig(h)
    w, v = spec.eigenvalues, spec.eigenvectors
    if w.size == 0:
        raise ShapeMismatchError("cannot decompose an empty matrix")
    groups: list[list[int]] = [[0]]
    for i in range(1, w.size):
        if w[i - 1] - w[i] >= linalg.GROUP_TOL:
            groups.append([i])
        else:
            groups[-1].append(i)
    values, projectors = [], []
    for g in groups:
        spread = w[g[0]] - w[g[-1]]
        if spread >= linalg.GROUP_TOL:
            raise AmbiguousGroupingError(
                f"cluster spread {spread} is not below group_tol={linalg.GROUP_TOL}"
            )
        cols = v[:, g]
        values.append(float(np.mean(w[g])))
        projectors.append(cols @ cols.conj().T)
    for a, b in zip(groups[:-1], groups[1:]):
        gap = w[a[-1]] - w[b[0]]
        if gap <= linalg.GROUP_TOL:
            raise AmbiguousGroupingError(
                f"cluster gap {gap} is not above group_tol={linalg.GROUP_TOL}"
            )
    degs = tuple(len(g) for g in groups)
    return Observable(
        eigenvalues=np.asarray(values, dtype=float),
        projectors=tuple(projectors),
        degeneracies=degs,
    )


@dataclass(eq=False, frozen=True)
class FineGraining:
    """Per-block orthonormal bases refining an observable's eigenspaces.

    blocks[n] holds the d x d_n basis columns of range(P_n); labels[n] holds
    the distinct fine-grained outcome labels, chosen so block membership is
    recoverable from the label alone. Immutable like Observable: blocks and
    labels are read-only copies, and the joined basis and the block slices
    are computed on first use and reused after it.
    """

    parent: Observable
    blocks: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(_read_only(b) for b in self.blocks))
        object.__setattr__(self, "labels", tuple(_read_only(x) for x in self.labels))

    @property
    def dim(self) -> int:
        return self.parent.dim

    @cached_property
    def basis(self) -> np.ndarray:
        """The d x d fine-grained basis: the blocks side by side, read-only."""
        b = np.hstack(self.blocks)
        b.setflags(write=False)
        return b

    @cached_property
    def _block_slices(self) -> tuple[slice, ...]:
        out, start = [], 0
        for b in self.blocks:
            out.append(slice(start, start + b.shape[1]))
            start += b.shape[1]
        return tuple(out)

    def block_slices(self) -> tuple[slice, ...]:
        """Column range of each block inside basis."""
        return self._block_slices

    def refines(self, obs: Observable) -> bool:
        if len(self.blocks) != obs.n_outcomes or self.dim != obs.dim:
            return False
        for b, p in zip(self.blocks, obs.projectors):
            if np.max(np.abs(b @ b.conj().T - p)) > linalg.DEFAULT_TOL:
                return False
        return True


def _label_step(obs: Observable) -> float:
    if obs.n_outcomes < 2:
        return 1.0
    gaps = -np.diff(obs.eigenvalues)
    return float(gaps.min() / (2.0 * max(obs.degeneracies)))


def fine_graining(obs: Observable, blocks=None) -> FineGraining:
    """Build a fine-graining of obs; blocks default to each projector's eigenbasis."""
    if blocks is None:
        blocks = tuple(obs.block_basis(n) for n in range(obs.n_outcomes))
    else:
        blocks = tuple(linalg._finite(np.asarray(b, dtype=complex), "block") for b in blocks)
        if len(blocks) != obs.n_outcomes:
            raise BadProfileError("one block of vectors per outcome is required")
        for n, (b, p, d_n) in enumerate(zip(blocks, obs.projectors, obs.degeneracies)):
            if b.shape != (obs.dim, d_n):
                raise DimMismatchError(f"block {n} must be {obs.dim}x{d_n}")
            if linalg.orthonormality_defect(b) > linalg.DEFAULT_TOL:
                raise NonOrthonormalError(f"block {n} columns are not orthonormal")
            if np.max(np.abs(p @ b - b)) > linalg.DEFAULT_TOL:
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


def bipartite(state, dim_a: int, dim_b: int) -> BipartiteState:
    _integer("dim_a", dim_a)
    _integer("dim_b", dim_b)
    rho = state if isinstance(state, DensityMatrix) else validate_density(state)
    if rho.dim != dim_a * dim_b:
        raise DimMismatchError(f"state dimension {rho.dim} is not {dim_a}*{dim_b}")
    return BipartiteState(dims=(dim_a, dim_b), state=rho)


@dataclass(eq=False, frozen=True)
class Povm:
    """A positive operator-valued measure: Hermitian PSD effects summing to 1.

    Immutable: effects is a read-only (r, d, d) copy of the effects given.
    """

    effects: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "effects", _read_only(self.effects))

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


def make_povm(effects) -> Povm:
    ops = tuple(linalg.as_square(e) for e in effects)
    if not ops:
        raise BadParameterError("a POVM needs at least one effect")
    d = ops[0].shape[0]
    for n, e in enumerate(ops):
        if e.shape != (d, d):
            raise DimMismatchError("effect dimensions differ")
        try:
            w = linalg.hermitian_eig(e).eigenvalues
        except NotHermitianError:
            raise NotHermitianError(
                f"effect {n} is not Hermitian within {linalg.DEFAULT_TOL}"
            ) from None
        linalg._require_psd(w, NotPositiveError, f"effect {n} has ")
    if np.max(np.abs(sum(ops) - np.eye(d))) > linalg.DEFAULT_TOL:
        raise BadParameterError("effects do not sum to the identity")
    return Povm(effects=ops)


def random_density(dim: int, rank: int | None = None, seed=0) -> DensityMatrix:
    """G G^dag / Tr with G a seeded dim x rank complex Gaussian matrix."""
    rng = as_generator(seed, dim=dim)
    rank = dim if rank is None else int(_integer("rank", rank))
    if not 1 <= rank <= dim:
        raise BadParameterError(f"rank must lie in [1, {dim}]")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return DensityMatrix(matrix=_normalized_gram(g))


def _normalized_gram(g: np.ndarray) -> np.ndarray:
    # G G^dag / Tr(G G^dag), matrix by matrix for a (count, dim, rank) stack
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def random_unitary(dim: int, seed=0) -> np.ndarray:
    """Haar-style unitary from the QR factorization of a seeded complex Gaussian."""
    rng = as_generator(seed, dim=dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_observable(dim: int, profile, seed=0) -> Observable:
    """Random observable whose eigenspace dimensions follow the profile."""
    rng = as_generator(seed, dim=dim)
    profile = tuple(int(_integer(f"profile entry {p!r}", p)) for p in profile)
    if any(p < 1 for p in profile) or sum(profile) != dim:
        raise BadProfileError(f"profile {profile} does not sum to dim={dim}")
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
    rng = as_generator(seed, dim=dim, n_effects=n_effects)
    g = np.array([rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                  for _ in range(n_effects)])
    blocks = g @ g.conj().transpose(0, 2, 1)
    spec = linalg.hermitian_eig(sum(blocks))
    inv_sqrt = spec.eigenvectors @ np.diag(spec.eigenvalues**-0.5) @ spec.eigenvectors.conj().T
    return Povm(effects=inv_sqrt @ blocks @ inv_sqrt)


def random_bipartite(dim_a: int, dim_b: int, rank: int | None = None, seed=0) -> BipartiteState:
    rng = as_generator(seed, dim_a=dim_a, dim_b=dim_b)
    return BipartiteState(dims=(dim_a, dim_b), state=random_density(dim_a * dim_b, rank, rng))


def random_pure(dim: int, seed=0) -> np.ndarray:
    """A seeded Haar-style unit vector."""
    rng = as_generator(seed, dim=dim)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
