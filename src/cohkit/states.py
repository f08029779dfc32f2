"""States, observables, fine-grainings, POVMs and seeded random generators.

All random generators are deterministic functions of their seed. A single
64-bit seed is split into independent streams with numpy's SeedSequence
spawning, so every consumer can derive child seeds without correlation.

States, bipartite states, observables, fine-grainings and POVMs are
immutable: their fields cannot be reassigned and every array they hold is a
read-only copy, so an object never changes after it is built (to change one,
build a new one). A POVM holds its effects as one read-only (r, d, d) stack.
Structure derived from a value is therefore computed once and shared by every
later call: an observable's block bases, a fine-graining's joined basis and a
bipartite state's reductions, each on first use. A fine-graining keeps the
answer of its check against its parent observable the same way; another
observable is checked on every call. An observable keeps the frame it was
built from, a unitary whose column blocks span its eigenspaces:
``random_observable`` keeps the unitary it drew and ``spectral_decompose`` the
eigenvectors it found, and any other observable puts its block bases side by
side on first use. The pinchings compress a state into that frame.

A DensityMatrix and a BipartiteState are checked when they are built, so a
value of either type is always a state. ``DensityMatrix(m)`` raises
NotHermitianError, TraceNotOneError or NotPositiveError for a matrix that is
not one, and keeps the eigenvalues its check computed; the library's
entropies of a DensityMatrix read them instead of diagonalizing again. A
pinched or dephased state is checked, with the same errors in the same order,
on the spectrum read off its blocks. The one exception is
``channels.evolve_path``: it checks its input state and wraps each later step
unchecked, because a trace-preserving channel maps states to states, and such
a step computes its spectrum on first use.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    """Return value if it is an integer, not a bool; raise BadParameterError otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise BadParameterError(f"{name} must be an integer")
    return value


def _seed(seed):
    """Return seed if it is a non-negative integer; raise BadParameterError otherwise."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise BadParameterError("seed must be a non-negative integer")
    return seed


def as_generator(seed, **sizes: int) -> np.random.Generator:
    """Accept a non-negative int seed, a SeedSequence or a Generator and return a Generator.

    Every random generator enters here and names the dimensions and counts
    it draws with as keywords; one that is not an integer, or is below 1,
    raises BadParameterError, and so does any other seed.
    """
    for name, value in sizes.items():
        if _integer(name, value) < 1:
            raise BadParameterError(f"{name} must be positive")
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        _seed(seed)
    return np.random.default_rng(seed)


def _read_only(a) -> np.ndarray:
    # a private copy that nothing can write to, so no caller's array is aliased
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(eq=False, frozen=True)
class DensityMatrix:
    """A density matrix: Hermitian, unit trace and PSD within ``linalg.DEFAULT_TOL``.

    Immutable and checked when built: the constructor checks a read-only copy
    of the matrix it is given, raising NotHermitianError, TraceNotOneError or
    NotPositiveError, and keeps the eigenvalues that check computed.
    """

    matrix: np.ndarray

    def __post_init__(self):
        # checked before the read-only copy is made, so a ragged or non-numeric
        # input raises as as_matrix says
        a, w = linalg._density_eigvals(self.matrix)
        object.__setattr__(self, "matrix", _read_only(a))
        object.__setattr__(self, "_eigvals", _read_only(w))

    @cached_property
    def _eigvals(self) -> np.ndarray:
        # the check sets this; only a step of evolve_path computes it here
        return _read_only(linalg.hermitian_eigvals(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """The spectrum, sorted non-increasing, read-only."""
        return self._eigvals


def _unchecked_density(matrix: np.ndarray) -> DensityMatrix:
    # a DensityMatrix of a matrix known to be a state, built without the check
    # (evolve_path's steps alone); the matrix is made read-only and kept as it is
    matrix.setflags(write=False)
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "matrix", matrix)
    return rho


def _known_density(matrix: np.ndarray, w: np.ndarray) -> DensityMatrix:
    # a DensityMatrix of a hermitized matrix whose spectrum w (in any order) is
    # known: DensityMatrix's check after the Hermitian test, run on w, then the
    # matrix and w, sorted non-increasing, kept read-only
    linalg._require_density(np.trace(linalg._finite(matrix, "matrix")), w)
    rho = _unchecked_density(matrix)
    object.__setattr__(rho, "_eigvals", _read_only(np.sort(w)[::-1]))
    return rho


def validate_density(m) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity, and wrap the matrix."""
    return DensityMatrix(m)


@dataclass(eq=False, frozen=True)
class Observable:
    """A Hermitian observable as distinct eigenvalues with orthogonal projectors.

    Immutable: the fields cannot be reassigned and the eigenvalues and
    projectors are read-only copies of what the constructor was given. Each
    block basis is computed on its first use and reused after it, and so is
    the frame: a unitary whose column blocks span the eigenspaces in outcome
    order, which the pinchings compress a state into.
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

    @cached_property
    def _frame(self) -> np.ndarray:
        # the block bases side by side, unless the factory kept the unitary
        # it built the projectors from
        return _read_only(np.hstack([self.block_basis(n) for n in range(self.n_outcomes)]))

    @cached_property
    def _pinchings(self) -> dict:
        # dim A -> the frame and block layout of 1_A x obs, each made on first use
        return {}

    def _pinching(self, dim_a: int = 1) -> tuple:
        # block n of 1_A x obs is 1_A x (block n of the frame)
        if dim_a not in self._pinchings:
            frame = self._frame  # 1_1 x obs is obs, and a product with eye(1) is exact
            if dim_a > 1:
                eye_a = np.eye(dim_a)
                frame = _read_only(np.hstack(
                    [linalg._kron(eye_a, frame[:, s]) for s in _slices(self.degeneracies)]))
            layout = _block_layout(tuple(dim_a * k for k in self.degeneracies))
            self._pinchings[dim_a] = frame, layout
        return self._pinchings[dim_a]

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


def _slices(widths) -> tuple[slice, ...]:
    # the column slices of blocks of these widths side by side
    ends = np.cumsum(widths, dtype=int).tolist()
    return tuple(slice(e - k, e) for e, k in zip(ends, widths))


@lru_cache(maxsize=64)
def _block_layout(widths: tuple[int, ...]) -> tuple:
    # blocks of these widths side by side: their column slices, the
    # block-diagonal mask, and per block width the outcomes of that width
    # with their (count, width) column indices; one layout serves every
    # observable with these widths, so nothing in it can be written to
    labels, groups = np.repeat(np.arange(len(widths)), widths), {}
    for n, k in enumerate(widths):
        groups.setdefault(k, []).append(n)
    return (_slices(widths), _read_only(labels[:, None] == labels),
            tuple((tuple(ns), _read_only([np.flatnonzero(labels == n) for n in ns]))
                  for ns in groups.values()))


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
    labels = linalg._clusters(w)
    groups = np.split(np.arange(w.size), np.flatnonzero(np.diff(labels)) + 1)
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
    obs = Observable(
        eigenvalues=np.asarray(values, dtype=float),
        projectors=tuple(projectors),
        degeneracies=degs,
    )
    object.__setattr__(obs, "_frame", _read_only(v))  # the clusters are column blocks of v
    return obs


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
        return _slices([b.shape[1] for b in self.blocks])

    def block_slices(self) -> tuple[slice, ...]:
        """Column range of each block inside basis."""
        return self._block_slices

    @cached_property
    def _refines_parent(self) -> bool:
        return self._refines(self.parent)

    def refines(self, obs: Observable) -> bool:
        # both objects are immutable, so the answer for the parent is kept
        return self._refines_parent if obs is self.parent else self._refines(obs)

    def _refines(self, obs: Observable) -> bool:
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
    return _fine_graining(obs, blocks)


def _fine_graining(obs: Observable, blocks: tuple) -> FineGraining:
    # the fine-graining of blocks known to refine obs: no check, labels added
    eps = _label_step(obs)
    labels = tuple(
        obs.eigenvalues[n] + eps * np.arange(b.shape[1], dtype=float)
        for n, b in enumerate(blocks)
    )
    return FineGraining(parent=obs, blocks=blocks, labels=labels)


@dataclass(eq=False, frozen=True)
class BipartiteState:
    """A density matrix on a tensor product, with the factor dimensions recorded.

    Immutable and checked when built: both dimensions must be positive
    integers, a bare matrix is checked as a DensityMatrix, and its size must
    be their product.
    The two reductions are computed, as checked DensityMatrix values, on the
    first use of either and kept.
    """

    dims: tuple[int, int]
    state: DensityMatrix

    def __post_init__(self):
        try:
            dim_a, dim_b = self.dims
        except (TypeError, ValueError):  # not iterable, or not two values
            raise BadParameterError("dims must be two subsystem dimensions") from None
        _integer("dim_a", dim_a)
        _integer("dim_b", dim_b)
        if dim_a < 1 or dim_b < 1:
            raise BadParameterError("subsystem dimensions must be positive")
        rho = self.state if isinstance(self.state, DensityMatrix) else DensityMatrix(self.state)
        if rho.dim != dim_a * dim_b:
            raise DimMismatchError(f"state dimension {rho.dim} is not {dim_a}*{dim_b}")
        object.__setattr__(self, "dims", (dim_a, dim_b))
        object.__setattr__(self, "state", rho)

    @property
    def dim_a(self) -> int:
        return self.dims[0]

    @property
    def dim_b(self) -> int:
        return self.dims[1]

    @cached_property
    def _reductions(self) -> tuple[DensityMatrix, DensityMatrix]:
        m = self.state.matrix
        return tuple(DensityMatrix(linalg.partial_trace(m, self.dims, keep=k)) for k in (0, 1))

    def reduced_a(self) -> DensityMatrix:
        return self._reductions[0]

    def reduced_b(self) -> DensityMatrix:
        return self._reductions[1]


def bipartite(state, dim_a: int, dim_b: int) -> BipartiteState:
    return BipartiteState(dims=(dim_a, dim_b), state=state)


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
    if d == 0:
        raise ShapeMismatchError("effects must not be empty matrices")
    for n, e in enumerate(ops):
        if e.shape != (d, d):
            raise DimMismatchError("effect dimensions differ")
        if linalg._hermiticity_defect(e) > linalg.DEFAULT_TOL:
            raise NotHermitianError(f"effect {n} is not Hermitian within {linalg.DEFAULT_TOL}")
        linalg._require_psd(linalg._eigvalsh(e), NotPositiveError, f"effect {n} has ")
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
    projectors = tuple(u[:, s] @ u[:, s].conj().T for s in _slices(profile))
    obs = Observable(eigenvalues=vals, projectors=projectors, degeneracies=profile)
    object.__setattr__(obs, "_frame", _read_only(u))  # the projectors are column blocks of u
    return obs


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
