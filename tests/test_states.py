import numpy as np
import pytest

from cohkit import states
from cohkit.errors import (
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


def test_validate_density_accepts_and_rejects():
    ok = states.validate_density(np.eye(2) / 2)
    assert ok.dim == 2
    with pytest.raises(NotHermitianError):
        states.validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(TraceNotOneError):
        states.validate_density(np.eye(2))
    with pytest.raises(NotPositiveError):
        states.validate_density(np.diag([1.5, -0.5]))


def test_random_density_valid_and_deterministic():
    for seed in (0, 1, 2):
        rho = states.random_density(5, rank=3, seed=seed)
        rho.validate()
        assert int(np.sum(rho.eigenvalues() > 1e-9)) == 3
        again = states.random_density(5, rank=3, seed=seed)
        assert np.array_equal(rho.matrix, again.matrix)


def test_random_unitary_and_pure():
    u = states.random_unitary(4, seed=9)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    v = states.random_pure(6, seed=9)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_spectral_decompose_groups_degenerate_levels():
    u = states.random_unitary(3, seed=4)
    h = u @ np.diag([5.0, 5.0 + 1e-9, 2.0]) @ u.conj().T
    h = (h + h.conj().T) / 2.0
    obs = states.spectral_decompose(h)
    assert obs.degeneracies == (2, 1)
    assert np.allclose(obs.matrix(), h, atol=1e-6)
    obs.validate()


def test_spectral_decompose_rejects_straddling_spectrum():
    # consecutive gaps below the threshold, total spread above it
    with pytest.raises(AmbiguousGroupingError):
        states.spectral_decompose(np.diag([0.0, 0.9e-6, 1.8e-6]))


def test_observable_from_projectors_sorts_decreasing():
    p0 = np.diag([1.0, 0.0, 0.0])
    p12 = np.diag([0.0, 1.0, 1.0])
    obs = states.observable_from_projectors([1.0, 4.0], [p0, p12])
    assert obs.eigenvalues[0] == 4.0
    assert obs.degeneracies == (2, 1)
    assert np.array_equal(obs.projectors[0], p12.astype(complex))


def test_observable_matrix_roundtrip():
    obs = states.random_observable(5, (2, 2, 1), seed=3)
    obs.validate()
    back = states.spectral_decompose(obs.matrix())
    assert back.degeneracies == obs.degeneracies
    assert np.allclose(back.eigenvalues, obs.eigenvalues, atol=1e-8)
    for p, q in zip(back.projectors, obs.projectors):
        assert np.max(np.abs(p - q)) < 1e-8


def test_block_basis_spans_projector():
    obs = states.random_observable(4, (2, 2), seed=8)
    for n in range(obs.n_outcomes):
        b = obs.block_basis(n)
        assert b.shape == (4, 2)
        assert np.max(np.abs(b @ b.conj().T - obs.projectors[n])) < 1e-10


def test_fine_graining_default_and_custom():
    obs = states.random_observable(4, (3, 1), seed=2)
    fg = states.fine_graining(obs)
    assert fg.refines(obs)
    assert fg.basis.shape == (4, 4)
    # labels stay within half the eigenvalue gap of their parent outcome
    gap = float(np.min(-np.diff(obs.eigenvalues)))
    for n, lab in enumerate(fg.labels):
        assert np.all(np.abs(lab - obs.eigenvalues[n]) < gap / 2.0)
        assert len(set(lab.tolist())) == lab.size
    # rotating a block inside its eigenspace is accepted
    u = states.random_unitary(3, seed=5)
    fg2 = states.fine_graining(obs, blocks=[fg.blocks[0] @ u, fg.blocks[1]])
    assert fg2.refines(obs)


def test_fine_graining_rejects_bad_blocks():
    obs = states.random_observable(4, (3, 1), seed=2)
    fg = states.fine_graining(obs)
    with pytest.raises(BadProfileError):
        states.fine_graining(obs, blocks=[fg.blocks[0]])
    with pytest.raises(NonOrthonormalError):
        states.fine_graining(obs, blocks=[fg.blocks[0] * 2.0, fg.blocks[1]])
    # a unit vector from the wrong eigenspace
    with pytest.raises(VectorOutsideEigenspaceError):
        states.fine_graining(obs, blocks=[fg.blocks[0], fg.blocks[0][:, :1]])


def test_povm_validation():
    povm = states.random_povm(3, 4, seed=6)
    assert povm.n_outcomes == 4
    total = sum(povm.effects)
    assert np.max(np.abs(total - np.eye(3))) < 1e-8
    with pytest.raises(BadParameterError):
        states.make_povm([np.eye(2) * 0.5, np.eye(2) * 0.4])


def test_bipartite_reductions():
    rng = np.random.default_rng(7)
    a = states.random_density(2, seed=rng).matrix
    b = states.random_density(3, seed=rng).matrix
    st = states.bipartite(np.kron(a, b), 2, 3)
    assert np.max(np.abs(st.reduced_a().matrix - a)) < 1e-12
    assert np.max(np.abs(st.reduced_b().matrix - b)) < 1e-12
    with pytest.raises(DimMismatchError):
        states.bipartite(np.kron(a, b), 2, 2)


def test_make_povm_rejects_no_effects():
    with pytest.raises(BadParameterError):
        states.make_povm([])


def test_observable_from_projectors_rejects_no_outcomes():
    with pytest.raises(BadParameterError):
        states.observable_from_projectors([], [])


def test_observable_from_projectors_rejects_count_mismatch():
    with pytest.raises(ShapeMismatchError):
        states.observable_from_projectors([1.0, 0.0], [np.eye(2)])
    with pytest.raises(ShapeMismatchError):
        states.observable_from_projectors([1.0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def test_spectral_decompose_rejects_empty_matrix():
    with pytest.raises(ShapeMismatchError):
        states.spectral_decompose(np.zeros((0, 0)))
