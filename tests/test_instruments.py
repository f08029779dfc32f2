import numpy as np
import pytest

from cohkit import instruments, linalg, states
from cohkit.errors import (
    BadBasisError,
    BadParameterError,
    DimMismatchError,
    NonOrthonormalError,
    VectorOutsideEigenspaceError,
    ZeroProbabilityOutcomeError,
)

PLUS = np.full((2, 2), 0.5)


def z_observable():
    return states.observable_from_projectors(
        [1.0, -1.0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    )


def degenerate_3d():
    p01 = np.diag([1.0, 1.0, 0.0])
    p2 = np.diag([0.0, 0.0, 1.0])
    return states.observable_from_projectors([2.0, 1.0], [p01, p2])


def test_born_probabilities_observable_and_povm():
    p = instruments.born_probabilities(PLUS, z_observable())
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)
    povm = states.make_povm([np.eye(2) * 0.25, np.eye(2) * 0.75])
    q = instruments.born_probabilities(PLUS, povm)
    assert np.allclose(q, [0.25, 0.75], atol=1e-12)


def test_dephase_kills_offdiagonals():
    out = instruments.dephase(PLUS, np.eye(2)).matrix
    assert np.allclose(out, np.eye(2) / 2, atol=1e-14)
    # dephasing in the eigenbasis of the state leaves it alone
    rho = states.random_density(3, seed=1)
    spec = linalg.hermitian_eig(rho.matrix)
    out2 = instruments.dephase(rho.matrix, spec.eigenvectors).matrix
    assert np.max(np.abs(out2 - rho.matrix)) < 1e-12


def test_luders_pinches_blocks():
    rho = states.random_density(3, seed=2).matrix
    out = instruments.luders(rho, degenerate_3d()).matrix
    expect = rho.copy()
    expect[0:2, 2] = 0.0
    expect[2, 0:2] = 0.0
    assert np.max(np.abs(out - expect)) < 1e-14


def test_luders_outcome_normalizes_and_guards():
    obs = degenerate_3d()
    rho = states.random_density(3, seed=3).matrix
    prob, cond = instruments.luders_outcome(rho, obs, 0)
    assert abs(prob - float(np.real(rho[0, 0] + rho[1, 1]))) < 1e-12
    assert abs(np.trace(cond.matrix) - 1.0) < 1e-12
    # the conditional state lives inside range(P_0)
    assert np.max(np.abs(cond.matrix[2, :])) < 1e-14
    with pytest.raises(BadParameterError):
        instruments.luders_outcome(rho, obs, 5)
    with pytest.raises(ZeroProbabilityOutcomeError):
        instruments.luders_outcome(np.diag([0.0, 0.0, 1.0]), obs, 0)


def test_optimal_fine_grain_diagonalizes_blocks():
    obs = states.random_observable(5, (3, 2), seed=4)
    rho = states.random_density(5, seed=4).matrix
    fg = instruments.optimal_fine_grain(obs, rho)
    assert fg.refines(obs)
    rr = fg.basis.conj().T @ rho @ fg.basis
    for s in fg.block_slices():
        block = rr[s, s]
        off = block - np.diag(np.diag(block))
        assert np.max(np.abs(off)) < 1e-10


def test_optimal_fine_grain_trusts_the_blocks_it_builds(monkeypatch):
    obs = states.random_observable(6, (3, 2, 1), seed=6)
    rho = states.random_density(6, seed=6)
    checks = []
    defect = linalg.orthonormality_defect
    monkeypatch.setattr(linalg, "orthonormality_defect", lambda b: checks.append(1) or defect(b))
    best = instruments.optimal_fine_grain(obs, rho)
    assert checks == []
    # the checked constructor accepts the same blocks and gives the same bits
    checked = states.fine_graining(obs, best.blocks)
    assert len(checks) == obs.n_outcomes
    for got, want in zip(best.blocks + best.labels, checked.blocks + checked.labels):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_optimal_fine_grain_refuses_an_overflowing_block():
    obs = states.random_observable(4, (2, 2), seed=4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BadParameterError, match="entries must be finite"):
            instruments.optimal_fine_grain(obs, np.full((4, 4), 1e308))


def test_repeatable_instrument_is_repeatable():
    obs = states.random_observable(4, (2, 2), seed=5)
    rng = np.random.default_rng(5)
    theta = []
    for n in range(obs.n_outcomes):
        b_n = obs.block_basis(n)
        theta.append(b_n @ states.random_unitary(2, rng))
    ch = instruments.repeatable_instrument(obs, theta)
    assert ch.trace_preserving
    rho = states.random_density(4, seed=6).matrix
    # outcome statistics survive the instrument
    before = instruments.born_probabilities(rho, obs)
    out = sum(k @ rho @ k.conj().T for k in ch.kraus)
    after = instruments.born_probabilities(out, obs)
    assert np.max(np.abs(before - after)) < 1e-12
    # each outcome operator keeps its own eigenspace
    for n, k in enumerate(ch.kraus):
        p = obs.projectors[n]
        branch = k @ rho @ k.conj().T
        assert np.max(np.abs(branch - p @ branch @ p)) < 1e-12


def test_repeatable_instrument_rejects_bad_theta_blocks():
    obs = states.random_observable(4, (2, 2), seed=5)
    theta = [obs.block_basis(0), obs.block_basis(1)]
    with pytest.raises(DimMismatchError):
        instruments.repeatable_instrument(obs, [theta[0][:, :1], theta[1]])
    with pytest.raises(NonOrthonormalError):
        instruments.repeatable_instrument(obs, [2.0 * theta[0], theta[1]])
    with pytest.raises(VectorOutsideEigenspaceError):
        instruments.repeatable_instrument(obs, [theta[1], theta[0]])


def test_dephase_rejects_non_unitary_basis():
    with pytest.raises(BadBasisError):
        instruments.dephase(PLUS, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(BadBasisError):
        instruments.dephase(PLUS, np.eye(3))


def test_generalized_luders_reduces_to_pinching():
    obs = degenerate_3d()
    povm = states.make_povm([p.copy() for p in obs.projectors])
    rho = states.random_density(3, seed=7).matrix
    via_povm = instruments.generalized_luders(rho, povm).matrix
    via_obs = instruments.luders(rho, obs).matrix
    assert np.max(np.abs(via_povm - via_obs)) < 1e-10


def test_unitary_mixing_averages_to_pinching():
    obs = degenerate_3d()
    mix = instruments.unitary_mixing(obs)
    assert len(mix) == obs.n_outcomes
    for u in mix:
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12
    # two outcomes: U_1 = -P_1 + P_2 up to the square root of unity, U_2 = 1
    assert np.max(np.abs(mix[-1] - np.eye(3))) < 1e-12
    rho = states.random_density(3, seed=8).matrix
    avg = sum(u @ rho @ u.conj().T for u in mix) / len(mix)
    assert np.max(np.abs(avg - instruments.luders(rho, obs).matrix)) < 1e-12


def test_random_block_diagonal_commutes():
    obs = states.random_observable(5, (2, 2, 1), seed=9)
    rho = instruments.random_block_diagonal(obs, seed=9)  # built checked
    m = obs.matrix()
    assert np.max(np.abs(rho.matrix @ m - m @ rho.matrix)) < 1e-10


def _block_diagonal_by_call(obs, rng):
    # the per-call draw loop that the stacked draws replaced, with the
    # random_density arithmetic inlined, kept as the oracle
    weights = rng.dirichlet(np.ones(obs.n_outcomes))
    d = obs.dim
    out = np.zeros((d, d), dtype=complex)
    for n, k in enumerate(obs.degeneracies):
        b_n = obs.block_basis(n)
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        m = g @ g.conj().T
        block = m / np.trace(m).real
        out += weights[n] * (b_n @ block @ b_n.conj().T)
    return (out + out.conj().T) / 2.0


@pytest.mark.parametrize("profile", [(1, 1, 1), (2, 1), (3, 3, 2), (4,)])
def test_block_diagonal_stack_draws_like_successive_calls(profile):
    # a reordered draw changes entries by O(1), far above the tolerance
    obs = states.random_observable(sum(profile), profile, seed=3)
    by_call, stacked = np.random.default_rng(7), np.random.default_rng(7)
    expect = [_block_diagonal_by_call(obs, by_call) for _ in range(25)]
    got = instruments._random_block_diagonal_stack(obs, 25, stacked)
    assert got.shape == (25, obs.dim, obs.dim)
    assert np.allclose(got, expect, rtol=0.0, atol=1e-12)
    assert by_call.random() == stacked.random()
    one = instruments.random_block_diagonal(obs, seed=11).matrix
    assert np.allclose(one, _block_diagonal_by_call(obs, np.random.default_rng(11)),
                       rtol=0.0, atol=1e-12)
