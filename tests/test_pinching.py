"""The pinchings built block by block in an observable's frame.

``luders``, ``luders_on_b``, the conditional states of
``classical_correlation`` and ``dephase`` keep spectra they read off their
blocks instead of diagonalizing the d x d result. These tests hold those
spectra, and the pinched matrices, to a direct computation, for observables
from each constructor at the sizes the CLI accepts.
"""

import numpy as np
import pytest

from cohkit import coherence, instruments, linalg, states
from cohkit.errors import NotPositiveError, TraceNotOneError

# mixed block widths, so both the stacked blocks and the 1x1 blocks are read
PROFILES = {4: (2, 1, 1), 16: (5, 4, 4, 2, 1), 64: (16, 8, 8, 8, 8, 8, 4, 2, 1, 1)}


def _projectors(u, profile):
    ends = np.cumsum(profile)
    return [u[:, e - k:e] @ u[:, e - k:e].conj().T for e, k in zip(ends, profile)]


def _from_projectors(d, profile):
    u = states.random_unitary(d, seed=d)
    return states.observable_from_projectors(np.arange(len(profile), 0, -1.0), _projectors(u, profile))


def _spectral(d, profile):
    u = states.random_unitary(d, seed=d + 1)
    w = np.repeat(np.arange(len(profile), 0, -1.0), profile)
    return states.spectral_decompose((u * w) @ u.conj().T)


def _random(d, profile):
    return states.random_observable(d, profile, seed=d + 2)


def _direct(d, profile):
    u = states.random_unitary(d, seed=d + 3)
    return states.Observable(
        eigenvalues=np.arange(len(profile), 0, -1.0),
        projectors=tuple(_projectors(u, profile)),
        degeneracies=profile,
    )


CONSTRUCTORS = {"from-projectors": _from_projectors, "spectral-decompose": _spectral,
                "random-observable": _random, "direct": _direct}
CASES = [(name, d) for name in CONSTRUCTORS for d in PROFILES]


@pytest.fixture(params=CASES, ids=[f"{name}-d{d}" for name, d in CASES])
def obs(request):
    name, d = request.param
    return CONSTRUCTORS[name](d, PROFILES[d])


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _sum_pinching(rho, projectors):
    # the plain sum, sum_n P_n rho P_n
    return linalg.hermitize(sum(p @ rho @ p for p in projectors))


def test_the_frame_is_unitary_with_blocks_spanning_the_eigenspaces(obs):
    f = obs._frame
    assert _max_abs(f.conj().T @ f - np.eye(obs.dim)) <= 1e-12
    ends = np.cumsum(obs.degeneracies)
    for p, e, k in zip(obs.projectors, ends, obs.degeneracies):
        block = f[:, e - k:e]
        assert _max_abs(block @ block.conj().T - p) <= 1e-12


def test_luders_keeps_the_spectrum_of_its_matrix(obs):
    rho = states.random_density(obs.dim, seed=5).matrix
    out = instruments.luders(rho, obs)
    assert _max_abs(out.eigenvalues() - linalg.hermitian_eigvals(out.matrix)) <= 1e-13
    assert _max_abs(out.matrix - _sum_pinching(rho, obs.projectors)) <= 1e-13


def test_dephase_keeps_the_spectrum_of_its_matrix(obs):
    rho = states.random_density(obs.dim, seed=6).matrix
    out = instruments.dephase(rho, obs._frame)
    assert _max_abs(out.eigenvalues() - linalg.hermitian_eigvals(out.matrix)) <= 1e-13
    b = obs._frame
    expect = b @ np.diag(np.diag(b.conj().T @ rho @ b)) @ b.conj().T
    assert _max_abs(out.matrix - expect) <= 1e-13


def _lifted_projectors(obs, dim_a):
    return [linalg.tensor(np.eye(dim_a), p) for p in obs.projectors]


def test_luders_on_b_keeps_the_spectrum_of_its_matrix(obs):
    st = states.random_bipartite(2, obs.dim, seed=7)
    out = coherence.luders_on_b(st, obs).state
    assert _max_abs(out.eigenvalues() - linalg.hermitian_eigvals(out.matrix)) <= 1e-13
    expect = _sum_pinching(st.state.matrix, _lifted_projectors(obs, 2))
    assert _max_abs(out.matrix - expect) <= 1e-13


def test_conditional_states_keep_their_spectra(obs):
    st = states.random_bipartite(2, obs.dim, seed=8)
    conds = list(coherence._conditional_states(st, obs))
    assert len(conds) == obs.n_outcomes  # a full-rank state gives every outcome weight
    for (p_n, cond), proj in zip(conds, _lifted_projectors(obs, 2)):
        block = proj @ st.state.matrix @ proj
        assert abs(p_n - np.trace(block).real) <= 1e-13
        m = cond.state.matrix
        assert _max_abs(cond.state.eigenvalues() - linalg.hermitian_eigvals(m)) <= 1e-13
        assert _max_abs(m - linalg.hermitize(block) / p_n) <= 1e-13


def _not_psd(obs):
    # Hermitian, unit trace and block-diagonal in the frame, so its pinching is itself
    w = np.full(obs.dim, 2.0 / obs.dim)
    w[0] -= 1.0
    return (obs._frame * w) @ obs._frame.conj().T


def test_non_states_raise_what_the_density_check_raises(obs):
    rho = states.random_density(obs.dim, seed=9).matrix
    with pytest.raises(TraceNotOneError):
        instruments.luders(2 * rho, obs)
    bad = _not_psd(obs)
    with pytest.raises(NotPositiveError):
        instruments.luders(bad, obs)
    # a BipartiteState is checked when built, so this one is made unchecked
    st = states.BipartiteState(dims=(2, obs.dim),
                               state=states._unchecked_density(linalg.tensor(np.eye(2) / 2, bad)))
    with pytest.raises(NotPositiveError):
        coherence.luders_on_b(st, obs)


@pytest.mark.parametrize("make", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_luders_on_a_warm_observable_diagonalizes_only_its_blocks(eig_calls, make):
    obs = make(64, PROFILES[64])
    rho = states.random_density(64, seed=10)
    instruments.luders(rho, obs)
    eig_calls.clear()
    for _ in range(3):
        instruments.luders(rho, obs)
    widths = {k for k in obs.degeneracies if k >= 2}
    assert (eig_calls.count("eig"), eig_calls.count("eigvals")) == (0, 3 * len(widths))


def test_hierarchy_gap_takes_sigma_from_the_fine_graining(eig_calls, monkeypatch):
    obs = _from_projectors(16, PROFILES[16])
    fg = states.fine_graining(obs)
    rho = states.random_density(16, seed=11).matrix
    expect = linalg.relative_entropy(instruments.luders(rho, obs), instruments.dephase(rho, fg.basis))
    defects = []
    monkeypatch.setattr(linalg, "orthonormality_defect", lambda b: defects.append(b) or 0.0)
    eig_calls.clear()
    assert abs(coherence.hierarchy_gap(rho, obs, fg) - expect) <= 1e-12
    assert eig_calls.count("eig") == 0 and defects == []


def test_a_block_layout_is_frozen_and_shared():
    a = _random(16, PROFILES[16])
    b = _direct(16, PROFILES[16])
    layout = a._pinching()[1]
    assert b._pinching()[1] is layout
    assert a._pinching(2)[1] is b._pinching(2)[1] is not layout
    _, mask, groups = layout
    assert not mask.flags.writeable
    assert all(not cols.flags.writeable for _, cols in groups)
    with pytest.raises(ValueError):
        mask[0, -1] = True
