import math

import numpy as np
import pytest

from cohkit import coherence, instruments, states
from cohkit.errors import BadBasisError, IncompatibleFineGrainingError

PLUS = np.full((2, 2), 0.5)


def z_observable():
    return states.observable_from_projectors(
        [1.0, -1.0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    )


def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
    return states.bipartite(np.outer(psi, psi.conj()), 2, 2)


def test_plus_state_unit_coherence():
    # both measures equal 1 for |+> against the computational basis
    assert abs(coherence.c_l1(PLUS, np.eye(2)) - 1.0) < 1e-12
    assert abs(coherence.c_re(PLUS, np.eye(2)) - 1.0) < 1e-12


def test_pure_qubit_l1_closed_form():
    for p in (0.1, 0.25, 0.5, 0.9):
        v = np.array([math.sqrt(p), math.sqrt(1.0 - p)])
        rho = np.outer(v, v)
        expect = 2.0 * math.sqrt(p * (1.0 - p))
        assert abs(coherence.c_l1(rho, np.eye(2)) - expect) < 1e-12


def test_c_l1_rejects_non_unitary_basis():
    with pytest.raises(BadBasisError):
        coherence.c_l1(PLUS, 0.5 * np.eye(2))


def test_coarse_measures_vanish_on_block_diagonal_states():
    obs = states.random_observable(4, (2, 2), seed=1)
    rho = instruments.random_block_diagonal(obs, seed=1).matrix
    assert coherence.c_l1_coarse(rho, obs) < 1e-10
    assert abs(coherence.c_re_coarse(rho, obs)) < 1e-10


def test_hierarchy_and_gap_identity():
    rng = np.random.default_rng(2)
    for t in range(10):
        profile = ((2, 1), (2, 2), (3, 1), (2, 2, 1))[t % 4]
        d = sum(profile)
        obs = states.random_observable(d, profile, seed=rng)
        rho = states.random_density(d, seed=rng).matrix
        blocks = [obs.block_basis(n) @ states.random_unitary(p, rng)
                  for n, p in enumerate(profile)]
        fg = states.fine_graining(obs, blocks)
        fine_l1 = coherence.c_l1(rho, fg.basis)
        fine_re = coherence.c_re(rho, fg.basis)
        assert fine_l1 >= coherence.c_l1_coarse(rho, obs, fg) - 1e-10
        assert fine_re >= coherence.c_re_coarse(rho, obs) - 1e-10
        gap = coherence.hierarchy_gap(rho, obs, fg)
        assert abs((fine_re - coherence.c_re_coarse(rho, obs)) - gap) < 1e-8


def test_optimal_fine_graining_closes_the_gap():
    rng = np.random.default_rng(3)
    for _ in range(5):
        obs = states.random_observable(5, (3, 2), seed=rng)
        rho = states.random_density(5, seed=rng).matrix
        best = instruments.optimal_fine_grain(obs, rho)
        assert coherence.hierarchy_gap(rho, obs, best) < 1e-8
        fine = coherence.c_re(rho, best.basis)
        assert abs(fine - coherence.c_re_coarse(rho, obs)) < 1e-8


def test_coarse_rejects_foreign_fine_graining():
    obs = states.random_observable(4, (2, 2), seed=4)
    other = states.random_observable(4, (2, 2), seed=5)
    fg = states.fine_graining(other)
    rho = states.random_density(4, seed=4).matrix
    with pytest.raises(IncompatibleFineGrainingError):
        coherence.c_l1_coarse(rho, obs, fg)


def test_a_fine_graining_checks_its_parent_once(monkeypatch):
    obs = states.random_observable(4, (2, 2), seed=4)
    fg = states.fine_graining(obs)
    rho = states.random_density(4, seed=4).matrix
    tests = []
    refines = states.FineGraining._refines
    monkeypatch.setattr(states.FineGraining, "_refines",
                        lambda self, o: tests.append(o) or refines(self, o))
    for _ in range(3):
        coherence.hierarchy_gap(rho, obs, fg)
        coherence.c_l1_coarse(rho, obs, fg)
    assert tests == [obs]
    # another observable, equal or not, is tested on every call
    twin = states.observable_from_projectors(obs.eigenvalues, obs.projectors)
    assert fg.refines(twin) and fg.refines(twin)
    assert tests == [obs, twin, twin]


def test_bell_state_correlation_split():
    st = bell_state()
    obs = z_observable()
    assert abs(coherence.mutual_information(st) - 2.0) < 1e-12
    assert abs(coherence.qi_coherence(st, obs) - 1.0) < 1e-12
    # the B marginal is maximally mixed, so its local coherence vanishes
    assert abs(coherence.c_re_coarse(st.reduced_b().matrix, obs)) < 1e-12
    delta = coherence.luders_discord(st, obs)
    assert abs(delta - 1.0) < 1e-12
    j = coherence.classical_correlation(st, obs)
    assert abs(j - 1.0) < 1e-12


def test_discord_identities_on_random_states():
    rng = np.random.default_rng(6)
    for t in range(8):
        dim_b = 2 if t % 2 == 0 else 3
        profile = (1,) * dim_b if t % 4 < 2 else (dim_b - 1, 1)
        st = states.random_bipartite(2, dim_b, seed=rng)
        obs = states.random_observable(dim_b, profile, seed=rng)
        delta = coherence.luders_discord(st, obs)
        split = coherence.qi_coherence(st, obs) - coherence.c_re_coarse(
            st.reduced_b().matrix, obs
        )
        assert abs(delta - split) < 1e-8
        j = coherence.classical_correlation(st, obs)
        assert abs((j + delta) - coherence.mutual_information(st)) < 1e-8


def test_product_state_has_no_correlations():
    a = states.random_density(2, seed=7).matrix
    b = states.random_density(3, seed=8).matrix
    st = states.bipartite(np.kron(a, b), 2, 3)
    obs = states.random_observable(3, (1, 1, 1), seed=7)
    assert abs(coherence.mutual_information(st)) < 1e-10
    assert abs(coherence.luders_discord(st, obs)) < 1e-10
    assert abs(coherence.classical_correlation(st, obs)) < 1e-8


def test_classically_correlated_state_is_discord_free():
    # sum_n p_n |nn><nn| read in its own basis: delta = 0, J = I = S(p)
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    st = states.bipartite(rho, 2, 2)
    obs = z_observable()
    assert abs(coherence.luders_discord(st, obs)) < 1e-12
    assert abs(coherence.classical_correlation(st, obs) - 1.0) < 1e-12
    assert abs(coherence.mutual_information(st) - 1.0) < 1e-12


def test_povm_coherence_projective_reduction():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        u = states.random_unitary(d, rng)
        effects = [np.outer(u[:, i], u[:, i].conj()) for i in range(d)]
        povm = states.make_povm(effects)
        rho = states.random_density(d, seed=rng).matrix
        expect = coherence.c_re(rho, u)
        assert abs(coherence.povm_coherence(rho, povm) - expect) < 1e-10
        assert abs(coherence.povm_coherence_modified(rho, povm) - expect) < 1e-10


def test_povm_coherences_nonnegative():
    rng = np.random.default_rng(10)
    for t in range(10):
        d = 2 if t % 2 == 0 else 3
        povm = states.random_povm(d, d + 1, seed=rng)
        rho = states.random_density(d, seed=rng).matrix
        assert coherence.povm_coherence(rho, povm) >= -1e-10
        assert coherence.povm_coherence_modified(rho, povm) >= -1e-10
