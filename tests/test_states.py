import dataclasses
import fractions

import numpy as np
import pytest

from cohkit import channels, coherence, dilation, instruments, linalg, states
from cohkit.errors import (
    AmbiguousGroupingError,
    BadParameterError,
    BadProfileError,
    DimMismatchError,
    InvalidModelError,
    NonOrthonormalError,
    NotHermitianError,
    NotPositiveError,
    NotPSDError,
    ShapeMismatchError,
    TraceNotOneError,
    ValidationError,
    VectorOutsideEigenspaceError,
)


def test_validate_density_accepts_and_rejects():
    ok = states.validate_density(np.eye(2) / 2)
    assert ok.dim == 2
    assert np.array_equal(states.validate_density(ok).matrix, ok.matrix)
    with pytest.raises(NotHermitianError):
        states.validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(TraceNotOneError):
        states.validate_density(np.eye(2))
    with pytest.raises(NotPositiveError):
        states.validate_density(np.diag([1.5, -0.5]))


def test_random_density_valid_and_deterministic():
    for seed in (0, 1, 2):
        rho = states.random_density(5, rank=3, seed=seed)  # built checked
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


def test_observable_and_fine_graining_fields_are_frozen():
    obs = states.random_observable(4, (3, 1), seed=2)
    fg = states.fine_graining(obs)
    for field, value in (("eigenvalues", np.zeros(2)), ("projectors", ()), ("degeneracies", (4,))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obs, field, value)
    for field, value in (("parent", obs), ("blocks", ()), ("labels", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fg, field, value)


def test_observable_and_fine_graining_arrays_are_read_only():
    obs = states.random_observable(4, (3, 1), seed=2)
    fg = states.fine_graining(obs)
    arrays = (obs.eigenvalues, obs.projectors[0], obs.block_basis(0), fg.blocks[0], fg.labels[0], fg.basis)
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_constructors_copy_the_callers_arrays():
    p0, p1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    obs = states.observable_from_projectors([1.0, -1.0], [p0, p1])
    assert p0.flags.writeable and p1.flags.writeable
    p0[0, 0] = 7.0
    assert obs.projectors[0][0, 0] == 1.0
    obs.validate()

    b0, b1 = np.eye(2, dtype=complex)[:, :1].copy(), np.eye(2, dtype=complex)[:, 1:].copy()
    fg = states.fine_graining(obs, [b0, b1])
    assert b0.flags.writeable and b1.flags.writeable
    b0[0, 0] = 7.0
    assert fg.blocks[0][0, 0] == 1.0
    assert fg.basis[0, 0] == 1.0
    assert fg.refines(obs)


def test_povm_is_frozen_with_a_read_only_stack():
    effects = [np.diag([0.75, 0.25]).astype(complex), np.diag([0.25, 0.75]).astype(complex)]
    povm = states.make_povm(effects)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(povm, "effects", ())
    assert povm.effects.shape == (2, 2, 2) and povm.n_outcomes == 2
    for e in (povm.effects[0], states.random_povm(3, 2, seed=1).effects[1]):
        with pytest.raises(ValueError):
            e[0, 0] = 0.0
    # the caller's arrays stay writable and are not aliased
    assert all(e.flags.writeable for e in effects)
    effects[0][0, 0] = 7.0
    assert povm.effects[0][0, 0] == 0.75


def test_block_bases_are_computed_once(eig_calls):
    # full decompositions only: random_block_diagonal checks each state it
    # returns, one values-only decomposition apiece
    obs = states.random_observable(6, (3, 2, 1), seed=4)
    assert obs.block_basis(1) is obs.block_basis(1)
    assert eig_calls.count("eig") == 1
    rng = np.random.default_rng(0)
    for _ in range(200):
        instruments.random_block_diagonal(obs, rng)
    assert eig_calls.count("eig") == obs.n_outcomes
    fg = states.fine_graining(obs)
    assert fg.basis is fg.basis
    assert fg.block_slices() is fg.block_slices()
    assert eig_calls.count("eig") == obs.n_outcomes


def test_block_basis_rank_mismatch_raises_on_every_call(eig_calls):
    # degeneracies disagree with the projector ranks, so no basis is cached
    obs = states.Observable(
        eigenvalues=np.array([1.0, 0.0]),
        projectors=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        degeneracies=(2, 0),
    )
    for _ in range(3):
        with pytest.raises(VectorOutsideEigenspaceError):
            obs.block_basis(0)
    assert len(eig_calls) == 3


@pytest.fixture
def coercions(monkeypatch):
    calls = []
    coerce = linalg.as_matrix

    def counted(m):
        calls.append(1)
        return coerce(m)

    monkeypatch.setattr(linalg, "as_matrix", counted)
    return calls


def test_density_and_povm_checks_coerce_each_matrix_once(coercions):
    effects = list(states.random_povm(3, 3, seed=2).effects)
    rho = states.random_density(3, seed=2).matrix
    coercions.clear()
    states.make_povm(effects)
    assert len(coercions) == 3
    coercions.clear()
    states.validate_density(rho)
    assert len(coercions) == 1


NOT_NUMBERS = {
    "letters": [["a", "b"], ["c", "d"]],
    "numerals": [["1", "0"], ["0", "0"]],  # numpy alone would read |0><0|
    "bytes": [[b"1", b"0"], [b"0", b"0"]],
    "none": [[1.0, None], [0.0, 0.0]],
}
Z = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
MATRIX_ENTRIES = {
    "density": lambda m: states.DensityMatrix(m),
    "correlation-matrix": lambda m: channels.CorrelationMatrix(matrix=m, vectors=np.eye(2)),
    "correlation-vectors": lambda m: channels.CorrelationMatrix(matrix=np.eye(2), vectors=np.array(m)),
    "relative-entropy": lambda m: linalg.relative_entropy(m, np.eye(2) / 2),
    "luders": lambda m: instruments.luders(m, states.observable_from_projectors([1.0, -1.0], Z)),
}


@pytest.mark.parametrize("call", MATRIX_ENTRIES.values(), ids=MATRIX_ENTRIES.keys())
@pytest.mark.parametrize("m", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
def test_matrix_entries_that_are_not_numbers_are_refused(m, call):
    # these used to escape as numpy's ValueError or TypeError, or, for
    # numerals, to be read as numbers
    with pytest.raises(BadParameterError, match="entries must be numbers"):
        call(m)


def test_python_numbers_held_as_objects_are_still_read():
    half = fractions.Fraction(1, 2)
    rho = states.DensityMatrix(np.array([[half, 0], [0, half]], dtype=object))
    assert np.array_equal(rho.matrix, np.eye(2) / 2) and rho.matrix.dtype == complex


@pytest.mark.parametrize("entry", ["density", "correlation-matrix", "relative-entropy", "luders"])
def test_ragged_matrices_are_refused(entry):
    with pytest.raises(ShapeMismatchError, match="rows differ in length"):
        MATRIX_ENTRIES[entry]([[0.5, 0.0], [0.0]])


def test_povm_checks_keep_their_order():
    good = np.eye(2) / 3.0
    skew = good + np.array([[0.0, 0.1], [0.0, 0.0]])
    negative = np.diag([0.5, -0.2])
    with pytest.raises(NotHermitianError, match="effect 1"):
        states.make_povm([good, skew, negative])
    with pytest.raises(NotPositiveError, match="effect 1"):
        states.make_povm([good, negative, skew])
    with pytest.raises(DimMismatchError):
        states.make_povm([good, np.eye(3), skew])


def test_make_povm_rejects_empty_matrix():
    # a maximum over zero entries used to escape as numpy's bare ValueError
    with pytest.raises(ShapeMismatchError):
        states.make_povm([np.zeros((0, 0))])


def _checked_values():
    rho = states.random_density(4, seed=3)
    return {
        "density": rho,
        "bipartite": states.bipartite(rho, 2, 2),
        "correlation": channels.correlation_matrix_of(channels.phase_damping(0.75)),
        "dilation": dilation.dilate_von_neumann(np.eye(2)),
    }


def _held_arrays(value):
    # every array a checked value keeps: its fields', and what it computed
    if isinstance(value, states.DensityMatrix):
        return [value.matrix, value.eigenvalues()]
    if isinstance(value, states.BipartiteState):
        return [a for rho in (value.state, value.reduced_a(), value.reduced_b())
                for a in _held_arrays(rho)]
    return [getattr(value, f.name) for f in dataclasses.fields(value)
            if isinstance(getattr(value, f.name), np.ndarray)]


@pytest.mark.parametrize("name", sorted(_checked_values()))
def test_checked_values_are_frozen_with_read_only_arrays(name):
    value = _checked_values()[name]
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, getattr(value, field.name))
    arrays = _held_arrays(value)
    assert len(arrays) >= 2
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 5.0


def test_a_state_keeps_its_spectrum_and_copies_the_callers_matrix():
    m = np.diag([0.75, 0.25]).astype(complex)
    rho = states.DensityMatrix(m)
    assert rho.eigenvalues() is rho.eigenvalues()
    assert np.array_equal(rho.eigenvalues(), linalg.hermitian_eigvals(m))
    m[0, 0] = 5.0
    assert m.flags.writeable and rho.matrix[0, 0] == 0.75
    # a real matrix is kept as its complex coercion, read-only too
    real = states.DensityMatrix(np.eye(2) / 2)
    assert real.matrix.dtype == complex and not real.matrix.flags.writeable


_U2 = np.array([[0.0, 1.0], [1.0, 0.0]])
NOT_CHECKED_VALUES = {
    "density-not-psd": (lambda: states.DensityMatrix(np.diag([2.0, -1.0])), NotPositiveError),
    "density-trace": (lambda: states.DensityMatrix(np.eye(2)), TraceNotOneError),
    "bipartite-size": (lambda: states.BipartiteState(dims=(3, 3), state=np.eye(4) / 4),
                       DimMismatchError),
    "bipartite-state": (lambda: states.BipartiteState(dims=(2, 2), state=np.eye(4)),
                        TraceNotOneError),
    "correlation-not-psd": (lambda: channels.CorrelationMatrix(
        matrix=np.array([[1.0, 2.0], [2.0, 1.0]]), vectors=np.eye(2)), NotPSDError),
    # a NaN Gram residual fails no "> tol" test, and a wrong shape once
    # raised numpy's broadcast error
    "correlation-nan-vectors": (lambda: channels.CorrelationMatrix(
        matrix=np.eye(2), vectors=np.full((2, 2), np.nan)), BadParameterError),
    "correlation-vector-columns": (lambda: channels.CorrelationMatrix(
        matrix=np.eye(2), vectors=np.ones((2, 3))), DimMismatchError),
    # only the product of the dims was compared, or unpacking them raised
    "bipartite-negative-dims": (lambda: states.BipartiteState(dims=(-2, -2), state=np.eye(4) / 4),
                                BadParameterError),
    "bipartite-three-dims": (lambda: states.BipartiteState(dims=(2, 2, 1), state=np.eye(4) / 4),
                             BadParameterError),
    "bipartite-one-dim": (lambda: states.BipartiteState(dims=4, state=np.eye(4) / 4),
                          BadParameterError),
    "model-float-size": (lambda: dilation.DilationModel(
        2.0, 2, np.array([1.0, 0.0]), np.eye(4), np.eye(2)), BadParameterError),
    "model-not-unitary": (lambda: dilation.DilationModel(
        2, 2, np.array([1.0, 0.0]), 1.5 * np.eye(4), np.eye(2)), InvalidModelError),
    # the readings return checked states, so an input that is not one raises
    "luders": (lambda: instruments.luders(np.diag([1.5, -0.5]), OBS2), NotPositiveError),
    "luders-outcome": (lambda: instruments.luders_outcome(
        np.diag([1.5, -0.5]), states.observable_from_projectors([1.0], [np.eye(2)]), 0),
        NotPositiveError),
    "dephase": (lambda: instruments.dephase(np.diag([1.5, -0.5]), np.eye(2)), NotPositiveError),
    "generalized-luders": (lambda: instruments.generalized_luders(
        np.diag([1.5, -0.5]), states.make_povm([np.eye(2)])), NotPositiveError),
    "apply-channel": (lambda: channels.apply_channel(
        channels.kraus_channel([_U2]), np.diag([1.5, -0.5])), NotPositiveError),
    "evolve-path": (lambda: channels.evolve_path(
        channels.phase_damping(0.5), np.diag([1.5, -0.5]), 3), NotPositiveError),
}


@pytest.mark.parametrize("call, error", NOT_CHECKED_VALUES.values(), ids=NOT_CHECKED_VALUES.keys())
def test_values_that_break_their_contract_are_refused_when_built(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, ValidationError)


def test_entropies_read_the_kept_spectrum(eig_calls):
    rho = states.random_density(4, seed=5)
    st = states.random_bipartite(2, 3, seed=5)
    eig_calls.clear()
    assert linalg.von_neumann_entropy(rho) == linalg.von_neumann_entropy(rho.matrix)
    assert eig_calls == ["eigvals"]  # the bare matrix alone is diagonalized
    eig_calls.clear()
    first = coherence.mutual_information(st)
    assert eig_calls == ["eigvals", "eigvals"]  # the two reductions, once
    assert coherence.mutual_information(st) == first
    assert st.reduced_a() is st.reduced_a()
    assert eig_calls == ["eigvals", "eigvals"]


def test_evolve_path_checks_its_input_once(eig_calls):
    ch = channels.phase_damping(0.75)
    plus = np.full((2, 2), 0.5, dtype=complex)
    eig_calls.clear()
    path = channels.evolve_path(ch, plus, 20)
    # the input's check and the correlation matrix's; no step is checked
    assert sorted(eig_calls) == ["eig", "eigvals"]
    last = path[-1]
    assert not last.matrix.flags.writeable
    assert np.array_equal(last.eigenvalues(), linalg.hermitian_eigvals(last.matrix))
    assert len(eig_calls) == 4  # the step's spectrum on first use, and the reference


GENERATORS = {
    "density-dim": lambda n: states.random_density(n),
    "unitary-dim": lambda n: states.random_unitary(n),
    "observable-dim": lambda n: states.random_observable(n, ()),
    "povm-dim": lambda n: states.random_povm(n, 2),
    "povm-effects": lambda n: states.random_povm(2, n),
    "bipartite-both": lambda n: states.random_bipartite(n, n),
    "bipartite-b": lambda n: states.random_bipartite(2, n),
    "pure-dim": lambda n: states.random_pure(n),
    "gio-dim": lambda n: channels.random_gio(n, 2),
    "gio-kraus": lambda n: channels.random_gio(2, n),
    "sio-dim": lambda n: channels.random_sio(n, 2),
    "sio-kraus": lambda n: channels.random_sio(2, n),
    "io-dim": lambda n: channels.random_io(n),
    "mixed-unitary-dim": lambda n: channels.random_mixed_unitary(n, 2),
    "mixed-unitary-count": lambda n: channels.random_mixed_unitary(2, n),
}


@pytest.mark.parametrize("size", [0, -1])
@pytest.mark.parametrize("draw", GENERATORS.values(), ids=GENERATORS.keys())
def test_generators_reject_sizes_below_one(draw, size):
    with pytest.raises(BadParameterError, match="must be positive"):
        draw(size)


NON_INTEGER_SIZES = {
    "density-dim": (lambda: states.random_density(2.5), "dim"),
    "density-rank": (lambda: states.random_density(3, rank=2.5), "rank"),
    "gio-dim": (lambda: channels.random_gio(2.5, 2), "dim"),
    "povm-effects": (lambda: states.random_povm(2, 2.5), "n_effects"),
    "observable-profile": (lambda: states.random_observable(4, (2.5, 2.5)), "profile entry 2.5"),
    "bipartite-dims": (lambda: states.bipartite(np.eye(4) / 4, 2.5, 1.6), "dim_a"),
    "random-bipartite-dim": (lambda: states.random_bipartite(2, 2.0), "dim_b"),
    "bipartite-state-dims": (lambda: states.BipartiteState(dims=(2.0, 2), state=np.eye(4) / 4),
                             "dim_a"),
    # a float size once passed the model check, then broke extract_kraus and serialize
    "model-system-dim": (lambda: dilation.DilationModel(
        2.0, 2, np.array([1.0, 0.0]), np.eye(4), np.eye(2)), "system_dim"),
    "model-ancilla-dim": (lambda: dilation.DilationModel(
        2, True, np.array([1.0, 0.0]), np.eye(4), np.eye(2)), "ancilla_dim"),
}


@pytest.mark.parametrize("call, name", NON_INTEGER_SIZES.values(), ids=NON_INTEGER_SIZES.keys())
def test_sizes_must_be_integers(call, name):
    # numpy used to raise its own TypeError, or int() truncated the size
    with pytest.raises(BadParameterError, match=f"^{name} must be an integer$"):
        call()


RHO2 = np.diag([0.75, 0.25]).astype(complex)
OBS2 = states.observable_from_projectors([1.0, -1.0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
NON_INTEGER_COUNTS = {
    "evolve-steps": (lambda: channels.evolve_path(channels.phase_damping(0.5), RHO2, 2.5),
                     "step count"),
    "iterate-steps": (lambda: channels.iterate_channel(channels.phase_damping(0.5), RHO2, "3"),
                      "step count"),
    "luders-outcome": (lambda: instruments.luders_outcome(RHO2, OBS2, 0.5), "outcome"),
    "cnot-dim": (lambda: dilation.generalized_cnot(2.5), "dim"),
}


@pytest.mark.parametrize("call, name", NON_INTEGER_COUNTS.values(), ids=NON_INTEGER_COUNTS.keys())
def test_counts_and_indices_must_be_integers(call, name):
    # numpy or Python used to raise a TypeError from inside the loop or index
    with pytest.raises(BadParameterError, match=f"^{name} must be an integer$"):
        call()


NAN2 = np.full((2, 2), np.nan)
NON_FINITE_INPUTS = {
    "basis": lambda: linalg.basis_matrix(NAN2, 2),
    "fine-graining-block": lambda: states.fine_graining(OBS2, (NAN2[:, :1], np.eye(2)[:, 1:])),
    "observable-eigenvalue": lambda: states.observable_from_projectors(
        [np.nan, 0.0], list(OBS2.projectors)),
    "observable-validate": lambda: states.Observable(
        np.array([1.0, np.inf]), OBS2.projectors, OBS2.degeneracies).validate(),
    "householder-source": lambda: dilation.householder_unitary([np.nan, 0.0], [1.0, 0.0]),
    "householder-target": lambda: dilation.householder_unitary([1.0, 0.0], [0.0, np.inf]),
    "extend-isometry": lambda: dilation.extend_to_unitary(np.full((4, 2), np.nan), [1.0, 0.0]),
    "extend-init": lambda: dilation.extend_to_unitary(np.eye(4)[:, :2], [np.nan, 0.0]),
    "model-init": lambda: dilation.DilationModel(2, 2, np.array([np.nan, 0.0]), np.eye(4), np.eye(2)),
    "model-readout": lambda: dilation.DilationModel(2, 2, np.array([1.0, 0.0]), np.eye(4), NAN2),
}


@pytest.mark.parametrize("call", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS.keys())
def test_non_finite_entries_are_rejected(call):
    # a NaN fails no `defect > tol` comparison, so each input used to pass
    with pytest.raises(BadParameterError, match="entries must be finite$"):
        call()


@pytest.mark.parametrize("seed", [np.random.SeedSequence(7), np.int64(7), 7])
def test_seed_sequences_and_numpy_integers_are_seeds(seed):
    expect = np.random.default_rng(7).standard_normal(3)
    assert np.array_equal(states.as_generator(seed).standard_normal(3), expect)
    rng = np.random.default_rng(7)
    assert states.as_generator(rng) is rng
