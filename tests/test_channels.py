import dataclasses

import numpy as np
import pytest

from cohkit import channels, linalg, states
from cohkit.errors import (
    BadBasisError,
    BadParameterError,
    DiagonalNotOneError,
    DimMismatchError,
    NotGIOError,
    NotHermitianError,
    NotIOFormError,
    NotPSDError,
    NotTracePreservingError,
    NotUnitalError,
    ShapeMismatchError,
)

PLUS = np.full((2, 2), 0.5)


def bit_flip(q=0.3):
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return channels.kraus_channel([np.sqrt(1.0 - q) * np.eye(2), np.sqrt(q) * x])


def amplitude_damping(gamma=0.36):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return channels.kraus_channel([k0, k1])


def test_kraus_channel_flags_and_guards():
    ch = channels.phase_damping(0.75)
    assert ch.trace_preserving and ch.unital
    ad = amplitude_damping()
    assert ad.trace_preserving and not ad.unital
    # a sub-normalized operation is accepted, an inflating one is not
    half = channels.kraus_channel([np.eye(2) / np.sqrt(2.0)])
    assert not half.trace_preserving
    with pytest.raises(BadParameterError):
        channels.kraus_channel([2.0 * np.eye(2)])


def test_apply_channel_returns_trace_for_operations():
    half = channels.kraus_channel([np.eye(2) / np.sqrt(2.0)])
    out, tr = channels.apply_channel(half, PLUS)
    assert abs(tr - 0.5) < 1e-12
    assert np.max(np.abs(out - PLUS / 2.0)) < 1e-12
    full = channels.apply_channel(channels.phase_damping(0.75), PLUS)
    assert abs(np.trace(full.matrix) - 1.0) < 1e-12


def test_phase_damping_correlation_matrix():
    for p in (0.5, 0.75, 0.9):
        corr = channels.correlation_matrix_of(channels.phase_damping(p))
        corr.validate()
        assert abs(corr.matrix[0, 1] - (2.0 * p - 1.0)) < 1e-12
        assert np.allclose(np.diag(corr.matrix), 1.0)


def test_classification_truth_table():
    assert channels.classify(channels.phase_damping(0.75)) == channels.GIO
    assert channels.classify(bit_flip()) == channels.SIO_NOT_GIO
    assert channels.classify(amplitude_damping()) == channels.IO_NOT_SIO
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert channels.classify(channels.kraus_channel([h])) == channels.NOT_IO
    with pytest.raises(NotTracePreservingError):
        channels.classify(channels.kraus_channel([np.eye(2) / np.sqrt(2.0)]))


def test_factor_kraus_splits_and_reconstructs():
    gamma = 0.36
    ad = amplitude_damping(gamma)
    index_map, diag = channels.factor_kraus(ad.kraus[1])
    assert index_map.mapping == (0, 0)
    assert index_map.kind == "relabeling"
    rebuilt = np.zeros((2, 2), dtype=complex)
    for i, f_i in enumerate(index_map.mapping):
        rebuilt[f_i, i] = diag[i, i]
    assert np.array_equal(rebuilt, ad.kraus[1])
    # a diagonal operator factors through the identity map
    index_map0, diag0 = channels.factor_kraus(ad.kraus[0])
    assert index_map0.mapping == (0, 1)
    assert index_map0.kind == "permutation"
    assert np.array_equal(diag0, ad.kraus[0])
    with pytest.raises(NotIOFormError):
        channels.factor_kraus(np.full((2, 2), 0.5))


def test_io_completeness_on_hand_channels():
    assert channels.io_completeness_check(channels.phase_damping(0.75))
    assert channels.io_completeness_check(bit_flip())
    assert channels.io_completeness_check(amplitude_damping())


def _sums_to_identity(ops):
    return np.allclose(sum(k.conj().T @ k for k in ops), np.eye(ops[0].shape[0]))


def test_io_completeness_agrees_with_kraus_sum():
    # measure-and-prepare operators send every column to one row
    ch = channels.random_io(5, seed=3)
    for k in ch.kraus:
        assert len(set(channels.factor_kraus(k)[0].mapping)) == 1
    assert channels.io_completeness_check(ch) is _sums_to_identity(ch.kraus) is True
    scaled = channels.kraus_channel([0.9 * k for k in ch.kraus])
    assert channels.io_completeness_check(scaled) is _sums_to_identity(scaled.kraus) is False
    b = states.random_unitary(5, seed=4)
    rotated = channels.kraus_channel([b @ k @ b.conj().T for k in ch.kraus])
    assert channels.io_completeness_check(rotated, basis=b) is _sums_to_identity(rotated.kraus) is True


def test_gio_schur_equivalence_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        ch = channels.random_gio(d, int(rng.integers(1, d + 1)), seed=rng)
        corr = channels.correlation_matrix_of(ch)
        rho = states.random_density(d, seed=rng).matrix
        via_kraus = channels.apply_channel(ch, rho).matrix
        via_schur = linalg.schur_product(corr.matrix.T, rho)
        assert np.max(np.abs(via_kraus - via_schur)) <= 1e-10


def test_gio_from_correlation_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(5):
        d = int(rng.integers(2, 7))
        original = channels.correlation_matrix_of(channels.random_gio(d, d, seed=rng))
        rebuilt = channels.gio_from_correlation(original)
        corr = channels.correlation_matrix_of(rebuilt)
        assert np.max(np.abs(corr.matrix - original.matrix)) < 1e-10


def test_correlation_matrix_requires_diagonal_kraus():
    with pytest.raises(NotGIOError):
        channels.correlation_matrix_of(bit_flip())


def test_superoperator_matches_action():
    rng = np.random.default_rng(3)
    ch = channels.random_mixed_unitary(3, 2, seed=rng)
    s = channels.channel_superoperator(ch)
    rho = states.random_density(3, seed=rng).matrix
    lhs = (s @ rho.reshape(-1)).reshape(3, 3)
    rhs = channels.apply_to_operator(ch, rho)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_commutant_dimension_oracles():
    # the identity channel commutes with everything
    assert len(channels.commutant(channels.kraus_channel([np.eye(3)]))) == 9
    # complete dephasing leaves exactly the diagonal algebra
    ops = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
    basis = channels.commutant(channels.kraus_channel(ops))
    assert len(basis) == 3
    for m in basis:
        assert np.max(np.abs(m - np.diag(np.diag(m)))) < 1e-9
    with pytest.raises(NotUnitalError):
        channels.commutant(amplitude_damping())


def test_commutant_elements_are_fixed_points():
    rng = np.random.default_rng(4)
    ch = channels.random_gio(4, 3, seed=rng)
    basis = channels.commutant(ch)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    x = sum(c * m for c, m in zip(coeffs, basis))
    res = channels.fixed_point_check(ch, x)
    assert res.fixedness_residual < 1e-10
    assert res.identity_residual < 1e-10


def test_commutator_expansion_holds_for_arbitrary_operators():
    rng = np.random.default_rng(5)
    for maker in (
        lambda: channels.random_gio(4, 3, seed=rng),
        lambda: channels.random_mixed_unitary(3, 2, seed=rng),
        lambda: channels.random_sio(4, 2, seed=rng),
        lambda: channels.random_io(3, seed=rng),
    ):
        ch = maker()
        d = ch.dim
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        res = channels.fixed_point_check(ch, x)
        assert res.identity_residual < 1e-10


def test_evolve_path_follows_power_law():
    ch = channels.phase_damping(0.75)  # off-diagonal factor 0.5 per step
    path = channels.evolve_path(ch, PLUS, 10)
    assert len(path) == 11
    for n, state in enumerate(path):
        assert abs(state.matrix[0, 1] - 0.5 * 0.5**n) < 1e-13
        assert abs(np.trace(state.matrix) - 1.0) < 1e-12
    last = channels.iterate_channel(ch, PLUS, 10)
    assert np.array_equal(last.matrix, path[-1].matrix)


@pytest.mark.parametrize("ch", [channels.phase_damping(0.75), bit_flip()], ids=["schur", "kraus"])
@pytest.mark.parametrize("rho", [np.eye(1), np.eye(3) / 3], ids=["1x1", "3x3"])
def test_evolve_path_refuses_a_state_of_another_dimension(ch, rho):
    # the Schur path once broadcast a 1 x 1 state to a path of 2 x 2 matrices
    for n in (0, 2):
        with pytest.raises(DimMismatchError, match="^operator and channel dimensions differ$"):
            channels.evolve_path(ch, rho, n)


def test_unital_channels_spread_spectra():
    rng = np.random.default_rng(6)
    for t in range(10):
        d = int(rng.integers(2, 7))
        if t % 2 == 0:
            ch = channels.random_gio(d, d, seed=rng)
        else:
            ch = channels.random_mixed_unitary(d, 3, seed=rng)
        rho = states.random_density(d, seed=rng)
        out = channels.apply_channel(ch, rho)
        assert linalg.majorizes(rho.eigenvalues(), out.eigenvalues(), tol=1e-9)
        gain = linalg.von_neumann_entropy(out.matrix) - linalg.von_neumann_entropy(rho.matrix)
        assert gain >= -1e-9


def test_random_families_classify_as_advertised():
    rng = np.random.default_rng(7)
    assert channels.classify(channels.random_gio(4, 3, seed=rng)) == channels.GIO
    assert channels.classify(channels.random_sio(4, 3, seed=rng)) in (
        channels.GIO,
        channels.SIO_NOT_GIO,
    )
    assert channels.classify(channels.random_io(4, seed=rng)) in (
        channels.GIO,
        channels.SIO_NOT_GIO,
        channels.IO_NOT_SIO,
    )


BAD_CORRELATIONS = [
    (np.array([[1.0, 0.5], [0.0, 1.0]]), NotHermitianError),
    (np.array([[2.0, 0.0], [0.0, 1.0]]), DiagonalNotOneError),
    (np.array([[1.0, 2.0], [2.0, 1.0]]), NotPSDError),
]


@pytest.mark.parametrize("matrix, error", BAD_CORRELATIONS)
def test_correlation_checks_raise_the_same_classes(matrix, error):
    with pytest.raises(error):
        channels.gio_from_correlation(matrix)
    with pytest.raises(error):
        channels.CorrelationMatrix(matrix=matrix, vectors=np.eye(2)).validate()


def test_classify_rejects_non_unitary_basis():
    with pytest.raises(BadBasisError):
        channels.classify(channels.phase_damping(0.75), basis=2.0 * np.eye(2))


ROTATION = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]], dtype=complex)


@pytest.mark.parametrize("off, diagonal, basis", [
    pytest.param(0.5e-10, True, None, id="5e-11-True"),
    pytest.param(1e-10, False, None, id="1e-10-False"),
    pytest.param(2e-10, False, None, id="2e-10-False"),
    pytest.param(0.5e-10, True, ROTATION, id="5e-11-True-rotated"),
    pytest.param(2e-10, False, ROTATION, id="2e-10-False-rotated"),
])
def test_diagonal_kraus_decisions_agree_at_zero_tol(off, diagonal, basis):
    # off-diagonal entries on either side of ZERO_TOL decide GIO, the
    # correlation matrix and the Schur-form evolution the same way, also when
    # the operators are diagonal only in a rotated reference basis
    k0 = np.sqrt(0.5) * np.eye(2, dtype=complex)
    k1 = np.sqrt(0.5) * np.diag([1.0, -1.0]).astype(complex)
    k1[0, 1] = off
    ops = [k0, k1] if basis is None else [basis @ k @ basis.conj().T for k in (k0, k1)]
    ch = channels.kraus_channel(ops)
    assert ch.trace_preserving
    assert (channels.classify(ch, basis) == channels.GIO) is diagonal
    if diagonal:
        corr = channels.correlation_matrix_of(ch, basis)
        assert np.allclose(corr.vectors, [[np.sqrt(0.5)] * 2, [np.sqrt(0.5), -np.sqrt(0.5)]])
    else:
        with pytest.raises(NotGIOError):
            channels.correlation_matrix_of(ch, basis)
    if basis is None:
        step = channels.evolve_path(ch, PLUS, 1)[1].matrix
        expect = corr.matrix.T * PLUS if diagonal else channels.apply_to_operator(ch, PLUS)
        assert np.array_equal(step, expect)


def test_kraus_channel_rejects_empty_matrix():
    with pytest.raises(ShapeMismatchError):
        channels.kraus_channel([np.zeros((0, 0))])


def test_gio_from_correlation_rejects_empty_matrix():
    with pytest.raises(ShapeMismatchError):
        channels.gio_from_correlation(np.zeros((0, 0)))


def test_index_map_and_fixed_point_result_are_frozen():
    result = channels.fixed_point_check(channels.phase_damping(0.75), PLUS)
    for obj, field in ((channels.IndexMap((1, 0)), "mapping"), (result, "fixedness_residual")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, 0)
    assert channels.IndexMap([1, 1]).mapping == (1, 1)


@pytest.mark.parametrize("mapping", [(5,), (-1, 0), (0, 2), (0.5, 0), (True, 0), ("0",), 3], ids=repr)
def test_index_map_refuses_entries_outside_its_range(mapping):
    with pytest.raises(BadParameterError):
        channels.IndexMap(mapping)


def test_kraus_channel_is_frozen_with_a_read_only_stack():
    ops = [np.sqrt(0.75) * np.eye(2, dtype=complex),
           np.sqrt(0.25) * np.diag([1.0, -1.0]).astype(complex)]
    ch = channels.kraus_channel(ops)
    for field, value in (("kraus", ()), ("trace_preserving", False), ("unital", False)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ch, field, value)
    assert ch.kraus.shape == (2, 2, 2) and len(ch.kraus) == 2
    for k in (ch.kraus[0], ch.kraus):
        with pytest.raises(ValueError):
            k[0, 0] = 0.0
    # the caller's arrays stay writable and are not aliased
    assert all(k.flags.writeable for k in ops)
    ops[0][0, 0] = 7.0
    assert ch.kraus[0][0, 0] == np.sqrt(0.75)
    assert [np.array_equal(a, b) for a, b in zip(ch.kraus, ops)] == [False, True]


def _factor_loop(k, zero_tol=linalg.ZERO_TOL):
    # reference: one column at a time
    mapping, coeffs = [], []
    for i in range(k.shape[0]):
        rows = np.flatnonzero(np.abs(k[:, i]) >= zero_tol)
        if rows.size > 1:
            raise NotIOFormError(f"column {i} has {rows.size} nonzero entries")
        mapping.append(int(rows[0]) if rows.size else i)
        coeffs.append(k[rows[0], i] if rows.size else 0.0 + 0.0j)
    return tuple(mapping), np.asarray(coeffs, dtype=complex)


def _classify_loop(ks):
    if all(np.max(np.abs(k - np.diag(np.diag(k)))) < linalg.ZERO_TOL for k in ks):
        return channels.GIO
    try:
        maps = [_factor_loop(k)[0] for k in ks]
    except NotIOFormError:
        return channels.NOT_IO
    if all(len(set(m)) == len(m) for m in maps):
        return channels.SIO_NOT_GIO
    return channels.IO_NOT_SIO


def _completeness_loop(ks):
    gram = sum(
        np.outer(c.conj(), c) * np.equal.outer(f, f) for f, c in map(_factor_loop, ks)
    )
    return bool(np.max(np.abs(gram - np.eye(ks[0].shape[0]))) <= linalg.DEFAULT_TOL)


def _error_or_form(fn, *args):
    try:
        return fn(*args)
    except NotIOFormError as exc:
        return str(exc)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32, 64])
def test_vectorized_factoring_matches_the_column_loop(d):
    rng = np.random.default_rng(d)
    b = states.random_unitary(d, rng)
    cases = [
        channels.random_gio(d, 3, rng),
        channels.random_sio(d, 2, rng),
        channels.random_io(d, rng),
        channels.random_mixed_unitary(d, 2, rng),
        # K_n = |0><n|: every column but one is zero and keeps its own index
        channels.kraus_channel([np.outer(np.eye(d)[0], np.eye(d)[n]) for n in range(d)]),
    ]
    for ch in cases:
        rotated = channels.kraus_channel([b @ k @ b.conj().T for k in ch.kraus])
        for chan, basis in ((ch, None), (rotated, b)):
            ks = chan.kraus if basis is None else np.array([b.conj().T @ k @ b for k in chan.kraus])
            expect = [_error_or_form(_factor_loop, k) for k in ks]
            for k, want in zip(chan.kraus, expect):
                got = _error_or_form(channels.factor_kraus, k, basis)
                if isinstance(want, str):
                    assert got == want
                else:
                    assert got[0].mapping == want[0]
                    assert np.array_equal(got[1], np.diag(want[1]))
            errors = [want for want in expect if isinstance(want, str)]
            form = _error_or_form(channels._factor_stack, ks)
            if errors:
                assert form == errors[0]
            else:
                assert np.array_equal(form[0], [want[0] for want in expect])
                assert np.array_equal(form[1], [want[1] for want in expect])
                assert channels.io_completeness_check(chan, basis) is _completeness_loop(ks)
            assert channels.classify(chan, basis) == _classify_loop(ks)


def test_stack_factoring_reports_the_first_bad_operator_and_column():
    good = np.diag([1.0, 0.5, 0.25]).astype(complex)
    bad = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
    with pytest.raises(NotIOFormError, match="^column 1 has 2 nonzero entries$"):
        channels._factor_stack(np.array([good, bad, bad.T]))
    with pytest.raises(NotIOFormError, match="^column 0 has 2 nonzero entries$"):
        channels._factor_stack(np.array([good, bad.T, bad]))


def _action_loop(ks, m):
    # the per-operator oracle: K X K^dag added one at a time onto zeros
    out = np.zeros_like(m, dtype=complex)
    for k in ks:
        out += k @ m @ k.conj().T
    return out


@pytest.mark.parametrize("d", [2, 3, 8, 16, 64])
def test_batched_action_is_bit_identical_to_the_operator_loop(d):
    rng = np.random.default_rng(100 + d)
    cases = [
        channels.random_gio(d, 3, rng),
        channels.random_sio(d, 3, rng),
        channels.random_io(d, rng),
        channels.random_mixed_unitary(d, 3, rng),
        # not trace preserving: the Kraus sum of an operation
        channels.kraus_channel([0.5 * k for k in channels.random_sio(d, 2, rng).kraus]),
    ]
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    signed = np.where(rng.random((d, d)) < 0.5, -0.0, rng.standard_normal((d, d))) + 0j
    operators = [states.random_density(d, seed=rng).matrix, g, signed, np.full((d, d), -0.0 - 0.0j)]
    for ch in cases:
        for m in operators:
            got, want = channels.apply_to_operator(ch, m), _action_loop(ch.kraus, m)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(float), want.view(float))
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
