import numpy as np
import pytest

from cohkit import channels, cli, dilation, instruments, states
from cohkit.errors import (
    BadDimensionError,
    BadParameterError,
    InvalidModelError,
    NotIsometryError,
    ShapeMismatchError,
    UnsupportedClassError,
)


def matrix_units(d):
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            yield e


def dense_round_trip_residual(model, ch):
    # the check over all d^2 rows and columns of the superoperator, one
    # d x ROUND_TRIP_TILE tile at a time: the reference the supported form
    # must equal bit for bit
    d = ch.dim
    x = dilation.extract_kraus(model).kraus.reshape(-1, d * d)
    y = ch.kraus.reshape(-1, d * d)
    xc, yc = x.conj(), y.conj()
    worst = 0.0
    for a in range(d):
        rows = slice(a * d, (a + 1) * d)
        for c in range(0, d * d, cli.ROUND_TRIP_TILE):
            cols = slice(c, c + cli.ROUND_TRIP_TILE)
            diff = x[:, rows].T @ xc[:, cols] - y[:, rows].T @ yc[:, cols]
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def action_residual(ch_a, ch_b):
    worst = 0.0
    for e in matrix_units(ch_a.dim):
        out_a = channels.apply_to_operator(ch_a, e)
        out_b = channels.apply_to_operator(ch_b, e)
        worst = max(worst, float(np.max(np.abs(out_a - out_b))))
    return worst


def test_von_neumann_model_dephases():
    b = states.random_unitary(3, seed=1)
    model = dilation.dilate_von_neumann(b)
    ch = dilation.extract_kraus(model)
    # the read-back operators are the rank-one basis projectors
    for n, k in enumerate(ch.kraus):
        proj = np.outer(b[:, n], b[:, n].conj())
        assert np.max(np.abs(k - proj)) < 1e-10
    rho = states.random_density(3, seed=1).matrix
    out = sum(k @ rho @ k.conj().T for k in ch.kraus)
    assert np.max(np.abs(out - instruments.dephase(rho, b).matrix)) < 1e-10


def test_luders_model_pinches():
    obs = states.random_observable(4, (2, 2), seed=2)
    model = dilation.dilate_luders(obs)
    assert model.ancilla_dim == obs.n_outcomes
    ch = dilation.extract_kraus(model)
    for k, p in zip(ch.kraus, obs.projectors):
        assert np.max(np.abs(k - p)) < 1e-10
    # the model depends on the projectors only, so no fine-graining is taken
    other = states.random_observable(4, (2, 2), seed=3)
    with pytest.raises(TypeError):
        dilation.dilate_luders(obs, states.fine_graining(other))


def test_luders_model_repeats_outcomes():
    obs = states.random_observable(3, (2, 1), seed=4)
    model = dilation.dilate_luders(obs)
    rho = states.random_density(3, seed=4).matrix
    d, da = model.system_dim, model.ancilla_dim
    init = np.outer(model.apparatus_init, model.apparatus_init.conj())
    joint = model.joint_unitary @ np.kron(rho, init) @ model.joint_unitary.conj().T
    t = joint.reshape(d, da, d, da)
    for n, p in enumerate(obs.projectors):
        block = t[:, n, :, n]
        expect = p @ rho @ p
        assert np.max(np.abs(block - expect)) < 1e-10


def test_gio_model_round_trips():
    rng = np.random.default_rng(5)
    for _ in range(4):
        d = int(rng.integers(2, 6))
        ch = channels.random_gio(d, int(rng.integers(2, d + 2)), seed=rng)
        model = dilation.dilate_gio(ch)
        u = model.joint_unitary
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-8
        assert action_residual(ch, dilation.extract_kraus(model)) < 1e-10


def test_gio_model_pads_rank_one():
    ch = channels.kraus_channel([np.eye(3)])
    model = dilation.dilate_gio(ch)
    assert model.ancilla_dim == 2
    assert action_residual(ch, dilation.extract_kraus(model)) < 1e-10


def test_dispatcher_covers_the_classes():
    gio = channels.phase_damping(0.75)
    assert isinstance(dilation.dilate(gio), dilation.DilationModel)  # built checked
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sio = channels.kraus_channel([np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * x])
    model = dilation.dilate(sio)
    assert action_residual(sio, dilation.extract_kraus(model)) < 1e-10
    k0 = np.array([[1.0, 0.0], [0.0, 0.8]], dtype=complex)
    k1 = np.array([[0.0, 0.6], [0.0, 0.0]], dtype=complex)
    io = channels.kraus_channel([k0, k1])
    model = dilation.dilate(io)
    assert action_residual(io, dilation.extract_kraus(model)) < 1e-10
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    with pytest.raises(UnsupportedClassError):
        dilation.dilate(channels.kraus_channel([h]))


def test_generalized_cnot_oracle():
    cnot = dilation.generalized_cnot(2)
    expect = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(cnot, expect)
    u3 = dilation.generalized_cnot(3)
    assert np.max(np.abs(u3.conj().T @ u3 - np.eye(9))) < 1e-12
    with pytest.raises(BadDimensionError):
        dilation.generalized_cnot(1)


@pytest.mark.parametrize("dim", [65, 10**6])
def test_generalized_cnot_refuses_more_than_max_entries(dim):
    with pytest.raises(BadParameterError):
        dilation.generalized_cnot(dim)


def test_extend_to_unitary_restricts_to_isometry():
    rng = np.random.default_rng(6)
    g = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    v, _ = np.linalg.qr(g)
    init = np.zeros(3, dtype=complex)
    init[0] = 1.0
    u = dilation.extend_to_unitary(v, init)
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-8
    for i in range(2):
        psi = np.zeros(2, dtype=complex)
        psi[i] = 1.0
        assert np.max(np.abs(u @ np.kron(psi, init) - v @ psi)) < 1e-10
    with pytest.raises(NotIsometryError):
        dilation.extend_to_unitary(v * 2.0, init)


def test_householder_sends_source_to_target():
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = states.random_pure(4, seed=rng)
        v = states.random_pure(4, seed=rng)
        h = dilation.householder_unitary(u, v)
        assert np.max(np.abs(h.conj().T @ h - np.eye(4))) < 1e-12
        assert np.max(np.abs(h @ u - v)) < 1e-12
    # the antipodal case must not cancel
    e0 = np.zeros(3, dtype=complex)
    e0[0] = 1.0
    h = dilation.householder_unitary(e0, -e0)
    assert np.max(np.abs(h @ e0 + e0)) < 1e-12


def test_orthogonal_complement_completes_the_basis():
    rng = np.random.default_rng(8)
    q = states.random_unitary(5, seed=rng)[:, :2]
    added = dilation._orthogonal_complement(q)
    assert added.shape == (5, 3)
    full = np.hstack([q, added])
    assert np.max(np.abs(full.conj().T @ full - np.eye(5))) < 1e-10


def test_extend_to_unitary_with_a_non_basis_init():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    v, _ = np.linalg.qr(g)
    init = states.random_pure(3, seed=rng)
    assert np.count_nonzero(np.abs(init) > 1e-3) == 3
    u = dilation.extend_to_unitary(v, init)
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-12
    for psi in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), states.random_pure(2, seed=rng)):
        assert np.max(np.abs(u @ np.kron(psi, init) - v @ psi)) < 1e-12


def test_io_dilation_at_d24_is_exact_and_deterministic():
    ch = channels.random_io(24, seed=24)
    model = dilation.dilate(ch)
    assert model.ancilla_dim == 24
    assert cli._round_trip_residual(model, ch) == 0.0
    assert np.array_equal(dilation.dilate(ch).joint_unitary, model.joint_unitary)


def test_model_validation_guards():
    model = dilation.dilate_von_neumann(np.eye(2))
    # a model is checked when it is built
    with pytest.raises(InvalidModelError):
        dilation.DilationModel(
            system_dim=2,
            ancilla_dim=2,
            apparatus_init=model.apparatus_init,
            joint_unitary=model.joint_unitary * 1.5,
            readout_basis=model.readout_basis,
        )
    with pytest.raises(BadDimensionError):
        dilation.DilationModel(
            system_dim=2,
            ancilla_dim=2,
            apparatus_init=np.array([1.0, 0.0, 0.0]),
            joint_unitary=model.joint_unitary,
            readout_basis=model.readout_basis,
        )


@pytest.mark.parametrize("name", ["gio", "sio", "io"])
def test_round_trip_residual_matches_matrix_unit_oracle(name):
    for d in range(2, 9):
        if name == "io":
            ch = channels.random_io(d, seed=d)
        else:
            ch = getattr(channels, f"random_{name}")(d, 3, seed=d)
        model = dilation.dilate(ch)
        expect = action_residual(dilation.extract_kraus(model), ch)
        residual = cli._round_trip_residual(model, ch)
        assert abs(residual - expect) <= 1e-15
        if name != "gio":
            # sio and io models read back the input operators exactly
            assert residual == 0.0


def test_round_trip_residual_of_a_perturbed_model_matches_oracle():
    ch = channels.random_gio(4, 3, seed=7)
    model = dilation.dilate(ch)
    u = model.joint_unitary.copy()
    u[1, 2] += 0.05
    w, _, vh = np.linalg.svd(u)
    nudged = dilation.DilationModel(
        model.system_dim, model.ancilla_dim, model.apparatus_init, w @ vh, model.readout_basis
    )
    expect = action_residual(dilation.extract_kraus(nudged), ch)
    assert expect > 1e-3
    assert abs(cli._round_trip_residual(nudged, ch) - expect) <= 1e-15
    # a model of another channel is just as far off, and agrees too
    other = dilation.dilate(channels.random_gio(4, 3, seed=8))
    expect = action_residual(dilation.extract_kraus(other), ch)
    assert expect > 1e-3
    assert abs(cli._round_trip_residual(other, ch) - expect) <= 1e-15


@pytest.mark.parametrize("target", [0, 4])
def test_round_trip_residual_sees_a_single_output_row(target):
    # K_n = s_n |target><n|: a reset channel and a weakened copy of it differ
    # only in superoperator entries whose output row and column are both target
    def reset(weights):
        ops = []
        for n, w in enumerate(weights):
            k = np.zeros((5, 5), dtype=complex)
            k[target, n] = w
            ops.append(k)
        return channels.kraus_channel(ops)

    model = dilation.dilate(reset(np.ones(5)))
    weakened = reset(np.linspace(1.0, 0.5, 5))
    expect = action_residual(dilation.extract_kraus(model), weakened)
    assert expect > 0.5
    assert abs(cli._round_trip_residual(model, weakened) - expect) <= 1e-15


def test_round_trip_residual_reads_columns_one_side_reaches():
    # spread sends each column to outputs 0 and 1 with weight 1/2, reset sends
    # it to output 2: on the columns spread reaches the two differ by 1/2, on
    # those only reset reaches by 1
    def unit(k, i, w):
        m = np.zeros((3, 3), dtype=complex)
        m[k, i] = w
        return m

    spread = channels.kraus_channel([unit(k, i, np.sqrt(0.5)) for k in (0, 1) for i in range(3)])
    reset = channels.kraus_channel([unit(2, i, 1.0) for i in range(3)])
    for model, ch in [(dilation.dilate(spread), reset), (dilation.dilate(reset), spread)]:
        expect = action_residual(dilation.extract_kraus(model), ch)
        assert abs(expect - 1.0) <= 1e-15
        assert abs(cli._round_trip_residual(model, ch) - expect) <= 1e-15


def _rotated(name, d):
    # a gio or io channel written in a random basis b: its operators reach
    # every superoperator column, and dilate(ch, b) still models it
    b = states.random_unitary(d, seed=d)
    inner = channels.random_io(d, seed=d) if name == "io" else channels.random_gio(d, 3, seed=d)
    return channels.kraus_channel([b @ k @ b.conj().T for k in inner.kraus]), b


@pytest.mark.parametrize("name,d", [
    ("gio", 16), ("gio", 32), ("gio", 64), ("sio", 16), ("sio", 32), ("sio", 64),
    ("io", 16), ("io", 32), ("rotated-gio", 16), ("rotated-io", 8),
])
def test_round_trip_residual_on_the_support_equals_the_dense_check(name, d):
    basis = None
    if name == "io":
        ch = channels.random_io(d, seed=d)
    elif name.startswith("rotated-"):
        ch, basis = _rotated(name.removeprefix("rotated-"), d)
        assert np.all(ch.kraus != 0)
    else:
        ch = getattr(channels, f"random_{name}")(d, 3, seed=d)
    model = dilation.dilate(ch, basis)
    expect = dense_round_trip_residual(model, ch)
    if name.endswith("gio"):
        # gio models round, so nonzero bits are compared; sio and io models
        # read the operators back exactly, and both checks read 0
        assert expect > 0.0
    assert cli._round_trip_residual(model, ch).hex() == expect.hex()


def test_round_trip_residual_at_d256():
    # joint dimension 512, which dilate accepts; both lists are diagonal, so
    # the check forms d^2 superoperator entries where the dense one forms d^4
    ch = channels.random_gio(256, 2, seed=256)
    model = dilation.dilate(ch)
    assert cli._round_trip_residual(model, ch) <= 1e-12
    u = model.joint_unitary.copy()
    u[1, 2] += 0.05
    w, _, vh = np.linalg.svd(u)
    nudged = dilation.DilationModel(
        model.system_dim, model.ancilla_dim, model.apparatus_init, w @ vh, model.readout_basis
    )
    assert cli._round_trip_residual(nudged, ch) > 1e-3


def test_dilate_von_neumann_rejects_empty_matrix():
    with pytest.raises(ShapeMismatchError):
        dilation.dilate_von_neumann(np.zeros((0, 0)))
