import json

import numpy as np
import pytest

from cohkit import channels, dilation, serialize, states
from cohkit.errors import ParseError, TraceNotOneError


def test_matrix_round_trip_preserves_entries():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    back = serialize.matrix_from_json(serialize.matrix_to_json(m))
    assert np.array_equal(back, m)
    # vectors come back as single-column matrices
    v = serialize.matrix_from_json(serialize.matrix_to_json(np.array([1.0, 2.0])))
    assert v.shape == (2, 1)


def test_matrix_parse_errors():
    with pytest.raises(ParseError):
        serialize.matrix_from_json({"type": "matrix", "dim": [2, 2], "entries": [[1, 0]]})
    with pytest.raises(ParseError):
        serialize.matrix_from_json({"type": "matrix", "dim": [1, 1], "entries": [[1, 0, 0]]})
    with pytest.raises(ParseError):
        serialize.matrix_from_json({"type": "state"})
    with pytest.raises(ParseError):
        serialize.loads("not json at all")


def test_state_round_trip_and_validation():
    rho = states.random_density(3, seed=2)
    back = serialize.loads(serialize.dumps(rho), expect="state")
    assert np.array_equal(back.matrix, rho.matrix)
    bad = serialize.to_json(rho)
    bad["matrix"]["entries"][0] = [5.0, 0.0]
    with pytest.raises(TraceNotOneError):
        serialize.from_json(bad)


def test_observable_round_trip_both_forms():
    obs = states.random_observable(4, (2, 1, 1), seed=3)
    back = serialize.loads(serialize.dumps(obs), expect="observable")
    assert back.degeneracies == obs.degeneracies
    assert np.allclose(back.eigenvalues, obs.eigenvalues)
    for p, q in zip(back.projectors, obs.projectors):
        assert np.max(np.abs(p - q)) < 1e-12
    # the Hermitian-matrix form decomposes on load
    doc = {"type": "observable", "matrix": serialize.matrix_to_json(obs.matrix())}
    decomposed = serialize.from_json(doc)
    assert decomposed.degeneracies == obs.degeneracies
    for p, q in zip(decomposed.projectors, obs.projectors):
        assert np.max(np.abs(p - q)) < 1e-8


def test_fine_graining_blocks_round_trip():
    obs = states.random_observable(3, (2, 1), seed=4)
    fg = states.fine_graining(obs)
    blocks = serialize.loads(serialize.dumps(fg), expect="fine_graining")
    rebuilt = states.fine_graining(obs, blocks)
    assert rebuilt.refines(obs)
    for a, b in zip(rebuilt.blocks, fg.blocks):
        assert np.array_equal(a, b)


def test_channel_povm_bipartite_round_trips():
    ch = channels.random_sio(3, 2, seed=5)
    back = serialize.loads(serialize.dumps(ch), expect="channel")
    for a, b in zip(back.kraus, ch.kraus):
        assert np.array_equal(a, b)
    assert back.trace_preserving == ch.trace_preserving
    povm = states.random_povm(2, 3, seed=6)
    back = serialize.loads(serialize.dumps(povm), expect="povm")
    for a, b in zip(back.effects, povm.effects):
        assert np.max(np.abs(a - b)) < 1e-12
    st = states.random_bipartite(2, 3, seed=7)
    back = serialize.loads(serialize.dumps(st), expect="bipartite")
    assert back.dims == st.dims
    assert np.array_equal(back.state.matrix, st.state.matrix)


def test_dilation_round_trip_revalidates():
    model = dilation.dilate_gio(channels.phase_damping(0.75))
    back = serialize.loads(serialize.dumps(model), expect="dilation")
    assert back.system_dim == model.system_dim
    assert back.ancilla_dim == model.ancilla_dim
    assert np.array_equal(back.joint_unitary, model.joint_unitary)
    assert np.array_equal(back.apparatus_init, model.apparatus_init)


def test_dilation_dimension_overflow_is_a_parse_error():
    text = serialize.dumps(dilation.dilate_gio(channels.phase_damping(0.75)))
    for key in ("system_dim", "ancilla_dim"):
        doc = json.loads(text)
        doc[key] = "HUGE"
        with pytest.raises(ParseError, match="non-integer dilation dimension"):
            serialize.loads(json.dumps(doc).replace('"HUGE"', "1e400"), expect="dilation")


def test_expect_mismatch_raises():
    rho = states.random_density(2, seed=8)
    with pytest.raises(ParseError):
        serialize.loads(serialize.dumps(rho), expect="channel")


def test_save_and_load(tmp_path):
    path = tmp_path / "state.json"
    rho = states.random_density(4, seed=9)
    serialize.save(path, rho)
    back = serialize.load(path, expect="state")
    assert np.array_equal(back.matrix, rho.matrix)
    with pytest.raises(ParseError):
        serialize.load(tmp_path / "missing.json")
