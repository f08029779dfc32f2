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
    assert path.read_text(encoding="utf-8") == serialize.dumps(rho) + "\n"
    back = serialize.load(path, expect="state")
    assert np.array_equal(back.matrix, rho.matrix)
    with pytest.raises(ParseError):
        serialize.load(tmp_path / "missing.json")
    with pytest.raises(ParseError, match="cannot write"):
        serialize.save(tmp_path / "missing" / "state.json", rho)


def _oracle(obj) -> str:
    # the encoder the writer replaces, kept here as the reference
    return json.dumps(serialize.to_json(obj), indent=2)


KINDS = {
    "state": lambda d: states.random_density(d, seed=10),
    "observable": lambda d: states.random_observable(d, (d // 2, d // 4, d // 4), seed=11),
    "fine_graining": lambda d: states.fine_graining(states.random_observable(d, (d // 2, d // 2), seed=12)),
    "channel": lambda d: channels.random_sio(d, 3, seed=13),
    "povm": lambda d: states.random_povm(d, 3, seed=14),
    "bipartite": lambda d: states.random_bipartite(2, d // 2, seed=15),
    "dilation": lambda d: dilation.dilate(channels.random_io(d // 2, seed=16)),
    "matrix": lambda d: states.random_unitary(d, seed=17),
    "vector": lambda d: states.random_pure(d, seed=18),
}


@pytest.mark.parametrize("d", [4, 16])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_dumps_is_byte_identical_to_the_stdlib_encoder(kind, d):
    obj = KINDS[kind](d)
    assert serialize.dumps(obj) == _oracle(obj)


def test_dumps_of_the_d64_io_channel_is_byte_identical():
    ch = channels.random_io(64, seed=19)
    assert serialize.dumps(ch) == _oracle(ch)


def test_non_finite_and_extreme_entries_are_encoded_like_json():
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308,
                       -np.nan, 0.0, -5e-324, -1.7976931348623157e308, 1.0, -np.inf])
    a = values.view(complex).reshape(3, 2)
    text = serialize.dumps(a)
    assert text == _oracle(a)
    assert "NaN" in text and "-Infinity" in text and "-0.0" in text and "5e-324" in text


def test_save_writes_at_most_one_block_of_entries_at_a_time(tmp_path, monkeypatch):
    class Spy:
        def __init__(self, fh):
            self.fh, self.writes = fh, []

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            self.writes.append(text)
            return self.fh.write(text)

    spies = []

    def spy_open(*args, **kwargs):
        spies.append(Spy(open(*args, **kwargs)))
        return spies[-1]

    monkeypatch.setattr(serialize, "open", spy_open, raising=False)
    ch = channels.random_sio(48, 3, seed=21)  # 2304 entries per Kraus operator
    path = tmp_path / "ch.json"
    serialize.save(path, ch)
    (spy,) = spies
    assert "".join(spy.writes) == serialize.dumps(ch) + "\n"
    # an entry is two floats of at most 24 characters plus separators and
    # indentation, under 100 characters; a whole Kraus operator is about 190k
    assert max(map(len, spy.writes)) <= serialize._BLOCK * 100
    assert 48 * 48 > serialize._BLOCK


def test_failed_save_keeps_the_existing_file(tmp_path):
    path = tmp_path / "state.json"
    serialize.save(path, states.random_density(2, seed=22))
    before = path.read_bytes()
    with pytest.raises(ParseError, match="only vectors and matrices"):
        serialize.save(path, np.zeros((2, 2, 2)))
    with pytest.raises(ParseError, match="cannot serialize"):
        serialize.save(path, object())
    assert path.read_bytes() == before


def _entries_with(bad, k=2, n=4):
    entries = [[0.25, -0.0] for _ in range(n)]
    entries[k] = bad
    return {"type": "matrix", "dim": [2, 2], "entries": entries}


@pytest.mark.parametrize("bad, message", [
    ([None, 0.0], "non-numeric matrix entry at index 2"),
    ([0.0, None], "non-numeric matrix entry at index 2"),
    (["abc", 0.0], "non-numeric matrix entry at index 2"),
    ([[1.0], 0.0], "non-numeric matrix entry at index 2"),
    ([1.0, 0.0, 0.0], r"matrix entries must be \[re, im\] pairs"),
    ([10**400, 0.0], "non-numeric matrix entry at index 2"),
    ((1.0, 0.0), r"matrix entries must be \[re, im\] pairs"),
], ids=["none", "none-imag", "string", "nested", "triple", "huge-int", "tuple"])
def test_bad_entries_name_their_index(bad, message):
    with pytest.raises(ParseError, match=message):
        serialize.matrix_from_json(_entries_with(bad))


def test_entry_reader_keeps_signed_zeros_and_non_finite_values():
    a = np.array([-0.0, 0.0, np.nan, -np.inf, 1.5, -0.0, np.inf, 2.5]).view(complex).reshape(2, 2)
    back = serialize.loads(serialize.dumps(a), expect="matrix")
    assert back.tobytes() == a.tobytes()
    rng = np.random.default_rng(24)
    m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    m[0, 0] = complex(-0.0, -0.0)
    back = serialize.matrix_from_json(serialize.matrix_to_json(m))
    assert back.tobytes() == m.tobytes()
