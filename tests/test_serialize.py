import json
import tracemalloc

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


# -- the loader: every text reads as json.loads reads it ---------------------

_M = np.array([0.25, -0.0, -1.5e-300, 2.0, 3.0, -0.0, 1e300, 0.5]).view(complex).reshape(2, 2)
_LAYOUT = serialize.dumps(_M)  # the saved file layout
_FIRST = "[\n      0.25,\n      -0.0\n    ]"  # the first pair in that layout


def _pair(*numbers: str) -> str:
    return "[\n      " + ",\n      ".join(numbers) + "\n    ]"


def _state_text(**extra):
    rho = states.random_density(2, seed=25)
    return json.dumps({**serialize.to_json(rho), **extra}, indent=2, ensure_ascii=False)


def _observable_text(eigenvalues):
    obs = states.observable_from_projectors([1.0, 0.0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    return json.dumps({**serialize.to_json(obs), "eigenvalues": eigenvalues}, indent=2)


def _with_pair(pair: str) -> str:
    assert _LAYOUT.count(_FIRST) == 1
    return _LAYOUT.replace(_FIRST, pair)


def _nested(depth: int) -> str:
    return _LAYOUT[:-1] + f',\n  "deep": {"[" * depth}{"]" * depth}\n}}'


LOADER_TEXTS = {
    "layout": _LAYOUT,
    "state": _state_text(),
    "indent-4": json.dumps(json.loads(_LAYOUT), indent=4),
    "minified": json.dumps(json.loads(_LAYOUT), separators=(",", ":")),
    "one-line": json.dumps(json.loads(_LAYOUT)),
    "tabs": json.dumps(json.loads(_LAYOUT), indent="\t"),
    "crlf": _LAYOUT.replace("\n", "\r\n"),
    "ints": _with_pair(_pair("1", "-0")),
    "exponents": _with_pair(_pair("1E5", "-2.5e-3")),
    "three-element-pair": _with_pair(_pair("0.25", "-0.0", "1.0")),
    "one-element-pair": _with_pair(_pair("0.25")),
    "empty-entries": _LAYOUT[:_LAYOUT.index('"entries"')] + '"entries": []\n}',
    "extra-pair": _with_pair(_FIRST + ",\n    " + _FIRST),
    "leading-zero": _with_pair(_pair("01", "-0.0")),
    "bare-fraction": _with_pair(_pair(".5", "-0.0")),
    "plus-sign": _with_pair(_pair("+1", "-0.0")),
    "trailing-dot": _with_pair(_pair("1.", "-0.0")),
    "two-numbers-one-slot": _with_pair(_pair("1 2", "-0.0")),
    "number-outside-pair": _with_pair(_FIRST + " 7"),
    "number-before-pair": _with_pair("7 " + _FIRST),
    # a number moved out of its pair, next to an emptied slot: json.loads
    # refuses each, though the numbers alone read as a flat list of pairs
    "moved-before-first-pair": _with_pair("0.25 " + _pair("", "-0.0")),
    "moved-between-pairs": _LAYOUT.replace(_pair("-1.5e-300", "2.0"), "-1.5e-300 " + _pair("", "2.0")),
    "moved-after-last-pair": _LAYOUT.replace(_pair("1e+300", "0.5"), _pair("1e+300", "") + " 0.5"),
    "nan": _with_pair(_pair("NaN", "-0.0")),
    "infinity": _with_pair(_pair("-Infinity", "-0.0")),
    "overflow": _with_pair(_pair("1e400", "-0.0")),
    "huge-int": _with_pair(_pair("1" + "0" * 400, "-0.0")),
    "null": _with_pair(_pair("null", "-0.0")),
    # json.loads keeps these as strings and bools, which are not numbers
    "string-entries": _with_pair(_pair('"0.5"', '"1e0"')),
    "bool-entries": _with_pair(_pair("true", "false")),
    "string-eigenvalue": _observable_text(["2", 0.0]),
    "bool-eigenvalue": _observable_text([True, 0.0]),
    "int-eigenvalue": _observable_text([2, 0.0]),
    "non-ascii-space": _with_pair(_pair("0.25\u00a0", "-0.0")),
    "duplicate-entries": _LAYOUT[:-2] + ",\n  " + _LAYOUT[_LAYOUT.index('"entries"'):].replace("0.25", "9.5"),
    "entries-in-a-string": _state_text(note='"entries": [\n  [\n    1,\n    2\n  ]\n]'),
    # two entry lists in the saved layout; the first is a key's
    "escaped-quote-key": '{"type": "matrix", "dim": [1, 1], "x\\"entries": [\n[\n1,\n2\n]\n],'
                         '\n"entries": [\n[\n3,\n4\n]\n]\n}',
    "entries-elsewhere": _state_text(entries=[[1.0, 2.0], [3.0, 4.0]]),
    # a string with a NUL escape, where a matrix's entries go
    "placeholder-collision": json.dumps({"type": "matrix", "dim": [2, 2], "entries": "\u00000",
                                         "other": serialize.matrix_to_json(_M)}, indent=2),
    # the same, as a duplicate key after a list of pairs
    "placeholder-after-entries": _LAYOUT[:-2] + ',\n  "entries": "\\u00000"\n}',
    "non-ascii-elsewhere": _state_text(note="Lüders ✓ ρ"),
    "deep-nesting": _nested(200),
    "too-deep": _nested(100_000),
    "wrong-count": _LAYOUT.replace('"dim": [\n    2,\n    2\n  ]', '"dim": [\n    3,\n    2\n  ]'),
    "float-dim": _LAYOUT.replace('"dim": [\n    2,', '"dim": [\n    2.0,'),
}


def _outcome(read, text):
    try:
        value = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    # tobytes tells -0.0 from 0.0
    if isinstance(value, states.Observable):
        return value.eigenvalues.tobytes(), tuple(p.tobytes() for p in value.projectors)
    matrix = value.matrix if isinstance(value, states.DensityMatrix) else value
    return matrix.shape, matrix.tobytes()


def _oracle_loads(text):
    # json.loads of the whole text, its errors named as loads names them
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nesting too deep") from None
    return serialize.from_json(doc)


@pytest.mark.parametrize("name", sorted(LOADER_TEXTS))
def test_loads_reads_every_text_as_json_loads_does(name):
    text = LOADER_TEXTS[name]
    assert _outcome(serialize.loads, text) == _outcome(_oracle_loads, text)


# the saved layout, minified and tab-indented
SPELLINGS = ({"indent": 2}, {"separators": (",", ":")}, {"indent": "\t"})


def _matrices(doc):
    if isinstance(doc, dict):
        if doc.get("type") == "matrix":
            yield doc
        for value in doc.values():
            yield from _matrices(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _matrices(value)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_saved_kind_takes_the_whole_list_path(kind):
    saved = serialize.to_json(KINDS[kind](16))
    for spelling in SPELLINGS:
        text = json.dumps(saved, **spelling)
        doc = json.loads(text, object_pairs_hook=serialize._object)
        matrices = list(_matrices(doc))
        assert matrices and all(isinstance(m["entries"], serialize._Entries) for m in matrices)
        # compared as text, which tells -0.0 from 0.0 and 1 from 1.0
        assert json.dumps(serialize._plain(doc)) == json.dumps(json.loads(text))


@pytest.mark.parametrize("spelling", SPELLINGS[:2], ids=["layout", "minified"])
def test_loads_holds_no_more_than_one_matrix_as_lists(spelling):
    text = json.dumps(serialize.to_json(channels.random_io(32, seed=16)), **spelling)

    def peak(read):
        tracemalloc.start()
        try:
            read(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # reading every matrix as lists first, as json.loads does, peaks at
    # about three times what the per-matrix hook needs
    assert peak(serialize.loads) < peak(lambda t: serialize.from_json(json.loads(t))) / 2


@pytest.mark.parametrize("name, message", [
    ("string-entries", "non-numeric matrix entry at index 0"),
    ("bool-entries", "non-numeric matrix entry at index 0"),
    ("string-eigenvalue", "non-numeric eigenvalue"),
    ("bool-eigenvalue", "non-numeric eigenvalue"),
])
def test_entries_and_eigenvalues_must_be_json_numbers(name, message):
    with pytest.raises(ParseError, match=message):
        serialize.loads(LOADER_TEXTS[name])


@pytest.mark.parametrize("where", ["entries", "dim"])
def test_integers_too_long_to_convert_are_parse_errors(where):
    digits = "7" * 5000  # past CPython's 4300-digit conversion limit
    text = _with_pair(_pair(digits, "-0.0")) if where == "entries" else \
        _LAYOUT.replace('"dim": [\n    2,', f'"dim": [\n    {digits},')
    with pytest.raises(ParseError):
        serialize.loads(text)


@pytest.mark.parametrize("doc, message", [
    ({"type": "matrix", "dim": ["2", 2], "entries": [[1, 0]] * 4}, "non-integer matrix dimension"),
    ({"type": "matrix", "dim": [2.9, 2], "entries": [[1, 0]] * 4}, "non-integer matrix dimension"),
    ({"type": "matrix", "dim": [2, 2.0], "entries": [[1, 0]] * 4}, "non-integer matrix dimension"),
    ({"type": "matrix", "dim": [True, 1], "entries": [[1, 0]]}, "non-integer matrix dimension"),
    ({"type": "state", "dim": 7, "matrix": serialize.matrix_to_json(np.eye(2) / 2)},
     "document dim 7 does not match its 2-dimensional matrices"),
    ({"type": "state", "dim": "2", "matrix": serialize.matrix_to_json(np.eye(2) / 2)},
     "non-integer document dimension"),
    ({"type": "channel", "dim": 3, "kraus": [serialize.matrix_to_json(np.eye(2))]},
     "document dim 3 does not match its 2-dimensional matrices"),
    ({"type": "povm", "dim": 2.0, "effects": [serialize.matrix_to_json(np.eye(2))]},
     "non-integer document dimension"),
    ({"type": "observable", "dim": 1, "matrix": serialize.matrix_to_json(np.diag([1.0, 2.0]))},
     "document dim 1 does not match its 2-dimensional matrices"),
    ({"type": "bipartite", "dims": [2.0, 1], "matrix": serialize.matrix_to_json(np.eye(2) / 2)},
     "non-integer subsystem dimension"),
    ({"type": "bipartite", "dims": [False, 2], "matrix": serialize.matrix_to_json(np.eye(2) / 2)},
     "non-integer subsystem dimension"),
], ids=["string", "fraction", "float", "bool", "state-dim", "string-state-dim", "channel-dim",
        "povm-dim", "observable-dim", "float-dims", "bool-dims"])
def test_sizes_must_be_integers_that_agree(doc, message):
    with pytest.raises(ParseError, match=message):
        serialize.from_json(doc)
    with pytest.raises(ParseError, match=message):
        serialize.loads(json.dumps(doc, indent=2))


def test_dilation_sizes_must_be_integers():
    text = serialize.dumps(dilation.dilate_gio(channels.phase_damping(0.75)))
    for key in ("system_dim", "ancilla_dim"):
        for value in (2.0, "2", True):
            doc = json.loads(text)
            doc[key] = value
            with pytest.raises(ParseError, match="non-integer dilation dimension"):
                serialize.loads(json.dumps(doc, indent=2), expect="dilation")


# -- the writer at the largest sizes the command line writes ----------------

KINDS_64 = {**KINDS, "dilation": lambda d: dilation.dilate(channels.random_sio(d // 2, 2, seed=16))}


@pytest.mark.parametrize("kind", sorted(KINDS_64))
def test_dumps_at_d64_is_byte_identical_to_the_stdlib_encoder(kind):
    obj = KINDS_64[kind](64)
    assert serialize.dumps(obj) == _oracle(obj)


def test_dumps_of_special_values_in_every_block_is_byte_identical():
    rng = np.random.default_rng(26)
    values = rng.standard_normal(2 * 64 * 64)
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.2250738585072014e-308, 1e308,
               -1.7976931348623157e308, 0.0]
    # non-finite values in the first two of the four blocks, the rest finite
    values[:len(special)] = special
    values[2 * serialize._BLOCK + 1] = -np.inf
    values[-len(special) + 3:] = special[3:]
    a = values.view(complex).reshape(64, 64)
    assert serialize.dumps(a) == _oracle(a)
