import contextlib
import io
import json
import math
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from cohkit import channels, cli, dilation, serialize, states, verify
from cohkit.errors import BadParameterError, ParseError


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_gen_reproduces_library_objects(tmp_path):
    path = tmp_path / "state.json"
    code, _, _ = run_cli("gen", "state", "--dim", "3", "--seed", "5", "--out", str(path))
    assert code == 0
    rho = serialize.load(path, expect="state")
    assert np.array_equal(rho.matrix, states.random_density(3, seed=5).matrix)
    chan = tmp_path / "chan.json"
    code, _, _ = run_cli(
        "gen", "channel", "--family", "gio", "--dim", "4", "--kraus", "3",
        "--seed", "2", "--out", str(chan),
    )
    assert code == 0
    ch = serialize.load(chan, expect="channel")
    expect = channels.random_gio(4, 3, seed=2)
    for a, b in zip(ch.kraus, expect.kraus):
        assert np.array_equal(a, b)


def test_measure_text_and_json(tmp_path):
    state = tmp_path / "state.json"
    obs = tmp_path / "obs.json"
    run_cli("gen", "state", "--dim", "4", "--seed", "1", "--out", str(state))
    run_cli("gen", "observable", "--dim", "4", "--profile", "2,2", "--seed", "2",
            "--out", str(obs))
    code, text, _ = run_cli("measure", str(state), str(obs))
    assert code == 0
    assert "born probabilities:" in text
    assert "hierarchy gap" in text
    code, text, _ = run_cli("measure", str(state), str(obs), "--json")
    assert code == 0
    doc = json.loads(text)
    assert abs(sum(doc["born_probabilities"]) - 1.0) < 1e-10
    assert doc["luders_image"]["type"] == "state"
    assert doc["c_re_fine"] >= doc["c_re_blocks"] - 1e-10
    # the block-diagonalizing fine-graining closes the gap
    code, text, _ = run_cli("measure", str(state), str(obs), "--optimal", "--json")
    assert code == 0
    assert json.loads(text)["hierarchy_gap"] < 1e-8


def test_measure_accepts_fine_graining_file(tmp_path):
    state = tmp_path / "state.json"
    obs_path = tmp_path / "obs.json"
    run_cli("gen", "state", "--dim", "4", "--seed", "3", "--out", str(state))
    run_cli("gen", "observable", "--dim", "4", "--profile", "3,1", "--seed", "4",
            "--out", str(obs_path))
    obs = serialize.load(obs_path, expect="observable")
    fg_path = tmp_path / "fg.json"
    serialize.save(fg_path, states.fine_graining(obs))
    code, text, _ = run_cli("measure", str(state), str(obs_path),
                            "--fine-grain", str(fg_path), "--json")
    assert code == 0
    assert "hierarchy_gap" in json.loads(text)


def test_classify_reports_class_and_factors(tmp_path):
    pd = tmp_path / "pd.json"
    serialize.save(pd, channels.phase_damping(0.75))
    code, text, _ = run_cli("classify", str(pd))
    assert code == 0
    assert "class: GIO" in text
    assert "correlation matrix:" in text
    assert "completeness constraint satisfied: yes" in text
    k0 = np.array([[1.0, 0.0], [0.0, 0.8]], dtype=complex)
    k1 = np.array([[0.0, 0.6], [0.0, 0.0]], dtype=complex)
    ad = tmp_path / "ad.json"
    serialize.save(ad, channels.kraus_channel([k0, k1]))
    code, text, _ = run_cli("classify", str(ad), "--json")
    assert code == 0
    doc = json.loads(text)
    assert doc["class"] == "IO-not-SIO"
    assert doc["factors"][1]["mapping"] == [0, 0]
    assert doc["completeness"] is True


def test_dilate_writes_model(tmp_path):
    chan = tmp_path / "chan.json"
    run_cli("gen", "channel", "--family", "gio", "--dim", "3", "--kraus", "2",
            "--seed", "6", "--out", str(chan))
    model_path = tmp_path / "model.json"
    code, text, _ = run_cli("dilate", str(chan), "--out", str(model_path), "--json")
    assert code == 0
    doc = json.loads(text)
    assert doc["round_trip_residual"] < 1e-10
    model = serialize.load(model_path, expect="dilation")
    assert model.system_dim == 3


def test_evolve_emits_csv(tmp_path):
    chan = tmp_path / "chan.json"
    state = tmp_path / "state.json"
    serialize.save(chan, channels.phase_damping(0.75))
    serialize.save(state, states.validate_density(np.full((2, 2), 0.5)))
    code, text, _ = run_cli("evolve", str(chan), str(state), "--steps", "10")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "step,max_offdiag,entropy"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert first[0] == "0" and abs(float(first[1]) - 0.5) < 1e-12
    last = lines[-1].split(",")
    assert abs(float(last[1]) - 0.5 * 0.5**10) < 1e-12
    out = tmp_path / "path.csv"
    code, text, _ = run_cli("evolve", str(chan), str(state), "--steps", "3",
                            "--out", str(out))
    assert code == 0 and "wrote" in text
    assert out.read_text().startswith("step,max_offdiag,entropy")


def test_evolve_rejects_non_diagonal_channels(tmp_path):
    chan = tmp_path / "chan.json"
    state = tmp_path / "state.json"
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    serialize.save(chan, channels.kraus_channel([np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * x]))
    serialize.save(state, states.validate_density(np.eye(2) / 2))
    code, _, err = run_cli("evolve", str(chan), str(state), "--steps", "2")
    assert code == 3
    assert "validation error" in err


def test_evolve_rejects_paths_above_the_bound(tmp_path, monkeypatch):
    chan = tmp_path / "chan.json"
    state = tmp_path / "state.json"
    out = tmp_path / "path.csv"
    serialize.save(chan, channels.phase_damping(0.75))
    serialize.save(state, states.validate_density(np.full((2, 2), 0.5)))

    def no_path(*args):
        raise AssertionError("the trajectory was computed")

    # 2**22 + 1 states of 2 x 2 entries lie one state above 2**24 entries
    with monkeypatch.context() as m:
        m.setattr(channels, "evolve_path", no_path)
        code, text, err = run_cli("evolve", str(chan), str(state), "--steps", str(2**22),
                                  "--out", str(out))
    assert code == 3 and text == ""
    assert ("4194304 steps at dimension 2 keep 16777220 entries,"
            " above the evolve limit 16777216") in err
    assert not out.exists()
    # the bound itself is accepted; a small bound keeps the path small
    monkeypatch.setattr(cli, "MAX_ENTRIES", 12)
    code, text, _ = run_cli("evolve", str(chan), str(state), "--steps", "2")
    assert code == 0 and len(text.strip().split("\n")) == 4
    code, _, err = run_cli("evolve", str(chan), str(state), "--steps", "3")
    assert code == 3 and "above the evolve limit 12" in err


def test_discord_on_maximally_entangled_pair(tmp_path):
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
    st = states.bipartite(np.outer(psi, psi.conj()), 2, 2)
    obs = states.observable_from_projectors(
        [1.0, -1.0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    )
    st_path, obs_path = tmp_path / "bell.json", tmp_path / "z.json"
    serialize.save(st_path, st)
    serialize.save(obs_path, obs)
    code, text, _ = run_cli("discord", str(st_path), str(obs_path), "--json")
    assert code == 0
    doc = json.loads(text)
    assert abs(doc["mutual_information"] - 2.0) < 1e-10
    assert abs(doc["luders_discord"] - 1.0) < 1e-10
    assert doc["decomposition_residual"] < 1e-8
    assert doc["discord_identity_residual"] < 1e-8


def test_parse_and_validation_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli("measure", str(bad), str(bad))
    assert code == 2
    assert "parse error" in err
    # valid JSON that describes an invalid state
    trace2 = tmp_path / "trace2.json"
    doc = {"type": "state", "dim": 2, "matrix": serialize.matrix_to_json(np.eye(2))}
    trace2.write_text(json.dumps(doc))
    obs = tmp_path / "obs.json"
    run_cli("gen", "observable", "--dim", "2", "--out", str(obs))
    code, _, err = run_cli("measure", str(trace2), str(obs))
    assert code == 3
    assert "validation error" in err
    code, _, err = run_cli("measure", str(tmp_path / "missing.json"), str(obs))
    assert code == 2


def test_verify_cli_exit_codes_and_determinism():
    code, text, _ = run_cli("verify", "--seed", "3", "--trials", "2")
    assert code == 0
    assert "properties passed" in text
    again_code, again_text, _ = run_cli("verify", "--seed", "3", "--trials", "2")
    assert again_code == 0 and again_text == text
    code, text, _ = run_cli("verify", "--seed", "3", "--trials", "2", "--corrupt")
    assert code == 1
    assert "FAIL" in text and "gio_schur_equivalence" in text


def test_dilate_round_trip_at_cli_scale(tmp_path):
    chan = tmp_path / "chan.json"
    run_cli("gen", "channel", "--family", "gio", "--dim", "64", "--kraus", "3",
            "--seed", "4", "--out", str(chan))
    code, text, _ = run_cli("dilate", str(chan), "--out", str(tmp_path / "model.json"), "--json")
    assert code == 0
    assert json.loads(text)["round_trip_residual"] <= 1e-10


def test_dilate_rejects_joint_dimension_above_the_bound(tmp_path):
    chan = tmp_path / "chan.json"
    serialize.save(chan, channels.random_gio(2, 513, seed=1))
    out = tmp_path / "model.json"
    start = time.perf_counter()
    code, text, err = run_cli("dilate", str(chan), "--out", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and text == ""
    assert "joint dimension 1026 exceeds the dilation limit 1024" in err
    assert not out.exists()


def test_verify_json_report():
    code, text, _ = run_cli("verify", "--seed", "0", "--trials", "1", "--json")
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] is True
    passed = {p["name"] for p in doc["properties"] if p["passed"] is True}
    assert len(passed) == len(doc["properties"]) == 36


def test_verify_rejects_flags_it_cannot_honour():
    for flags in (["--dim-max", "9"], ["--dim-max", "2"], ["--trials", "0"], ["--trials", "-1"]):
        code, text, err = run_cli("verify", "--seed", "0", *flags)
        assert code == 3, flags
        assert text == "" and "validation error" in err
    for bound in ("3", "8"):
        code, _, _ = run_cli("verify", "--seed", "0", "--trials", "1", "--dim-max", bound)
        assert code == 0


def test_gen_observable_terminates_at_d64(tmp_path):
    # eigenvalues drawn on [0, 10] until every gap exceeded 0.5 never
    # returned from 21 outcomes on; the subprocess bounds the wait
    out = tmp_path / "obs.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cohkit.cli", "gen", "observable", "--dim", "64",
         "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    vals = states.random_observable(64, (1,) * 64, seed=0).eigenvalues
    assert np.array_equal(serialize.load(out, expect="observable").eigenvalues, vals)
    assert np.all(-np.diff(vals) > 0.5)


def _ok(*argv) -> str:
    code, text, _ = run_cli(*map(str, argv))
    assert code == 0
    return text


def _classify_io_text(tmp, ch):
    text = _ok("classify", tmp / "ch.json")
    assert "class: IO-not-SIO" in text
    assert text.count("relabeling") == 5


@pytest.mark.parametrize("family, call", [
    ("io", lambda tmp, ch: channels.classify(ch)),
    ("io", lambda tmp, ch: channels.io_completeness_check(ch)),
    ("gio", lambda tmp, ch: channels.correlation_matrix_of(ch)),
    ("gio", lambda tmp, ch: dilation.dilate(ch)),
    ("sio", lambda tmp, ch: dilation.dilate(ch)),
    ("io", lambda tmp, ch: dilation.dilate(ch)),
    ("gio", lambda tmp, ch: (channels.classify(ch),
                             channels.evolve_path(ch, np.eye(ch.dim) / ch.dim, 2))),
    ("io", _classify_io_text),
    ("gio", lambda tmp, ch: _ok("classify", tmp / "ch.json", "--json")),
    ("sio", lambda tmp, ch: _ok("dilate", tmp / "ch.json", "--out", tmp / "model.json")),
    ("gio", lambda tmp, ch: _ok("evolve", tmp / "ch.json", tmp / "state.json", "--steps", 2)),
], ids=["classify", "io_completeness_check", "correlation_matrix_of", "dilate-gio",
        "dilate-sio", "dilate-io", "classify+evolve_path-gio", "cli-classify-io",
        "cli-classify-gio", "cli-dilate-sio", "cli-evolve-gio"])
def test_classify_factors_each_operator_once(tmp_path, monkeypatch, family, call):
    # a channel factors its Kraus stack on first use and every later reading
    # of its class, factors or correlation matrix reuses that one factoring
    calls = []
    factor = channels._factor_stack

    def counted(ks):
        calls.append(len(ks))
        return factor(ks)

    monkeypatch.setattr(channels, "_factor_stack", counted)
    _ok("gen", "channel", "--family", family, "--dim", 5, "--kraus", 3, "--seed", 3,
        "--out", tmp_path / "ch.json")
    _ok("gen", "state", "--dim", 5, "--out", tmp_path / "state.json")
    ch = serialize.load(tmp_path / "ch.json", expect="channel")
    call(tmp_path, ch)
    assert calls == [ch.n_kraus]


def _with_sentinel(path, edit, literal):
    # write a valid file with one value replaced by a JSON literal that the
    # standard encoder cannot produce
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc).replace('"SENTINEL"', literal))


def _set(keys, index):
    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc[index] = "SENTINEL"
    return edit


@pytest.mark.parametrize("target, edit, literal", [
    ("state", _set(("matrix", "entries", 0), 0), "1" + "0" * 400),
    ("observable", _set(("eigenvalues",), 0), "1" + "0" * 400),
    ("state", _set(("matrix", "dim"), 0), "1e400"),
    ("bipartite", _set(("dims",), 0), "1e400"),
    # past CPython's 4300-digit limit, where json.loads itself raises
    ("state", _set(("matrix", "entries", 0), 0), "7" * 5000),
    ("state", _set(("matrix", "dim"), 0), "7" * 5000),
], ids=["entries", "eigenvalues", "dim", "dims", "entries-digits", "dim-digits"])
def test_oversized_numbers_are_parse_errors(tmp_path, target, edit, literal):
    files = {"state": tmp_path / "state.json", "observable": tmp_path / "obs.json",
             "bipartite": tmp_path / "bip.json"}
    run_cli("gen", "state", "--dim", "2", "--out", str(files["state"]))
    run_cli("gen", "observable", "--dim", "2", "--out", str(files["observable"]))
    run_cli("gen", "bipartite", "--dims", "2,1", "--out", str(files["bipartite"]))
    _with_sentinel(files[target], edit, literal)
    if target == "bipartite":
        code, _, err = run_cli("discord", str(files["bipartite"]), str(files["observable"]))
    else:
        code, _, err = run_cli("measure", str(files["state"]), str(files["observable"]))
    assert code == 2
    assert err.startswith("parse error:")


def test_unwritable_output_path_is_a_parse_error(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    code, text, err = run_cli("gen", "state", "--dim", "2", "--out", str(out))
    assert code == 2
    assert text == ""
    assert err.startswith(f"parse error: cannot write {out}")


@pytest.mark.parametrize("flags, message", [
    (["channel", "--family", "sio", "--dim", "3", "--kraus", "0"], "n_kraus must be positive"),
    (["povm", "--dim", "-2"], "dim must be positive"),
    (["channel", "--family", "gio", "--dim", "-1"], "dim must be positive"),
    (["povm", "--dim", "0"], "dim must be positive"),
], ids=["sio-kraus-0", "povm-dim-minus-2", "gio-dim-minus-1", "povm-dim-0"])
def test_gen_rejects_sizes_below_one(tmp_path, flags, message):
    # each used to end in a traceback (exit 1) or, for a POVM at dim 0, in a
    # file that serialize.load then rejects
    out = tmp_path / "x.json"
    code, text, err = run_cli("gen", *flags, "--out", str(out))
    assert code == 3 and text == ""
    assert err == f"validation error: {message}\n"
    assert not out.exists()


def test_evolve_refuses_out_with_json(tmp_path):
    chan = tmp_path / "chan.json"
    state = tmp_path / "state.json"
    out = tmp_path / "path.csv"
    serialize.save(chan, channels.phase_damping(0.75))
    serialize.save(state, states.validate_density(np.full((2, 2), 0.5)))
    # the JSON document used to be printed and the CSV silently not written
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()) as err:
        cli.main(["evolve", str(chan), str(state), "--steps", "2", "--json", "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument" in err.getvalue()
    assert not out.exists()


# (flags, generator the kind draws with, entries the instance holds)
GEN_ABOVE_THE_BOUND = {
    "state": (["state", "--dim", "4097"], (states, "random_density"), 4097**2),
    "observable": (["observable", "--dim", "257"], (states, "random_observable"), 257**3),
    "povm": (["povm", "--dim", "2048", "--effects", "5"], (states, "random_povm"), 5 * 2048**2),
    "bipartite": (["bipartite", "--dims", "64,65"], (states, "random_bipartite"), (64 * 65)**2),
    "gio": (["channel", "--family", "gio", "--dim", "2048", "--kraus", "5"],
            (channels, "random_gio"), 5 * 2048**2),
    "sio": (["channel", "--family", "sio", "--dim", "4096", "--kraus", "2"],
            (channels, "random_sio"), 2 * 4096**2),
    "io": (["channel", "--family", "io", "--dim", "257"], (channels, "random_io"), 257**3),
    "mixed_unitary": (["channel", "--family", "mixed_unitary", "--dim", "1025", "--kraus", "16"],
                      (channels, "random_mixed_unitary"), 16 * 1025**2),
}


@pytest.mark.parametrize("flags, generator, entries", GEN_ABOVE_THE_BOUND.values(),
                         ids=GEN_ABOVE_THE_BOUND.keys())
def test_gen_rejects_instances_above_the_bound(tmp_path, monkeypatch, flags, generator, entries):
    def no_draw(*args, **kwargs):
        raise AssertionError("the instance was drawn")

    monkeypatch.setattr(*generator, no_draw)
    out = tmp_path / "x.json"
    code, text, err = run_cli("gen", *flags, "--out", str(out))
    assert code == 3 and text == ""
    assert err == (f"validation error: gen {flags[0]} would hold {entries} entries,"
                   f" above the gen limit {2**24}\n")
    assert not out.exists()


def test_gen_accepts_instances_at_the_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_ENTRIES", 9)
    out = tmp_path / "x.json"
    code, text, _ = run_cli("gen", "state", "--dim", "3", "--out", str(out))
    assert code == 0 and text == f"wrote {out}\n"
    code, _, err = run_cli("gen", "observable", "--dim", "3", "--profile", "2,1", "--out", str(out))
    assert code == 3 and "gen observable would hold 18 entries" in err


FMT_NUMBER = re.compile(r"-?\d\.\d{12}e[+-]\d{2,}")
MATRIX_CELL = re.compile(r"[+-]\d+\.\d{6}[+-]\d+\.\d{6}j")


def _json_numbers(doc, floats, cells):
    """Append, in document order, _fmt of every float of a --json document to
    floats and the text cell of every complex entry to cells."""
    if isinstance(doc, dict):
        if doc.get("type") == "matrix":
            cells += [cli._cell(complex(re_, im)) for re_, im in doc["entries"]]
            return
        for key, value in doc.items():
            if key == "diagonal":
                cells += [cli._cell(complex(re_, im)) for re_, im in value]
            else:
                _json_numbers(value, floats, cells)
    elif isinstance(doc, list):
        for value in doc:
            _json_numbers(value, floats, cells)
    elif isinstance(doc, float):
        floats.append(cli._fmt(doc))


TEXT_AND_JSON = {
    "measure": ["measure", "state", "obs"],
    "measure-optimal": ["measure", "state", "obs", "--optimal"],
    "classify-gio": ["classify", "gio"],
    "classify-sio": ["classify", "sio"],
    "classify-io": ["classify", "io"],
    "dilate": ["dilate", "sio", "--out", "model"],
    "evolve": ["evolve", "gio", "state", "--steps", "5"],
    "discord": ["discord", "bip", "obsb"],
}


INPUTS = {
    "state": ["state", "--dim", "4"],
    "obs": ["observable", "--dim", "4", "--profile", "2,1,1"],
    "gio": ["channel", "--family", "gio", "--dim", "4", "--kraus", "2"],
    "sio": ["channel", "--family", "sio", "--dim", "4", "--kraus", "2"],
    "io": ["channel", "--family", "io", "--dim", "4"],
    "bip": ["bipartite", "--dims", "2,2"],
    "obsb": ["observable", "--dim", "2"],
}


def _argv(tmp_path, names) -> list[str]:
    """The command line of names, its input files written to tmp_path."""
    for name, flags in INPUTS.items():
        assert run_cli("gen", *flags, "--seed", "3", "--out", str(tmp_path / f"{name}.json"))[0] == 0
    return [str(tmp_path / f"{n}.json") if n in INPUTS or n == "model" else n for n in names]


@pytest.mark.parametrize("names", TEXT_AND_JSON.values(), ids=TEXT_AND_JSON.keys())
def test_text_renders_the_json_document(tmp_path, names):
    argv = _argv(tmp_path, names)
    code, text, _ = run_cli(*argv)
    assert code == 0
    code, out, _ = run_cli(*argv, "--json")
    assert code == 0
    doc = json.loads(out)
    floats, cells = [], []
    _json_numbers(doc, floats, cells)
    assert floats or cells
    assert FMT_NUMBER.findall(text) == floats
    assert MATRIX_CELL.findall(text) == cells
    if names[0] == "evolve":
        steps = [int(line.split(",")[0]) for line in text.splitlines()[1:]]
        assert steps == [row["step"] for row in doc["rows"]] == list(range(6))
    if names[0] == "dilate":
        assert text.startswith(f"system dim {doc['system_dim']}, apparatus dim {doc['ancilla_dim']}\n")


def test_parser_is_built_once_per_process(tmp_path):
    # two commands in one fresh process: argparse is counted from the outside
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from cohkit import cli\n"
        f"for out in ({str(tmp_path / 'a.json')!r}, {str(tmp_path / 'b.json')!r}):\n"
        "    assert cli.main(['gen', 'state', '--out', out]) == 0\n"
        "print(built.count('cohkit'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"


@pytest.mark.parametrize("command", [["classify"], ["dilate", "--out", "MODEL"]],
                         ids=["classify", "dilate"])
def test_non_finite_basis_file_is_a_validation_error(tmp_path, command):
    channel, basis, model = tmp_path / "g3.json", tmp_path / "nan.json", tmp_path / "model.json"
    assert run_cli("gen", "channel", "--dim", "3", "--out", str(channel))[0] == 0
    # the json module reads and writes NaN, so a file can hold it
    basis.write_text(json.dumps({"type": "matrix", "dim": [3, 3], "entries": [[math.nan] * 2] * 9}))
    argv = [str(model) if a == "MODEL" else a for a in command]
    code, out, err = run_cli(argv[0], str(channel), *argv[1:], "--basis", str(basis))
    assert (code, out) == (3, "")
    assert err == "validation error: basis entries must be finite\n"
    assert not model.exists()


def test_json_output_renders_no_text_lines(tmp_path, monkeypatch):
    state, obs, gio = (tmp_path / f"{n}.json" for n in ("state", "obs", "gio"))
    run_cli("gen", "state", "--dim", "4", "--seed", "1", "--out", str(state))
    run_cli("gen", "observable", "--dim", "4", "--profile", "2,1,1", "--seed", "2",
            "--out", str(obs))
    run_cli("gen", "channel", "--family", "gio", "--dim", "4", "--seed", "3", "--out", str(gio))
    commands = [["measure", str(state), str(obs), "--json"], ["classify", str(gio), "--json"]]
    expect = [run_cli(*argv) for argv in commands]

    def no_cells(z):
        raise AssertionError("a matrix cell was rendered under --json")

    monkeypatch.setattr(cli, "_cell", no_cells)
    for argv, want in zip(commands, expect):
        assert want[0] == 0
        assert run_cli(*argv) == want
    with pytest.raises(AssertionError, match="rendered under --json"):
        run_cli("classify", str(gio))


# each bad input with the exit code cli.main gives it; a library call raises the
# error behind that code instead (2: ParseError, 3: BadParameterError). {deep}
# holds 200,000 "[" and {bom} the bytes FF FE, which are not UTF-8.
BAD_INPUTS = {
    "gen-negative-seed": (
        ["gen", "state", "--dim", "4", "--seed", "-1", "--out", "{out}"], 3,
        "seed must be a non-negative integer"),
    "verify-negative-seed": (["verify", "--seed", "-1"], 3, "seed must be a non-negative integer"),
    "classify-deep-nesting": (["classify", "{deep}"], 2, "nesting too deep"),
    "classify-not-utf8": (["classify", "{bom}"], 2, r"cannot read \S*bom.json: not UTF-8"),
    "loads-deep-nesting": (lambda: serialize.loads("[" * 200_000), 2, "nesting too deep"),
    "seed-bool": (lambda: states.random_density(2, seed=True), 3,
                  "^seed must be a non-negative integer$"),
    "seed-float": (lambda: channels.random_gio(2, 2, seed=1.0), 3,
                   "^seed must be a non-negative integer$"),
    "seed-str": (lambda: states.random_unitary(2, seed="1"), 3,
                 "^seed must be a non-negative integer$"),
    "run-all-bool-seed": (lambda: verify.run_all(verify.VerifyConfig(seed=True)), 3,
                          "^seed must be a non-negative integer$"),
    "run-all-float-seed": (lambda: verify.run_all(verify.VerifyConfig(seed=0.0)), 3,
                           "^seed must be a non-negative integer$"),
    "run-all-str-seed": (lambda: verify.run_all(verify.VerifyConfig(seed="0")), 3,
                         "^seed must be a non-negative integer$"),
    "phase-damping-str": (lambda: channels.phase_damping("a"), 3,
                          "^p must be a real number, got 'a'$"),
    "bipartite-bool-dim": (lambda: states.bipartite(np.eye(4) / 4, True, 4), 3,
                           "^dim_a must be an integer$"),
    "random-density-bool-dim": (lambda: states.random_density(True), 3, "^dim must be an integer$"),
}


@pytest.mark.parametrize("call, code, message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_inputs_are_refused_without_a_traceback(tmp_path, call, code, message):
    # each used to escape as numpy's ValueError, a TypeError, a RecursionError
    # or a UnicodeDecodeError, so the command printed a traceback and exited 1
    if callable(call):
        with pytest.raises(ParseError if code == 2 else BadParameterError, match=message):
            call()
        return
    files = {"out": tmp_path / "out.json", "deep": tmp_path / "deep.json",
             "bom": tmp_path / "bom.json"}
    files["deep"].write_text("[" * 200_000)
    files["bom"].write_bytes(b"\xff\xfe")
    got, text, err = run_cli(*(arg.format(**files) for arg in call))
    assert (got, text) == (code, "")
    assert re.search(message, err)
    assert not files["out"].exists()


JSON_COMMANDS = {
    **TEXT_AND_JSON,
    "measure-fine-grain": ["measure", "state", "obs", "--fine-grain", "fg"],
    "verify": ["verify", "--seed", "4", "--dim-max", "3"],  # "trials": null
    "verify-corrupt": ["verify", "--trials", "1", "--dim-max", "3", "--corrupt"],
}


@pytest.mark.parametrize("names", JSON_COMMANDS.values(), ids=JSON_COMMANDS.keys())
def test_json_output_is_the_stdlib_encoding_of_the_document(tmp_path, monkeypatch, names):
    argv = _argv(tmp_path, names)
    if "fg" in argv:
        obs = serialize.load(tmp_path / "obs.json", expect="observable")
        serialize.save(tmp_path / "fg.json", states.fine_graining(obs))
        argv[argv.index("fg")] = str(tmp_path / "fg.json")
    name, docs = f"_cmd_{names[0]}", []
    command = getattr(cli, name)

    def recorded(args):
        doc, lines = command(args)
        docs.append(doc)
        return doc, lines

    monkeypatch.setattr(cli, name, recorded)
    code, out, _ = run_cli(*argv, "--json")
    assert code == (1 if "--corrupt" in argv else 0)
    (doc,) = docs
    assert out == json.dumps(doc, indent=2, default=serialize.to_json) + "\n"
