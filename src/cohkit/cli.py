"""Command-line front end.

Subcommands: measure, classify, dilate, evolve, discord, verify, gen.
Every command is a pure function of its input files, flags and seed; reports
carry no timing or machine state. A command returns one result: its --json
document and an iterable of the text lines rendered from the same values,
and main prints one of the two. Lines may be lazy, so a --json run never
renders them. Exit codes: 0 ok, 1 verify-property failure, 2 parse error,
3 validation error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

import numpy as np

from . import channels, coherence, dilation, instruments, linalg, serialize, states, verify
from .errors import BadDimensionError, CohkitError, NotGIOError, ParseError, ValidationError

# largest system x apparatus dimension `dilate` builds: the joint unitary of a
# d=32 io channel (1024 x 1024, a 44 MB model file) is the biggest accepted
MAX_JOINT_DIM = 1024
# largest instance `gen` draws and trajectory `evolve` keeps, counted in
# complex entries: 256 MiB, a d=4096 state or 4095 evolve steps at d=64; the
# library's one size bound, bound here so a test can lower it for the CLI
MAX_ENTRIES = linalg.MAX_ENTRIES
# columns of the round-trip check's superoperator formed at once. The check
# keeps the columns some Kraus operator reaches, all d^2 of them for a channel
# rotated by --basis or a dense io list; a tile of d rows by ROUND_TRIP_TILE
# columns (256 KB a product at d=64) then bounds its memory, where the whole
# d^2 x d^2 difference would peak near 800 MB, and fits in L2 cache, where a
# d x d^2 row block (4 MB a product) does not
ROUND_TRIP_TILE = 256


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _cell(z) -> str:
    return f"{z.real:+.6f}{z.imag:+.6f}j"


def _matrix_lines(m: np.ndarray):
    # lazy: main renders the lines only when it prints them, never under --json
    return (f"  [ {'  '.join(map(_cell, row))} ]" for row in np.atleast_2d(m))


def _labelled(rows) -> tuple[dict, list[str]]:
    """The document and the text lines of (text label, json key, value) rows,
    each label padded to the longest of the block."""
    width = max(len(label) for label, _, _ in rows)
    doc = {key: value for _, key, value in rows}
    return doc, [f"{label:<{width}} = {_fmt(value)}" for label, _, value in rows]


def _cmd_measure(args):
    rho = serialize.load(args.state, expect="state")
    obs = serialize.load(args.observable, expect="observable")
    if args.fine_grain:
        fg = states.fine_graining(obs, serialize.load(args.fine_grain, expect="fine_graining"))
    elif args.optimal:
        fg = instruments.optimal_fine_grain(obs, rho)
    else:
        fg = states.fine_graining(obs)
    probs = [float(p) for p in instruments.born_probabilities(rho, obs)]
    pinched = instruments.luders(rho, obs)
    values, lines = _labelled([
        ("c_l1 (eigenspace blocks)", "c_l1_blocks", coherence.c_l1_coarse(rho, obs, fg)),
        ("c_re (eigenspace blocks)", "c_re_blocks", coherence.c_re_coarse(rho, obs)),
        ("c_l1 (fine-grained basis)", "c_l1_fine", coherence.c_l1(rho, fg.basis)),
        ("c_re (fine-grained basis)", "c_re_fine", coherence.c_re(rho, fg.basis)),
        ("hierarchy gap", "hierarchy_gap", coherence.hierarchy_gap(rho, obs, fg)),
    ])
    doc = {"born_probabilities": probs, "luders_image": pinched, **values}
    return doc, itertools.chain(
        ["born probabilities: " + "  ".join(map(_fmt, probs)),
         "post-measurement state (nonselective):"],
        _matrix_lines(pinched.matrix),
        lines,
    )


def _cmd_classify(args):
    ch = serialize.load(args.channel, expect="channel")
    basis = serialize.load(args.basis, expect="matrix") if args.basis else None
    label = channels.classify(ch, basis)
    ch = channels._in_basis(ch, basis)
    doc = {"class": label}
    if label == channels.GIO:
        doc["correlation_matrix"] = channels.correlation_matrix_of(ch).matrix
    if label != channels.NOT_IO:
        f, c = ch._form
        doc["factors"] = [{
            "kind": channels._map_kind(mapping),
            "mapping": mapping,
            "diagonal": [[float(z.real), float(z.imag)] for z in diag],
        } for mapping, diag in zip(f.tolist(), c)]
        doc["completeness"] = channels._completeness(f, c)

    def lines():
        yield f"class: {label}"
        if label == channels.GIO:
            yield "correlation matrix:"
            yield from _matrix_lines(doc["correlation_matrix"])
        if label != channels.NOT_IO:
            for n, (factor, diag) in enumerate(zip(doc["factors"], c)):
                yield (f"kraus {n}: {factor['kind']} {factor['mapping']}"
                       f"  diagonal [ {'  '.join(map(_cell, diag))} ]")
            yield f"completeness constraint satisfied: {'yes' if doc['completeness'] else 'no'}"

    return doc, lines()


def _round_trip_residual(model, ch) -> float:
    """Largest entry of S_extracted - S_input, S the channel superoperator."""
    d = ch.dim
    x = dilation.extract_kraus(model).kraus.reshape(-1, d * d)
    y = ch.kraus.reshape(-1, d * d)
    # S[p, q] = sum_n x[n, p] conj(x[n, q]) minus the same in y is exactly
    # 0 - 0 when no operator reaches column p or none reaches q, so only the
    # columns some operator reaches are kept: at most r*d of the d^2 for r
    # incoherent-form operators; a kept entry is the same r-term inner
    # product, so the maximum is the same bits
    keep = np.flatnonzero(np.any(x != 0, axis=0) | np.any(y != 0, axis=0))
    x, y = x[:, keep], y[:, keep]
    xc, yc = x.conj(), y.conj()
    worst = 0.0
    for a in range(0, keep.size, d):
        rows = slice(a, a + d)
        for c in range(0, keep.size, ROUND_TRIP_TILE):
            cols = slice(c, c + ROUND_TRIP_TILE)
            diff = x[:, rows].T @ xc[:, cols] - y[:, rows].T @ yc[:, cols]
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def _cmd_dilate(args):
    ch = serialize.load(args.channel, expect="channel")
    basis = serialize.load(args.basis, expect="matrix") if args.basis else None
    # every builder's apparatus has at most max(r, 2) levels for r Kraus operators
    joint = ch.dim * max(len(ch.kraus), 2)
    if joint > MAX_JOINT_DIM:
        raise BadDimensionError(
            f"joint dimension {joint} exceeds the dilation limit {MAX_JOINT_DIM}"
        )
    model = dilation.dilate(ch, basis)
    residual = _round_trip_residual(model, ch)
    serialize.save(args.out, model)
    doc = {
        "system_dim": model.system_dim,
        "ancilla_dim": model.ancilla_dim,
        "round_trip_residual": residual,
        "out": args.out,
    }
    return doc, [
        f"system dim {model.system_dim}, apparatus dim {model.ancilla_dim}",
        f"round-trip residual = {_fmt(residual)}",
        f"wrote {args.out}",
    ]


def _cmd_evolve(args):
    ch = serialize.load(args.channel, expect="channel")
    rho = serialize.load(args.state, expect="state")
    # the entrywise power law only holds for diagonal Kraus lists
    if channels.classify(ch) != channels.GIO:
        raise NotGIOError("Kraus operators are not all diagonal in this basis")
    if args.steps < 0:
        raise ValidationError("--steps must be nonnegative")
    entries = (args.steps + 1) * ch.dim**2
    if entries > MAX_ENTRIES:
        raise BadDimensionError(
            f"{args.steps} steps at dimension {ch.dim} keep {entries} entries,"
            f" above the evolve limit {MAX_ENTRIES}"
        )
    rows = []
    for step, state in enumerate(channels.evolve_path(ch, rho, args.steps)):
        m = state.matrix
        off = float(np.max(np.abs(m - np.diag(np.diag(m))))) if m.shape[0] > 1 else 0.0
        rows.append({"step": step, "max_offdiag": off,
                     "entropy": linalg.von_neumann_entropy(state)})
    lines = ["step,max_offdiag,entropy", *(
        f"{r['step']},{_fmt(r['max_offdiag'])},{_fmt(r['entropy'])}" for r in rows
    )]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        lines = [f"wrote {args.out} ({len(rows)} rows)"]
    return {"rows": rows}, lines


def _cmd_discord(args):
    state = serialize.load(args.state, expect="bipartite")
    obs = serialize.load(args.observable, expect="observable")
    info = coherence.mutual_information(state)
    delta = coherence.luders_discord(state, obs)
    j = coherence.classical_correlation(state, obs)
    qi = coherence.qi_coherence(state, obs)
    local = coherence.c_re_coarse(state.reduced_b(), obs)
    return _labelled([
        ("mutual information I(A:B)", "mutual_information", info),
        ("discord (nonselective on B)", "luders_discord", delta),
        ("classical correlation", "classical_correlation", j),
        ("joint coherence over B", "qi_coherence", qi),
        ("local coherence of B", "local_coherence_b", local),
        ("|J + delta - I|", "decomposition_residual", abs(j + delta - info)),
        ("|delta - (joint - local)|", "discord_identity_residual", abs(delta - (qi - local))),
    ])


def _cmd_verify(args):
    cfg = verify.VerifyConfig(
        seed=args.seed, trials=args.trials, dim_max=args.dim_max, corrupt=args.corrupt
    )
    results = verify.run_all(cfg)
    return verify.report_json(results, cfg), [verify.format_report(results, cfg)]


def _parse_profile(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad profile {text!r}: comma-separated integers expected") from exc


def _cmd_gen(args):
    d, kind = args.dim, args.kind
    # every kind is drawn as make(*sizes, seed=...) holding `entries` entries
    if kind == "state":
        make, sizes, entries = states.random_density, (d, args.rank), d * d
    elif kind == "observable":
        profile = _parse_profile(args.profile) if args.profile else (1,) * d
        make, sizes, entries = states.random_observable, (d, profile), len(profile) * d * d
    elif kind == "povm":
        make, sizes, entries = states.random_povm, (d, args.effects), args.effects * d * d
    elif kind == "bipartite":
        dims = _parse_profile(args.dims)
        if len(dims) != 2:
            raise ParseError("--dims expects two comma-separated integers")
        make, sizes, entries = states.random_bipartite, (*dims, args.rank), (dims[0] * dims[1])**2
    elif args.family == "io":
        make, sizes, entries = channels.random_io, (d,), d**3
    else:
        make = {
            "gio": channels.random_gio,
            "sio": channels.random_sio,
            "mixed_unitary": channels.random_mixed_unitary,
        }[args.family]
        sizes, entries = (d, args.kraus), args.kraus * d * d
    if entries > MAX_ENTRIES:
        raise BadDimensionError(
            f"gen {kind} would hold {entries} entries, above the gen limit {MAX_ENTRIES}"
        )
    serialize.save(args.out, make(*sizes, seed=args.seed))
    return {"out": args.out}, [f"wrote {args.out}"]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cohkit",
        description="Coherence, measurement and incoherent-channel toolkit.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="Born data, pinched state and coherences")
    m.add_argument("state", help="state JSON file")
    m.add_argument("observable", help="observable JSON file")
    grain = m.add_mutually_exclusive_group()
    grain.add_argument("--fine-grain", metavar="FILE", help="fine-graining JSON file")
    grain.add_argument("--optimal", action="store_true",
                       help="use the block-diagonalizing fine-graining")
    m.add_argument("--json", action="store_true")

    c = sub.add_parser("classify", help="incoherence class of a Kraus list")
    c.add_argument("channel", help="channel JSON file")
    c.add_argument("--basis", metavar="FILE", help="reference basis as a matrix file")
    c.add_argument("--json", action="store_true")

    d = sub.add_parser("dilate", help="joint-unitary model of an incoherent channel")
    d.add_argument("channel", help="channel JSON file")
    d.add_argument("--out", required=True, help="output model JSON file")
    d.add_argument("--basis", metavar="FILE", help="reference basis as a matrix file")
    d.add_argument("--json", action="store_true")

    e = sub.add_parser("evolve", help="iterate a diagonal-Kraus channel")
    e.add_argument("channel", help="channel JSON file")
    e.add_argument("state", help="state JSON file")
    e.add_argument("--steps", type=int, required=True)
    emit = e.add_mutually_exclusive_group()
    emit.add_argument("--out", metavar="CSV", help="write the trajectory as CSV")
    emit.add_argument("--json", action="store_true")

    di = sub.add_parser("discord", help="correlation split under a reading of B")
    di.add_argument("state", help="bipartite state JSON file")
    di.add_argument("observable", help="observable JSON file (acts on B)")
    di.add_argument("--json", action="store_true")

    v = sub.add_parser("verify", help="run the seeded property suite")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=None,
                   help="override the per-property instance counts")
    v.add_argument("--dim-max", type=int, default=8,
                   help="largest dimension a property draws, in [3, 8] (default 8)")
    v.add_argument("--corrupt", action="store_true",
                   help="negative control: inject one sign error")
    v.add_argument("--json", action="store_true")

    g = sub.add_parser("gen", help="write a seeded random instance to a file")
    g.add_argument("kind", choices=["state", "observable", "channel", "povm", "bipartite"])
    g.add_argument("--out", required=True)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--rank", type=int, default=None)
    g.add_argument("--profile", help="eigenspace dimensions, e.g. 2,1,1")
    g.add_argument("--effects", type=int, default=2, help="POVM outcome count")
    g.add_argument("--dims", default="2,2", help="bipartite factors, e.g. 2,3")
    g.add_argument("--family", choices=["gio", "sio", "io", "mixed_unitary"],
                   default="gio", help="channel family")
    g.add_argument("--kraus", type=int, default=2, help="Kraus operator count")
    g.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up by name on every call, so a wrapped _cmd_* is the one run
        doc, lines = globals()[f"_cmd_{args.command}"](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except CohkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if getattr(args, "json", False):
        print(serialize._text(doc))
    else:
        print("\n".join(lines))
    return 0 if doc.get("passed", True) else 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
