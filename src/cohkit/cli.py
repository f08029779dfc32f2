"""Command-line front end.

Subcommands: measure, classify, dilate, evolve, discord, verify, gen.
Every command is a pure function of its input files, flags and seed; reports
carry no timing or machine state. Exit codes: 0 ok, 1 verify-property
failure, 2 parse error, 3 validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import channels, coherence, dilation, instruments, linalg, serialize, states, verify
from .errors import BadDimensionError, CohkitError, NotGIOError, ParseError, ValidationError

# largest system x apparatus dimension `dilate` builds: the joint unitary of a
# d=32 io channel (1024 x 1024, a 44 MB model file) is the biggest accepted
MAX_JOINT_DIM = 1024
# largest trajectory `evolve` keeps, counted in entries of its (steps + 1)
# d x d states: 256 MiB of complex entries, or 4095 steps at d=64
MAX_PATH_ENTRIES = 2**24


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _matrix_lines(m: np.ndarray) -> list[str]:
    out = []
    for row in np.atleast_2d(m):
        cells = "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row)
        out.append(f"  [ {cells} ]")
    return out


def _load_fine_graining(path, obs):
    blocks = serialize.load(path, expect="fine_graining")
    return states.fine_graining(obs, blocks)


def _cmd_measure(args) -> int:
    rho = serialize.load(args.state, expect="state")
    obs = serialize.load(args.observable, expect="observable")
    if args.fine_grain:
        fg = _load_fine_graining(args.fine_grain, obs)
    elif args.optimal:
        fg = instruments.optimal_fine_grain(obs, rho)
    else:
        fg = states.fine_graining(obs)
    probs = instruments.born_probabilities(rho, obs)
    pinched = instruments.luders(rho, obs)
    block_l1 = coherence.c_l1_coarse(rho, obs, fg)
    block_re = coherence.c_re_coarse(rho, obs)
    fine_l1 = coherence.c_l1(rho, fg.basis)
    fine_re = coherence.c_re(rho, fg.basis)
    gap = coherence.hierarchy_gap(rho, obs, fg)
    if args.json:
        print(json.dumps({
            "born_probabilities": [float(p) for p in probs],
            "luders_image": serialize.to_json(pinched),
            "c_l1_blocks": block_l1,
            "c_re_blocks": block_re,
            "c_l1_fine": fine_l1,
            "c_re_fine": fine_re,
            "hierarchy_gap": gap,
        }, indent=2))
        return 0
    print("born probabilities: " + "  ".join(_fmt(p) for p in probs))
    print("post-measurement state (nonselective):")
    for line in _matrix_lines(pinched.matrix):
        print(line)
    print(f"c_l1 (eigenspace blocks)  = {_fmt(block_l1)}")
    print(f"c_re (eigenspace blocks)  = {_fmt(block_re)}")
    print(f"c_l1 (fine-grained basis) = {_fmt(fine_l1)}")
    print(f"c_re (fine-grained basis) = {_fmt(fine_re)}")
    print(f"hierarchy gap             = {_fmt(gap)}")
    return 0


def _cmd_classify(args) -> int:
    ch = serialize.load(args.channel, expect="channel")
    basis = serialize.load(args.basis, expect="matrix") if args.basis else None
    label, form = channels._incoherent_form(ch, basis)
    factors = complete = None
    if form is not None:
        f, c = form
        maps = [channels.IndexMap(mapping=tuple(row)) for row in f.tolist()]
        factors = list(zip(maps, c))
        complete = channels._completeness(f, c)
    corr = channels.correlation_matrix_of(ch, basis) if label == channels.GIO else None
    if args.json:
        doc = {"class": label}
        if corr is not None:
            doc["correlation_matrix"] = serialize.to_json(corr.matrix)
        if factors is not None:
            doc["factors"] = [
                {
                    "kind": im.kind,
                    "mapping": list(im.mapping),
                    "diagonal": [[float(z.real), float(z.imag)] for z in diag],
                }
                for im, diag in factors
            ]
            doc["completeness"] = bool(complete)
        print(json.dumps(doc, indent=2))
        return 0
    print(f"class: {label}")
    if corr is not None:
        print("correlation matrix:")
        for line in _matrix_lines(corr.matrix):
            print(line)
    if factors is not None:
        for n, (im, diag) in enumerate(factors):
            entries = "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in diag)
            print(f"kraus {n}: {im.kind} {list(im.mapping)}  diagonal [ {entries} ]")
        print(f"completeness constraint satisfied: {'yes' if complete else 'no'}")
    return 0


def _round_trip_residual(model, ch) -> float:
    """Largest entry of S_extracted - S_input, S the channel superoperator."""
    d = ch.dim
    x = dilation.extract_kraus(model).kraus.reshape(-1, d * d)
    y = ch.kraus.reshape(-1, d * d)
    # one d x d^2 row block of S at a time: the full d^2 x d^2 difference
    # (channel_superoperator) peaks near 800 MB at d=64, the blocks near 50 MB
    worst = 0.0
    for a in range(d):
        rows = slice(a * d, (a + 1) * d)
        diff = x[:, rows].T @ x.conj() - y[:, rows].T @ y.conj()
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def _cmd_dilate(args) -> int:
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
    if args.json:
        print(json.dumps({
            "system_dim": model.system_dim,
            "ancilla_dim": model.ancilla_dim,
            "round_trip_residual": residual,
            "out": args.out,
        }, indent=2))
        return 0
    print(f"system dim {model.system_dim}, apparatus dim {model.ancilla_dim}")
    print(f"round-trip residual = {_fmt(residual)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_evolve(args) -> int:
    ch = serialize.load(args.channel, expect="channel")
    rho = serialize.load(args.state, expect="state")
    # the entrywise power law only holds for diagonal Kraus lists
    if channels.classify(ch) != channels.GIO:
        raise NotGIOError("Kraus operators are not all diagonal in this basis")
    if args.steps < 0:
        raise ValidationError("--steps must be nonnegative")
    entries = (args.steps + 1) * ch.dim**2
    if entries > MAX_PATH_ENTRIES:
        raise BadDimensionError(
            f"{args.steps} steps at dimension {ch.dim} keep {entries} entries,"
            f" above the evolve limit {MAX_PATH_ENTRIES}"
        )
    path = channels.evolve_path(ch, rho, args.steps)
    rows = []
    for step, state in enumerate(path):
        m = state.matrix
        off = float(np.max(np.abs(m - np.diag(np.diag(m))))) if m.shape[0] > 1 else 0.0
        rows.append((step, off, linalg.von_neumann_entropy(m)))
    if args.json:
        print(json.dumps({
            "rows": [
                {"step": s, "max_offdiag": off, "entropy": ent}
                for s, off, ent in rows
            ]
        }, indent=2))
        return 0
    text = "step,max_offdiag,entropy\n" + "\n".join(
        f"{s},{_fmt(off)},{_fmt(ent)}" for s, off, ent in rows
    ) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print(text, end="")
    return 0


def _cmd_discord(args) -> int:
    state = serialize.load(args.state, expect="bipartite")
    obs = serialize.load(args.observable, expect="observable")
    info = coherence.mutual_information(state)
    delta = coherence.luders_discord(state, obs)
    j = coherence.classical_correlation(state, obs)
    qi = coherence.qi_coherence(state, obs)
    local = coherence.c_re_coarse(state.reduced_b(), obs)
    if args.json:
        print(json.dumps({
            "mutual_information": info,
            "luders_discord": delta,
            "classical_correlation": j,
            "qi_coherence": qi,
            "local_coherence_b": local,
            "decomposition_residual": abs(j + delta - info),
            "discord_identity_residual": abs(delta - (qi - local)),
        }, indent=2))
        return 0
    print(f"mutual information I(A:B)   = {_fmt(info)}")
    print(f"discord (nonselective on B) = {_fmt(delta)}")
    print(f"classical correlation       = {_fmt(j)}")
    print(f"joint coherence over B      = {_fmt(qi)}")
    print(f"local coherence of B        = {_fmt(local)}")
    print(f"|J + delta - I|             = {_fmt(abs(j + delta - info))}")
    print(f"|delta - (joint - local)|   = {_fmt(abs(delta - (qi - local)))}")
    return 0


def _cmd_verify(args) -> int:
    cfg = verify.VerifyConfig(
        seed=args.seed, trials=args.trials, dim_max=args.dim_max, corrupt=args.corrupt
    )
    results = verify.run_all(cfg)
    if args.json:
        print(json.dumps(verify.report_json(results, cfg), indent=2))
    else:
        print(verify.format_report(results, cfg))
    return 0 if all(r.passed for r in results) else 1


def _parse_profile(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad profile {text!r}: comma-separated integers expected") from exc


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "state":
        obj = states.random_density(args.dim, args.rank, seed=args.seed)
    elif kind == "observable":
        profile = _parse_profile(args.profile) if args.profile else (1,) * args.dim
        obj = states.random_observable(args.dim, profile, seed=args.seed)
    elif kind == "povm":
        obj = states.random_povm(args.dim, args.effects, seed=args.seed)
    elif kind == "bipartite":
        dims = _parse_profile(args.dims)
        if len(dims) != 2:
            raise ParseError("--dims expects two comma-separated integers")
        obj = states.random_bipartite(dims[0], dims[1], args.rank, seed=args.seed)
    elif kind == "channel":
        family = args.family
        if family == "gio":
            obj = channels.random_gio(args.dim, args.kraus, seed=args.seed)
        elif family == "sio":
            obj = channels.random_sio(args.dim, args.kraus, seed=args.seed)
        elif family == "io":
            obj = channels.random_io(args.dim, seed=args.seed)
        else:
            obj = channels.random_mixed_unitary(args.dim, args.kraus, seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown kind {kind!r}")
    serialize.save(args.out, obj)
    print(f"wrote {args.out}")
    return 0


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
    m.set_defaults(func=_cmd_measure)

    c = sub.add_parser("classify", help="incoherence class of a Kraus list")
    c.add_argument("channel", help="channel JSON file")
    c.add_argument("--basis", metavar="FILE", help="reference basis as a matrix file")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_classify)

    d = sub.add_parser("dilate", help="joint-unitary model of an incoherent channel")
    d.add_argument("channel", help="channel JSON file")
    d.add_argument("--out", required=True, help="output model JSON file")
    d.add_argument("--basis", metavar="FILE", help="reference basis as a matrix file")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_dilate)

    e = sub.add_parser("evolve", help="iterate a diagonal-Kraus channel")
    e.add_argument("channel", help="channel JSON file")
    e.add_argument("state", help="state JSON file")
    e.add_argument("--steps", type=int, required=True)
    e.add_argument("--out", metavar="CSV", help="write the trajectory as CSV")
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=_cmd_evolve)

    di = sub.add_parser("discord", help="correlation split under a reading of B")
    di.add_argument("state", help="bipartite state JSON file")
    di.add_argument("observable", help="observable JSON file (acts on B)")
    di.add_argument("--json", action="store_true")
    di.set_defaults(func=_cmd_discord)

    v = sub.add_parser("verify", help="run the seeded property suite")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=None,
                   help="override the per-property instance counts")
    v.add_argument("--dim-max", type=int, default=8,
                   help="largest dimension a property draws, in [3, 8] (default 8)")
    v.add_argument("--corrupt", action="store_true",
                   help="negative control: inject one sign error")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_verify)

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
    g.set_defaults(func=_cmd_gen)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except CohkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
