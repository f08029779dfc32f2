"""The three workloads: what one pass runs, what it times and how it is checked.

A pass is the unit each workload repeats, made of named parts; every pass
of a run does the same work on inputs drawn from the benchmark seed.
Output checks run outside the timed regions, and CLI stdout is compared
byte for byte with the first pass, traced or not. Every failed operation is
recorded with the command or call that failed; none is retried.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import time

import numpy as np

import inputs
from cohkit import channels, cli, coherence, instruments, states

TOL = 1e-8

# the PASS set of `cohkit verify` at any seed, which must not change
VERIFY_PASS_SET = frozenset("""
apparatus_coherence_generation classify_monotonicity commutant_dimension_oracle
commutator_expansion_identity dephasing_limit_offdiagonal dilated_repeatability
dilation_round_trips dilation_unitarity discord_decomposition eig_reconstruction
fine_graining_resolution fixed_point_identity_collapsed gio_schur_equivalence
hierarchy_gap_identity hierarchy_monotonicity label_permutation_covariance
minimal_disturbance_hs optimal_fine_graining_collapse orthogonal_support_product
permutation_coherence_preservation pinching_entropy_increase pinching_majorization
povm_coherence_nonneg povm_projective_reduction pythagorean_identity
relative_entropy_faithful relative_entropy_nonneg repeatable_residual_coherence
schur_eigenvalue_majorization schur_power_law schur_product_psd sieve_action
spectral_reconstruction theta_blocks_in_eigenspace unital_majorization
unitary_mixing_average
""".split())

FAMILY_CLASS = {"gio": channels.GIO, "sio": channels.SIO_NOT_GIO, "io": channels.IO_NOT_SIO}


class Ledger:
    """Operations attempted and failed. A failure is an exception, an exit
    code other than 0 on valid input, or a failed output check (``wrong``)."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.failures: collections.Counter[str] = collections.Counter()

    def record(self, label: str, error: str | None = None, wrong: bool = False) -> None:
        self.attempted += 1
        if error is not None:
            self.failures[f"{label}: {error}"] += 1
            self.wrong += wrong

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """One in-process ``cli.main(argv)``: exit code, stdout, and stderr or the
    uncaught exception (exit code None)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # counted against its command, never retried
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def _value(out: str, prefix: str) -> float:
    """The number after '=' on the first stdout line starting with prefix."""
    for line in out.splitlines():
        if line.startswith(prefix):
            return float(line.split("=", 1)[1])
    raise ValueError(f"no line starting {prefix!r}")


def _small(x: float, what: str) -> str | None:
    return None if abs(x) <= TOL else f"{what} = {x:.3e} above {TOL}"


def _verify_report(out: str, seed: int) -> str | None:
    lines = out.splitlines()
    passed = {ln.split()[1] for ln in lines[:-1] if ln.startswith("PASS ")}
    if passed != VERIFY_PASS_SET or len(lines) != len(VERIFY_PASS_SET) + 1:
        return f"PASS set differs: missing {sorted(VERIFY_PASS_SET - passed)}"
    n = len(VERIFY_PASS_SET)
    if lines[-1] != f"{n}/{n} properties passed  seed={seed}":
        return f"unexpected summary {lines[-1]!r}"
    return None


class Workload:
    """One workload. ``parts`` name the pieces a pass runs in order;
    ``run_part`` runs one piece once, checks it, and returns its timed
    seconds (the checks are not timed)."""

    parts: tuple[str, ...] = ()
    items: dict[str, int] = {}  # items per operation, for parts reported as rates

    def __init__(self, seed: int, workdir: str, ledger: Ledger):
        self.seed, self.workdir, self.ledger = seed, workdir, ledger
        self.reference: dict[str, str] = {}

    def run_pass(self) -> float:
        return sum(self.run_part(p) for p in self.parts)

    def probe_known_defects(self) -> list[str]:
        """Known defects of this workload, one report line each."""
        return []

    def _same_output(self, label: str, out: str) -> str | None:
        """Every pass must print what the first printed, traced or not."""
        first = self.reference.setdefault(label, out)
        return None if out == first else "stdout differs from the first pass"

    def _run_commands(self, commands) -> float:
        """Run the commands in turn, timed, then check them all."""
        t0 = time.perf_counter()
        results = [run_cli(argv) for _, argv, _ in commands]
        seconds = time.perf_counter() - t0
        for (label, _, check), result in zip(commands, results):
            self._check_command(label, check, *result)
        return seconds

    def _check_command(self, label: str, check, rc: int | None, out: str, err: str) -> None:
        if rc is None:
            self.ledger.record(label, err)
        elif rc != 0:
            self.ledger.record(label, f"exit {rc}: {err.strip()}")
        else:
            try:
                problem = check(out) or self._same_output(label, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {exc}"
            self.ledger.record(label, problem, wrong=problem is not None)


class VerifySuite(Workload):
    """`cohkit verify --seed S` at default trials and dim_max 8. ~18.6k
    eigendecompositions at d <= 8 per suite: per-call overhead dominates."""

    parts = ("verify_suite_s",)

    def setup(self) -> None:
        run_cli(["verify", "--seed", str(self.seed), "--trials", "1"])  # warm-up

    def run_part(self, part: str) -> float:
        return self._run_commands([(f"verify --seed {self.seed}", ["verify", "--seed", str(self.seed)],
                                    lambda out: _verify_report(out, self.seed))])


# eigenspace profiles: measured observable on d, and B-side observable of the
# sqrt(d) x sqrt(d) bipartite state used by `discord`
PROFILES = {4: ((2, 1, 1), (1, 1)), 16: ((4,) * 4, (2, 2)), 64: ((8,) * 8, (2,) * 4)}


class CliFiles(Workload):
    """A fixed script of every subcommand through `cli.main(argv)` on JSON
    files written at set-up, at d = 4, 16 and 64: serialize-bound at d = 64."""

    parts = ("cli_pass_d4_s", "cli_pass_d16_s", "cli_pass_d64_s")

    def _path(self, name: str, d: int) -> str:
        return os.path.join(self.workdir, f"{name}{d}.json")

    def setup(self) -> None:
        for d, (profile, profile_b) in PROFILES.items():
            rng = inputs.rng_for(self.seed, 1, d)
            rb = int(round(d ** 0.5))
            docs = {
                "state": inputs.state_doc(inputs.density(rng, d)),
                "obs": inputs.observable_doc(*inputs.observable(rng, profile)),
                "gio": inputs.channel_doc(inputs.gio(rng, d, 2)),
                "sio": inputs.channel_doc(inputs.sio(rng, d, 2)),
                "io": inputs.channel_doc(inputs.io(rng, d)),
                "bip": inputs.bipartite_doc(inputs.density(rng, d), rb, rb),
                "obsb": inputs.observable_doc(*inputs.observable(rng, profile_b)),
            }
            for name, doc in docs.items():
                inputs.write(self._path(name, d), doc)
        self.script = {f"cli_pass_d{d}_s": self._script(d) for d in PROFILES}
        for label, argv, _ in self.script["cli_pass_d4_s"]:  # warm-up, unchecked
            run_cli(argv)

    def _script(self, d: int) -> list:
        s, dim, f = str(self.seed), str(d), lambda name: self._path(name, d)
        rb = int(round(d ** 0.5))
        profile = ",".join(map(str, PROFILES[d][0]))

        def gen(kind, *flags):
            out = self._path("gen_" + kind.replace(" ", "_"), d)
            return (f"gen {kind}", ["gen", kind.split()[0], *flags, "--seed", s, "--out", out],
                    lambda text: None if text == f"wrote {out}\n" else f"unexpected {text!r}")

        cmds = [
            gen("state", "--dim", dim),
            gen("observable", "--dim", dim, "--profile", profile),
            gen("povm", "--dim", dim, "--effects", "3"),
            gen("bipartite", "--dims", f"{rb},{rb}"),
            *(gen("channel " + fam, "--family", fam, "--dim", dim, "--kraus", "2")
              for fam in ("gio", "sio", "io", "mixed_unitary")),
            ("measure", ["measure", f("state"), f("obs")], _check_measure_text),
            ("measure --optimal", ["measure", f("state"), f("obs"), "--optimal"],
             lambda out: _small(_value(out, "hierarchy gap"), "optimal hierarchy gap")),
            ("measure --json", ["measure", f("state"), f("obs"), "--json"], _check_measure_json),
        ]
        for fam, cls in FAMILY_CLASS.items():
            cmds.append((f"classify {fam}", ["classify", f(fam)], _check_classify_text(cls)))
            cmds.append((f"classify {fam} --json", ["classify", f(fam), "--json"],
                         _check_classify_json(cls)))
        # one dilation per family and pass: a d=64 dilation costs seconds, and
        # the io joint unitary at d=64 (4096 x 4096, ~750 MB of JSON) does not fit
        cmds.append(("dilate gio", ["dilate", f("gio"), "--out", f("model_gio")],
                     lambda out: _small(_value(out, "round-trip residual"), "round-trip residual")))
        cmds.append(("dilate sio --json", ["dilate", f("sio"), "--out", f("model_sio"), "--json"],
                     lambda out: _small(json.loads(out)["round_trip_residual"], "round-trip residual")))
        if d <= 16:
            cmds.append(("dilate io", ["dilate", f("io"), "--out", f("model_io")],
                         lambda out: _small(_value(out, "round-trip residual"), "round-trip residual")))
        cmds += [
            ("evolve --steps 50", ["evolve", f("gio"), f("state"), "--steps", "50"], _check_evolve_text),
            ("evolve --steps 50 --json", ["evolve", f("gio"), f("state"), "--steps", "50", "--json"],
             _check_evolve_json),
            ("discord", ["discord", f("bip"), f("obsb")], _check_discord_text),
            ("discord --json", ["discord", f("bip"), f("obsb"), "--json"], _check_discord_json),
        ]
        if d == 4:  # verify does not depend on d; it runs once per pass
            cmds.append(("verify --trials 1", ["verify", "--seed", s, "--trials", "1"],
                         lambda out: _verify_report(out, self.seed)))
        return [(f"{label} (d={d})", argv, check) for label, argv, check in cmds]

    def run_part(self, part: str) -> float:
        return self._run_commands(self.script[part])

    def probe_known_defects(self) -> list[str]:
        """Run `verify --trials 1 --json` once, untimed. While it raises the
        known TypeError it is reported, not counted; once it runs, it is
        checked and counted like every other command."""
        label = "verify --trials 1 --json"
        argv = ["verify", "--seed", str(self.seed), "--trials", "1", "--json"]
        rc, out, err = run_cli(argv)
        if rc is None and err.startswith("TypeError") and "JSON serializable" in err:
            return [f"{label}: known defect still present ({err})"]
        self._check_command(label, _check_verify_json, rc, out, err)
        return [f"{label}: known defect gone, output checked and counted"]


def _check_measure_text(out: str) -> str | None:
    fine, coarse = _value(out, "c_re (fine-grained basis)"), _value(out, "c_re (eigenspace blocks)")
    return _small(fine - coarse - _value(out, "hierarchy gap"), "c_re fine - coarse - gap")


def _check_measure_json(out: str) -> str | None:
    doc = json.loads(out)
    return _small(doc["c_re_fine"] - doc["c_re_blocks"] - doc["hierarchy_gap"],
                  "c_re fine - coarse - gap")


def _check_classify_text(cls: str):
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if lines[0] != f"class: {cls}":
            return f"{lines[0]!r}, expected class {cls}"
        if lines[-1] != "completeness constraint satisfied: yes":
            return "completeness constraint not satisfied"
        return None
    return check


def _check_classify_json(cls: str):
    def check(out: str) -> str | None:
        doc = json.loads(out)
        if doc["class"] != cls or doc["completeness"] is not True:
            return f"class {doc['class']} completeness {doc['completeness']}, expected {cls}"
        return None
    return check


def _check_evolve(offdiag: list[float]) -> str | None:
    # entries follow |C_ij|^n with |C_ij| <= 1, so coherence never grows
    if len(offdiag) != 51:
        return f"{len(offdiag)} rows, expected 51"
    if any(b > a + 1e-12 for a, b in zip(offdiag, offdiag[1:])):
        return "max off-diagonal grew along the path"
    return None


def _check_evolve_text(out: str) -> str | None:
    lines = out.splitlines()
    if lines[0] != "step,max_offdiag,entropy":
        return f"unexpected header {lines[0]!r}"
    return _check_evolve([float(ln.split(",")[1]) for ln in lines[1:]])


def _check_evolve_json(out: str) -> str | None:
    return _check_evolve([row["max_offdiag"] for row in json.loads(out)["rows"]])


def _check_discord_text(out: str) -> str | None:
    return (_small(_value(out, "|J + delta - I|"), "|J + delta - I|")
            or _small(_value(out, "|delta - (joint - local)|"), "|delta - (joint - local)|"))


def _check_discord_json(out: str) -> str | None:
    doc = json.loads(out)
    return (_small(doc["decomposition_residual"], "|J + delta - I|")
            or _small(doc["discord_identity_residual"], "|delta - (joint - local)|"))


def _check_verify_json(out: str) -> str | None:
    doc = json.loads(out)
    passed = {p["name"] for p in doc["properties"] if p["passed"] is True}
    if passed != VERIFY_PASS_SET or doc["passed"] is not True:
        return f"PASS set differs: missing {sorted(VERIFY_PASS_SET - passed)}"
    return None


class LibraryBatch(Workload):
    """Direct library calls in a warm process: a stream of fresh states
    against one reused observable per size, bipartite 8x8 states, and d=16
    channels. LAPACK/BLAS work dominates, not per-call overhead."""

    parts = ("lib_d16_states_per_s", "lib_d64_states_per_s", "lib_bipartite_per_s",
             "lib_channels_per_s")
    # one batch per part, sized so each part takes a similar share of a pass
    items = {"lib_d16_states_per_s": 60, "lib_d64_states_per_s": 12,
             "lib_bipartite_per_s": 12, "lib_channels_per_s": 4}
    CHANNELS = ("gio", "sio", "io", "mixed_unitary")

    def setup(self) -> None:
        rng = inputs.rng_for(self.seed, 2)
        self.obs = {}
        for d, profile in ((16, (4,) * 4), (64, (8,) * 8)):
            obs = states.observable_from_projectors(*inputs.observable(rng, profile))
            self.obs[d] = (obs, states.fine_graining(obs))
        self.obs_b = states.observable_from_projectors(*inputs.observable(rng, (2,) * 4))
        self.rho16 = inputs.density(rng, 16)
        self.batches = collections.Counter()
        ledger, self.ledger = self.ledger, Ledger()
        for part in self.parts:  # warm-up, not counted
            self.run_part(part)
        self.ledger = ledger
        self.batches.clear()

    def _draw(self, part: str) -> list:
        """Fresh inputs for the next batch of a part, drawn before timing."""
        rng = inputs.rng_for(self.seed, 3, self.parts.index(part), self.batches[part])
        self.batches[part] += 1
        n = self.items[part]
        if part == "lib_d16_states_per_s":
            return [inputs.density(rng, 16) for _ in range(n)]
        if part != "lib_channels_per_s":
            return [inputs.density(rng, 64) for _ in range(n)]
        return [(fam, inputs.gio(rng, 16, 3) if fam == "gio" else
                 inputs.sio(rng, 16, 3) if fam == "sio" else
                 inputs.io(rng, 16) if fam == "io" else inputs.mixed_unitary(rng, 16, 2))
                for fam in self.CHANNELS]

    def _state(self, d):
        obs, fg = self.obs[d]

        def item(rho):
            instruments.luders(rho, obs)
            coarse = coherence.c_re_coarse(rho, obs)
            coherence.c_l1_coarse(rho, obs, fg)
            fine = coherence.c_re(rho, fg.basis)
            best = instruments.optimal_fine_grain(obs, rho)
            return fine, coarse, coherence.hierarchy_gap(rho, obs, fg), best
        return item

    def _bipartite(self, m):
        st = states.bipartite(m, 8, 8)
        return (coherence.mutual_information(st), coherence.luders_discord(st, self.obs_b),
                coherence.classical_correlation(st, self.obs_b), coherence.qi_coherence(st, self.obs_b))

    def _channel(self, fam_ops):
        fam, ops = fam_ops
        ch = channels.kraus_channel(ops)
        label = channels.classify(ch)
        path = channels.evolve_path(ch, self.rho16, 50)
        comm = channels.commutant(ch) if fam == "mixed_unitary" else None
        return label, path, comm

    def run_part(self, part: str) -> float:
        fn, label, check = {
            "lib_d16_states_per_s": (self._state(16), "d=16 state", _check_state),
            "lib_d64_states_per_s": (self._state(64), "d=64 state", _check_state),
            "lib_bipartite_per_s": (self._bipartite, "8x8 bipartite state", _check_bipartite),
            "lib_channels_per_s": (self._channel, "d=16 channel", _check_channel),
        }[part]
        batch, results = self._draw(part), []
        t0 = time.perf_counter()
        for item in batch:
            try:
                results.append((fn(item), None))
            except Exception as exc:  # counted against its call, never retried
                results.append((None, f"{type(exc).__name__}: {exc}"))
        seconds = time.perf_counter() - t0
        for item, (value, error) in zip(batch, results):
            if error is not None:
                self.ledger.record(label, error)
            else:
                problem = check(item, value)
                self.ledger.record(label, problem, wrong=problem is not None)
        return seconds


def _check_state(rho, value) -> str | None:
    fine, coarse, gap, best = value
    problem = _small(fine - coarse - gap, "c_re(fine) - c_re_coarse - hierarchy_gap")
    if problem:
        return problem
    # the optimal fine-graining diagonalizes every block of rho
    rr = best.basis.conj().T @ rho @ best.basis
    worst = max(float(np.max(np.abs(rr[s, s] - np.diag(np.diag(rr[s, s])))))
                for s in best.block_slices())
    return _small(worst, "in-block coherence left by optimal_fine_grain")


def _check_bipartite(_, value) -> str | None:
    info, delta, j, _ = value
    return _small(j + delta - info, "J + delta - I")


def _check_channel(fam_ops, value) -> str | None:
    fam, ops = fam_ops
    label, path, comm = value
    expected = FAMILY_CLASS.get(fam, channels.NOT_IO)
    if label != expected:
        return f"class {label}, expected {expected}"
    if len(path) != 51 or abs(np.trace(path[-1].matrix).real - 1.0) > TOL:
        return "evolve_path did not return 51 unit-trace states"
    if comm is not None:
        # two generic unitaries commute only with multiples of the identity
        if len(comm) != 1:
            return f"commutant dimension {len(comm)}, expected 1"
        x = comm[0]
        if max(float(np.max(np.abs(x @ k - k @ x))) for k in ops) > TOL:
            return "commutant element does not commute with the Kraus operators"
    return None


WORKLOADS = {"verify-suite": VerifySuite, "cli-files": CliFiles, "library-batch": LibraryBatch}
