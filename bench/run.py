"""cohkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds nothing: it imports cohkit from
``src/`` next to this directory, draws every input from ``--seed``, repeats
the workload's pass for about ``--seconds`` seconds in one process with one
closed-loop client, checks every output, and prints a readable report
followed by one JSON line with the metrics that BENCHMARK.json names:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See NOTES.md for the workloads, the metrics and the known defects.
"""

import os

# one BLAS thread, set before numpy loads: the host has two cores, and a
# second BLAS thread made single calls jump from 0.05 s to over 1 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 3  # set-up is repeated and its median reported
COLD_STARTS = 10  # cold CLI starts per untraced run, spread over the run


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for p in (99.9, 99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g}={cut:.6g}"
    return ""


class Bench:
    def __init__(self, args, workload_cls, ledger, np):
        self.args, self.np, self.ledger = args, np, ledger
        self.workdir = OUT / f"work-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.workload = workload_cls(args.seed, str(self.workdir), ledger)
        self.samples = collections.defaultdict(list)  # part or metric -> seconds
        rng = np.random.default_rng(20170717)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._ref = a + a.conj().T

    def ref_kernel(self) -> None:
        """A fixed eigh loop no code change can move: it shows host drift."""
        t0 = time.perf_counter()
        for _ in range(2000):
            self.np.linalg.eigh(self._ref)
        self.samples["host.ref_kernel_s"].append(time.perf_counter() - t0)

    def cold_start(self) -> None:
        """One `python -m cohkit.cli gen state --dim 4` in a fresh interpreter."""
        out = self.workdir / "cold_state.json"
        argv = [sys.executable, "-m", "cohkit.cli", "gen", "state", "--dim", "4",
                "--seed", str(self.args.seed), "--out", str(out)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        label = "python -m cohkit.cli gen state --dim 4"
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        except subprocess.TimeoutExpired:
            self.ledger.record(label, "timed out after 60 s")
            return
        self.samples["cold_start_s"].append(time.perf_counter() - t0)
        if proc.returncode != 0:
            self.ledger.record(label, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        elif proc.stdout != f"wrote {out}\n":
            self.ledger.record(label, f"unexpected stdout {proc.stdout!r}", wrong=True)
        else:
            self.ledger.record(label)

    def setup(self, import_s: float) -> None:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.workload.setup()
            self.samples["setup_s"].append(import_s + time.perf_counter() - t0)

    def measure(self) -> None:
        """The parts of a pass in turn until the next one would overrun
        --seconds, with cold starts and the reference kernel between them."""
        parts = self.workload.parts
        wall = collections.defaultdict(list)
        t0, i = time.perf_counter(), 0
        while True:
            part = parts[i % len(parts)]
            start = time.perf_counter()
            self.samples[part].append(self.workload.run_part(part))
            wall[part].append(time.perf_counter() - start)
            i += 1
            if i % len(parts) == 0:
                self.ref_kernel()
            elapsed = time.perf_counter() - t0
            while len(self.samples["cold_start_s"]) < COLD_STARTS * min(1.0, elapsed / self.args.seconds):
                self.cold_start()
            elapsed = time.perf_counter() - t0
            if i >= len(parts) and elapsed + statistics.median(wall[parts[i % len(parts)]]) > self.args.seconds:
                break
        while len(self.samples["cold_start_s"]) < COLD_STARTS:
            self.cold_start()

    def measure_traced(self, tracer, layer_metrics) -> dict:
        """Untraced and traced passes alternate; per-layer figures come from
        the traced ones, the overhead ratio from comparing the two."""
        self.workload.run_pass()  # first run of every part: kept out of the ratio
        t0, layers, tree = time.perf_counter(), [], None
        plain, traced = [], []
        while True:
            plain.append(self.workload.run_pass())
            tracer.reset()
            tracer.install()
            try:
                traced.append(self.workload.run_pass())
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer))
            tree = tree or tracer.tree()
            self.ref_kernel()
            elapsed = time.perf_counter() - t0
            if elapsed * (len(layers) + 1) / len(layers) > self.args.seconds:
                break
        path = OUT / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        path.write_text(json.dumps({"workload": self.args.workload, "seed": self.args.seed,
                                    "first_traced_pass": tree, "passes": layers}, indent=1))
        result = {"trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
                  "host.ref_kernel_s": statistics.median(self.samples["host.ref_kernel_s"])}
        for name in layers[0]:
            if name.endswith(".calls") or name.startswith("serialize.bytes"):
                result[name] = layers[0][name]  # exact counts of one pass
            else:
                result[name] = statistics.median(m[name] for m in layers)
        print(f"  traced passes {len(traced)}, untraced passes {len(plain)}, "
              f"overhead ratio {result['trace.overhead_ratio']:.4g}; spans in {path.relative_to(ROOT)}")
        return result

    def report(self) -> dict:
        """Print every timing as median, tail and sample count; return the
        end-to-end metrics."""
        s, parts = self.samples, self.workload.parts
        values = {
            "setup_s": statistics.median(s["setup_s"]),
            "pass_s": sum(statistics.median(s[p]) for p in parts),
            "cold_start_s": statistics.median(s["cold_start_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name in ("setup_s", *parts, "cold_start_s", "host.ref_kernel_s"):
            samples, unit = s[name], "s"
            if name in self.workload.items:  # a rate: items per second of one batch
                samples, unit = [self.workload.items[name] / x for x in samples], "1/s"
            print(f"  {name:<22} {statistics.median(samples):12.6g} {unit:<4}"
                  f" n={len(samples)} {tail(samples)}".rstrip())
        print(f"  {'pass_s':<22} {values['pass_s']:12.6g} s    (sum of the part medians)")
        print(f"  {'peak_rss_mb':<22} {values['peak_rss_mb']:12.1f} MB")
        return values


def provenance(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"python {platform.python_version()}, numpy {np.__version__}, BLAS {blas}, "
            f"nproc {os.cpu_count()}, {threads}")


def main() -> int:
    args = parse_args()
    if not (SRC / "cohkit" / "__init__.py").is_file():
        print(f"cohkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import cohkit

    if Path(cohkit.__file__).resolve().parent != SRC / "cohkit":
        print(f"imported cohkit from {cohkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = Ledger()
    bench = Bench(args, WORKLOADS[args.workload], ledger, np)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  host: {provenance(np)}")
    try:
        bench.setup(import_s)
        for line in bench.workload.probe_known_defects():
            print(f"  {line}")
        if args.trace:
            wanted = spec["per_layer"]
            # layers a workload never enters (serialize under verify-suite) read 0
            values = {m["name"]: 0 for m in wanted}
            values.update(bench.measure_traced(Tracer(), layer_metrics))
        else:
            bench.measure()
            wanted = spec["end_to_end"]
            values = bench.report()
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)

    rate = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(f"  {'error_rate':<22} {rate:12.6g}  ({ledger.failed} failed of {ledger.attempted} attempted)")
    for failure, count in sorted(ledger.failures.items()):
        print(f"  failed {count}x  {failure}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": ledger.wrong == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
