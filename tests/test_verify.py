import collections
import contextlib
import io
import json
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from cohkit import channels, cli, coherence, linalg, verify
from cohkit.errors import BadParameterError
from cohkit.verify import VerifyConfig


def _nan(*args, **kwargs):
    return float("nan")


def test_nan_trial_value_fails_its_property(monkeypatch):
    # max(0.0, nan) is 0.0, so a NaN that the reduction dropped would pass
    monkeypatch.setattr(linalg, "relative_entropy", _nan)
    results = {r.name: r for r in verify.run_all(VerifyConfig(seed=0, trials=1))}
    for name in ("relative_entropy_nonneg", "relative_entropy_faithful", "pythagorean_identity"):
        assert not results[name].passed, name
        assert math.isnan(results[name].worst), name
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--trials", "1"]) == 1


def test_nan_fails_a_whole_check(monkeypatch):
    monkeypatch.setattr(coherence, "luders_discord", _nan)
    result = verify._check_discord_decomposition(np.random.SeedSequence(0), VerifyConfig(trials=2))
    assert result.name == "discord_decomposition"
    assert not result.passed and math.isnan(result.worst)


# seed children are spawned in this order: moving an entry redraws every
# seeded report, and the benchmark's tracer names its spans from these names
NAMES = (
    "eig_reconstruction",
    "schur_product_psd",
    "relative_entropy_nonneg",
    "relative_entropy_faithful",
    "spectral_reconstruction",
    "fine_graining_resolution",
    "minimal_disturbance_hs",
    "pythagorean_identity",
    "pinching_entropy_increase",
    "pinching_majorization",
    "orthogonal_support_product",
    "unitary_mixing_average",
    "hierarchy_monotonicity",
    "hierarchy_gap_identity",
    "optimal_fine_graining_collapse",
    "discord_decomposition",
    "repeatable_residual_coherence",
    "label_permutation_covariance",
    "gio_schur_equivalence",
    "unital_majorization",
    "schur_eigenvalue_majorization",
    "permutation_coherence_preservation",
    "sieve_action",
    "classify_monotonicity",
    "commutant_dimension_oracle",
    "fixed_point_identity_collapsed",
    "commutator_expansion_identity",
    "dephasing_limit_offdiagonal",
    "schur_power_law",
    "dilation_round_trips",
    "dilation_unitarity",
    "dilated_repeatability",
    "theta_blocks_in_eigenspace",
    "apparatus_coherence_generation",
    "povm_coherence_nonneg",
    "povm_projective_reduction",
)
# cases per run at trials=2 of the checks declared with trials=None: eleven
# dilation cases whatever the trial count, and one fixed case besides the
# drawn ones for discord (its witness state) and apparatus (phase damping)
CASES = {
    "discord_decomposition": 3,
    "dilation_round_trips": 11,
    "dilation_unitarity": 11,
    "apparatus_coherence_generation": 3,
}


def test_registry_lists_every_property_in_seed_order():
    assert [check.__name__ for check in verify.REGISTRY] == ["_check_" + n for n in NAMES]
    cfg = VerifyConfig(trials=1)
    for check, name in zip(verify.REGISTRY, NAMES):
        assert check(np.random.SeedSequence(0), cfg).name == name


def test_run_all_runs_each_per_trial_property_trials_times(monkeypatch):
    # the profile hook sees this process only
    monkeypatch.setattr(verify, "_can_fork", lambda: False)
    names = {check.__wrapped__.__code__: check.__name__.removeprefix("_check_")
             for check in verify.REGISTRY}
    assert sorted(names.values()) == sorted(NAMES)
    values = dict.fromkeys(names, 0)

    def count(frame, event, arg):
        # a trial returns one value; a case generator returns one at each yield
        if event == "return" and arg is not None and frame.f_code in values:
            values[frame.f_code] += 1

    sys.setprofile(count)
    try:
        results = verify.run_all(VerifyConfig(trials=2))
    finally:
        sys.setprofile(None)
    assert [r.name for r in results] == sorted(NAMES)
    assert {names[code]: n for code, n in values.items()} == {n: CASES.get(n, 2) for n in NAMES}


@pytest.mark.parametrize("module, name, check, detail", [
    (verify, "_conditional_mutual_information_sum", "discord_decomposition",
     "degenerate-block conditional information up to 0.000e+00"),
    (coherence, "c_l1", "apparatus_coherence_generation", "apparatus coherence reaches 0.000e+00"),
], ids=["discord", "apparatus"])
def test_a_witness_that_never_clears_its_bound_fails_the_property(
    monkeypatch, module, name, check, detail
):
    monkeypatch.setattr(module, name, lambda *args: 0.0)
    result = getattr(verify, "_check_" + check)(np.random.SeedSequence(0), VerifyConfig(trials=1))
    assert (result.name, result.passed, result.worst, result.detail) == (
        check, False, math.inf, detail
    )


@pytest.mark.parametrize("setting", [
    {"dim_max": 3.5}, {"dim_max": "3"}, {"dim_max": True}, {"dim_max": 9},
    {"trials": "2"}, {"trials": 1.5}, {"trials": True}, {"trials": 0},
], ids=lambda setting: ",".join(f"{k}={v!r}" for k, v in setting.items()))
def test_run_all_refuses_settings_that_are_not_integers_in_range(setting):
    with pytest.raises(BadParameterError):
        verify.run_all(VerifyConfig(**setting))


@pytest.fixture
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fake(name):
    """A property that reports the spawn key of the seed child it was given."""

    def check(seed, cfg):
        return verify.PropertyResult(name, True, 0.0, 0.0, repr(seed.spawn_key))

    return check


def test_run_all_reads_the_registry_when_called(monkeypatch, no_child_left):
    monkeypatch.setattr(verify, "REGISTRY", tuple(_fake(name) for name in "dcba"))
    for fork in (True, False):
        monkeypatch.setattr(verify, "_can_fork", lambda: fork)
        results = verify.run_all(VerifyConfig(seed=4))
        assert [(r.name, r.detail) for r in results] == [
            ("a", "(3,)"), ("b", "(2,)"), ("c", "(1,)"), ("d", "(0,)")
        ], fork


def test_pythagorean_trial_diagonalizes_each_matrix_once(eig_calls, monkeypatch):
    seen = []
    counted = linalg._eigh

    def recorded(a):
        seen.append(a.tobytes())
        return counted(a)

    monkeypatch.setattr(linalg, "_eigh", recorded)
    trial = verify._check_pythagorean_identity.__wrapped__
    rng, cfg = np.random.default_rng(0), VerifyConfig()
    for t in range(20):
        eig_calls.clear()
        seen.clear()
        assert trial(rng, cfg, t) <= 1e-8
        # rho and the pinched state twice: inside relative_entropy and once
        # for the kernel; each sigma once. Each was diagonalized 11 times before
        assert max(collections.Counter(seen).values()) <= 2, t
        if t == 0:
            assert len(eig_calls) <= 17  # 44 before


# Decompositions and coercions of one default suite, verify.run_all(seed=0),
# as ceilings. Each figure moves with the library's checks and entropies, not
# with the host, so a change that adds full decompositions, values-only
# decompositions or as_matrix coercions to it has to raise its figure here as a
# recorded decision; the tracing gate of ROADMAP item 1 names these counts.
RUN_ALL_CEILINGS = {"eig": 2012, "eigvals": 2200, "as_matrix": 18740}


def test_run_all_stays_within_its_decomposition_counts(eig_calls, monkeypatch):
    # the counters see this process only; a forked child would take half the suite
    monkeypatch.setattr(verify, "_can_fork", lambda: False)
    coerce = linalg.as_matrix

    def counted(m):
        eig_calls.append("as_matrix")
        return coerce(m)

    monkeypatch.setattr(linalg, "as_matrix", counted)
    verify.run_all(VerifyConfig(seed=0))
    counts = collections.Counter(eig_calls)
    assert {k: n for k, n in counts.items() if n > RUN_ALL_CEILINGS[k]} == {}


# The suite in two processes: a forked child runs every other property.


@pytest.mark.parametrize("setting", [
    *({"seed": seed} for seed in range(10)),
    {"seed": 1, "trials": 1}, {"seed": 1, "dim_max": 3}, {"seed": 1, "corrupt": True},
], ids=lambda setting: ",".join(f"{k}={v!r}" for k, v in setting.items()))
def test_forked_and_in_process_reports_are_the_same_bytes(monkeypatch, no_child_left, setting):
    cfg = VerifyConfig(**setting)
    reports = []
    for fork in (True, False):
        monkeypatch.setattr(verify, "_can_fork", lambda: fork)
        results = verify.run_all(cfg)
        reports.append(
            (verify.format_report(results, cfg), json.dumps(verify.report_json(results, cfg)))
        )
    assert reports[0] == reports[1]


def _planted(*args, **kwargs):
    raise channels.NotIOFormError("planted in the child's half")


def test_an_error_in_the_childs_half_reaches_the_caller(monkeypatch, no_child_left):
    # only classify_monotonicity checks IO completeness, and the child runs it
    assert verify.REGISTRY.index(verify._check_classify_monotonicity) % 2 == 1
    monkeypatch.setattr(channels, "io_completeness_check", _planted)
    outcomes = []
    for fork in (True, False):
        monkeypatch.setattr(verify, "_can_fork", lambda: fork)
        with pytest.raises(channels.NotIOFormError) as caught:
            verify.run_all(VerifyConfig(trials=1))
        assert (caught.type, str(caught.value)) == (
            channels.NotIOFormError, "planted in the child's half"
        )
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcomes.append((cli.main(["verify", "--trials", "1"]), out.getvalue(), err.getvalue()))
    assert outcomes[0] == outcomes[1] == (3, "", "validation error: planted in the child's half\n")


def _dies(seed, cfg):
    os._exit(3)


def test_a_child_that_dies_without_a_result_is_named(monkeypatch, no_child_left):
    monkeypatch.setattr(verify, "REGISTRY", (_fake("a"), _dies))
    monkeypatch.setattr(verify, "_can_fork", lambda: True)
    with pytest.raises(RuntimeError, match="exited with status 3, no result$"):
        verify.run_all(VerifyConfig())


def _interrupted(seed, cfg):
    raise KeyboardInterrupt


def _sleeps(seed, cfg):
    time.sleep(60)


def test_an_interrupt_here_kills_the_child(monkeypatch, no_child_left):
    monkeypatch.setattr(verify, "REGISTRY", (_interrupted, _sleeps))
    monkeypatch.setattr(verify, "_can_fork", lambda: True)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify.run_all(VerifyConfig())
    assert time.perf_counter() - start < 30


def _never_forks(jobs, cfg):
    raise AssertionError("forked")


def _no_process(*args):
    raise BlockingIOError(11, "Resource temporarily unavailable")


def test_a_failed_fork_runs_the_suite_in_process(monkeypatch, no_child_left):
    monkeypatch.setattr(verify, "_can_fork", lambda: True)
    monkeypatch.setattr(os, "fork", _no_process)
    fds = len(os.listdir("/proc/self/fd"))
    results = verify.run_all(VerifyConfig(trials=1))
    assert all(r.passed for r in results)
    assert len(os.listdir("/proc/self/fd")) == fds  # the pipe is closed


def test_one_cpu_runs_the_suite_in_process(monkeypatch, no_child_left):
    monkeypatch.setattr(verify, "_forked", _never_forks)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        assert not verify._can_fork()
        results = verify.run_all(VerifyConfig(trials=1))
    finally:
        os.sched_setaffinity(0, cpus)
    assert all(r.passed for r in results)


def test_a_second_thread_runs_the_suite_in_process(monkeypatch, no_child_left):
    monkeypatch.setattr(verify, "_forked", _never_forks)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert not verify._can_fork()
        results = verify.run_all(VerifyConfig(trials=1))
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert all(r.passed for r in results)
