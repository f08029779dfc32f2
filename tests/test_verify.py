import collections
import contextlib
import io
import math
import sys

import numpy as np
import pytest

from cohkit import cli, coherence, linalg, verify
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


def test_run_all_runs_each_per_trial_property_trials_times():
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


def test_run_all_reads_the_registry_when_called(monkeypatch):
    seen = []

    def fake(name):
        def check(seed, cfg):
            seen.append((name, seed.spawn_key))
            return verify.PropertyResult(name, True, 0.0, 0.0)

        return check

    monkeypatch.setattr(verify, "REGISTRY", (fake("b"), fake("a")))
    results = verify.run_all(VerifyConfig(seed=4))
    assert [r.name for r in results] == ["a", "b"]
    assert seen == [("b", (0,)), ("a", (1,))]


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
    coerce = linalg.as_matrix

    def counted(m):
        eig_calls.append("as_matrix")
        return coerce(m)

    monkeypatch.setattr(linalg, "as_matrix", counted)
    verify.run_all(VerifyConfig(seed=0))
    counts = collections.Counter(eig_calls)
    assert {k: n for k, n in counts.items() if n > RUN_ALL_CEILINGS[k]} == {}
