"""Attempts formula, Monte-Carlo runs, aggregation, brute-force checks."""
from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from multiprocessing.connection import wait
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anonrepro import corpus, harness
from anonrepro.errors import ConfigError, EvaluationError, InvalidBaselineError
from anonrepro.harness import (
    AggregateRow,
    TrialReport,
    VerificationResult,
    acceptance_region,
    aggregate,
    attempts_for_confidence,
    resolve_configs,
    run_entry,
    run_trials,
    verify_against_bruteforce,
)
from anonrepro.model import Continuous, NumericDomain, StringDomain, Text
from anonrepro.oracles import BugOracle, Contains, Equals, InRange, Or
from anonrepro.techniques import (
    GlobalRecodingConfig,
    LengthPolicy,
    LocalSuppressionConfig,
    NoiseAdditionConfig,
    SCDLocalSuppressionConfig,
)


# ---------------------------------------------------------------------------
# attempts for confidence


FROZEN_PAIRS = [
    (0.39, 7),
    (0.08, 36),
    (0.05, 59),
    (0.52, 5),
    (0.74, 3),
    (1.0, 1),
    (0.02, 149),
    (0.01, 299),
    (0.03, 99),
    (0.0, None),
]


@pytest.mark.parametrize("p,expected", FROZEN_PAIRS)
def test_attempts_for_confidence_frozen_pairs(p, expected):
    assert attempts_for_confidence(p) == expected


def test_attempts_keep_a_small_probability_exact():
    # through 1 - p, which rounds away most of p's digits, 1e-10 would give
    # 29,957,320,256 attempts and 1e-17 a division by log(1.0) == 0
    assert attempts_for_confidence(1e-10) == 29_957_322_735
    # exactly 299,573,227,355,398,988 (ceil of ln 20 / -ln(1 - 1e-17)); a
    # float ratio resolves it to about one part in 1e16
    assert math.isclose(
        attempts_for_confidence(1e-17), 299_573_227_355_398_988, rel_tol=1e-15
    )
    # past float range: -ln(0.05) / p overflows a float for a subnormal p
    for p in (1e-300, 5e-324):
        attempts = attempts_for_confidence(p) * Fraction(p)
        assert math.isclose(float(attempts), -math.log(0.05), rel_tol=1e-12)


def test_attempts_match_definition_at_every_run_frequency():
    # every frequency k/T that a run of T trials can report
    for trials in (100, 1000):
        for confidence in (0.9, 0.95, 0.99):
            for k in range(1, trials + 1):
                p = k / trials
                n = attempts_for_confidence(p, confidence)
                assert (1 - p) ** n <= 1 - confidence, (k, trials, confidence)
                assert n == 1 or (1 - p) ** (n - 1) > 1 - confidence, (k, trials, confidence)


def test_attempts_match_definition_across_the_range():
    # smallest n with 1-(1-p)^n >= c, checked directly
    for p in [0.001, 0.013, 0.1, 0.25, 0.5, 0.333, 0.9, 0.95, 0.999]:
        n = attempts_for_confidence(p)
        assert 1 - (1 - p) ** n >= 0.95
        if n > 1:
            assert 1 - (1 - p) ** (n - 1) < 0.95


def test_attempts_other_confidence_levels():
    assert attempts_for_confidence(0.5, confidence=0.99) == 7
    assert attempts_for_confidence(0.5, confidence=0.5) == 1


def test_attempts_rejects_bad_arguments():
    with pytest.raises(ValueError):
        attempts_for_confidence(-0.1)
    with pytest.raises(ValueError):
        attempts_for_confidence(1.1)
    with pytest.raises(ValueError):
        attempts_for_confidence(0.5, confidence=1.0)
    with pytest.raises(ValueError):
        attempts_for_confidence(0.5, confidence=0.0)


# ---------------------------------------------------------------------------
# running trials


COIN = NumericDomain(1, 2, integer=True)


def coin_oracle():
    return BugOracle("coin", (("x", COIN),), Equals("x", 1.0))


def test_run_trials_counts_successes_and_disclosures_together():
    # regenerating 1 both triggers and discloses, so the counts must match
    report = run_trials(
        coin_oracle(), {"x": Continuous(1)}, LocalSuppressionConfig(),
        trials=2000, seed=5,
    )
    assert report.successes == report.disclosures
    assert 0.4 < report.reproduction_frequency < 0.6
    assert report.technique == "local_suppression"
    assert report.config == "length=random_in_range"


def test_run_trials_requires_triggering_baseline():
    with pytest.raises(InvalidBaselineError):
        run_trials(
            coin_oracle(), {"x": Continuous(2)}, LocalSuppressionConfig(), trials=10
        )


def test_run_trials_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        run_trials(coin_oracle(), {"x": Continuous(1)},
                   LocalSuppressionConfig(), trials=0)
    with pytest.raises(ConfigError):
        run_trials(coin_oracle(), {"x": Continuous(1)},
                   LocalSuppressionConfig(), trials=10, workers=0)


def test_run_trials_deterministic_and_seed_sensitive():
    entry = corpus.load("food_scale_droid")
    first = run_entry(entry, trials=150, seed=1)
    second = run_entry(entry, trials=150, seed=1)
    assert [(r.successes, r.disclosures) for r in first] == [
        (r.successes, r.disclosures) for r in second
    ]
    shifted = run_entry(entry, trials=150, seed=2)
    assert any(
        a.successes != b.successes for a, b in zip(first, shifted)
    )


def test_parallel_run_reproduces_serial_run():
    entry = corpus.load("birday")
    kwargs = dict(trials=600, seed=13)
    for cfg in (entry.configs[0], entry.configs[2]):
        serial = run_trials(entry.oracle, entry.original_assignment, cfg, **kwargs)
        parallel = run_trials(
            entry.oracle, entry.original_assignment, cfg, workers=3, **kwargs
        )
        assert (serial.successes, serial.disclosures) == (
            parallel.successes,
            parallel.disclosures,
        )


def test_trial_order_does_not_matter():
    # the same trial index gives the same outcome regardless of batch shape
    oracle = coin_oracle()
    one_batch = run_trials(
        oracle, {"x": Continuous(1)}, LocalSuppressionConfig(), trials=50, seed=3
    )
    rerun = run_trials(
        oracle, {"x": Continuous(1)}, LocalSuppressionConfig(), trials=50, seed=3,
        workers=2,
    )
    assert one_batch.successes == rerun.successes


def test_per_field_configs():
    oracle = BugOracle(
        "pair",
        (
            ("amount", NumericDomain(0, 100, max_inclusive=False)),
            ("note", StringDomain("[!-~]", 1, 10)),
        ),
        InRange("amount", 0.0, 50.0),
    )
    original = {"amount": Continuous(7.5, 1), "note": Text("x/y")}
    config = {
        "amount": NoiseAdditionConfig(0.3, label="Hi"),
        "note": SCDLocalSuppressionConfig(label="Lo"),
    }
    report = run_trials(oracle, original, config, trials=40, seed=9)
    assert report.technique == "noise_addition+scd_local_suppression"
    assert report.label == "Hi+Lo"
    assert "amount: noise_addition noise=0.3" in report.config
    assert "note: scd_local_suppression" in report.config
    with pytest.raises(ConfigError):
        resolve_configs(oracle, {"amount": NoiseAdditionConfig(0.3)})
    with pytest.raises(ConfigError):
        resolve_configs(
            oracle,
            {
                "amount": NoiseAdditionConfig(0.3),
                "note": SCDLocalSuppressionConfig(),
                "ghost": LocalSuppressionConfig(),
            },
        )


def test_run_entry_runs_each_config():
    entry = corpus.load("tasks")
    reports = run_entry(entry, trials=30, seed=2)
    assert len(reports) == len(entry.configs)
    assert {r.technique for r in reports} == {
        "local_suppression", "scd_local_suppression"
    }


def test_report_derived_properties():
    report = TrialReport(
        oracle="o", technique="t", label="", config="c",
        trials=100, successes=39, disclosures=2, seed=0,
    )
    assert report.reproduction_frequency == 0.39
    assert report.attempts == 7
    assert report.disclosure_frequency == 0.02
    never = TrialReport(
        oracle="o", technique="t", label="", config="c",
        trials=100, successes=0, disclosures=0, seed=0,
    )
    assert never.attempts is None


# ---------------------------------------------------------------------------
# aggregation


def _report(successes, trials=100, technique="t", label="L", oracle="o"):
    return TrialReport(
        oracle=oracle, technique=technique, label=label, config="c",
        trials=trials, successes=successes, disclosures=successes // 2, seed=0,
    )


def test_aggregate_means_skip_never_reproduced():
    reports = [
        _report(39, oracle="a"),   # attempts 7
        _report(0, oracle="b"),    # never reproduced
        _report(100, oracle="c"),  # attempts 1
    ]
    row, = aggregate(reports)
    assert row.oracles == 3
    assert row.mean_attempts == 4.0
    assert row.max_attempts == 7
    assert row.not_reproduced == 1
    assert math.isclose(row.mean_frequency, (0.39 + 0.0 + 1.0) / 3)
    assert math.isclose(row.mean_disclosure, (0.19 + 0.0 + 0.5) / 3)


def test_aggregate_all_never_reproduced():
    row, = aggregate([_report(0), _report(0, oracle="b")])
    assert row.mean_attempts is None
    assert row.max_attempts is None
    assert row.not_reproduced == 2


def test_aggregate_groups_by_technique_and_label_in_order():
    reports = [
        _report(10, technique="x", label="Hi"),
        _report(20, technique="y", label="Hi"),
        _report(30, technique="x", label="Hi", oracle="b"),
        _report(40, technique="x", label="Lo"),
    ]
    rows = aggregate(reports)
    assert [(r.technique, r.label, r.oracles) for r in rows] == [
        ("x", "Hi", 2), ("y", "Hi", 1), ("x", "Lo", 1),
    ]


# ---------------------------------------------------------------------------
# brute-force verification


def test_verify_against_bruteforce_passes_on_fair_coin():
    result = verify_against_bruteforce(
        coin_oracle(), {"x": Continuous(1)}, LocalSuppressionConfig(),
        trials=20000, seed=17,
    )
    assert result.exact_probability == 0.5
    assert result.passed
    assert result.lower <= 10000 <= result.upper


def test_verification_result_pass_is_region_membership():
    base = dict(
        oracle="o", technique="t", label="", config="c",
        trials=100, exact_probability=0.5, lower=40, upper=60,
    )
    assert VerificationResult(successes=40, **base).passed
    assert VerificationResult(successes=60, **base).passed
    assert not VerificationResult(successes=39, **base).passed
    assert not VerificationResult(successes=61, **base).passed


def test_acceptance_region_edges():
    lower, upper = acceptance_region(1000, 0.0)
    assert (lower, upper) == (0, 0)
    lower, upper = acceptance_region(1000, 1.0)
    assert (lower, upper) == (1000, 1000)
    assert acceptance_region(100000, 25 / 37200) == (47, 89)



@pytest.mark.parametrize("probability", [float("nan"), -0.1, 1.0000000000029996])
def test_acceptance_region_rejects_bad_probability(probability):
    with pytest.raises(ValueError, match="probability"):
        acceptance_region(1000, probability)


def exact_cdf(trials, probability):
    """P(X <= k) for k = 0..trials, summing the pmf of the float probability
    in fractions."""
    p = Fraction(probability)
    cdf, total = [], Fraction(0)
    for k in range(trials + 1):
        total += math.comb(trials, k) * p**k * (1 - p) ** (trials - k)
        cdf.append(total)
    return cdf


def exact_region(trials, probability):
    """The smallest k with P(X <= k) >= 0.005, and with >= 0.995."""
    cdf = exact_cdf(trials, probability)
    return tuple(next(k for k, c in enumerate(cdf) if c >= level)
                 for level in (Fraction(1, 200), Fraction(199, 200)))


REGION_GRID = sorted({i / 64 for i in range(65)} | {0.005, 0.995, 0.1, 0.3, 1 / 3, 0.7, 0.9,
                                                    1e-3, 1e-6, 1e-12, 1 - 1e-3, 1 - 1e-12})


@pytest.mark.parametrize("trials", range(21))
def test_acceptance_region_equals_its_closed_form(trials):
    for probability in REGION_GRID:
        assert acceptance_region(trials, probability) == exact_region(trials, probability), probability


@pytest.mark.parametrize("trials, probability, expected", [
    # P(X <= 0) = 1 - p, a hair under 0.995 for the float 0.005
    (1, 0.005, (0, 1)),
    # P(X <= 0) = (1 - p)**2, a hair under 0.995 for the float p
    (2, 1 - math.sqrt(0.995), (0, 1)),
])
def test_acceptance_region_decides_near_ties_exactly(trials, probability, expected):
    assert exact_region(trials, probability) == expected
    assert acceptance_region(trials, probability) == expected


@pytest.mark.parametrize("probability", [0.005, 0.3, 1 / 3, 0.9])
def test_near_ties_compare_the_exact_cdf(probability):
    # a level equal to P(X <= k) is reached, and one a hair above it is not
    for k, cdf in enumerate(exact_cdf(12, probability)):
        assert harness._reaches(12, probability, k, cdf)
        assert not harness._reaches(12, probability, k, cdf + Fraction(1, 10**30))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.floats(1e-12, 1.0))
def test_acceptance_region_equals_scipy_quantiles(trials, probability):
    binom = pytest.importorskip("scipy.stats").binom
    expected = tuple(int(binom.ppf(level, trials, probability)) for level in (0.005, 0.995))
    for level, k in zip((0.005, 0.995), expected):
        # scipy's own float answer is not exact where the CDF is this close to a level
        assume(all(abs(binom.cdf(j, trials, probability) - level) > 1e-9 for j in (k - 1, k)))
    assert acceptance_region(trials, probability) == expected


def test_cli_imports_no_scipy():
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, anonrepro.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_verify_propagates_infeasible_domains():
    from anonrepro.errors import EnumerationInfeasibleError

    oracle = BugOracle(
        "real", (("x", NumericDomain(0, 10)),), InRange("x", 0.0, 5.0)
    )
    with pytest.raises(EnumerationInfeasibleError):
        verify_against_bruteforce(
            oracle, {"x": Continuous(1.0)}, LocalSuppressionConfig(), trials=10
        )


def test_verify_checks_the_original_before_enumerating():
    entry = corpus.load("birday")
    with pytest.raises(EvaluationError, match="'day'"):
        verify_against_bruteforce(entry.oracle, {}, LocalSuppressionConfig(), trials=10)


def test_verify_string_oracle_against_closed_form():
    entry = corpus.load("grow_tracker_text")
    cfg = next(
        c for c in entry.configs
        if isinstance(c, LocalSuppressionConfig)
        and c.length_policy is LengthPolicy.PRESERVE_ORIGINAL
    )
    result = verify_against_bruteforce(
        entry.oracle, entry.original_assignment, cfg, trials=30000, seed=23
    )
    assert math.isclose(result.exact_probability, 1 - (11 / 12) ** 3, rel_tol=1e-12)
    assert result.passed


# ---------------------------------------------------------------------------
# the shared worker pool


@pytest.fixture
def pool_log(monkeypatch):
    """Log every pool the harness starts or shuts down, on a 4-CPU mask.

    No pool outlives the test, and none from an earlier test is reused.
    """
    log = []

    class Logged(ProcessPoolExecutor):
        def __init__(self, max_workers):
            assert max_workers <= 4, f"would start a {max_workers}-worker pool"
            log.append(("start", max_workers))
            super().__init__(max_workers=max_workers)

        def shutdown(self, wait=True, **kwargs):
            log.append(("shutdown", wait))
            super().shutdown(wait=wait, **kwargs)

    harness._drop_pool()
    monkeypatch.setattr(harness, "ProcessPoolExecutor", Logged)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    yield log
    harness._drop_pool()


def coin_counts(workers=1, oracle=None):
    report = run_trials(
        oracle or coin_oracle(), {"x": Continuous(1)}, LocalSuppressionConfig(),
        trials=400, seed=3, workers=workers,
    )
    return report.successes, report.disclosures


def test_parallel_calls_share_one_pool(pool_log):
    serial = coin_counts()
    assert coin_counts(workers=2) == serial
    assert coin_counts(workers=2) == serial
    assert pool_log == [("start", 2)]


def test_a_new_size_replaces_the_pool(pool_log):
    serial = coin_counts()
    assert coin_counts(workers=2) == serial
    assert coin_counts(workers=3) == serial
    assert coin_counts(workers=3) == serial
    assert pool_log == [("start", 2), ("shutdown", True), ("start", 3)]


def test_pool_is_capped_at_the_usable_cpus(pool_log, monkeypatch):
    serial = coin_counts()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert coin_counts(workers=5000) == serial
    assert pool_log == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert coin_counts(workers=5000) == serial
    assert pool_log == [("start", 2)]


def test_a_dead_worker_fails_one_call_and_the_next_starts_a_fresh_pool(pool_log):
    entry = corpus.load("birday")
    cfg = entry.configs[0]

    def counts(workers):
        report = run_trials(entry.oracle, entry.original_assignment, cfg,
                            trials=4000, seed=13, workers=workers)
        return report.successes, report.disclosures

    serial = counts(1)
    assert counts(2) == serial
    victim = next(iter(harness._pool[1]._processes.values()))
    os.kill(victim.pid, signal.SIGKILL)
    assert wait([victim.sentinel], timeout=30)
    with pytest.raises(BrokenProcessPool):
        counts(2)
    assert harness._pool is None
    assert counts(2) == serial
    assert pool_log == [("start", 2), ("shutdown", True), ("start", 2)]


def test_an_error_in_a_chunk_reaches_the_caller_and_keeps_the_pool(pool_log):
    # the original (x = 1) stops at the first branch; a regenerated 2 reaches
    # the malformed second one
    oracle = BugOracle("malformed", (("x", COIN),), Or((Equals("x", 1.0), Equals("x", None))))
    with pytest.raises(TypeError) as serial:
        coin_counts(oracle=oracle)
    with pytest.raises(TypeError) as parallel:
        coin_counts(workers=2, oracle=oracle)
    assert str(parallel.value) == str(serial.value)
    assert coin_counts(workers=2) == coin_counts()
    assert pool_log == [("start", 2)]


def test_simulate_with_workers_exits_without_leaving_workers(tmp_path):
    # a worker left alive would keep the interpreter from exiting
    config = tmp_path / "run.json"
    config.write_text('{"oracles": ["birday"], "trials": 400, "seed": 7}')
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from anonrepro.cli import main; sys.exit(main())",
         "simulate", "--config", str(config), "--out", str(tmp_path / "o"), "--workers", "2"],
        capture_output=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
