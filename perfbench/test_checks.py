"""Tests for the benchmark's own checks.

    python3 -m unittest discover -s perfbench

Each check gets a corrupted output and must reject it, and a round that
holds such an output must count that op as failed and still run the rest.
"""
from __future__ import annotations

import dataclasses
import json
import random
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import checks
from child import per_layer, run_round
from common import OUT, ROOT, import_program
from run import END_TO_END_UNITS, layer_unit
from tracer import Tracer
from workloads import MC_TRIALS, ExactCorpus, McCorpus, Op, TraceCli, make_trace

ar = import_program()
ENTRIES = ar.corpus.load_all()


def temp_dir():
    OUT.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT)


def healthy_op(name="healthy"):
    return Op(name, lambda: 1, lambda result: checks.require(result == 1, "not one"))


class RoundTest(unittest.TestCase):
    def assert_only_failure(self, ops, name):
        _, latencies, failures = run_round(ops)
        self.assertEqual([op for op, _ in failures], [name])
        self.assertEqual(len(latencies), len(ops))


class RunRoundTest(RoundTest):
    def test_op_that_raises_is_counted_and_the_round_goes_on(self):
        def boom():
            raise ValueError("cannot convert float NaN to integer")
        self.assert_only_failure([Op("boom", boom, lambda r: None), healthy_op()], "boom")


class MonteCarloCheckTest(RoundTest):
    @classmethod
    def setUpClass(cls):
        cls.tmp = temp_dir()
        cls.workload = McCorpus(ar, ENTRIES, 1, Path(cls.tmp.name))
        cls.ops = {op.name: op for op in cls.workload.ops}

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    @staticmethod
    def report(key, successes, disclosures=0, trials=MC_TRIALS):
        return ar.TrialReport(key, "technique", "", "config", trials, successes, disclosures, 1)

    def corrupted(self, key, report):
        return dataclasses.replace(self.ops[key], run=lambda: report)

    def test_success_count_outside_its_region_fails(self):
        lo, hi = self.workload.regions["birday#0"]  # exact 25/37200: about 0.7 in 1000
        self.assertLessEqual(lo, 1)
        self.assertGreaterEqual(hi, 1)
        bad = self.corrupted("birday#0", self.report("birday#0", hi + 1))
        self.assert_only_failure([bad, healthy_op()], "birday#0")
        good = self.corrupted("birday#0", self.report("birday#0", 1))
        self.assertEqual(run_round([good])[2], [])

    def test_count_above_trials_fails(self):
        bad = self.corrupted("binary_eye#0", self.report("binary_eye#0", 3, MC_TRIALS + 1))
        self.assert_only_failure([bad, healthy_op()], "binary_eye#0")

    def test_half_reproducing_rounding_run_fails(self):
        bad = self.corrupted("birday#4", self.report("birday#4", MC_TRIALS // 2))
        self.assert_only_failure([bad, healthy_op()], "birday#4")

    def test_region_matches_scipy_quantiles(self):
        from scipy.stats import binom
        for p in (0.001, 0.3, 0.5, 0.97):
            lo, hi = checks.binomial_region(1000, p, 0.01)
            expected = int(binom.ppf(0.005, 1000, p)), int(binom.ppf(0.995, 1000, p))
            self.assertEqual((lo, hi), expected)


class ExactCheckTest(RoundTest):
    def test_probability_drifting_above_one_fails(self):
        check = ExactCorpus._checker(Fraction(1), deterministic=False)
        op = Op("did_i_take_my_meds#1", lambda: (1.0000000000029996, (100000, 100000)), check)
        self.assert_only_failure([op, healthy_op()], "did_i_take_my_meds#1")

    def test_probability_off_its_fraction_fails(self):
        check = ExactCorpus._checker(Fraction(1, 2), deterministic=False)
        self.assertIsNone(check((0.49999999999226225, (49593, 50407))))
        with self.assertRaises(checks.CheckError):
            check((0.5 + 2e-9, (49593, 50407)))

    def test_rounding_probability_between_zero_and_one_fails(self):
        check = ExactCorpus._checker(Fraction(1), deterministic=True)
        with self.assertRaises(checks.CheckError):
            check((1 - 1e-12, (100000, 100000)))


class TraceCheckTest(RoundTest):
    """One real anonymize/regenerate round trip, then corrupted copies of it."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = temp_dir()
        cls.dir = Path(cls.tmp.name)
        cls.events, cls.config = make_trace(random.Random(5))
        trace, config = cls.dir / "trace.json", cls.dir / "config.json"
        trace.write_text(json.dumps({"events": cls.events}))
        config.write_text(json.dumps({"widgets": cls.config}))
        cls.anon, cls.regen = cls.dir / "anon.json", cls.dir / "regen.json"
        for argv in (["anonymize", "--trace", trace, "--config", config, "--out", cls.anon],
                     ["regenerate", "--trace", cls.anon, "--out", cls.regen]):
            assert ar.cli.main([str(a) for a in argv]) == 0

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def edited_copy(self, path, widget, edit):
        """A copy of ``path`` with ``edit`` applied to the first ``widget`` event."""
        raw = json.loads(path.read_text())
        event = next(e for e in raw["events"] if e["widget"] == widget)
        edit(event)
        copy = self.dir / f"edited.{path.name}"
        copy.write_text(json.dumps(raw))
        return copy

    def test_untouched_round_trip_passes(self):
        TraceCli._anonymized_checker(self.events, self.config, self.anon)(None)
        TraceCli._regenerated_checker(self.events, self.anon, self.regen)(None)

    def test_regenerated_string_outside_its_char_class_fails(self):
        def edit(event):
            event["data"]["value"] = "x9" + event["data"]["value"][2:]
        regen = self.edited_copy(self.regen, "name", edit)
        check = TraceCli._regenerated_checker(self.events, self.anon, regen)
        op = Op("regenerate/0", lambda: None, check)
        self.assert_only_failure([op, healthy_op()], "regenerate/0")

    def test_scd_record_holding_a_non_special_character_fails(self):
        def edit(event):
            event["record"]["specials"] += "a"
        anon = self.edited_copy(self.anon, "note", edit)
        check = TraceCli._anonymized_checker(self.events, self.config, anon)
        op = Op("anonymize/0", lambda: None, check)
        self.assert_only_failure([op, healthy_op()], "anonymize/0")

    def test_suppressed_record_carrying_a_value_fails(self):
        def edit(event):
            event["record"]["value"] = "leak"
        anon = self.edited_copy(self.anon, "name", edit)
        with self.assertRaises(checks.CheckError):
            TraceCli._anonymized_checker(self.events, self.config, anon)(None)

    def test_reordered_events_fail(self):
        raw = json.loads(self.regen.read_text())
        raw["events"][0], raw["events"][1] = raw["events"][1], raw["events"][0]
        regen = self.dir / "swapped.json"
        regen.write_text(json.dumps(raw))
        with self.assertRaises(checks.CheckError):
            TraceCli._regenerated_checker(self.events, self.anon, regen)(None)

    def test_rounding_and_noise_use_the_definitions(self):
        domain = {"kind": "numeric", "min": 0, "max": 500, "integer": True}
        self.assertEqual(checks.rounding_point(100, domain, 4), 63.0)  # midpoint 62.5 rounds up
        self.assertEqual(checks.rounding_point(499, domain, 10), 475.0)
        self.assertEqual(checks.noise_bounds(100, domain, 0.5), (50.0, 300.0))


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_and_units_match_the_benchmark_file(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END_UNITS)
        workload = dataclasses.make_dataclass("W", [("field_trials_per_round", int, 0)])()
        names = set(per_layer(Tracer(), workload, 0.0, 0.0)) | {
            "corpus.load_all.ms", "harness.pool.startup_ms", "harness.pool.cpu_children_s",
            "harness.pool.cpu_self_s", "harness.pool.busy_ratio",
            "techniques.length_raise_warnings"}
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: layer_unit(name) for name in names})


if __name__ == "__main__":
    unittest.main()
