"""The four workloads: inputs made from a seed, the timed operations, and
the checks each operation's output must pass.

An operation (op) is one ``run_trials`` call (``mc_corpus``, ``mc_pool``),
one config's exact probability plus acceptance region (``exact_corpus``) or
one CLI command (``trace_cli``).  A round runs every op of a workload once;
every round of a run repeats the same inputs.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import checks
from common import REFERENCE

MC_TRIALS = 1000
POOL_WORKERS = 2
EXACT_TRIALS = 100_000
#: Chance that a correct mc_corpus round fails any binomial-region check.
FALSE_ALARM = 1e-6
TRACES = 100
BLOCKS = 20  # per trace; a block is two taps and one event per data widget


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    timed: bool = True  # counts as an op latency sample


def load_reference() -> dict:
    raw = json.loads(REFERENCE.read_text())
    exact = {key: (Fraction(item["probability"]), item["points"])
             for key, item in raw["exact"].items()}
    for key, closed_form in (("birday#0", Fraction(25, 37200)),
                             ("did_i_take_my_meds#0", Fraction(1, 2))):
        if exact[key][0] != closed_form:
            raise ValueError(f"reference {key} is {exact[key][0]}, not {closed_form}")
    return {"exact": exact, "pool": raw["mc_pool"]}


def corpus_configs(entries):
    """(key, entry, config) for every bundled entry x config, in corpus order."""
    return [(f"{entry.name}#{index}", entry, cfg)
            for entry in entries for index, cfg in enumerate(entry.configs)]


def is_rounding(ar, cfg) -> bool:
    return isinstance(cfg, ar.RoundingConfig)


class Workload:
    name = ""
    tail_percentile = 90
    known_failures: frozenset[str] = frozenset()

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.trials_per_round = 0
        self.events_per_round = 0
        self.field_trials_per_round = 0


class MonteCarlo(Workload):
    """Every bundled entry x config through ``run_trials``."""

    name = "mc_corpus"
    workers = 1

    def __init__(self, ar, entries, seed: int, out: Path) -> None:
        super().__init__()
        self.ar, self.out = ar, out
        reference = load_reference()
        self.mc_seed = self.pick_seed(seed, reference)
        alpha = FALSE_ALARM / len(reference["exact"])
        self.regions = {key: checks.binomial_region(MC_TRIALS, p, alpha)
                        for key, (p, _) in reference["exact"].items()}
        self.reports: list = []
        items = corpus_configs(entries)
        random.Random(seed).shuffle(items)
        for key, entry, cfg in items:
            self.ops.append(Op(key, self._runner(entry, cfg), self._checker(key, cfg)))
            fields = len(entry.oracle.fields)
            self.trials_per_round += MC_TRIALS
            self.field_trials_per_round += MC_TRIALS * fields
            self.events_per_round += 2 * MC_TRIALS * fields

    def pick_seed(self, seed: int, reference: dict) -> int:
        return seed

    def _runner(self, entry, cfg):
        def run():
            report = self.ar.harness.run_trials(
                entry.oracle, entry.original_assignment, cfg,
                trials=MC_TRIALS, seed=self.mc_seed, workers=self.workers)
            self.reports.append(report)
            return report
        return run

    def _checker(self, key, cfg):
        def check(report):
            checks.check_counts(report.successes, report.disclosures, report.trials, MC_TRIALS)
            if is_rounding(self.ar, cfg):
                checks.check_deterministic(report.successes, report.trials)
            if key in self.regions:
                checks.check_in_region(report.successes, self.regions[key])
        return check


class McCorpus(MonteCarlo):
    """Serial runs, then the results written through ``report``."""

    def __init__(self, ar, entries, seed: int, out: Path) -> None:
        super().__init__(ar, entries, seed, out)
        self.ops.append(Op("report", self._write_report, self._check_report, timed=False))

    def _write_report(self):
        report_mod, reports = self.ar.report, self.reports
        self.reports = []
        rows = self.ar.aggregate(reports)
        self.out.mkdir(parents=True, exist_ok=True)
        report_mod.trials_to_csv(reports, self.out / "trials.csv")
        report_mod.aggregate_to_csv(rows, self.out / "aggregate.csv")
        (self.out / "trials.txt").write_text(report_mod.trials_table(reports))
        (self.out / "aggregate.txt").write_text(report_mod.aggregate_table(rows))
        return reports

    def _check_report(self, reports):
        read_back = self.ar.report.trials_from_csv(self.out / "trials.csv")
        checks.require(read_back == reports,
                       "trials_from_csv differs from what trials_to_csv wrote")


class McPool(MonteCarlo):
    """The same runs through a two-worker pool, one pool per run.

    The Monte-Carlo seed is the reference file's, so counts can be compared
    with the serial counts stored there; ``--seed`` orders the runs.
    """

    name = "mc_pool"
    workers = POOL_WORKERS

    def __init__(self, ar, entries, seed: int, out: Path) -> None:
        super().__init__(ar, entries, seed, out)
        self.field_trials_per_round = 0  # the trials run in untraced workers

    def pick_seed(self, seed: int, reference: dict) -> int:
        pool = reference["pool"]
        if pool["trials"] != MC_TRIALS:
            raise ValueError(f"reference counts are for {pool['trials']} trials, not {MC_TRIALS}")
        self.serial = pool["counts"]
        return pool["seed"]

    def _checker(self, key, cfg):
        base = super()._checker(key, cfg)

        def check(report):
            base(report)
            serial = self.serial[key]
            checks.require([report.successes, report.disclosures] == serial,
                           f"{POOL_WORKERS} workers gave {report.successes}/{report.disclosures}, "
                           f"a serial run {serial[0]}/{serial[1]}")
        return check


class ExactCorpus(Workload):
    """Enumeration half of ``simulate --verify`` over the enumerable configs.

    ``did_i_take_my_meds#0`` (local suppression, 2,073,600 joint points) is
    left out of the rounds: it alone takes 13-16 s, so every run would be a
    single sample of one op and the figures spread by 19-40% between runs.
    Its reference is still checked against the closed form 1/2 at load.
    """

    name = "exact_corpus"
    tail_percentile = 80
    left_out = frozenset({"did_i_take_my_meds#0"})
    # exhaustive_probability drifts above 1, so binom.ppf gives NaN and
    # acceptance_region raises: the float-summation fault of these two configs.
    known_failures = frozenset({"did_i_take_my_meds#1", "did_i_take_my_meds#3"})

    def __init__(self, ar, entries, seed: int, out: Path) -> None:
        super().__init__()
        self.ar = ar
        by_key = {key: (entry, cfg) for key, entry, cfg in corpus_configs(entries)}
        items = sorted((key, ref) for key, ref in load_reference()["exact"].items()
                       if key not in self.left_out)
        random.Random(seed).shuffle(items)
        for key, (exact, points) in items:
            entry, cfg = by_key[key]
            self.ops.append(Op(key, self._runner(entry, cfg),
                               self._checker(exact, is_rounding(ar, cfg))))
            self.trials_per_round += points
            self.events_per_round += points * len(entry.oracle.fields)

    def _runner(self, entry, cfg):
        oracles, harness = self.ar.oracles, self.ar.harness

        def run():
            original = entry.original_assignment
            distributions = {name: oracles.technique_distribution(cfg, original[name], domain)
                             for name, domain in entry.oracle.fields}
            probability = oracles.exhaustive_probability(entry.oracle, distributions)
            return probability, harness.acceptance_region(EXACT_TRIALS, probability)
        return run

    @staticmethod
    def _checker(exact: Fraction, deterministic: bool):
        def check(result):
            probability, region = result
            checks.check_probability(probability, exact, deterministic)
            checks.check_acceptance_region(region, EXACT_TRIALS, probability)
        return check


# ---------------------------------------------------------------------------
# trace_cli


def numeric(lo, hi, *, integer=False, max_inclusive=True, precision=None) -> dict:
    domain = {"kind": "numeric", "min": lo, "max": hi, "max_inclusive": max_inclusive,
              "integer": integer}
    if precision is not None:
        domain["precision"] = precision
    return domain


def string_domain(char_class: str, lo: int, hi: int) -> dict:
    return {"kind": "string", "char_class": char_class, "length_min": lo, "length_max": hi}


GROUPS = {"food": ["groceries", "restaurant", "snacks"],
          "home": ["rent", "utilities", "repairs", "furniture"],
          "travel": ["flight", "hotel", "taxi"]}
PRINTABLE = "".join(map(chr, range(32, 127)))
LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz "


def _real(rng: random.Random, hi: int) -> str:
    return f"{rng.randrange(hi * 100) / 100:.2f}"


def _text(rng: random.Random, alphabet: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


#: (widget, action, domain, value maker, config maker): one numeric real,
#: integer, categorical, string and tuple field per technique and record kind.
WIDGETS = [
    ("amount", "type", numeric(0, 100000, max_inclusive=False, precision=2),
     lambda r: _real(r, 100000),
     lambda r: {"technique": "noise_addition", "noise": r.choice([0.1, 0.3, 0.5])}),
    ("quantity", "type", numeric(0, 500, integer=True),
     lambda r: str(r.randint(0, 500)),
     lambda r: {"technique": "rounding", "partitions": r.choice([4, 5, 10])}),
    ("price", "type", numeric(0, 1000, precision=2),
     lambda r: _real(r, 1000),
     lambda r: {"technique": "global_recoding", "partitions": r.choice([2, 4, 10])}),
    ("category", "select",
     {"kind": "categorical", "categories": [c for g in GROUPS.values() for c in g],
      "hierarchy": GROUPS},
     lambda r: r.choice([c for g in GROUPS.values() for c in g]),
     lambda r: {"technique": "global_recoding"}),
    ("note", "type", string_domain("[ -~]", 1, 60),
     lambda r: _text(r, PRINTABLE, 1, 40),
     lambda r: {"technique": "scd_local_suppression",
                "length_policy": r.choice(["preserve_original", "random_in_range"])}),
    ("name", "type", string_domain("[A-Za-z ]", 1, 30),
     lambda r: _text(r, LETTERS, 1, 30),
     lambda r: {"technique": "local_suppression",
                "length_policy": r.choice(["preserve_original", "random_in_range"])}),
    ("birthday", "pick",
     {"kind": "tuple", "components": [numeric(1, 31, integer=True), numeric(1, 12, integer=True),
                                      numeric(1937, 2036, integer=True)]},
     lambda r: [str(r.randint(1, 28)), str(r.randint(1, 12)), str(r.randint(1937, 2036))],
     lambda r: {"technique": "global_recoding", "partitions": r.choice([2, 3, 4])}),
    ("alarm", "pick",
     {"kind": "tuple", "components": [numeric(0, 23, integer=True), numeric(0, 59, integer=True)]},
     lambda r: [str(r.randint(0, 23)), str(r.randint(0, 59))],
     lambda r: {"technique": "noise_addition", "noise": r.choice([0.1, 0.2])}),
]
DOMAINS = {widget: domain for widget, _, domain, _, _ in WIDGETS}


def make_trace(rng: random.Random) -> tuple[list[dict], dict]:
    """A 200-event trace and its per-widget config."""
    config = {widget: make_config(rng) for widget, _, _, _, make_config in WIDGETS}
    events: list[dict] = []
    for _ in range(BLOCKS):
        data = [{"action": action, "widget": widget,
                 "data": {"value": make_value(rng), "domain": domain}}
                for widget, action, domain, make_value, _ in WIDGETS]
        rng.shuffle(data)
        events += [{"action": "tap", "widget": "open_form"}, *data,
                   {"action": "tap", "widget": "save"}]
    return events, config


class TraceCli(Workload):
    """``anonymize`` then ``regenerate`` through ``cli.main`` on generated traces."""

    name = "trace_cli"
    tail_percentile = 95

    def __init__(self, ar, entries, seed: int, out: Path) -> None:
        super().__init__()
        self.ar = ar
        out.mkdir(parents=True, exist_ok=True)
        for index in range(TRACES):
            events, config = make_trace(random.Random(f"{seed}/{index}"))
            paths = {part: out / f"{index}.{part}.json"
                     for part in ("trace", "config", "anon", "regen")}
            paths["trace"].write_text(json.dumps({"events": events}))
            paths["config"].write_text(json.dumps({"widgets": config}))
            cli_seed = str(seed * 1000 + index)
            self.ops.append(Op(f"anonymize/{index}", self._cli(
                "anonymize", "--trace", paths["trace"], "--config", paths["config"],
                "--out", paths["anon"], "--seed", cli_seed),
                self._anonymized_checker(events, config, paths["anon"])))
            self.ops.append(Op(f"regenerate/{index}", self._cli(
                "regenerate", "--trace", paths["anon"], "--out", paths["regen"],
                "--seed", cli_seed),
                self._regenerated_checker(events, paths["anon"], paths["regen"])))
            data_events = sum("data" in e for e in events)
            self.trials_per_round += 1
            self.events_per_round += 2 * data_events

    def _cli(self, *argv):
        argv = [str(a) for a in argv]

        def run():
            code = self.ar.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"anonrepro {argv[0]} exited {code}")
        return run

    @staticmethod
    def _anonymized_checker(events, config, anon_path):
        def check(_):
            produced = json.loads(anon_path.read_text())["events"]
            checks.check_events(events, produced, "record")
            for event, out in zip(events, produced):
                if "data" in event:
                    widget = event["widget"]
                    checks.check_record(event["data"]["value"], out["record"],
                                        DOMAINS[widget], config[widget])
        return check

    @staticmethod
    def _regenerated_checker(events, anon_path, regen_path):
        def check(_):
            records = json.loads(anon_path.read_text())["events"]
            produced = json.loads(regen_path.read_text())["events"]
            checks.check_events(events, produced, "data")
            for event, anon, out in zip(events, records, produced):
                if "data" in event:
                    domain = DOMAINS[event["widget"]]
                    checks.require(out["data"]["domain"] == domain,
                                   f"regenerated {event['widget']} changed its domain")
                    checks.check_regenerated(out["data"]["value"], anon["record"], domain)
        return check


WORKLOADS = {cls.name: cls for cls in (McCorpus, McPool, ExactCorpus, TraceCli)}
