"""Input is checked once, where it enters the program.

The trial loop scores regenerated values without checking them again, so
these tests pin both halves of that bargain: every value that anonymize and
regenerate produce conforms to its field's domain, the entry points reject
bad input, and the number of conformance checks in a run does not grow with
its trials.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

import anonrepro.cli as cli
import anonrepro.oracles
import anonrepro.techniques
from anonrepro import corpus
from anonrepro.errors import EvaluationError
from anonrepro.harness import run_trials
from anonrepro.model import (
    Categorical,
    CategoricalDomain,
    Continuous,
    conforms,
)
from anonrepro.techniques import (
    GlobalRecodingConfig,
    LengthPolicy,
    LocalSuppressionConfig,
    anonymize,
    regenerate,
    technique_name,
)

TRIALS = 300

SIZES = CategoricalDomain(
    ["xs", "s", "m", "l", "xl"], {"small": ["xs", "s"], "large": ["m", "l", "xl"]}
)


def _field_setups():
    for entry in corpus.load_all():
        for index, cfg in enumerate(entry.configs):
            for name, original in entry.original:
                yield (f"{entry.name}#{index}:{name}", original,
                       entry.oracle.domain_of(name), cfg)
    for label in SIZES.categories:
        for cfg in (GlobalRecodingConfig(), LocalSuppressionConfig(),
                    LocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL)):
            yield f"sizes:{label}:{cfg}", Categorical(label), SIZES, cfg


def test_regenerated_values_conform_to_their_domain():
    setups = list(_field_setups())
    assert len(setups) > 132
    for seed, (where, original, domain, cfg) in enumerate(setups):
        rng = np.random.default_rng(seed)
        for _ in range(TRIALS):
            value = regenerate(anonymize(original, domain, cfg, rng), rng)
            assert conforms(value, domain), (where, value)


def test_run_trials_rejects_an_out_of_domain_original():
    entry = corpus.load("birday")
    original = {**entry.original_assignment, "month": Continuous(13.0)}
    with pytest.raises(EvaluationError, match="'month'"):
        run_trials(entry.oracle, original, entry.configs[0], trials=10)


@pytest.mark.parametrize("name, technique", [
    ("birday", "local_suppression"),
    ("birday", "global_recoding"),
    ("birday", "rounding"),
    ("contact_diary", "scd_local_suppression"),
])
def test_conformance_checks_do_not_grow_with_trials(monkeypatch, name, technique):
    entry = corpus.load(name)
    cfg = next(c for c in entry.configs if technique_name(c) == technique)
    calls = [0]

    def counted(value, domain):
        calls[0] += 1
        return conforms(value, domain)

    monkeypatch.setattr(anonrepro.oracles, "conforms", counted)
    monkeypatch.setattr(anonrepro.techniques, "conforms", counted)
    counts = []
    for trials in (10, 1000):
        calls[0] = 0
        run_trials(entry.oracle, entry.original_assignment, cfg, trials=trials, seed=3)
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0


NUMERIC = {"kind": "numeric", "min": 0, "max": 10, "integer": True}
GOOD_ENTRY = {
    "name": "typed",
    "description": "a well-formed entry",
    "fields": {"x": NUMERIC},
    "predicate": {"op": "in_range", "field": "x", "lo": 1, "hi": 5},
    "original": {"x": "3"},
    "configs": [{"technique": "local_suppression"}],
    "metadata": {"app": "test"},
}


@pytest.mark.parametrize("change, key", [
    ({"name": 5}, "name"),
    ({"description": 5}, "description"),
    ({"metadata": [["a", 1]]}, "metadata"),
    ({"metadata": 5}, "metadata"),
    ({"configs": 5}, "configs"),
    ({"original": {"x": "3", "y": "4"}}, "y"),
])
def test_simulate_rejects_mistyped_entry_keys(tmp_path, capsys, change, key):
    oracle = tmp_path / "typed.json"
    oracle.write_text(json.dumps({**GOOD_ENTRY, **change}), encoding="utf-8")
    run = tmp_path / "run.json"
    run.write_text(json.dumps({"oracles": [str(oracle)], "trials": 10}), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(run), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert repr(key) in err and str(oracle) in err and "unexpected" not in err, err

