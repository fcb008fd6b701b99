"""The public contract, pinned as text: the JSON written for each technique
config and each anonymized record kind, the names exported by the package,
the options of each CLI subcommand, and the functions the benchmark times."""
from __future__ import annotations

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

import anonrepro
from anonrepro.cli import build_parser
from anonrepro.model import (
    CategoricalDomain,
    Continuous,
    NumericDomain,
    StringDomain,
)
from anonrepro.techniques import (
    CategoryGroup,
    Concrete,
    GlobalRecodingConfig,
    IntervalGroup,
    LengthPolicy,
    LocalSuppressionConfig,
    NoiseAdditionConfig,
    RoundingConfig,
    SCDLocalSuppressionConfig,
    SpecialChars,
    Suppressed,
    TupleRecord,
    config_from_json,
    config_to_json,
    record_from_json,
    record_to_json,
)

PRINTABLE = StringDomain("[ -~]", 1, 12)
REAL = NumericDomain(0, 10)
DAYS = NumericDomain(1, 31, integer=True)
AGES = CategoricalDomain(["a", "b", "c"], {"young": ["a", "b"], "old": ["c"]})

PRINTABLE_JSON = ('{"kind": "string", "char_class": "[ -~]", "length_min": 1, '
                  '"length_max": 12}')
REAL_JSON = ('{"kind": "numeric", "min": 0.0, "max": 10.0, "max_inclusive": true, '
             '"integer": false}')
DAYS_JSON = ('{"kind": "numeric", "min": 1.0, "max": 31.0, "max_inclusive": true, '
             '"integer": true}')


@pytest.mark.parametrize("cfg, text", [
    (GlobalRecodingConfig(4, label="Hi"),
     '{"technique": "global_recoding", "partitions": 4, "label": "Hi"}'),
    (GlobalRecodingConfig(), '{"technique": "global_recoding"}'),
    (RoundingConfig(2), '{"technique": "rounding", "partitions": 2}'),
    (LocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL, label="Hi"),
     '{"technique": "local_suppression", "length_policy": "preserve_original", '
     '"label": "Hi"}'),
    (SCDLocalSuppressionConfig(),
     '{"technique": "scd_local_suppression", "length_policy": "random_in_range"}'),
    (NoiseAdditionConfig(0.4, label="Me"),
     '{"technique": "noise_addition", "noise": 0.4, "label": "Me"}'),
])
def test_config_json_text(cfg, text):
    assert json.dumps(config_to_json(cfg)) == text
    assert config_from_json(json.loads(text)) == cfg


@pytest.mark.parametrize("record, text", [
    (Suppressed(PRINTABLE, 4),
     f'{{"record": "suppressed", "domain": {PRINTABLE_JSON}, "length_hint": 4}}'),
    (Suppressed(DAYS),
     f'{{"record": "suppressed", "domain": {DAYS_JSON}, "length_hint": null}}'),
    (SpecialChars(PRINTABLE, "!.", None),
     f'{{"record": "special_chars", "domain": {PRINTABLE_JSON}, "specials": "!.", '
     f'"length_hint": null}}'),
    (IntervalGroup(REAL, 0.0, 5.0, False),
     f'{{"record": "interval_group", "domain": {REAL_JSON}, "lo": 0.0, "hi": 5.0, '
     f'"hi_inclusive": false}}'),
    (CategoryGroup(AGES, "young"),
     '{"record": "category_group", "domain": {"kind": "categorical", '
     '"categories": ["a", "b", "c"], "hierarchy": {"young": ["a", "b"], '
     '"old": ["c"]}}, "group": "young"}'),
    (Concrete(REAL, Continuous(7.5, 1)),
     f'{{"record": "concrete", "domain": {REAL_JSON}, "value": "7.5"}}'),
    (TupleRecord((Suppressed(DAYS), Concrete(DAYS, Continuous(4)))),
     f'{{"record": "tuple", "components": [{{"record": "suppressed", "domain": '
     f'{DAYS_JSON}, "length_hint": null}}, {{"record": "concrete", "domain": '
     f'{DAYS_JSON}, "value": "4"}}]}}'),
])
def test_record_json_text(record, text):
    assert json.dumps(record_to_json(record)) == text
    assert record_from_json(json.loads(text)) == record


def test_public_names():
    assert anonrepro.__all__ == [
        "AggregateRow", "AnonReproError", "AnonymizedRecord", "BugOracle",
        "Categorical", "CategoricalDomain", "CategoryGroup", "Concrete",
        "ConfigError", "Continuous", "DEFAULT_CONFIDENCE", "DataValue",
        "DegenerateIntervalError", "DomainError", "DomainSpec",
        "EnumerationInfeasibleError", "EvaluationError", "Event", "FailureTrace",
        "FiniteDistribution", "GlobalRecodingConfig", "IntervalGroup",
        "InvalidBaselineError", "LengthPolicy", "LocalSuppressionConfig",
        "MissingHierarchyError", "NoiseAdditionConfig", "NonConformingValueError",
        "NumericDomain", "OracleError", "RoundingConfig", "RuntimeFailure",
        "SCDLocalSuppressionConfig", "SpecialChars", "StringDomain", "Suppressed",
        "TechniqueConfig", "Text", "TraceParseError", "TrialReport", "TupleDomain",
        "TupleRecord", "TupleValue", "UnsupportedTechniqueError",
        "ValidationError", "VerificationResult", "aggregate", "anonymize",
        "attempts_for_confidence", "conforms", "corpus", "evaluate",
        "exhaustive_probability", "parse_trace", "regenerate", "run_entry",
        "run_trials", "serialize_trace", "split", "substream",
        "technique_distribution", "values_equal", "verify_against_bruteforce",
    ]
    for name in anonrepro.__all__:
        assert hasattr(anonrepro, name), name


def test_cli_options():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {
        name: [o for action in p._actions for o in action.option_strings]
        for name, p in sub.choices.items()
    }
    assert options == {
        "anonymize": ["-h", "--help", "--trace", "--config", "--out", "--seed"],
        "regenerate": ["-h", "--help", "--trace", "--out", "--seed"],
        "simulate": ["-h", "--help", "--config", "--out", "--trials", "--seed",
                     "--confidence", "--workers", "--verify", "--format"],
        "report": ["-h", "--help", "--in", "--format"],
    }


def test_benchmark_tracer_finds_every_traced_function():
    # a traced function that is dropped or renamed would otherwise show only
    # as "untraced" in a traced benchmark run
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.restore()
