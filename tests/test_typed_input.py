"""Wrongly typed JSON values are invalid input: exit 1 with a message that
names the key, never exit 2 with "unexpected error"."""
from __future__ import annotations

import json

import numpy as np
import pytest

import anonrepro.cli as cli
from anonrepro.errors import DomainError, EnumerationInfeasibleError, TraceParseError
from anonrepro.model import (
    Continuous,
    NumericDomain,
    TupleDomain,
    TupleValue,
    conforms,
    domain_from_json,
    parse_trace,
)
from anonrepro.oracles import technique_distribution
from anonrepro.techniques import (
    GlobalRecodingConfig,
    LocalSuppressionConfig,
    NoiseAdditionConfig,
    RoundingConfig,
    Suppressed,
    regenerate,
)

NUMERIC = {"kind": "numeric", "min": 0, "max": 10, "integer": True}
STRING = {"kind": "string", "char_class": "[a-z]", "length_min": 1, "length_max": 5}


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def exits_1_naming(argv, key, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert repr(key) in err and "unexpected" not in err, err


# ---------------------------------------------------------------------------
# technique configs and records


@pytest.mark.parametrize("config, key", [
    ({"technique": "noise_addition", "noise": "0.5"}, "noise"),
    ({"technique": "rounding", "partitions": "3"}, "partitions"),
    ({"technique": "rounding", "partitions": 2.5}, "partitions"),
    ({"technique": "global_recoding", "partitions": True}, "partitions"),
    ({"technique": "local_suppression", "label": 5}, "label"),
    ({"technique": "local_suppression", "length_policy": "keep"}, "length_policy"),
])
def test_anonymize_rejects_typed_config_fields(tmp_path, capsys, config, key):
    trace = write(tmp_path / "trace.json", {"events": [
        {"action": "type", "widget": "n", "data": {"value": "4", "domain": NUMERIC}},
    ]})
    exits_1_naming(["anonymize", "--trace", trace,
                    "--config", write(tmp_path / "cfg.json", config),
                    "--out", str(tmp_path / "out.json")], key, capsys)


@pytest.mark.parametrize("record, key", [
    ({"record": "interval_group", "domain": NUMERIC, "lo": "1", "hi": 5,
      "hi_inclusive": True}, "lo"),
    ({"record": "interval_group", "domain": NUMERIC, "lo": 1, "hi": 5,
      "hi_inclusive": 1}, "hi_inclusive"),
    ({"record": "suppressed", "domain": STRING, "length_hint": "3"}, "length_hint"),
    ({"record": "tuple", "components": 5}, "components"),
    ({"record": "special_chars", "domain": NUMERIC, "specials": ""}, "domain"),
    ({"record": ["suppressed"], "domain": NUMERIC}, "suppressed"),
])
def test_regenerate_rejects_typed_record_fields(tmp_path, capsys, record, key):
    trace = write(tmp_path / "anon.json", {"events": [
        {"action": "type", "widget": "n", "record": record},
    ]})
    exits_1_naming(["regenerate", "--trace", trace,
                    "--out", str(tmp_path / "out.json")], key, capsys)


# ---------------------------------------------------------------------------
# domains


BAD_DOMAINS = [
    ({"kind": "numeric", "min": "a", "max": 10}, "min"),
    ({**STRING, "length_min": "1"}, "length_min"),
]


@pytest.mark.parametrize("domain, key", BAD_DOMAINS)
def test_domain_fields_are_typed(domain, key):
    with pytest.raises(TraceParseError, match=repr(key)):
        domain_from_json(domain)
    trace = {"events": [{"action": "type", "widget": "w",
                         "data": {"value": "1", "domain": domain}}]}
    with pytest.raises(TraceParseError, match=repr(key)):
        parse_trace(json.dumps(trace))


@pytest.mark.parametrize("domain, key", BAD_DOMAINS)
def test_regenerate_rejects_typed_domain_fields(tmp_path, capsys, domain, key):
    trace = write(tmp_path / "anon.json", {"events": [
        {"action": "type", "widget": "w",
         "record": {"record": "suppressed", "domain": domain}},
    ]})
    exits_1_naming(["regenerate", "--trace", trace,
                    "--out", str(tmp_path / "out.json")], key, capsys)


WIDE_GRIDS = [
    {"kind": "numeric", "min": 0, "max": 10, "precision": 20},
    {"kind": "numeric", "min": 0, "max": 10, "precision": 400},
    {"kind": "numeric", "min": 0, "max": 1e19, "integer": True},
]


@pytest.mark.parametrize("domain", WIDE_GRIDS, ids=["precision-20", "precision-400", "max-1e19"])
def test_domains_whose_grid_leaves_int64_exit_1(tmp_path, capsys, domain):
    trace = write(tmp_path / "trace.json", {"events": [
        {"action": "type", "widget": "w", "data": {"value": "5", "domain": domain}},
    ]})
    noise = write(tmp_path / "cfg.json", {"technique": "noise_addition", "noise": 0.5})
    anonymized = write(tmp_path / "anon.json", {"events": [
        {"action": "type", "widget": "w",
         "record": {"record": "suppressed", "domain": domain}},
    ]})
    for argv in (["anonymize", "--trace", trace, "--config", noise],
                 ["regenerate", "--trace", anonymized]):
        assert cli.main([*argv, "--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert "int64" in err and "numeric domain" in err and "unexpected" not in err, err


def test_grid_index_edge_of_int64():
    top = 2**63 - 1024  # the largest float below 2**63
    fits = [NumericDomain(-(2**63), top, integer=True), NumericDomain(-9, 9, precision=18)]
    for domain in fits:
        for seed in range(20):
            value = regenerate(Suppressed(domain), np.random.default_rng(seed))
            assert conforms(value, domain)
    for lo, hi, kwargs in [
        (0, 2**63, {"integer": True}),
        (-(2**63) - 2048, 0, {"integer": True}),  # the next float below -2**63
        (-9, 9.25, {"precision": 18}),
        (-9.25, 9, {"precision": 18}),
        (0, 1, {"precision": 19}),
    ]:
        with pytest.raises(DomainError, match="int64"):
            NumericDomain(lo, hi, **kwargs)


# ---------------------------------------------------------------------------
# run configs


@pytest.mark.parametrize("config, flags, key", [
    ({"confidence": 1.5}, [], "confidence"),
    ({"confidence": 0}, [], "confidence"),
    ({"confidence": "0.9"}, [], "confidence"),
    ({}, ["--confidence", "1.5"], "confidence"),
    ({"trials": True}, [], "trials"),
    ({"trials": 0}, [], "trials"),
    ({"seed": True}, [], "seed"),
    ({"workers": True}, [], "workers"),
    ({}, ["--workers", "0"], "workers"),
    ({"verify": "no"}, [], "verify"),
    ({"format": "pdf"}, [], "format"),
])
def test_simulate_rejects_bad_run_config_values(tmp_path, capsys, config, flags, key):
    path = write(tmp_path / "run.json", {"oracles": ["birday"], **config})
    exits_1_naming(["simulate", "--config", path, "--out", str(tmp_path / "o"),
                    *flags], key, capsys)
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# tuple fields under enumeration


DATE = TupleDomain((NumericDomain(1, 31, integer=True), NumericDomain(1, 12, integer=True)))


@pytest.mark.parametrize("cfg", [
    RoundingConfig(2),
    GlobalRecodingConfig(2),
    LocalSuppressionConfig(),
    NoiseAdditionConfig(0.3),
], ids=lambda c: type(c).__name__)
def test_tuple_fields_are_not_enumerable(cfg):
    with pytest.raises(EnumerationInfeasibleError):
        technique_distribution(cfg, TupleValue((Continuous(2), Continuous(3))), DATE)


def test_verify_counts_tuple_oracle_as_not_enumerable(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "VERIFY_MIN_TRIALS", 2000)
    oracle = write(tmp_path / "tup.json", {
        "name": "tup",
        "description": "reads x only; the date field is never read",
        "fields": {
            "x": NUMERIC,
            "date": {"kind": "tuple", "components": [
                {"kind": "numeric", "min": 1, "max": 31, "integer": True},
                {"kind": "numeric", "min": 1, "max": 12, "integer": True},
            ]},
        },
        "predicate": {"op": "in_range", "field": "x", "lo": 1, "hi": 5},
        "original": {"x": "3", "date": ["2", "3"]},
        "configs": [],
    })
    run = write(tmp_path / "run.json", {
        "oracles": ["birday", oracle],
        "techniques": [{"technique": "rounding", "partitions": 2}],
        "trials": 50,
        "verify": True,
    })
    assert cli.main(["simulate", "--config", run, "--out", str(tmp_path / "o")]) == 0
    assert "verification: 1/1 passed, 1 not enumerable" in capsys.readouterr().out


def test_simulate_rejects_typed_predicate_fields(tmp_path, capsys):
    oracle = write(tmp_path / "typed.json", {
        "name": "typed",
        "fields": {"x": NUMERIC},
        "predicate": {"op": "in_range", "field": "x", "lo": "1", "hi": 5},
        "original": {"x": "3"},
        "configs": [{"technique": "local_suppression"}],
    })
    run = write(tmp_path / "run.json", {"oracles": [oracle], "trials": 10})
    exits_1_naming(["simulate", "--config", run, "--out", str(tmp_path / "o")],
                   "lo", capsys)
