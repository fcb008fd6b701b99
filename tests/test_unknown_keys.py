"""A JSON key that no format knows, and a NaN in a predicate, are invalid
input: exit 1 with a message that names the key and where it stood, never a
run that silently drops or changes what the key held."""
from __future__ import annotations

import json

import pytest

import anonrepro.cli as cli

NUMERIC = {"kind": "numeric", "min": 0, "max": 10, "integer": True}
STRING = {"kind": "string", "char_class": "[a-z]", "length_min": 1, "length_max": 5}
AGES = {"kind": "categorical", "categories": ["young", "old"]}
SUPPRESS = {"technique": "local_suppression"}


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def exits_1_naming(argv, capsys, *words):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert all(word in err for word in words) and "unexpected" not in err, err


def typed(value, domain):
    return {"action": "type", "widget": "w", "data": {"value": value, "domain": domain}}


@pytest.mark.parametrize("event, config, key, where", [
    (typed("7", {**NUMERIC, "integer": False, "integr": True}), SUPPRESS,
     "integr", "numeric domain"),
    (typed("old", {**AGES, "hierachy": {"all": ["young", "old"]}}), SUPPRESS,
     "hierachy", "categorical domain"),
    ({"action": "type", "widget": "w", "dta": {"value": "7", "domain": NUMERIC}}, SUPPRESS,
     "dta", "event 0"),
    ({"action": "type", "widget": "w", "data": {"value": "7", "domain": NUMERIC, "vlaue": "8"}},
     SUPPRESS, "vlaue", "event 0 data"),
    (typed("7", NUMERIC), {"technique": "rounding", "partitions": 2, "noise": 0.3},
     "noise", "technique 'rounding'"),
    (typed("7", NUMERIC), {"widgets": {"w": SUPPRESS}, "widget": {"w": SUPPRESS}},
     "widget", "'widgets'"),
], ids=["domain", "categorical-domain", "event", "data", "technique", "widgets-map"])
def test_anonymize_rejects_unknown_keys(tmp_path, capsys, event, config, key, where):
    exits_1_naming(["anonymize", "--trace", write(tmp_path / "trace.json", {"events": [event]}),
                    "--config", write(tmp_path / "cfg.json", config),
                    "--out", str(tmp_path / "out.json")], capsys, repr(key), where)


@pytest.mark.parametrize("event, key, where", [
    ({"action": "type", "widget": "w",
      "record": {"record": "suppressed", "domain": STRING, "lenght_hint": 3}},
     "lenght_hint", "suppressed record"),
    ({"action": "type", "widget": "w", "recrod": {"record": "suppressed", "domain": STRING}},
     "recrod", "event 0"),
], ids=["record", "event"])
def test_regenerate_rejects_unknown_keys(tmp_path, capsys, event, key, where):
    exits_1_naming(["regenerate", "--trace", write(tmp_path / "anon.json", {"events": [event]}),
                    "--out", str(tmp_path / "out.json")], capsys, repr(key), where)



@pytest.mark.parametrize("command", ["anonymize", "regenerate"])
def test_trace_rejects_unknown_top_level_keys(tmp_path, capsys, command):
    record = {"record": "suppressed", "domain": STRING}
    event = (typed("7", NUMERIC) if command == "anonymize" else
             {"action": "type", "widget": "w", "record": record})
    trace = write(tmp_path / "trace.json", {"events": [event], "metadata": {"app": "x"}})
    argv = [command, "--trace", trace, "--out", str(tmp_path / "out.json")]
    if command == "anonymize":
        argv += ["--config", write(tmp_path / "cfg.json", SUPPRESS)]
    exits_1_naming(argv, capsys, "'metadata'", f"{trace}: unknown key(s) for trace")


TYPO = {**NUMERIC, "integr": True}


@pytest.mark.parametrize("event, config, word", [
    (typed("7", TYPO), SUPPRESS, "'integr'"),
    (typed("abc", STRING), {"technique": "rounding", "partitions": 2},
     "rounding applies to numeric values only"),
    ({"action": "type", "widget": "w", "record": {"record": "suppressed", "domain": TYPO}},
     None, "'integr'"),
], ids=["anonymize-domain", "anonymize-config", "regenerate-domain"])
def test_errors_name_the_file_and_the_event(tmp_path, capsys, event, config, word):
    launch = {"action": "launch", "widget": "app"}
    trace = write(tmp_path / "trace.json", {"events": [launch, event]})
    argv = ["regenerate", "--trace", trace]
    if config is not None:
        argv = ["anonymize", "--trace", trace, "--config", write(tmp_path / "cfg.json", config)]
    exits_1_naming([*argv, "--out", str(tmp_path / "out.json")], capsys,
                   f"{trace}: event 1", word)


def simulate(tmp_path, predicate, techniques=None):
    oracle = write(tmp_path / "oracle.json", {
        "name": "typo",
        "fields": {"x": NUMERIC},
        "predicate": predicate,
        "original": {"x": "3"},
        "configs": [SUPPRESS],
    })
    run = {"oracles": [oracle], "trials": 10}
    if techniques is not None:
        run["techniques"] = techniques
    return ["simulate", "--config", write(tmp_path / "run.json", run),
            "--out", str(tmp_path / "o")]


IN_RANGE = {"op": "in_range", "field": "x", "lo": 1, "hi": 5}


def test_simulate_rejects_an_unknown_op_key(tmp_path, capsys):
    exits_1_naming(simulate(tmp_path, {**IN_RANGE, "hii": 6}), capsys,
                   "'hii'", "predicate op 'in_range'")


def test_simulate_rejects_an_unknown_per_field_wrapper_key(tmp_path, capsys):
    techniques = [{"per_field": {"x": SUPPRESS}, "per_feld": 1}]
    exits_1_naming(simulate(tmp_path, IN_RANGE, techniques), capsys,
                   "'per_feld'", "'per_field'")


@pytest.mark.parametrize("predicate", [
    {**IN_RANGE, "lo": float("nan")},
    {**IN_RANGE, "hi": float("nan")},
    {"op": "equals", "field": "x", "value": float("nan")},
], ids=["in_range-lo", "in_range-hi", "equals"])
def test_simulate_rejects_nan_in_predicates(tmp_path, capsys, predicate):
    exits_1_naming(simulate(tmp_path, predicate), capsys, "NaN", "'x'", "oracle 'typo'")
