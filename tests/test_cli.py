"""Command line behavior: round trips, exit codes, deterministic artifacts."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import anonrepro.cli as cli
from anonrepro import corpus, harness
from anonrepro.harness import TrialReport
from anonrepro.model import dump_json, parse_trace
from anonrepro.report import (
    aggregate_from_csv,
    aggregate_table,
    aggregate_to_csv,
    format_disclosure,
    format_percent,
    render_table,
    sniff_csv,
    trials_from_csv,
    trials_table,
    trials_to_csv,
    verification_from_csv,
    verification_to_csv,
)
from anonrepro.harness import AggregateRow, VerificationResult, aggregate


TRACE = {
    "events": [
        {"action": "launch", "widget": "app"},
        {
            "action": "type",
            "widget": "weight",
            "data": {
                "value": "543,",
                "domain": {"kind": "string", "char_class": "[0-9.,]",
                           "length_min": 1, "length_max": 25},
            },
        },
        {
            "action": "type",
            "widget": "amount",
            "data": {
                "value": "8.0",
                "domain": {"kind": "numeric", "min": 0, "max": 10},
            },
        },
        {"action": "click", "widget": "save"},
    ]
}

CONFIG = {
    "widgets": {
        "weight": {"technique": "scd_local_suppression",
                   "length_policy": "preserve_original"},
        "amount": {"technique": "noise_addition", "noise": 0.3},
    }
}


@pytest.fixture
def trace_files(tmp_path):
    trace = tmp_path / "trace.json"
    config = tmp_path / "config.json"
    trace.write_text(json.dumps(TRACE), encoding="utf-8")
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    return tmp_path, trace, config


# ---------------------------------------------------------------------------
# anonymize / regenerate round trip


def test_anonymize_then_regenerate(trace_files, capsys):
    tmp, trace, config = trace_files
    anon = tmp / "anon.json"
    regen = tmp / "regen.json"
    assert cli.main([
        "anonymize", "--trace", str(trace), "--config", str(config),
        "--out", str(anon), "--seed", "5",
    ]) == 0
    payload = anon.read_text(encoding="utf-8")
    # the secret weight leaks only its special characters
    assert "543" not in payload
    assert json.loads(payload)["events"][1]["record"]["specials"] == ","
    assert cli.main([
        "regenerate", "--trace", str(anon), "--seed", "11", "--out", str(regen),
    ]) == 0
    restored = parse_trace(regen.read_text(encoding="utf-8"))
    assert len(restored.events) == 4
    weight, _ = restored.events[1].data
    assert "," in weight.value and len(weight.value) == 4
    amount, _ = restored.events[2].data
    assert 5.6 <= amount.value <= 8.6
    out = capsys.readouterr().out
    assert "anonymized 4 event(s)" in out and "regenerated 4 event(s)" in out


def test_anonymize_broadcast_config(trace_files):
    tmp, trace, _ = trace_files
    config = tmp / "one.json"
    config.write_text(json.dumps({"technique": "local_suppression"}))
    anon = tmp / "anon.json"
    assert cli.main([
        "anonymize", "--trace", str(trace), "--config", str(config),
        "--out", str(anon),
    ]) == 0
    events = json.loads(anon.read_text())["events"]
    assert events[1]["record"]["record"] == "suppressed"
    assert events[2]["record"]["record"] == "suppressed"


def test_anonymize_missing_widget_config_fails(trace_files):
    tmp, trace, _ = trace_files
    config = tmp / "partial.json"
    config.write_text(json.dumps(
        {"widgets": {"weight": {"technique": "local_suppression"}}}
    ))
    code = cli.main([
        "anonymize", "--trace", str(trace), "--config", str(config),
        "--out", str(tmp / "x.json"),
    ])
    assert code == 1


def test_anonymize_is_seed_deterministic(trace_files):
    tmp, trace, config = trace_files
    a, b = tmp / "a.json", tmp / "b.json"
    for out in (a, b):
        assert cli.main([
            "anonymize", "--trace", str(trace), "--config", str(config),
            "--out", str(out), "--seed", "21",
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_regenerate_rejects_raw_trace(trace_files, capsys):
    tmp, trace, _ = trace_files
    code = cli.main([
        "regenerate", "--trace", str(trace), "--out", str(tmp / "x.json"),
    ])
    assert code == 1
    assert "anonymize" in capsys.readouterr().err


def test_regenerate_rejects_an_interval_holding_no_value(tmp_path, capsys):
    # no integer lies in [2.2, 2.8): the record is bad input, not a failed run
    bad = {
        "events": [{"action": "launch", "widget": "app"}, {
            "action": "type", "widget": "day",
            "record": {
                "record": "interval_group",
                "domain": {"kind": "numeric", "min": 0, "max": 10, "integer": True},
                "lo": 2.2, "hi": 2.8, "hi_inclusive": False,
            },
        }]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = cli.main([
        "regenerate", "--trace", str(path), "--out", str(tmp_path / "x.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{path}: event 1: " in err and "no integer inside [2.2, 2.8)" in err, err



DAY_RECORD = {"record": "suppressed",
              "domain": {"kind": "numeric", "min": 1, "max": 31, "integer": True}}


@pytest.mark.parametrize("record", [
    {"record": "tuple", "components": []},
    {"record": "tuple", "components": [{"record": "tuple", "components": [DAY_RECORD]}]},
], ids=["empty", "nested"])
def test_regenerate_names_the_event_of_a_bad_tuple_record(tmp_path, capsys, record):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"events": [{"action": "pick", "widget": "date",
                                            "record": record}]}))
    code = cli.main([
        "regenerate", "--trace", str(path), "--out", str(tmp_path / "x.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{path}: event 0: tuple domain" in err, err


def test_regenerate_rejects_impossible_special_chars(tmp_path, capsys):
    bad = {
        "events": [{
            "action": "type", "widget": "duration",
            "record": {
                "record": "special_chars",
                "domain": {"kind": "string", "char_class": "[0-9:]",
                           "length_min": 1, "length_max": 5},
                "specials": "/",
            },
        }]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = cli.main([
        "regenerate", "--trace", str(path), "--out", str(tmp_path / "x.json"),
    ])
    assert code == 1
    assert "alphabet" in capsys.readouterr().err


def test_regenerate_names_the_event_whose_length_it_raises(tmp_path, caplog):
    # a one-character hint cannot hold three specials: the length is raised
    record = {
        "record": "special_chars",
        "domain": {"kind": "string", "char_class": "[!-~]", "length_min": 1, "length_max": 12},
        "specials": "!#.",
        "length_hint": 1,
    }
    trace = {"events": [{"action": "launch", "widget": "app"},
                        {"action": "type", "widget": "note", "record": record}]}
    path = tmp_path / "anon.json"
    path.write_text(json.dumps(trace))
    with caplog.at_level("WARNING"):
        code = cli.main(["regenerate", "--trace", str(path), "--out", str(tmp_path / "x.json")])
    assert code == 0
    assert caplog.messages == [
        "event 1 (widget 'note'): raising regenerated length to 3 to fit special characters"
    ]


DATA = Path(__file__).parent / "data"


def test_mixed_trace_outputs_are_byte_stable(tmp_path):
    # all five techniques, tuple and categorical fields, non-ASCII text
    anon, regen = tmp_path / "anon.json", tmp_path / "regen.json"
    assert cli.main([
        "anonymize", "--trace", str(DATA / "mixed_trace.json"),
        "--config", str(DATA / "mixed_config.json"), "--out", str(anon), "--seed", "7",
    ]) == 0
    assert anon.read_bytes() == (DATA / "mixed_anonymized.json").read_bytes()
    assert cli.main([
        "regenerate", "--trace", str(anon), "--out", str(regen), "--seed", "7",
    ]) == 0
    assert regen.read_bytes() == (DATA / "mixed_regenerated.json").read_bytes()


def test_only_events_that_draw_build_a_stream(tmp_path, monkeypatch):
    streams: list[int] = []
    substream = cli.substream

    def counting(seed, index):
        streams.append(index)
        return substream(seed, index)

    monkeypatch.setattr(cli, "substream", counting)
    trace, anon = str(DATA / "mixed_trace.json"), tmp_path / "anon.json"
    config = json.loads((DATA / "mixed_config.json").read_text(encoding="utf-8"))
    for widget in ("amount", "alarm"):  # noise addition becomes rounding
        config["widgets"][widget] = {"technique": "rounding", "partitions": 3}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["anonymize", "--trace", trace, "--config", str(tmp_path / "config.json"),
                     "--out", str(anon)]) == 0
    assert streams == []
    # keep the events whose records are concrete
    events = json.loads(anon.read_text(encoding="utf-8"))["events"]
    concrete = [e for e in events if e.get("record", {}).get("record") == "concrete"]
    assert [e["widget"] for e in concrete] == ["amount", "quantity"]
    anon.write_text(json.dumps({"events": concrete}))
    assert cli.main(["regenerate", "--trace", str(anon),
                     "--out", str(tmp_path / "regen.json")]) == 0
    assert streams == []
    # with noise addition, anonymize draws for those two events alone
    assert cli.main(["anonymize", "--trace", trace, "--config", str(DATA / "mixed_config.json"),
                     "--out", str(anon)]) == 0
    assert streams == [1, 9]


def test_a_tuple_of_concrete_records_regenerates_without_a_stream(tmp_path, monkeypatch):
    streams: list[int] = []
    substream = cli.substream
    monkeypatch.setattr(cli, "substream",
                        lambda seed, index: streams.append(index) or substream(seed, index))

    def alarm(name):  # noise addition on a tuple field: each part is concrete
        events = json.loads((DATA / name).read_text(encoding="utf-8"))["events"]
        return [e for e in events if e["widget"] == "alarm"]

    anon, regen = tmp_path / "anon.json", tmp_path / "regen.json"
    anon.write_text(json.dumps({"events": alarm("mixed_anonymized.json")}))
    assert cli.main(["regenerate", "--trace", str(anon), "--out", str(regen), "--seed", "7"]) == 0
    assert streams == []
    assert regen.read_text(encoding="utf-8") == dump_json({"events": alarm("mixed_regenerated.json")})


@pytest.mark.parametrize("argv, words", [
    (["anonymize", "--trace", "trace.json", "--config", "config.json", "--out", "dir"],
     "Is a directory"),
    (["anonymize", "--trace", "trace.json", "--config", "config.json", "--out", "file/x.json"],
     "File exists"),
    (["simulate", "--config", "run.json", "--out", "file"], "File exists"),
    (["anonymize", "--trace", "surrogate.json", "--config", "suppress.json", "--out", "o.json"],
     "surrogates not allowed"),
], ids=["out-is-a-directory", "out-under-a-file", "simulate-out-is-a-file", "lone-surrogate"])
def test_an_output_that_cannot_be_written_exits_1(trace_files, monkeypatch, capsys, argv, words):
    tmp_path = trace_files[0]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    run_config(tmp_path, oracles=["birday"], trials=2)
    # a categorical label that UTF-8 cannot encode, kept in a suppressed record
    (tmp_path / "surrogate.json").write_text(json.dumps({"events": [{
        "action": "pick", "widget": "w", "data": {
            "value": "\ud800", "domain": {"kind": "categorical", "categories": ["\ud800"]}}}]}))
    (tmp_path / "suppress.json").write_text(json.dumps({"technique": "local_suppression"}))
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "error: cannot write " in err and words in err and "unexpected" not in err, err


def test_an_output_that_cannot_be_encoded_keeps_the_old_file(tmp_path, capsys):
    # a categorical label that UTF-8 cannot encode, kept in a suppressed record
    trace, config, out = tmp_path / "trace.json", tmp_path / "suppress.json", tmp_path / "o.json"
    trace.write_text(json.dumps({"events": [{
        "action": "pick", "widget": "w", "data": {
            "value": "\ud800", "domain": {"kind": "categorical", "categories": ["\ud800"]}}}]}))
    config.write_text(json.dumps({"technique": "local_suppression"}))
    out.write_text('{"events": []}\n', encoding="utf-8")
    old = out.read_bytes()
    assert cli.main(["anonymize", "--trace", str(trace), "--config", str(config),
                     "--out", str(out)]) == 1
    assert "surrogates not allowed" in capsys.readouterr().err
    assert out.read_bytes() == old


def test_simulate_checks_its_output_before_the_runs(tmp_path, monkeypatch, capsys):
    def no_runs(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "_run_chunk", no_runs)
    (tmp_path / "file").write_text("")
    assert cli.main(["simulate", "--config", str(run_config(tmp_path)),
                     "--out", str(tmp_path / "file")]) == 1
    assert "error: cannot write " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["anonymize", "--trace", "/nonexistent.json", "--config", "/c.json", "--out", "/o"],
    ["report", "--in", "/nonexistent.csv"],
])
def test_missing_inputs_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_trace_exits_1(tmp_path, capsys):
    trace = tmp_path / "broken.json"
    trace.write_text("{not json")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"technique": "local_suppression"}))
    assert cli.main([
        "anonymize", "--trace", str(trace), "--config", str(config),
        "--out", str(tmp_path / "o.json"),
    ]) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["regenerate", "--trace", "bad.json", "--out", "o.json"],
    ["anonymize", "--trace", "bad.json", "--config", "config.json", "--out", "o.json"],
    ["anonymize", "--trace", "trace.json", "--config", "bad.json", "--out", "o.json"],
    ["report", "--in", "bad.json"],
    ["simulate", "--config", "bad.json", "--out", "o"],
    ["simulate", "--config", "run.json", "--out", "o"],
    ["simulate", "--out", "o"],
], ids=["regenerate-trace", "anonymize-trace", "anonymize-config", "report-in",
        "simulate-config", "simulate-oracle", "corpus-dir"])
def test_non_utf8_input_exits_1_naming_the_file(trace_files, monkeypatch, capsys, argv):
    tmp_path = trace_files[0]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "run.json").write_text(json.dumps({"oracles": ["bad.json"], "trials": 10}))
    if argv == ["simulate", "--out", "o"]:  # the corpus itself holds the file
        (tmp_path / "corpus").mkdir()
        (tmp_path / "corpus" / "bad.json").write_bytes(b"\xff\xfe{}")
        monkeypatch.setenv(corpus.ENV_CORPUS_DIR, str(tmp_path / "corpus"))
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "bad.json" in err and "unexpected" not in err, err


# ---------------------------------------------------------------------------
# simulate and report


def run_config(tmp_path, **extra):
    cfg = {"oracles": ["food_scale_droid", "birday"], "trials": 60, "seed": 4}
    cfg.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_simulate_writes_expected_artifacts(tmp_path, capsys):
    cfg = run_config(tmp_path, format="both")
    out = tmp_path / "results"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("trials.csv", "aggregate.csv", "trials.txt", "aggregate.txt"):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "technique" in stdout and "wrote" in stdout
    reports = trials_from_csv(out / "trials.csv")
    # 10 numeric configs for birday + 4 string configs for food_scale_droid
    assert len(reports) == 14
    assert {r.oracle for r in reports} == {"food_scale_droid", "birday"}
    rows = aggregate_from_csv(out / "aggregate.csv")
    assert aggregate_table(rows) == (out / "aggregate.txt").read_text()


def test_simulate_is_byte_identical_across_runs_and_workers(tmp_path):
    cfg = run_config(tmp_path)
    out1, out2, out3 = (tmp_path / d for d in ("r1", "r2", "r3"))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert cli.main([
        "simulate", "--config", str(cfg), "--out", str(out3), "--workers", "2",
    ]) == 0
    for name in ("trials.csv", "aggregate.csv"):
        reference = (out1 / name).read_bytes()
        assert (out2 / name).read_bytes() == reference, name
        assert (out3 / name).read_bytes() == reference, name


def test_simulate_flags_override_config_file(tmp_path):
    cfg = run_config(tmp_path, trials=60)
    out = tmp_path / "results"
    assert cli.main([
        "simulate", "--config", str(cfg), "--out", str(out), "--trials", "25",
        "--seed", "8",
    ]) == 0
    reports = trials_from_csv(out / "trials.csv")
    assert all(r.trials == 25 and r.seed == 8 for r in reports)


def test_simulate_custom_techniques_and_verify(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "VERIFY_MIN_TRIALS", 3000)
    cfg = run_config(
        tmp_path,
        oracles=["food_scale_droid"],
        techniques=[
            {"technique": "local_suppression",
             "length_policy": "preserve_original", "label": "Hi"},
            {"technique": "scd_local_suppression",
             "length_policy": "preserve_original", "label": "Hi"},
        ],
        verify=True,
    )
    out = tmp_path / "results"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    reports = trials_from_csv(out / "trials.csv")
    assert [r.technique for r in reports] == [
        "local_suppression", "scd_local_suppression"
    ]
    verifications = verification_from_csv(out / "verification.csv")
    # SCD is never enumerable, so only the suppression run is checked
    assert len(verifications) == 1
    assert verifications[0].passed
    assert verifications[0].trials == 3000


def test_simulate_verify_is_byte_identical_across_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "VERIFY_MIN_TRIALS", 3000)
    cfg = run_config(tmp_path, oracles=["food_scale_droid"], verify=True)
    outs = [tmp_path / f"w{workers}" for workers in (1, 2)]
    for out, workers in zip(outs, ("1", "2")):
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--workers", workers]) == 0
    for name in ("trials.csv", "aggregate.csv", "verification.csv"):
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes(), name


def test_simulate_rejects_unknown_oracle_file_keys(tmp_path, capsys):
    entry = corpus.entry_to_json(corpus.load("birday"))
    entry["confgs"] = entry.pop("configs")
    oracle = tmp_path / "typo.json"
    oracle.write_text(json.dumps(entry))
    cfg = run_config(tmp_path, oracles=[str(oracle)])
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "'confgs'" in err and "typo.json" in err and "unexpected" not in err


def test_simulate_rejects_unknown_config_keys(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"oracle": ["typo"]}))
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1
    assert "oracle" in capsys.readouterr().err


def test_simulate_rejects_unknown_oracle(tmp_path, capsys):
    cfg = run_config(tmp_path, oracles=["not_a_bug"])
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
    assert "not_a_bug" in capsys.readouterr().err



def test_simulate_names_a_malformed_oracle_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.json").write_text('{"name": "broken",\n')
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"oracles": ["broken.json"]}))
    assert cli.main(["simulate", "--config", str(cfg), "--out", "o"]) == 1
    err = capsys.readouterr().err
    assert "broken.json" in err and "unexpected" not in err

@pytest.mark.parametrize("extra, words", [
    ({"trials": 0}, ["run.json: run config: 'trials' must be positive"]),
    ({"techniques": [{"technique": "rounding", "partitions": 1}]},
     ["run.json: techniques[0]: rounding needs at least 2 partitions"]),
    ({"techniques": [{"technique": "rounding", "partitions": 3},
                     {"technique": "rounding", "partitions": 1}]},
     ["run.json: techniques[1]: rounding needs at least 2 partitions"]),
    ({"techniques": [{"technique": "scd_local_suppression"}]},
     ["oracle 'birday': field 'day': special-character suppression"]),
    ({"techniques": [{"technique": "scd_local_suppression"}], "workers": 2},
     ["oracle 'birday': field 'day': special-character suppression"]),
    ({"techniques": [{"per_field": {"day": {"technique": "local_suppression"}}}]},
     ["oracle 'birday': no technique configured for field(s) month, year"]),
], ids=["run-config", "run-config-technique", "run-config-second-technique", "field", "field-in-a-worker", "oracle"])
def test_simulate_errors_name_the_file_the_oracle_and_the_field(tmp_path, capsys, extra, words):
    cfg = run_config(tmp_path, oracles=["birday"], **extra)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert all(word in err for word in words) and "unexpected" not in err, err


def test_json_errors_name_the_file_line_and_column(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text('{"trials": \n')
    (tmp_path / "trace.json").write_text('{"events": [\n')
    (tmp_path / "broken.json").write_text('{"name": "broken",\n')
    (tmp_path / "oracles.json").write_text(json.dumps({"oracles": ["broken.json"]}))
    for argv, message in [
        (["simulate", "--config", "run.json", "--out", "o"],
         "run.json: invalid JSON at line 2, column 1: Expecting value"),
        (["regenerate", "--trace", "trace.json", "--out", "o.json"],
         "trace.json: invalid JSON at line 2, column 1: Expecting value"),
        (["simulate", "--config", "oracles.json", "--out", "o"],
         "oracle file 'broken.json': invalid JSON at line 2, column 1: "
         "Expecting property name enclosed in double quotes"),
    ]:
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n", argv


def test_report_renders_tables(tmp_path, capsys):
    cfg = run_config(tmp_path, oracles=["tasks"], trials=40)
    out = tmp_path / "results"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--in", str(out / "trials.csv")]) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].startswith("oracle")
    assert "tasks" in table
    assert cli.main(["report", "--in", str(out / "aggregate.csv"),
                     "--format", "csv"]) == 0
    assert capsys.readouterr().out == (out / "aggregate.csv").read_text()


def test_report_rejects_foreign_csv(tmp_path, capsys):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b\n1,2\n")
    assert cli.main(["report", "--in", str(path)]) == 1
    assert "not a recognized" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report formatting units


def test_percent_formats():
    assert format_percent(0.08) == "8%"
    assert format_percent(0.10533) == "10.53%"
    assert format_percent(1.0) == "100%"
    assert format_percent(0.000672) == "0.0672%"
    assert format_disclosure(1 / 60) == "1.67%"
    assert format_disclosure(0.005) == "0.50%"
    assert format_disclosure(0.0) == "0.00%"


def test_render_table_alignment():
    text = render_table(("name", "n"), (("ab", "1"), ("c", "25")), "lr")
    lines = text.splitlines()
    assert lines[0] == "name   n"
    assert lines[1] == "----  --"
    assert lines[2] == "ab     1"
    assert lines[3] == "c     25"


def test_trials_table_shows_dash_for_never_reproduced():
    report = TrialReport(
        oracle="o", technique="t", label="", config="c",
        trials=50, successes=0, disclosures=0, seed=0,
    )
    table = trials_table([report])
    row = table.splitlines()[2]
    assert " - " in row or row.endswith("-") or "  -" in row


def test_csv_round_trips(tmp_path):
    reports = [
        TrialReport(oracle="o", technique="t", label="Hi", config="c",
                    trials=100, successes=39, disclosures=1, seed=7),
        TrialReport(oracle="p", technique="t", label="", config="c",
                    trials=100, successes=0, disclosures=0, seed=7),
    ]
    path = tmp_path / "trials.csv"
    trials_to_csv(reports, path)
    assert trials_from_csv(path) == reports

    rows = aggregate(reports)
    agg_path = tmp_path / "aggregate.csv"
    aggregate_to_csv(rows, agg_path)
    assert aggregate_from_csv(agg_path) == rows

    results = [VerificationResult(
        oracle="o", technique="t", label="Hi", config="c", trials=1000,
        successes=500, exact_probability=0.5, lower=459, upper=541,
    )]
    ver_path = tmp_path / "verification.csv"
    verification_to_csv(results, ver_path)
    assert verification_from_csv(ver_path) == results
    assert sniff_csv(path) == "trials"
    assert sniff_csv(agg_path) == "aggregate"
    assert sniff_csv(ver_path) == "verification"


def test_aggregate_csv_renders_none_as_dash(tmp_path):
    rows = [AggregateRow(
        technique="t", label="", oracles=2, mean_frequency=0.0,
        mean_attempts=None, max_attempts=None, not_reproduced=2,
        mean_disclosure=0.0,
    )]
    path = tmp_path / "agg.csv"
    aggregate_to_csv(rows, path)
    text = path.read_text()
    assert ",-,-," in text
    assert aggregate_from_csv(path) == rows


@pytest.mark.parametrize("debug", [None, "1"])
def test_unexpected_error_prints_a_traceback_only_when_debugging(monkeypatch, capsys, debug):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_report", broken)
    if debug is None:
        monkeypatch.delenv("ANONREPRO_DEBUG", raising=False)
    else:
        monkeypatch.setenv("ANONREPRO_DEBUG", debug)
    assert cli.main(["report", "--in", "results.csv"]) == 2
    err = capsys.readouterr().err
    if debug is None:
        assert err == "unexpected error: boom\n"
    else:
        assert err.startswith("Traceback (most recent call last):")
        assert "in broken" in err and err.endswith("RuntimeError: boom\nunexpected error: boom\n")
