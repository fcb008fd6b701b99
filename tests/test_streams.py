"""Block-derived trial streams draw exactly what ``substream`` draws, and the
harness's trial plan counts exactly what a plain per-trial loop counts."""
from __future__ import annotations

import json
import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anonrepro.cli as cli
from anonrepro import corpus, harness, rng, techniques
from anonrepro.harness import resolve_configs, run_trials
from anonrepro.errors import UnsupportedTechniqueError
from anonrepro.model import (
    Categorical,
    Continuous,
    NumericDomain,
    StringDomain,
    Text,
    TupleDomain,
    TupleValue,
    values_equal,
)
from anonrepro.oracles import BugOracle, EndsWith, InRange, LengthGt, Or, evaluate
from anonrepro.rng import TrialBlock, substream
from anonrepro.techniques import (
    GlobalRecodingConfig,
    LengthPolicy,
    LocalSuppressionConfig,
    NoiseAdditionConfig,
    RoundingConfig,
    SCDLocalSuppressionConfig,
    anonymize,
    field_plan,
    regenerate,
)

SEEDS = st.one_of(
    st.sampled_from([0, 7, -1, 2**32 - 1, 2**32 + 5, 2**63, 2**64 - 1, 2**64 + 3, -(2**65)]),
    st.integers(min_value=-(2**70), max_value=2**70),
)
STARTS = st.one_of(
    st.integers(min_value=0, max_value=100),
    st.sampled_from([2**32 - 5, 2**32, 2**64 - 3]),
)
INDEXES = st.one_of(st.integers(min_value=0, max_value=40), st.sampled_from([2**32, 2**33 + 1]))
PARTS = st.integers(min_value=0, max_value=3)


def assert_same_streams(seed, trials, index, part=None):
    # a derived block's tape holds the raw outputs of substream's generator,
    # or of its spawned child; a block that cannot be derived has no tape
    count = 0
    for block in rng.blocks(trials):
        streams = TrialBlock(seed, block, index, part)
        tape = None if streams.states is None else streams.words(3)
        assert (tape is None) == (not rng._derivable(block, index))
        for row, trial in enumerate(block):
            reference = substream(seed, trial, index)
            if part is not None:
                reference = reference.spawn(part + 1)[part]
            generator = streams.stream(row)
            assert generator.bit_generator.state == reference.bit_generator.state, trial
            if tape is not None:
                assert tape[:, row].tolist() == reference.bit_generator.random_raw(3).tolist(), trial
            count += 1
    assert count == len(trials)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, start=STARTS, length=st.integers(min_value=0, max_value=30),
       index=INDEXES)
def test_block_streams_equal_substream(seed, start, length, index):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "BLOCK", 8)  # short blocks: most ranges cross a boundary
        assert_same_streams(seed, range(start, start + length), index)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, start=STARTS, length=st.integers(min_value=0, max_value=30),
       index=INDEXES, part=PARTS)
def test_part_block_streams_equal_spawned_children(seed, start, length, index, part):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "BLOCK", 8)
        assert_same_streams(seed, range(start, start + length), index, part)


def test_block_streams_cross_a_full_block():
    assert_same_streams(7, range(1000, 2100), 2)


def corrupt(block_states):
    def derive(*args):
        return [(state ^ 1, inc) for state, inc in block_states(*args)]
    return derive


def test_mismatched_derivation_falls_back_to_substream(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return substream(*args)

    entry = corpus.load("birday")
    cfg = LocalSuppressionConfig()
    expected = run_trials(entry.oracle, entry.original_assignment, cfg, trials=300, seed=3)
    monkeypatch.setattr(rng, "BLOCK", 64)
    monkeypatch.setattr(rng, "_block_states", corrupt(rng._block_states))
    monkeypatch.setattr(rng, "substream", counted)
    report = run_trials(entry.oracle, entry.original_assignment, cfg, trials=300, seed=3)
    assert (report.successes, report.disclosures) == (expected.successes, expected.disclosures)
    # every trial of every field drawn from substream once: the check row's
    # draw is reused
    assert len(calls) == len(entry.oracle.fields) * 300


def test_mismatched_part_derivation_falls_back_to_spawned_children(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return substream(*args)

    domain = NumericDomain(0, 10**6, integer=True)
    plan = field_plan(Continuous(5), domain, LocalSuppressionConfig())
    expected = [regenerate(techniques.Suppressed(domain), substream(11, trial, 1).spawn(3)[2])
                for trial in range(5, 200)]
    monkeypatch.setattr(rng, "BLOCK", 64)
    monkeypatch.setattr(rng, "_block_states", corrupt(rng._block_states))
    monkeypatch.setattr(rng, "substream", counted)
    got = []
    for block in rng.blocks(range(5, 200)):
        column = techniques.regenerate_block(plan, TrialBlock(11, block, 1, 2), Counter())
        got += [column.box(row) for row in range(len(block))]
    assert list(map(repr, got)) == list(map(repr, expected))
    # every trial drawn from its spawned child once: the check row's draw is reused
    assert len(calls) == 195


def test_constant_plans_derive_no_states(monkeypatch):
    # rounding gives every field a constant plan, whose column needs no tape
    def underived(*args):
        raise AssertionError(f"block states derived for {args}")

    entry = corpus.load("birday")
    oracle, original = entry.oracle, entry.original_assignment
    rounding = [cfg for cfg in entry.configs if isinstance(cfg, RoundingConfig)]
    expected = [reference_counts(oracle, original, cfg, 300, 3) for cfg in rounding]
    monkeypatch.setattr(rng, "_block_states", underived)
    reports = [run_trials(oracle, original, cfg, trials=300, seed=3) for cfg in rounding]
    assert [(r.successes, r.disclosures) for r in reports] == expected


@pytest.mark.parametrize("value", [Continuous(12.5, 1), Text("a.b!"), Categorical("b")],
                         ids=["number", "text", "label"])
def test_constant_blocks_read_no_stream(monkeypatch, value):
    def unread(*args):
        raise AssertionError(f"stream read for {args}")

    monkeypatch.setattr(rng, "substream", unread)
    monkeypatch.setattr(rng, "_block_states", unread)
    raises = Counter()
    column = techniques.regenerate_block(
        techniques.Constant(value), TrialBlock(5, range(3, 70), 2), raises)
    assert [repr(column.box(row)) for row in range(67)] == [repr(value)] * 67
    assert not raises


def reference_counts(oracle, original, config, trials, seed):
    """The trial loop spelled out: one fresh substream per (trial, field)."""
    per_field = resolve_configs(oracle, config)
    successes = disclosures = 0
    for trial in range(trials):
        assignment = {}
        disclosed = True
        for index, (name, domain) in enumerate(oracle.fields):
            stream = substream(seed, trial, index)
            value = regenerate(anonymize(original[name], domain, per_field[index], stream), stream)
            assignment[name] = value
            disclosed = disclosed and values_equal(original[name], value)
        successes += evaluate(oracle, assignment)
        disclosures += disclosed
    return successes, disclosures


CORPUS = [(entry, cfg) for entry in corpus.load_all() for cfg in entry.configs]


def test_corpus_counts_equal_the_per_trial_loop(monkeypatch):
    trials, split, seed = 300, 137, 5
    for entry, cfg in CORPUS:
        oracle, original = entry.oracle, entry.original_assignment
        report = run_trials(oracle, original, cfg, trials=trials, seed=seed)
        counts = (report.successes, report.disclosures)
        assert counts == reference_counts(oracle, original, cfg, trials, seed), entry.name
        with monkeypatch.context() as patch:
            patch.setattr(rng, "BLOCK", 64)
            args = (oracle, tuple(original[n] for n in oracle.field_names),
                    resolve_configs(oracle, cfg), seed)
            head = harness._run_chunk(*args, 0, split)
            tail = harness._run_chunk(*args, split, trials)
        assert (head[0] + tail[0], head[1] + tail[1]) == counts, entry.name


DATE = TupleDomain((NumericDomain(1, 31, integer=True), NumericDomain(1, 12, integer=True)))
X = NumericDomain(0, 10, integer=True)
DATED_ORIGINAL = {"x": Continuous(4), "date": TupleValue((Continuous(29), Continuous(2)))}


@pytest.mark.parametrize("fields, tuple_index", [
    ((("x", X), ("date", DATE)), 1),
    ((("date", DATE), ("x", X)), 0),
], ids=["tuple-last", "tuple-first"])
@pytest.mark.parametrize("cfg", [
    GlobalRecodingConfig(3), RoundingConfig(2), LocalSuppressionConfig(), NoiseAdditionConfig(0.4),
], ids=lambda c: type(c).__name__)
def test_tuple_fields_take_substream(monkeypatch, cfg, fields, tuple_index):
    # a tuple's component j draws from substream's j-th spawned child, a block
    # at a time, so substream itself runs only for each block's self-check
    oracle = BugOracle(name="dated", fields=fields, predicate=InRange("x", 2, 6))
    expected = reference_counts(oracle, DATED_ORIGINAL, cfg, 200, 9)
    pooled = run_trials(oracle, DATED_ORIGINAL, cfg, trials=200, seed=9, workers=2)
    assert (pooled.successes, pooled.disclosures) == expected
    calls = []

    def counted(*args):
        calls.append(args)
        return substream(*args)

    monkeypatch.setattr(rng, "BLOCK", 64)
    monkeypatch.setattr(rng, "substream", counted)
    report = run_trials(oracle, DATED_ORIGINAL, cfg, trials=200, seed=9)
    assert (report.successes, report.disclosures) == expected
    # per block: the scalar field's self-check, then each date component's;
    # rounding's constant plans read no stream
    drawn = () if isinstance(cfg, RoundingConfig) else (0, 1, tuple_index)
    assert sorted(calls) == sorted(
        (9, start, index) for start in range(0, 200, 64) for index in drawn)
    args = (oracle, tuple(DATED_ORIGINAL[n] for n in oracle.field_names),
            resolve_configs(oracle, cfg), 9)
    head, tail = harness._run_chunk(*args, 0, 101), harness._run_chunk(*args, 101, 200)
    assert (head[0] + tail[0], head[1] + tail[1]) == expected


TAGS = TupleDomain((StringDomain("[!-~]", 1, 4), StringDomain("[a-z.]", 0, 6)))


@pytest.mark.parametrize("policy", list(LengthPolicy), ids=lambda p: p.value)
def test_tuple_length_raises_are_logged_as_the_per_trial_loop_counts(caplog, policy):
    # "a.b!" keeps two specials in 1..4 characters, and "x.y" one in 0..6
    oracle = BugOracle(name="tagged", fields=(("x", X), ("tag", TAGS)),
                       predicate=InRange("x", 2, 6))
    original = {"x": Continuous(4), "tag": TupleValue((Text("a.b!"), Text("x.y")))}
    config = {"x": LocalSuppressionConfig(), "tag": SCDLocalSuppressionConfig(policy)}
    raises = Counter()
    for trial in range(700):
        stream = substream(9, trial, 1)
        regenerate(anonymize(original["tag"], TAGS, config["tag"], stream), stream, raises)
    expected = reference_counts(oracle, original, config, 700, 9)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        report = run_trials(oracle, original, config, trials=700, seed=9)
    assert (report.successes, report.disclosures) == expected
    assert caplog.messages == [
        f"raising regenerated length of field 'tag' to fit {needed} special characters "
        f"in {count}/700 trials" for needed, count in sorted(raises.items())]
    assert bool(raises) == (policy is LengthPolicy.RANDOM_IN_RANGE)


NUL_STRINGS = StringDomain("[\x00-\x02]", 0, 3)
WIDE = NumericDomain(0, 2**60, integer=True)


@pytest.mark.parametrize("text_cfg", [LocalSuppressionConfig(), SCDLocalSuppressionConfig()],
                         ids=["suppressed", "scd"])
@pytest.mark.parametrize("wide_cfg", [LocalSuppressionConfig(), NoiseAdditionConfig(1e-18)],
                         ids=["suppressed", "noise"])
def test_scalar_drawn_rows_count_as_the_per_trial_loop(monkeypatch, text_cfg, wide_cfg):
    # a column over a NUL alphabet (NUL ends the original, and is a special
    # character), a field with no column form (a range of 2**60, or noise
    # clamped beyond 2**53) and a tuple field, in one run
    oracle = BugOracle(name="mixed", fields=(("s", NUL_STRINGS), ("wide", WIDE), ("date", DATE)),
                       predicate=Or((EndsWith("s", "\x00"), InRange("wide", 0, 5))))
    original = {"s": Text("\x01\x00"), "wide": Continuous(5), "date": DATED_ORIGINAL["date"]}
    config = {"s": text_cfg, "wide": wide_cfg, "date": NoiseAdditionConfig(0.01)}
    block = TrialBlock(9, range(0, 64), 1)
    assert techniques._column(field_plan(original["wide"], WIDE, wide_cfg), block) is None
    monkeypatch.setattr(rng, "BLOCK", 256)
    report = run_trials(oracle, original, config, trials=700, seed=9)
    counts = (report.successes, report.disclosures)
    assert counts == reference_counts(oracle, original, config, 700, 9)
    assert counts[0] > 0 and (counts[1] > 0) == isinstance(wide_cfg, NoiseAdditionConfig)


def test_first_failing_field_is_reported_first():
    # Field "a" fails under noise addition; field "b" fails under rounding.
    # The first trial meets "a" first, so its error is the one raised.
    word = StringDomain("[a-z]", 1, 4)
    oracle = BugOracle(name="words", fields=(("a", word), ("b", word)),
                       predicate=LengthGt("a", 0))
    original = {"a": Text("ab"), "b": Text("cd")}
    config = {"a": NoiseAdditionConfig(0.5), "b": RoundingConfig(2)}
    with pytest.raises(UnsupportedTechniqueError, match="noise addition"):
        run_trials(oracle, original, config, trials=5, seed=1)


# ---------------------------------------------------------------------------
# wrongly typed oracle and domain input exits 1


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def exits_1_naming(argv, words, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "unexpected" not in err, err
    for word in words:
        assert word in err, err


@pytest.mark.parametrize("domain, key", [
    ({"kind": "categorical", "categories": 5}, "categories"),
    ({"kind": "categorical", "categories": ["a", 1]}, "categories"),
    ({"kind": "categorical", "categories": ["a", "b"], "hierarchy": {"g": "ab"}}, "hierarchy"),
    ({"kind": "categorical", "categories": ["a", "b"], "hierarchy": ["a", "b"]}, "hierarchy"),
])
def test_anonymize_rejects_typed_categorical_domain(tmp_path, capsys, domain, key):
    trace = write(tmp_path / "trace.json", {"events": [
        {"action": "type", "widget": "w", "data": {"value": "a", "domain": domain}},
    ]})
    config = write(tmp_path / "cfg.json", {"technique": "local_suppression"})
    exits_1_naming(["anonymize", "--trace", trace, "--config", config,
                    "--out", str(tmp_path / "out.json")], [repr(key)], capsys)


NUMERIC = {"kind": "numeric", "min": 0, "max": 10, "integer": True}


def test_simulate_rejects_original_missing_a_field(tmp_path, capsys):
    oracle = write(tmp_path / "two.json", {
        "name": "two",
        "fields": {"x": NUMERIC, "y": NUMERIC},
        "predicate": {"op": "in_range", "field": "x", "lo": 1, "hi": 5},
        "original": {"x": "3"},
        "configs": [{"technique": "local_suppression"}],
    })
    run = write(tmp_path / "run.json", {"oracles": [oracle], "trials": 10})
    exits_1_naming(["simulate", "--config", run, "--out", str(tmp_path / "o")],
                   ["'two'", "'y'"], capsys)


def test_simulate_rejects_fields_that_are_not_an_object(tmp_path, capsys):
    oracle = write(tmp_path / "listed.json", {
        "name": "listed",
        "fields": [],
        "predicate": {"op": "in_range", "field": "x", "lo": 1, "hi": 5},
        "original": {"x": "3"},
        "configs": [{"technique": "local_suppression"}],
    })
    run = write(tmp_path / "run.json", {"oracles": [oracle], "trials": 10})
    exits_1_naming(["simulate", "--config", run, "--out", str(tmp_path / "o")],
                   ["'fields'"], capsys)
