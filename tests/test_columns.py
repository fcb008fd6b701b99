"""Columns regenerated from a block's word tape equal the scalar path row by
row, whichever rows the column leaves to the scalar path, and a run logs its
length raises once."""
from __future__ import annotations

import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonrepro import corpus, rng, techniques
from anonrepro.errors import EnumerationInfeasibleError
from anonrepro.harness import resolve_configs, run_trials
from anonrepro.model import (
    Categorical,
    CategoricalDomain,
    Continuous,
    NumericDomain,
    StringDomain,
    Text,
    TupleDomain,
    TupleValue,
)
from anonrepro.oracles import technique_distribution
from anonrepro.rng import TAPE_WORDS, TrialBlock, substream
from anonrepro.techniques import (
    CategoryGroup,
    Concrete,
    GlobalRecodingConfig,
    IntervalGroup,
    LengthPolicy,
    LocalSuppressionConfig,
    NoiseAdditionConfig,
    Parts,
    RoundingConfig,
    SCDLocalSuppressionConfig,
    Span,
    SpecialChars,
    Suppressed,
    TupleRecord,
    anonymize,
    draw_plan,
    field_plan,
    regenerate,
    regenerate_block,
    _grid_ceil,
    _grid_plan,
)

DAYS = NumericDomain(1, 31, integer=True)
REAL = NumericDomain(0, 10)
FINE = NumericDomain(-5, 5, precision=3, max_inclusive=False)
AGES = CategoricalDomain(
    ("child", "teen", "adult", "senior"),
    {"young": ("child", "teen"), "old": ("adult", "senior")},
)
WORDS = StringDomain("[a-z]", 0, 12)
PRINTABLE = StringDomain("[!-~]", 1, 25)
SCD = SCDLocalSuppressionConfig()

# (original, domain, config): every record kind with a column form
KINDS = {
    "suppressed-integer": (Continuous(17), DAYS, LocalSuppressionConfig()),
    "suppressed-real": (Continuous(4.6, 1), REAL, LocalSuppressionConfig()),
    "suppressed-categorical": (Categorical("teen"), AGES, LocalSuppressionConfig()),
    "suppressed-string": (Text("hello"), WORDS, LocalSuppressionConfig()),
    "suppressed-string-kept-length": (
        Text("hello"), WORDS, LocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL)),
    "interval-integer": (Continuous(17), DAYS, GlobalRecodingConfig(3)),
    "interval-real": (Continuous(-1.25, 2), FINE, GlobalRecodingConfig(4)),
    "category-group": (Categorical("teen"), AGES, GlobalRecodingConfig()),
    "special-chars": (Text("a.b-c!d"), PRINTABLE, SCD),
    "special-chars-kept-length": (
        Text("a.b-c!d"), PRINTABLE, SCDLocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL)),
    "concrete": (Continuous(17), DAYS, RoundingConfig(4)),
    "noise-integer": (Continuous(17), DAYS, NoiseAdditionConfig(0.5)),
    "noise-real": (Continuous(4.6, 1), REAL, NoiseAdditionConfig(0.3)),
}


def scalar_values(original, domain, cfg, seed, trials, index):
    """The per-trial definition: one fresh substream per trial."""
    raises = Counter()
    values = []
    for trial in trials:
        stream = substream(seed, trial, index)
        values.append(regenerate(anonymize(original, domain, cfg, stream), stream, raises))
    return values, raises


def column_values(original, domain, cfg, seed, trials, index, record=None):
    """``regenerate_block`` over ``trials`` a block at a time, and how many
    rows took the scalar ``draw``."""
    plan = field_plan(original, domain, cfg) if record is None else draw_plan(record)
    raises = Counter()
    values = []
    calls = []
    scalar = techniques.draw

    def counted(*args):
        calls.append(args)
        return scalar(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(techniques, "draw", counted)
        for block in rng.blocks(trials):
            column = regenerate_block(plan, TrialBlock(seed, block, index), raises)
            values += [column.box(row) for row in range(len(block))]
    return values, raises, len(calls)


def assert_column_is_scalar(original, domain, cfg, seed, trials, index, record=None):
    got, got_raises, scalar_rows = column_values(
        original, domain, cfg, seed, trials, index, record)
    if record is not None:
        expected, raises = [], Counter()
        for trial in trials:
            stream = substream(seed, trial, index)
            expected.append(regenerate(record, stream, raises))
    else:
        expected, raises = scalar_values(original, domain, cfg, seed, trials, index)
    assert list(map(repr, got)) == list(map(repr, expected))
    assert got_raises == raises
    return scalar_rows


SEEDS = st.one_of(
    st.sampled_from([0, 7, -1, -(2**65), 2**64, 2**64 + 3, 2**70 - 1]),
    st.integers(min_value=-(2**70), max_value=2**70),
)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)), seed=SEEDS,
       start=st.integers(min_value=0, max_value=60), length=st.integers(min_value=1, max_value=70),
       index=st.integers(min_value=0, max_value=5))
def test_column_equals_scalar_regeneration(kind, seed, start, length, index):
    original, domain, cfg = KINDS[kind]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng, "BLOCK", 16)  # starts and stops fall inside blocks
        assert_column_is_scalar(original, domain, cfg, seed, range(start, start + length), index)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_column_covers_all_but_the_check_row(kind):
    original, domain, cfg = KINDS[kind]
    scalar_rows = assert_column_is_scalar(original, domain, cfg, 11, range(500, 1700), 1)
    blocks = 2  # 1,200 trials in blocks of 1,024
    # a constant's column is its value repeated: no check row
    assert scalar_rows == (0 if kind == "concrete" else blocks), kind


def test_tape_words_are_the_raw_outputs():
    for seed, trials, index in [(7, range(0, 300), 2), (-3, range(2**32 - 5, 2**32 - 1), 0),
                                (2**64 + 9, range(40, 60), 2**33 + 1)]:
        block = TrialBlock(seed, trials, index)
        tape = block.words(9)
        halves = block.halves(5)
        for row, trial in enumerate(trials):
            raw = substream(seed, trial, index).bit_generator.random_raw(9)
            assert tape[:, row].tolist() == raw.tolist()
            stream = substream(seed, trial, index)
            assert halves[:5, row].tolist() == stream.integers(0, 2**32, size=5).tolist()


def test_lemire_rejections_take_the_scalar_path():
    # integers(0, 2**31 + 2): a range of 2**31 + 1 rejects about half the words
    wide = NumericDomain(0, 2**31 + 1, integer=True)
    scalar_rows = assert_column_is_scalar(
        Continuous(5), wide, LocalSuppressionConfig(), 3, range(0, 1000), 0)
    assert 300 < scalar_rows < 700


@pytest.mark.parametrize("record", [
    IntervalGroup(DAYS, 4, 5, False),          # one integer: range 0, draws nothing
    CategoryGroup(CategoricalDomain(("a", "b", "c"), {"x": ("a",), "y": ("b", "c")}), "x"),
    Suppressed(NumericDomain(0, 2**32 - 1, integer=True)),  # range 2**32 - 1: the raw half
    Concrete(REAL, Continuous(2.5, 1)),
], ids=["interval-range-0", "category-range-0", "range-2**32-1", "concrete"])
def test_edge_ranges(record):
    scalar_rows = assert_column_is_scalar(None, None, None, 5, range(3, 1003), 4, record)
    assert scalar_rows == (0 if isinstance(record, Concrete) else 1)


def test_special_chars_collide_reject_and_raise():
    # five specials in 1..12 characters: Floyd collisions, masked rejections in
    # the permutation, and lengths raised to 5
    record = SpecialChars(StringDomain("[!-~]", 1, 12), "!!#$.")
    got, raises, scalar_rows = column_values(None, None, None, 9, range(0, 1000), 0, record)
    assert_column_is_scalar(None, None, None, 9, range(0, 1000), 0, record)
    assert 200 < raises[5] < 500
    assert scalar_rows < 10


def flagging(sampler):
    """A sampler that also reports every third 32-bit value as rejected."""
    def flagged(half, top):
        value, rejected = sampler(half, top)
        return value, rejected | (half % 3 == 0)
    return flagged


@pytest.mark.parametrize("record", [
    Suppressed(StringDomain("[a-z]", 0, 12), length_hint=6),  # character draws only
    SpecialChars(StringDomain("[x]", 1, 12), "...", length_hint=8),  # Floyd and shuffle only
], ids=["characters", "floyd"])
def test_rejected_draws_take_the_scalar_path(monkeypatch, record):
    # Small ranges almost never reject, so the sampler flags draws itself:
    # every flagged trial must leave the column.
    monkeypatch.setattr(techniques, "bounded", flagging(rng.bounded))
    scalar_rows = assert_column_is_scalar(None, None, None, 6, range(0, 600), 2, record)
    assert scalar_rows > 300


def test_narrow_interval_draws_uniform():
    # no point of the 0.01 grid inside [0.101, 0.104): _grid_plan's Span fallback
    record = IntervalGroup(NumericDomain(0, 1, precision=2), 0.101, 0.104, False)
    assert assert_column_is_scalar(None, None, None, 2, range(0, 500), 3, record) == 1
    assert assert_column_is_scalar(
        Continuous(4.005, 3), REAL, NoiseAdditionConfig(1e-6), 2, range(0, 500), 3) == 1


@settings(max_examples=500, deadline=None)
@given(ends=st.lists(st.floats(-1, 1), min_size=2, max_size=2),
       precision=st.integers(min_value=0, max_value=18), hi_inclusive=st.booleans())
def test_grid_edges_are_the_outermost_points_inside(ends, precision, hi_inclusive):
    # Grid.lo is the smallest i with i/scale >= lo and Grid.hi the largest with
    # i/scale <= hi (< hi for an open end); a Span has no such point between
    # them.  Near the bound, grids reach the int64 limit and neighbouring
    # grid points are no longer distinct floats.
    bound = 2.0**62 / 10**precision
    lo, hi = sorted(bound * end for end in ends)
    scale = 10**precision
    plan = _grid_plan(NumericDomain(-bound, bound, precision=precision), lo, hi, hi_inclusive)

    def below_hi(i):
        return i / scale <= hi if hi_inclusive else i / scale < hi

    if isinstance(plan, Span):
        first = _grid_ceil(lo, scale)
        assert (first - 1) / scale < lo <= first / scale and not below_hi(first)
    else:
        assert (plan.scale, plan.precision) == (scale, precision)
        assert (plan.lo - 1) / scale < lo <= plan.lo / scale
        assert below_hi(plan.hi) and not below_hi(plan.hi + 1)


def test_open_grid_end_excludes_a_point_equal_to_the_max():
    # 5123070953568419 / 10**13 rounds to the excluded max itself
    domain = NumericDomain(0, 512.307095356842, max_inclusive=False, precision=13)
    plan = _grid_plan(domain, domain.min, domain.max, domain.max_inclusive)
    assert plan.hi / plan.scale < domain.max


DATE = TupleDomain((DAYS, NumericDomain(1, 12, integer=True)))


DATED = (TupleValue((Continuous(17), Continuous(3))), DATE)
TAGGED = (TupleValue((Text("a.b!"), Text("x.y"))),
          TupleDomain((StringDomain("[!-~]", 1, 4), StringDomain("[a-z.]", 0, 6))))
TUPLE_FIELDS = [
    pytest.param(LocalSuppressionConfig(), *DATED, id="suppressed"),
    pytest.param(GlobalRecodingConfig(2), *DATED, id="recoded"),
    pytest.param(NoiseAdditionConfig(0.5), *DATED, id="noise"),
    pytest.param(RoundingConfig(4), *DATED, id="rounding"),
    pytest.param(SCD, *TAGGED, id="scd"),
]


@pytest.mark.parametrize("cfg, value, domain", TUPLE_FIELDS)
def test_tuple_fields_have_parts_plans(cfg, value, domain):
    # component j draws from its own plan on the j-th stream split off
    # substream's, and so does its column, on the block of those streams
    plan = field_plan(value, domain, cfg)
    assert plan == Parts(tuple(map(field_plan, value.components, domain.components,
                                   [cfg] * len(domain.components))))
    trials = range(100, 400)
    raises = Counter()
    columns = regenerate_block(plan, TrialBlock(7, trials, 2), raises)
    got = [TupleValue(tuple(c.box(row) for c in columns)) for row in range(len(trials))]
    expected, expected_raises = scalar_values(value, domain, cfg, 7, trials, 2)
    assert list(map(repr, got)) == list(map(repr, expected))
    assert raises == expected_raises


@pytest.mark.parametrize("cfg, value, domain", TUPLE_FIELDS)
def test_tuple_fields_are_not_enumerated(cfg, value, domain):
    with pytest.raises(EnumerationInfeasibleError):
        technique_distribution(cfg, value, domain)


SHORT = StringDomain("[!-~]", 0, 3)
# What ``regenerate`` gave each tuple record on substream(2024, trial, 3),
# trials 0 and 1, before tuple records drew from ``Parts`` plans.
PINNED_TUPLES = [
    pytest.param(
        TupleRecord((Suppressed(DAYS), Suppressed(REAL), Suppressed(AGES), Suppressed(WORDS),
                     Suppressed(WORDS, 5))),
        [(Continuous(16), Continuous(7.39, 2), Categorical("teen"), Text("uen"), Text("ycgle")),
         (Continuous(28), Continuous(9.74, 2), Categorical("teen"), Text("tcwxw"),
          Text("wszfd"))],
        {}, id="suppressed"),
    pytest.param(
        Suppressed(TupleDomain((DAYS, REAL, AGES, WORDS))),
        [(Continuous(16), Continuous(7.39, 2), Categorical("teen"), Text("uen")),
         (Continuous(28), Continuous(9.74, 2), Categorical("teen"), Text("tcwxw"))],
        {}, id="suppressed-tuple-domain"),
    pytest.param(
        TupleRecord((SpecialChars(PRINTABLE, "!.-"), SpecialChars(PRINTABLE, "!!", 4),
                     SpecialChars(SHORT, "!.-:"))),
        [(Text("N-!mRBf.B7(Cc"), Text("f!!`"), Text("!:.-")),
         (Text("tYJ=><HkFh!3~.o2-t`WwEJ"), Text("|C!!"), Text(".!:-"))],
        {4: 2}, id="special-chars"),
    pytest.param(
        TupleRecord((IntervalGroup(DAYS, 1, 11, False), IntervalGroup(REAL, 2.5, 5, False),
                     IntervalGroup(REAL, 5, 5.004, True), CategoryGroup(AGES, "old"))),
        [(Continuous(5), Continuous(4.34, 2), Continuous(5, 2), Categorical("adult")),
         (Continuous(9), Continuous(4.93, 2), Continuous(5, 2), Categorical("adult"))],
        {}, id="grouped"),
    pytest.param(
        TupleRecord((Concrete(DAYS, Continuous(17)), Concrete(AGES, Categorical("teen")),
                     Concrete(WORDS, Text("abc")))),
        [(Continuous(17), Categorical("teen"), Text("abc"))] * 2,
        {}, id="concrete"),
]


@pytest.mark.parametrize("record, values, raises", PINNED_TUPLES)
def test_tuple_regeneration_is_pinned(record, values, raises):
    got_raises = Counter()
    got = [regenerate(record, substream(2024, trial, 3), got_raises) for trial in (0, 1)]
    assert list(map(repr, got)) == [repr(TupleValue(v)) for v in values]
    assert got_raises == raises


def test_strings_longer_than_the_tape_take_the_scalar_path():
    long = StringDomain("[a-z]", 1, 3 * TAPE_WORDS)
    scalar_rows = assert_column_is_scalar(
        Text("x"), long, LocalSuppressionConfig(), 4, range(0, 400), 0)
    assert 100 < scalar_rows < 400
    kept = SpecialChars(long, "..", length_hint=3 * TAPE_WORDS)
    assert assert_column_is_scalar(None, None, None, 4, range(0, 50), 0, kept) == 50


def off_by_one(sampler):
    """A sampler whose every draw is one more, modulo its range: still a
    valid draw, but not numpy's."""
    def wrong(half, top):
        value, rejected = sampler(half, top)
        return (value + 1) % (np.asarray(top) + 1), rejected
    return wrong


@pytest.mark.parametrize("name, sampler", [
    ("bounded", off_by_one(rng.bounded)),
    ("uniform", lambda *args: rng.uniform(*args) + 1.0),
])
def test_wrong_sampler_trips_the_self_check(monkeypatch, name, sampler):
    entries = [corpus.load("birday"), corpus.load("money_wallet"), corpus.load("to_dont")]
    expected = [run_trials(e.oracle, e.original_assignment, cfg, trials=300, seed=13)
                for e in entries for cfg in e.configs]
    monkeypatch.setattr(techniques, name, sampler)
    got = [run_trials(e.oracle, e.original_assignment, cfg, trials=300, seed=13)
           for e in entries for cfg in e.configs]
    assert got == expected
    # an SCD kind's fallback must also count the length raises the scalar
    # path does; trial 8 raises its length, and is the block's check row
    kinds = [("noise-integer", 0)] if name == "uniform" else [
        ("suppressed-integer", 0), ("special-chars", 8)]
    for kind, start in kinds:
        original, domain, cfg = KINDS[kind]
        trials = range(start, start + 300)
        assert assert_column_is_scalar(original, domain, cfg, 1, trials, 0) == 300, kind


@pytest.mark.parametrize("workers", [1, 2])
def test_length_raises_are_logged_once_per_run(caplog, workers):
    entry = corpus.load("binary_eye")
    with caplog.at_level(logging.WARNING):
        run_trials(entry.oracle, entry.original_assignment, entry.configs[3],
                   trials=1000, seed=7, workers=workers)
    raised = [m for m in caplog.messages if "raising regenerated length" in m]
    assert raised == [
        "raising regenerated length of field 'content' to fit 9 special characters "
        "in 57/1000 trials"
    ]


def enumerable_fields():
    """Every corpus field under every corpus config that exact enumeration
    covers, with the reprs of its enumerated support."""
    for entry in corpus.load_all():
        for k, config in enumerate(entry.configs):
            per_field = resolve_configs(entry.oracle, config)
            for index, ((name, domain), cfg) in enumerate(zip(entry.oracle.fields, per_field)):
                original = entry.original_assignment[name]
                try:
                    outcomes = technique_distribution(cfg, original, domain).outcomes
                except EnumerationInfeasibleError:
                    continue
                yield pytest.param(original, domain, cfg, index, {repr(v) for v, _ in outcomes},
                                   id=f"{entry.oracle.name}#{k}:{name}")


@pytest.mark.parametrize("original, domain, cfg, index, support", enumerable_fields())
def test_draws_lie_in_the_enumerated_support(original, domain, cfg, index, support):
    # the scalar draw, the column and the enumeration read one draw plan
    trials = range(500)
    scalar, _ = scalar_values(original, domain, cfg, 7, trials, index)
    column = regenerate_block(
        field_plan(original, domain, cfg), TrialBlock(7, trials, index), Counter())
    boxed = [column.box(row) for row in range(len(trials))]
    assert {repr(v) for v in scalar + boxed} <= support
