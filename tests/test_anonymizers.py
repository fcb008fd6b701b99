"""The five techniques: worked examples, containment, and closure properties."""
from __future__ import annotations

import dataclasses
import json
import logging
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anonrepro import corpus
from anonrepro.errors import (
    ConfigError,
    DegenerateIntervalError,
    MissingHierarchyError,
    NonConformingValueError,
    TraceParseError,
    UnsupportedTechniqueError,
    ValidationError,
)
from anonrepro.model import (
    Categorical,
    CategoricalDomain,
    Continuous,
    NumericDomain,
    StringDomain,
    Text,
    TupleDomain,
    TupleValue,
    conforms,
)
from anonrepro.rng import substream
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
    anonymize,
    config_from_json,
    config_summary,
    config_to_json,
    draws,
    noise_interval,
    record_domain,
    record_from_json,
    record_to_json,
    regenerate,
    rounding_points,
    special_characters,
)

REAL = NumericDomain(0, 10)
DAYS = NumericDomain(1, 31, integer=True)
AGES = CategoricalDomain(
    ("infant", "toddler", "teen", "adult"),
    {"young": ("infant", "toddler"), "grown": ("teen", "adult")},
)
PRINTABLE = StringDomain("[!-~]", 1, 25)


def rng(*path):
    return substream(99, *path)


# ---------------------------------------------------------------------------
# global recoding


def test_global_recoding_worked_example():
    record = anonymize(Continuous(4.0), REAL, GlobalRecodingConfig(2))
    assert record == IntervalGroup(REAL, 0.0, 5.0, hi_inclusive=False)


def test_global_recoding_boundary_goes_right():
    assert anonymize(Continuous(5.0), REAL, GlobalRecodingConfig(2)) == IntervalGroup(
        REAL, 5.0, 10.0, hi_inclusive=True
    )
    assert anonymize(Continuous(2.5), REAL, GlobalRecodingConfig(4)) == IntervalGroup(
        REAL, 2.5, 5.0, hi_inclusive=False
    )


def test_global_recoding_last_interval_inherits_inclusivity():
    open_domain = NumericDomain(0, 10, max_inclusive=False)
    record = anonymize(Continuous(9.0), open_domain, GlobalRecodingConfig(2))
    assert record == IntervalGroup(open_domain, 5.0, 10.0, hi_inclusive=False)


def test_global_recoding_integer_domain():
    record = anonymize(Continuous(29), DAYS, GlobalRecodingConfig(2))
    assert record == IntervalGroup(DAYS, 16.0, 31.0, hi_inclusive=True)


def test_global_recoding_regeneration_stays_inside():
    record = anonymize(Continuous(4.0), REAL, GlobalRecodingConfig(2))
    stream = rng(0)
    for _ in range(500):
        value = regenerate(record, stream)
        assert 0.0 <= value.value < 5.0
        assert conforms(value, REAL)


def test_global_recoding_integer_regeneration_covers_interval():
    record = anonymize(Continuous(29), DAYS, GlobalRecodingConfig(2))
    stream = rng(1)
    seen = {int(regenerate(record, stream).value) for _ in range(2000)}
    assert seen == set(range(16, 32))


def test_global_recoding_categorical():
    record = anonymize(Categorical("toddler"), AGES, GlobalRecodingConfig())
    assert record == CategoryGroup(AGES, "young")
    stream = rng(2)
    seen = {regenerate(record, stream).label for _ in range(200)}
    assert seen == {"infant", "toddler"}


def test_global_recoding_requires_hierarchy():
    flat = CategoricalDomain(("a", "b"))
    with pytest.raises(MissingHierarchyError):
        anonymize(Categorical("a"), flat, GlobalRecodingConfig())


def test_global_recoding_numeric_requires_partitions():
    with pytest.raises(ConfigError):
        anonymize(Continuous(4.0), REAL, GlobalRecodingConfig())


def test_global_recoding_rejects_strings():
    with pytest.raises(UnsupportedTechniqueError):
        anonymize(Text("hi"), PRINTABLE, GlobalRecodingConfig(2))


def test_degenerate_integer_interval_raises_on_regenerate():
    record = IntervalGroup(DAYS, 1.2, 1.9, hi_inclusive=False)
    with pytest.raises(DegenerateIntervalError):
        regenerate(record, rng(3))


def test_global_recoding_rejects_nonconforming_value():
    with pytest.raises(NonConformingValueError):
        anonymize(Continuous(11.0), REAL, GlobalRecodingConfig(2))


# ---------------------------------------------------------------------------
# rounding


def test_rounding_points_worked_example():
    assert rounding_points(REAL, 2) == (2.5, 7.5)


def test_rounding_tie_prefers_lower_point():
    assert anonymize(Continuous(5.0), REAL, RoundingConfig(2)).value == Continuous(2.5)
    assert anonymize(Continuous(5.1), REAL, RoundingConfig(2)).value == Continuous(7.5)


def test_rounding_integer_points_round_half_up():
    # midpoints 8.5 and 23.5 land on integers 9 and 24
    assert rounding_points(DAYS, 2) == (9.0, 24.0)
    record = anonymize(Continuous(29), DAYS, RoundingConfig(2))
    assert record.value == Continuous(24)
    assert regenerate(record, rng(4)) == Continuous(24)


def test_rounding_requires_two_points():
    with pytest.raises(ConfigError):
        RoundingConfig(1)


def test_rounding_rejects_categorical():
    with pytest.raises(UnsupportedTechniqueError):
        anonymize(Categorical("toddler"), AGES, RoundingConfig(2))


@given(st.floats(0, 10), st.integers(2, 9))
def test_rounding_idempotent(value, partitions):
    cfg = RoundingConfig(partitions)
    once = anonymize(Continuous(value), REAL, cfg).value
    again = anonymize(once, REAL, cfg).value
    assert once == again
    assert conforms(once, REAL)


@given(st.integers(1, 31), st.integers(2, 9))
def test_rounding_integer_idempotent_and_conforming(value, partitions):
    cfg = RoundingConfig(partitions)
    once = anonymize(Continuous(value), DAYS, cfg).value
    assert conforms(once, DAYS)
    assert anonymize(once, DAYS, cfg).value == once


# ---------------------------------------------------------------------------
# local suppression


def test_local_suppression_drops_everything_but_length():
    assert anonymize(Continuous(4.0), REAL, LocalSuppressionConfig()) == Suppressed(
        REAL, None
    )
    preserve = LocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL)
    assert anonymize(Text("ab!c"), PRINTABLE, preserve) == Suppressed(PRINTABLE, 4)
    random_len = LocalSuppressionConfig(LengthPolicy.RANDOM_IN_RANGE)
    assert anonymize(Text("ab!c"), PRINTABLE, random_len) == Suppressed(PRINTABLE, None)


def test_local_suppression_same_length_records_identical():
    cfg = LocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL)
    assert anonymize(Text("abcd"), PRINTABLE, cfg) == anonymize(
        Text("wxyz"), PRINTABLE, cfg
    )
    assert anonymize(Continuous(1.25), REAL, LocalSuppressionConfig()) == anonymize(
        Continuous(9.75), REAL, LocalSuppressionConfig()
    )


def test_local_suppression_regenerates_within_domain():
    preserve = LocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL)
    record = anonymize(Text("ab!c"), PRINTABLE, preserve)
    stream = rng(5)
    for _ in range(200):
        value = regenerate(record, stream)
        assert len(value.value) == 4
        assert conforms(value, PRINTABLE)
    record = anonymize(Text("ab!c"), PRINTABLE, LocalSuppressionConfig())
    lengths = {len(regenerate(record, stream).value) for _ in range(500)}
    assert lengths == set(range(1, 26))


def test_local_suppression_categorical_uniformish():
    record = anonymize(Categorical("teen"), AGES, LocalSuppressionConfig())
    stream = rng(6)
    seen = Counter(regenerate(record, stream).label for _ in range(400))
    assert set(seen) == set(AGES.categories)


# ---------------------------------------------------------------------------
# SCD local suppression


def test_special_characters_excludes_alphanumerics_and_space():
    assert special_characters("ab! c#9") == "!#"
    assert special_characters("plain words here") == ""
    assert special_characters(":3.0:") == ".::"  # canonical: sorted, repeats kept


def test_scd_record_exposes_only_specials_and_length():
    spaced = StringDomain("[ -~]", 1, 25)
    cfg = SCDLocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL)
    record = anonymize(Text("ab!c d."), spaced, cfg)
    assert isinstance(record, SpecialChars)
    assert Counter(record.specials) == Counter("!.")
    assert record.length_hint == 7
    payload = json.dumps(record_to_json(record))
    assert "ab" not in payload and "c d" not in payload


def test_scd_regeneration_is_special_superset():
    cfg = SCDLocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL)
    record = anonymize(Text("a!b.c"), PRINTABLE, cfg)
    stream = rng(7)
    for _ in range(300):
        value = regenerate(record, stream)
        assert len(value.value) == 5
        assert conforms(value, PRINTABLE)
        assert Counter("!.") <= Counter(special_characters(value.value))


def test_scd_raises_length_to_fit_specials(caplog):
    record = SpecialChars(StringDomain("[!-~]", 1, 3), "!!!", length_hint=1)
    with caplog.at_level(logging.WARNING):
        value = regenerate(record, rng(8))
    assert value == Text("!!!")
    assert any("length" in message for message in caplog.messages)


def test_scd_rejects_non_text():
    with pytest.raises(UnsupportedTechniqueError):
        anonymize(Continuous(1.0), REAL, SCDLocalSuppressionConfig())
    with pytest.raises(UnsupportedTechniqueError):
        anonymize(Categorical("teen"), AGES, SCDLocalSuppressionConfig())


def test_scd_no_specials_behaves_like_suppression():
    cfg = SCDLocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL)
    record = anonymize(Text("abc"), PRINTABLE, cfg)
    assert record.specials == ""
    value = regenerate(record, rng(9))
    assert len(value.value) == 3 and conforms(value, PRINTABLE)


# ---------------------------------------------------------------------------
# noise addition


def test_noise_interval_worked_example():
    assert noise_interval(8.0, REAL, 0.30) == (5.6, 8.6)


def test_noise_samples_stay_in_interval():
    cfg = NoiseAdditionConfig(0.30)
    stream = rng(10)
    for _ in range(2000):
        record = anonymize(Continuous(8.0, 1), REAL, cfg, stream)
        assert isinstance(record, Concrete)
        assert 5.6 <= record.value.value <= 8.6
        assert conforms(record.value, REAL)
        # regeneration of a perturbed value is the identity
        assert regenerate(record, stream) == record.value


def test_noise_integer_support_rounds_half_up():
    cfg = NoiseAdditionConfig(0.30)
    stream = rng(11)
    seen = {
        int(anonymize(Continuous(29), DAYS, cfg, stream).value.value)
        for _ in range(4000)
    }
    # interval (20.6, 29.6) rounds into exactly 21..30
    assert seen == set(range(21, 31))


def test_noise_full_strength_spans_domain():
    cfg = NoiseAdditionConfig(1.0)
    stream = rng(12)
    values = [
        anonymize(Continuous(2.0), REAL, cfg, stream).value.value
        for _ in range(3000)
    ]
    assert min(values) < 0.2 and max(values) > 9.5
    assert all(0 <= v <= 10 for v in values)


def test_noise_requires_stream_and_valid_strength():
    with pytest.raises(ConfigError):
        anonymize(Continuous(8.0), REAL, NoiseAdditionConfig(0.3))
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            NoiseAdditionConfig(bad)


def test_noise_rejects_non_numeric():
    with pytest.raises(UnsupportedTechniqueError):
        anonymize(Text("hi"), PRINTABLE, NoiseAdditionConfig(0.3), rng(13))


# ---------------------------------------------------------------------------
# tuples


DATE_DOMAIN = TupleDomain((
    NumericDomain(1, 31, integer=True),
    NumericDomain(1, 12, integer=True),
    NumericDomain(1937, 2036, integer=True),
))
DATE = TupleValue((Continuous(29), Continuous(2), Continuous(1996)))


def test_tuple_anonymization_is_componentwise():
    record = anonymize(DATE, DATE_DOMAIN, GlobalRecodingConfig(2))
    assert isinstance(record, TupleRecord)
    assert [type(c) for c in record.components] == [IntervalGroup] * 3
    assert record.components[0].lo == 16.0
    value = regenerate(record, rng(14))
    assert conforms(value, DATE_DOMAIN)


def test_tuple_regeneration_is_deterministic_per_stream():
    record = anonymize(DATE, DATE_DOMAIN, LocalSuppressionConfig())
    first = regenerate(record, rng(15))
    second = regenerate(record, rng(15))
    assert first == second
    assert record_domain(record) == DATE_DOMAIN


def test_a_tuple_of_concrete_records_draws_nothing():
    record = anonymize(DATE, DATE_DOMAIN, NoiseAdditionConfig(0.5), rng(16))
    assert [type(c) for c in record.components] == [Concrete] * 3
    assert not draws(record)
    assert regenerate(record, None) == TupleValue(tuple(c.value for c in record.components))
    assert regenerate(record, None) == regenerate(record, rng(17))
    mixed = TupleRecord((Concrete(DAYS, Continuous(4)), Suppressed(DAYS)))
    assert draws(mixed) and draws(mixed.components[1])


def test_tuple_arity_mismatch_rejected():
    short = TupleValue((Continuous(29), Continuous(2)))
    with pytest.raises(NonConformingValueError):
        anonymize(short, DATE_DOMAIN, LocalSuppressionConfig())


# ---------------------------------------------------------------------------
# codecs


ALL_CONFIGS = (
    GlobalRecodingConfig(4, label="Hi"),
    GlobalRecodingConfig(),
    RoundingConfig(2, label="Lo"),
    LocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL, label="Hi"),
    SCDLocalSuppressionConfig(LengthPolicy.RANDOM_IN_RANGE, label="Lo"),
    NoiseAdditionConfig(0.4, label="Me"),
)


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: type(c).__name__)
def test_config_json_round_trip(cfg):
    assert config_from_json(config_to_json(cfg)) == cfg


#: Each corpus config's summary, without its label, as result tables print it.
SUMMARIES = {
    GlobalRecodingConfig(): "hierarchy",
    GlobalRecodingConfig(2): "partitions=2",
    GlobalRecodingConfig(3): "partitions=3",
    GlobalRecodingConfig(4): "partitions=4",
    GlobalRecodingConfig(50): "partitions=50",
    GlobalRecodingConfig(100): "partitions=100",
    GlobalRecodingConfig(500): "partitions=500",
    RoundingConfig(2): "partitions=2",
    RoundingConfig(3): "partitions=3",
    RoundingConfig(4): "partitions=4",
    RoundingConfig(50): "partitions=50",
    RoundingConfig(100): "partitions=100",
    RoundingConfig(500): "partitions=500",
    LocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL): "length=preserve_original",
    LocalSuppressionConfig(LengthPolicy.RANDOM_IN_RANGE): "length=random_in_range",
    SCDLocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL): "length=preserve_original",
    SCDLocalSuppressionConfig(LengthPolicy.RANDOM_IN_RANGE): "length=random_in_range",
    NoiseAdditionConfig(0.3): "noise=0.3",
    NoiseAdditionConfig(0.4): "noise=0.4",
    NoiseAdditionConfig(0.5): "noise=0.5",
    NoiseAdditionConfig(0.123456789): "noise=0.123457",  # six significant digits
}


def test_config_summary_of_every_corpus_config():
    configs = [cfg for entry in corpus.load_all() for cfg in entry.configs]
    assert len(configs) == 132
    for cfg in configs:
        assert config_summary(cfg) == SUMMARIES[dataclasses.replace(cfg, label=None)], cfg
    for cfg, summary in SUMMARIES.items():
        assert config_summary(dataclasses.replace(cfg, label="Hi")) == summary


def test_config_from_json_rejects_garbage():
    with pytest.raises(ConfigError):
        config_from_json({"technique": "quantum"})
    with pytest.raises(ConfigError):
        config_from_json({"technique": "rounding"})  # partitions missing
    with pytest.raises(ConfigError):
        config_from_json({"technique": "noise_addition", "noise": 2.0})
    with pytest.raises(ConfigError):
        config_from_json("rounding")
    with pytest.raises(ConfigError, match="unknown key"):
        # "length" is a typo for "length_policy"; must not be silently ignored
        config_from_json(
            {"technique": "scd_local_suppression", "length": "preserve_original"}
        )
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_json({"technique": "rounding", "partitions": 2, "noise": 0.3})


ALL_RECORDS = (
    Suppressed(PRINTABLE, 4),
    SpecialChars(PRINTABLE, "!.", 7),
    IntervalGroup(REAL, 0.0, 5.0, hi_inclusive=False),
    CategoryGroup(AGES, "young"),
    Concrete(REAL, Continuous(7.5, 1)),
    TupleRecord((Suppressed(DAYS, None), Concrete(DAYS, Continuous(4)))),
)


@pytest.mark.parametrize("record", ALL_RECORDS, ids=lambda r: type(r).__name__)
def test_record_json_round_trip(record):
    assert record_from_json(record_to_json(record)) == record


def test_record_from_json_rejects_garbage():
    with pytest.raises(TraceParseError):
        record_from_json({"record": "mystery"})
    with pytest.raises(TraceParseError):
        record_from_json({"value": 4})



@pytest.mark.parametrize("specials, message", [
    ("/", "alphabet"),      # "/" is special but not in [0-9:]
    ("::::", "length_max"),  # four specials cannot fit three characters
])
def test_record_from_json_rejects_impossible_special_chars(specials, message):
    raw = {"record": "special_chars",
           "domain": {"kind": "string", "char_class": "[0-9:]",
                      "length_min": 1, "length_max": 3},
           "specials": specials}
    with pytest.raises(TraceParseError, match=message):
        record_from_json(raw)

def test_record_validation():
    with pytest.raises(ValidationError):
        IntervalGroup(REAL, 5.0, 5.0, hi_inclusive=False)
    with pytest.raises(ValidationError):
        IntervalGroup(REAL, -1.0, 5.0, hi_inclusive=False)
    with pytest.raises(ValidationError):
        CategoryGroup(AGES, "elderly")
    with pytest.raises(ValidationError):
        SpecialChars(PRINTABLE, "ab", None)  # not special characters
    with pytest.raises(ValidationError):
        Suppressed(PRINTABLE, 99)  # hint outside length bounds
    with pytest.raises(ValidationError):
        Concrete(REAL, Continuous(11.0))


# ---------------------------------------------------------------------------
# cross-technique properties


@st.composite
def _numeric_domains(draw):
    integer = draw(st.booleans())
    if integer:
        lo = draw(st.integers(-100, 99))
        hi = draw(st.integers(lo + 1, lo + 200))
        return NumericDomain(lo, hi, integer=True)
    lo = draw(st.floats(-100, 99, allow_nan=False))
    hi = draw(st.floats(lo + 0.5, lo + 200, allow_nan=False))
    return NumericDomain(lo, hi, max_inclusive=draw(st.booleans()))


@st.composite
def _numeric_cases(draw):
    domain = draw(_numeric_domains())
    if domain.integer:
        value = Continuous(draw(st.integers(int(domain.min), int(domain.max))))
    else:
        raw = draw(st.floats(domain.min, domain.max, allow_nan=False))
        if not domain.max_inclusive and raw == domain.max:
            raw = domain.min
        value = Continuous(raw, domain.effective_precision)
    cfg = draw(
        st.one_of(
            st.integers(2, 7).map(GlobalRecodingConfig),
            st.integers(2, 7).map(RoundingConfig),
            st.just(LocalSuppressionConfig()),
            st.floats(0.05, 1.0).map(NoiseAdditionConfig),
        )
    )
    return domain, value, cfg


@given(_numeric_cases(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_numeric_regeneration_always_conforms(case, seed):
    domain, value, cfg = case
    stream = substream(seed, 0)
    record = anonymize(value, domain, cfg, stream)
    for _ in range(3):
        assert conforms(regenerate(record, stream), domain)


@given(
    st.text(st.sampled_from("ab!. :/@'x0"), min_size=1, max_size=12),
    st.sampled_from(list(LengthPolicy)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_string_regeneration_always_conforms(text, policy, seed):
    domain = StringDomain("[ -~]", 1, 12)
    stream = substream(seed, 1)
    for cfg in (SCDLocalSuppressionConfig(policy), LocalSuppressionConfig(policy)):
        record = anonymize(Text(text), domain, cfg, stream)
        value = regenerate(record, stream)
        assert conforms(value, domain)
        if isinstance(record, SpecialChars):
            assert Counter(record.specials) <= Counter(
                special_characters(value.value)
            )


@given(_numeric_cases())
@settings(max_examples=100, deadline=None)
def test_interval_disclosure_contains_original(case):
    domain, value, cfg = case
    if not isinstance(cfg, GlobalRecodingConfig):
        cfg = GlobalRecodingConfig(3)
    record = anonymize(value, domain, cfg)
    assert record.lo <= value.value
    assert value.value <= record.hi if record.hi_inclusive else value.value < record.hi
