"""Predicate semantics, exact enumeration, and the built-in corpus."""
from __future__ import annotations

import functools
import itertools
import json
import math
from collections import defaultdict
from fractions import Fraction

import pytest
import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from anonrepro import corpus, oracles
from anonrepro.errors import (
    DegenerateIntervalError,
    EnumerationInfeasibleError,
    EvaluationError,
    OracleError,
    ValidationError,
)
from anonrepro.model import (
    Categorical,
    CategoricalDomain,
    Continuous,
    NumericDomain,
    StringDomain,
    Text,
)
from anonrepro.oracles import (
    And,
    BugOracle,
    CharAt,
    Contains,
    DecimalSeparatorIs,
    EndsWith,
    Equals,
    FiniteDistribution,
    InRange,
    IsLeapDay,
    LengthGt,
    MatchesClass,
    Not,
    Or,
    compile_expr,
    evaluate,
    evaluate_expr,
    exhaustive_probability,
    oracle_from_json,
    oracle_to_json,
    technique_distribution,
)
from anonrepro.techniques import (
    Chars,
    GlobalRecodingConfig,
    LengthPolicy,
    LocalSuppressionConfig,
    NoiseAdditionConfig,
    RoundingConfig,
    SCDLocalSuppressionConfig,
    Numbers,
    Strings,
    integer_bounds,
    pack,
)

DAY = NumericDomain(1, 31, integer=True)
MONTH = NumericDomain(1, 12, integer=True)
YEAR = NumericDomain(1937, 2036, integer=True)


def date_oracle():
    return BugOracle(
        name="leap",
        fields=(("day", DAY), ("month", MONTH), ("year", YEAR)),
        predicate=IsLeapDay("day", "month", "year"),
    )


def dates(day, month, year):
    return {
        "day": Continuous(day),
        "month": Continuous(month),
        "year": Continuous(year),
    }


# ---------------------------------------------------------------------------
# frozen reference: leap-day probability by independent enumeration


def test_leap_day_enumeration_matches_frozen_constant():
    # Independent oracle: count Gregorian 29-Februaries in the cube by hand.
    def is_leap(year):
        return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)

    hits = sum(
        1
        for d in range(1, 32)
        for m in range(1, 13)
        for y in range(1937, 2037)
        if d == 29 and m == 2 and is_leap(y)
    )
    total = 31 * 12 * 100
    assert hits == 25  # 1940..2036 step 4, including 2000
    assert total == 37200
    assert Fraction(hits, total) == Fraction(25, 37200)


def test_leap_day_exhaustive_probability_equals_enumeration():
    oracle = date_oracle()
    cfg = LocalSuppressionConfig()
    distributions = {
        name: technique_distribution(cfg, Continuous(2), domain)
        for name, domain in oracle.fields
    }
    exact = exhaustive_probability(oracle, distributions)
    assert math.isclose(exact, 25 / 37200, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# predicate semantics


def one_field(domain, predicate, name="x"):
    return BugOracle("t", ((name, domain),), predicate)


def test_equals_and_in_range():
    numeric = NumericDomain(0, 100)
    assert evaluate(one_field(numeric, Equals("x", 4.6)), {"x": Continuous(4.6, 2)})
    assert not evaluate(one_field(numeric, Equals("x", 4.6)), {"x": Continuous(4.61)})
    rng_oracle = one_field(numeric, InRange("x", 0.01, 5.0))
    assert evaluate(rng_oracle, {"x": Continuous(0.01)})
    assert evaluate(rng_oracle, {"x": Continuous(5.0)})
    assert not evaluate(rng_oracle, {"x": Continuous(5.001)})
    assert not evaluate(rng_oracle, {"x": Continuous(0.0)})


def test_string_predicates():
    domain = StringDomain("[ -~]", 1, 30)
    assert evaluate(one_field(domain, Contains("x", " @")), {"x": Text("a @home")})
    assert not evaluate(one_field(domain, Contains("x", " @")), {"x": Text("a@home")})
    assert evaluate(one_field(domain, EndsWith("x", "|")), {"x": Text("opt|")})
    assert not evaluate(one_field(domain, EndsWith("x", "|")), {"x": Text("|opt")})
    assert evaluate(one_field(domain, MatchesClass("x", "[0-9]")), {"x": Text("123")})
    assert not evaluate(one_field(domain, MatchesClass("x", "[0-9]")), {"x": Text("12a")})
    assert evaluate(one_field(domain, LengthGt("x", 3)), {"x": Text("abcd")})
    assert not evaluate(one_field(domain, LengthGt("x", 3)), {"x": Text("abc")})


def test_char_at_including_negative_and_out_of_range():
    domain = StringDomain("[ -~]", 1, 30)
    assert evaluate(one_field(domain, CharAt("x", 2, "e")), {"x": Text("Atelier")})
    assert evaluate(one_field(domain, CharAt("x", -1, ":")), {"x": Text("15:")})
    assert not evaluate(one_field(domain, CharAt("x", 5, "z")), {"x": Text("abc")})
    assert not evaluate(one_field(domain, CharAt("x", -5, "a")), {"x": Text("abc")})


def test_is_leap_day_respects_century_rule():
    oracle = BugOracle(
        "leap",
        (("day", DAY), ("month", MONTH), ("year", NumericDomain(1880, 2100, integer=True))),
        IsLeapDay("day", "month", "year"),
    )
    assert evaluate(oracle, dates(29, 2, 2000))
    assert not evaluate(oracle, dates(29, 2, 1900))
    assert evaluate(oracle, dates(29, 2, 1996))
    assert not evaluate(oracle, dates(28, 2, 1996))
    assert not evaluate(oracle, dates(29, 3, 1996))


def test_decimal_separator_on_strings():
    domain = StringDomain("[!-~]", 1, 10)
    oracle = one_field(domain, DecimalSeparatorIs("x", "."))
    assert evaluate(oracle, {"x": Text("2.7")})
    assert evaluate(oracle, {"x": Text(".5")})  # one separator, digits elsewhere
    assert not evaluate(oracle, {"x": Text("27")})
    assert not evaluate(oracle, {"x": Text("2.7.3")})
    assert not evaluate(oracle, {"x": Text("2,7")})
    comma = one_field(domain, DecimalSeparatorIs("x", ","))
    assert evaluate(comma, {"x": Text("2,7")})


def test_decimal_separator_on_numbers():
    domain = NumericDomain(0, 100, max_inclusive=False)
    oracle = one_field(domain, DecimalSeparatorIs("x", "."))
    assert evaluate(oracle, {"x": Continuous(3.6, 1)})
    assert not evaluate(oracle, {"x": Continuous(4.0, 0)})
    comma = one_field(domain, DecimalSeparatorIs("x", ","))
    assert not evaluate(comma, {"x": Continuous(3.6, 1)})


def test_boolean_connectives():
    domain = StringDomain("[!-~]", 1, 10)
    pred = Or((
        EndsWith("x", "/"),
        And((Contains("x", "/"), Not(CharAt("x", 0, "/")))),
    ))
    oracle = one_field(domain, pred)
    assert evaluate(oracle, {"x": Text("group/name")})
    assert evaluate(oracle, {"x": Text("group/")})
    assert evaluate(oracle, {"x": Text("/group/")})
    assert not evaluate(oracle, {"x": Text("/group")})
    assert not evaluate(oracle, {"x": Text("group")})


def test_evaluate_requires_present_conforming_fields():
    oracle = date_oracle()
    with pytest.raises(EvaluationError, match="month"):
        evaluate(oracle, {"day": Continuous(29), "year": Continuous(1996)})
    bad = dates(29, 2, 1996)
    bad["day"] = Continuous(32)
    with pytest.raises(EvaluationError, match="day"):
        evaluate(oracle, bad)


# ---------------------------------------------------------------------------
# static type checking at oracle construction


def test_oracle_static_checks():
    numeric = NumericDomain(0, 10)
    strings = StringDomain("[a-z]", 1, 5)
    with pytest.raises(OracleError):
        one_field(numeric, Contains("x", "a"))
    with pytest.raises(OracleError):
        one_field(strings, InRange("x", 0, 1))
    with pytest.raises(OracleError):
        one_field(strings, Contains("y", "a"))  # unknown field
    with pytest.raises(OracleError):
        one_field(strings, CharAt("x", 0, "ab"))  # needs a single char
    with pytest.raises(OracleError):
        one_field(strings, EndsWith("x", ""))
    with pytest.raises(OracleError):
        one_field(strings, Or(()))
    with pytest.raises(OracleError):
        BugOracle(
            "bad",
            (("day", NumericDomain(1, 31)), ("month", MONTH), ("year", YEAR)),
            IsLeapDay("day", "month", "year"),  # day domain is not integer
        )
    with pytest.raises(OracleError):
        BugOracle("dup", (("x", numeric), ("x", numeric)), Equals("x", 1.0))


def test_equals_type_must_match_domain():
    with pytest.raises(OracleError):
        one_field(NumericDomain(0, 10), Equals("x", "5"))
    with pytest.raises(OracleError):
        one_field(StringDomain("[a-z]", 1, 5), Equals("x", 5.0))
    cats = CategoricalDomain(("a", "b"))
    assert evaluate(one_field(cats, Equals("x", "a")), {"x": Categorical("a")})


# ---------------------------------------------------------------------------
# exact distributions


def test_local_suppression_distribution_is_uniform_over_integers():
    dist = technique_distribution(LocalSuppressionConfig(), Continuous(29), DAY)
    assert len(dist.outcomes) == 31
    assert all(math.isclose(p, 1 / 31) for _, p in dist.outcomes)


AGES = CategoricalDomain(("child", "teen", "adult", "senior"),
                         {"young": ("child", "teen"), "old": ("adult", "senior")})


def test_categorical_distributions_are_uniform_over_their_labels():
    recoded = technique_distribution(GlobalRecodingConfig(), Categorical("adult"), AGES)
    assert recoded.outcomes == ((Categorical("adult"), Fraction(1, 2)),
                                (Categorical("senior"), Fraction(1, 2)))
    suppressed = technique_distribution(LocalSuppressionConfig(), Categorical("adult"), AGES)
    assert suppressed.outcomes == tuple((Categorical(label), Fraction(1, 4))
                                        for label in AGES.categories)


@pytest.mark.parametrize("predicate", [
    And((Equals("age", "teen"), InRange("day", 5, 20))),
    # both branches read both fields: one joint walk, not a product of factors
    Or((And((Equals("age", "teen"), InRange("day", 5, 20))),
        And((Not(Equals("age", "child")), InRange("day", 12, 40))))),
], ids=["and", "coupled-or"])
@pytest.mark.parametrize("age_cfg, day_cfg", [
    (GlobalRecodingConfig(), NoiseAdditionConfig(0.5)),
    (LocalSuppressionConfig(), GlobalRecodingConfig(3)),
], ids=["recoding-noise", "suppression-recoding"])
def test_categorical_and_integer_fields_equal_the_joint_sum(predicate, age_cfg, day_cfg):
    oracle = BugOracle("mixed", (("age", AGES), ("day", DAY)), predicate)
    distributions = {"age": technique_distribution(age_cfg, Categorical("teen"), AGES),
                     "day": technique_distribution(day_cfg, Continuous(17), DAY)}
    brute = Fraction(0)
    for (age, p), (day, q) in itertools.product(distributions["age"].outcomes,
                                                distributions["day"].outcomes):
        if evaluate(oracle, {"age": age, "day": day}):
            brute += Fraction(p) * Fraction(q)
    assert 0 < brute < 1
    assert exhaustive_probability(oracle, distributions) == float(brute)


def test_real_domains_are_not_enumerable():
    with pytest.raises(EnumerationInfeasibleError):
        technique_distribution(
            LocalSuppressionConfig(), Continuous(4.6), NumericDomain(0, 100)
        )
    with pytest.raises(EnumerationInfeasibleError):
        technique_distribution(
            NoiseAdditionConfig(0.3), Continuous(4.6), NumericDomain(0, 100)
        )


def test_rounding_distribution_is_point_mass_even_on_reals():
    dist = technique_distribution(
        RoundingConfig(2), Continuous(4.6), NumericDomain(0, 10)
    )
    assert dist.outcomes == ((Continuous(2.5), 1.0),)


def test_global_recoding_distribution_over_subinterval():
    dist = technique_distribution(GlobalRecodingConfig(2), Continuous(29), DAY)
    values = sorted(v.value for v, _ in dist.outcomes)
    assert values == [float(v) for v in range(16, 32)]
    assert all(math.isclose(p, 1 / 16) for _, p in dist.outcomes)


def test_noise_integer_distribution_matches_overlap_masses():
    dist = technique_distribution(NoiseAdditionConfig(0.3), Continuous(29), DAY)
    masses = {int(v.value): p for v, p in dist.outcomes}
    # interval (20.6, 29.6), width 9: preimage of k is [k-0.5, k+0.5)
    assert set(masses) == set(range(21, 31))
    assert math.isclose(masses[21], 0.9 / 9)
    assert math.isclose(masses[25], 1.0 / 9)
    assert math.isclose(masses[30], 0.1 / 9)
    assert math.isclose(math.fsum(masses.values()), 1.0)


def test_string_distribution_caps():
    short = StringDomain("[0-9:]", 1, 5)
    preserve = LocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL)
    dist = technique_distribution(preserve, Text(":30"), short)
    assert len(dist.outcomes) == 11**3
    with pytest.raises(EnumerationInfeasibleError):
        # random length can reach 5 > the length-4 enumeration cap
        technique_distribution(LocalSuppressionConfig(), Text(":30"), short)
    wide = StringDomain("[!-~]", 1, 3)
    with pytest.raises(EnumerationInfeasibleError):
        technique_distribution(preserve, Text("ab"), wide)  # alphabet 94 > 16


def test_scd_is_never_enumerable():
    with pytest.raises(EnumerationInfeasibleError):
        technique_distribution(
            SCDLocalSuppressionConfig(), Text(":3"), StringDomain("[0-9:]", 1, 4)
        )


def test_finite_distribution_must_sum_to_one():
    with pytest.raises(ValidationError):
        FiniteDistribution(((Continuous(1), 0.5), (Continuous(2), 0.4)))
    with pytest.raises(ValidationError):
        FiniteDistribution(())


def test_exhaustive_probability_closed_forms():
    # P(at least one comma) over 4-char strings of [0-9.,]
    weight = StringDomain("[0-9.,]", 1, 25)
    oracle = one_field(weight, Contains("x", ","))
    preserve = LocalSuppressionConfig(LengthPolicy.PRESERVE_ORIGINAL)
    dist = technique_distribution(preserve, Text("543,"), weight)
    exact = exhaustive_probability(oracle, {"x": dist})
    assert math.isclose(exact, 1 - (11 / 12) ** 4, rel_tol=1e-12)

    # P(first or last char is ':') over 3-char strings of [0-9:]
    duration = StringDomain("[0-9:]", 1, 5)
    colon = one_field(duration, Or((CharAt("x", 0, ":"), EndsWith("x", ":"))))
    dist = technique_distribution(preserve, Text(":30"), duration)
    assert math.isclose(
        exhaustive_probability(colon, {"x": dist}), 21 / 121, rel_tol=1e-12
    )


def test_exhaustive_probability_requires_all_fields_and_respects_cap():
    oracle = date_oracle()
    with pytest.raises(EvaluationError):
        exhaustive_probability(oracle, {})
    big = FiniteDistribution(
        tuple((Continuous(v), 1 / 500) for v in range(1937, 2437))
    )
    day_big = FiniteDistribution(tuple((Continuous(v), 1 / 500) for v in range(500)))
    with pytest.raises(EnumerationInfeasibleError):
        exhaustive_probability(
            oracle, {"day": day_big, "month": day_big, "year": big}
        )


def enumerable_corpus_probabilities():
    """Exact probability of every bundled entry x config that enumerates."""
    exact = {}
    for entry in corpus.load_all():
        for index, cfg in enumerate(entry.configs):
            try:
                distributions = {
                    name: technique_distribution(cfg, entry.original_assignment[name], domain)
                    for name, domain in entry.oracle.fields
                }
                probability = exhaustive_probability(entry.oracle, distributions)
            except EnumerationInfeasibleError:
                continue
            for name, dist in distributions.items():  # exact weights, exact total
                assert sum(p for _, p in dist.outcomes) == 1, (entry.name, index, name)
            exact[f"{entry.name}#{index}"] = (probability, cfg)
    return exact


def test_corpus_enumeration_is_exact():
    exact = enumerable_corpus_probabilities()
    assert len(exact) >= 55
    for key, (probability, cfg) in exact.items():
        assert 0.0 <= probability <= 1.0, key
        if isinstance(cfg, RoundingConfig):
            assert probability in (0.0, 1.0), key
    assert exact["birday#0"][0] == float(Fraction(25, 37200))
    assert exact["did_i_take_my_meds#0"][0] == 0.5
    for key in ("did_i_take_my_meds#1", "did_i_take_my_meds#3",
                "catima_loyalty_2#2", "simple_calendar#2"):
        assert exact[key][0] == 1.0, key


SMALL = NumericDomain(0, 4, integer=True)


@st.composite
def _small_int_distributions(draw, names):
    distributions = {}
    for name in names:
        values = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(values),
                                max_size=len(values)))
        distributions[name] = FiniteDistribution(tuple(
            (Continuous(v), Fraction(w, sum(weights))) for v, w in zip(values, weights)
        ))
    return distributions


def _predicates(names):
    field = st.sampled_from(names)
    leaves = st.one_of(
        st.builds(lambda f, a, b: InRange(f, min(a, b), max(a, b)),
                  field, st.integers(0, 4), st.integers(0, 4)),
        st.builds(Equals, field, st.integers(0, 4)),
    )
    return st.recursive(leaves, lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, st.lists(children, min_size=1, max_size=3).map(tuple)),
        st.builds(Or, st.lists(children, min_size=1, max_size=3).map(tuple)),
    ), max_leaves=8)


@st.composite
def _oracle_cases(draw):
    names = [f"f{i}" for i in range(draw(st.integers(2, 4)))]
    oracle = BugOracle("random", tuple((n, SMALL) for n in names),
                       draw(_predicates(names)))
    return oracle, draw(_small_int_distributions(names))


@given(_oracle_cases())
@settings(max_examples=150, deadline=None)
def test_factorized_enumeration_equals_joint_sum(case):
    oracle, distributions = case
    names = oracle.field_names
    brute = Fraction(0)
    for combo in itertools.product(*(distributions[n].outcomes for n in names)):
        if evaluate(oracle, {n: value for n, (value, _) in zip(names, combo)}):
            brute += math.prod(weight for _, weight in combo)
    assert exhaustive_probability(oracle, distributions) == float(brute)


# ---------------------------------------------------------------------------
# counted string probabilities


STRING_CHARS = "0123456789.,:abXY"


def _string_case(alphabet, lo, hi):
    """The oracle domain and distribution of a suppressed string over
    ``alphabet`` with a uniform length in [lo, hi]."""
    domain = StringDomain(f"[{alphabet}]", lo, hi)
    dist = technique_distribution(LocalSuppressionConfig(), Text(alphabet[0] * lo), domain)
    return domain, dist


def _counted_equals_listed(predicate, alphabet, lo, hi):
    domain, dist = _string_case(alphabet, lo, hi)
    oracle = one_field(domain, predicate)  # checks that the predicate is well typed
    counted = oracles._string_mass(predicate, dist._compact)
    listed = sum(p for value, p in dist.outcomes if evaluate_expr(predicate, {"x": value}))
    assert counted == listed, (predicate, alphabet, lo, hi)
    assert exhaustive_probability(oracle, {"x": dist}) == float(listed)
    return counted


def _string_predicates(alphabet):
    """Predicates over "x" whose characters mostly come from ``alphabet``."""
    char = st.sampled_from(alphabet * 3 + STRING_CHARS)
    text = st.lists(char, max_size=3).map("".join)
    leaves = st.one_of(
        st.builds(Contains, st.just("x"), text),
        st.builds(EndsWith, st.just("x"), st.lists(char, min_size=1, max_size=3).map("".join)),
        st.builds(CharAt, st.just("x"), st.integers(-5, 5), char),
        st.builds(LengthGt, st.just("x"), st.integers(-1, 5)),
        st.builds(MatchesClass, st.just("x"),
                  st.lists(char, min_size=1, max_size=4).map(lambda c: f"[{''.join(c)}]")),
        st.builds(Equals, st.just("x"), st.lists(char, max_size=4).map("".join)),
        st.builds(DecimalSeparatorIs, st.just("x"), char),
    )
    return st.recursive(leaves, lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, st.lists(children, min_size=1, max_size=3).map(tuple)),
        st.builds(Or, st.lists(children, min_size=1, max_size=3).map(tuple)),
    ), max_leaves=4)


@st.composite
def _string_mass_cases(draw):
    alphabet = "".join(sorted(draw(st.sets(st.sampled_from(STRING_CHARS), min_size=1, max_size=6))))
    lo, hi = sorted(draw(st.lists(st.integers(0, 4), min_size=2, max_size=2)))
    return draw(_string_predicates(alphabet)), alphabet, lo, hi


@given(_string_mass_cases())
@settings(max_examples=300, deadline=None)
def test_counted_string_mass_equals_listed_support(case):
    _counted_equals_listed(*case)


@pytest.mark.parametrize("predicate, alphabet, lo, hi, expected", [
    (Contains("x", ""), "ab", 0, 2, Fraction(1)),
    (Contains("x", "aab"), "ab", 4, 4, Fraction(4, 16)),  # "aaab" needs the border "a"
    (Not(Contains("x", "aab")), "ab", 0, 4, None),
    (CharAt("x", -1, "a"), "ab", 0, 3, Fraction(1, 2) * Fraction(3, 4)),  # "" fails
    (And((CharAt("x", -1, "a"), CharAt("x", 0, "b"))), "ab", 0, 3, Fraction(1, 8)),
    (CharAt("x", -5, "a"), "ab", 0, 4, Fraction(0)),
    (CharAt("x", -3, "a"), "ab", 2, 3, Fraction(1, 4)),  # only length 3 reaches it
    (CharAt("x", 4, "a"), "ab", 0, 4, Fraction(0)),  # past the end of every length
    (DecimalSeparatorIs("x", "5"), "015", 0, 4, None),   # a separator that is a digit
    (DecimalSeparatorIs("x", "."), ".0", 0, 2, Fraction(2, 4) / 3),  # ".0", "0."
    (And((EndsWith("x", "aa"), Not(Equals("x", "aaa")))), "ab", 0, 3, None),
    (Or((MatchesClass("x", "[a]"), LengthGt("x", 1))), "ab", 0, 2, Fraction(5, 6)),
    (EndsWith("x", "aaaaa"), "ab", 0, 4, Fraction(0)),  # longer than every string
    (EndsWith("x", "ab"), "ab", 2, 2, Fraction(1, 4)),  # the whole string
    (EndsWith("x", "ab"), "ab", 0, 2, Fraction(1, 12)),
    (EndsWith("x", "aa"), "ab", 3, 3, Fraction(2, 8)),  # "aaa" and "baa", not "aba"
    (EndsWith("x", "\x00"), "\x00a", 0, 2, Fraction(1, 3)),
    (EndsWith("x", "a"), "ab", 0, 0, Fraction(0)),  # only the empty string
], ids=["contains-empty", "contains-border", "not-contains", "char-at-last", "char-at-last-and-first", "char-at-minus-5",
        "char-at-minus-3", "char-at-past-end", "digit-separator", "dot-separator",
        "ends-with-and-not-equals", "matches-or-longer", "ends-with-longer",
        "ends-with-whole-string", "ends-with-whole-or-shorter", "ends-with-repeated-char",
        "ends-with-nul", "ends-with-empty-strings"])
def test_counted_string_mass_fixed_cases(predicate, alphabet, lo, hi, expected):
    counted = _counted_equals_listed(predicate, alphabet, lo, hi)
    if expected is not None:
        assert counted == expected


def test_string_distribution_lists_its_outcomes_only_when_read():
    domain, dist = _string_case("0:", 1, 2)
    assert dist._outcomes is None and dist._size() == 2 + 4
    listed = FiniteDistribution(oracles._string_support(dist._compact))
    assert dist == listed and hash(dist) == hash(listed) and repr(dist) == repr(listed)
    assert dist.outcomes == listed.outcomes
    assert [v.value for v, _ in dist.outcomes] == ["0", ":", "00", "0:", ":0", "::"]
    assert dist != FiniteDistribution(((Text("0"), 1.0),))
    with pytest.raises(AttributeError):
        dist.outcomes = ()


CORPUS_STRING_MASSES = {
    "food_scale_droid#0": 1 - Fraction(11, 12) ** 4,
    "contact_diary#0": Fraction(21, 121),
    "grow_tracker_text#0": 1 - Fraction(11, 12) ** 3,
}


def test_exhaustive_probability_counts_strings_and_never_lists_them(monkeypatch):
    def listing(plan):
        raise AssertionError(f"listed the strings of {plan}")

    monkeypatch.setattr(oracles, "_string_support", listing)
    entries = {entry.name: entry for entry in corpus.load_all()}
    for key, expected in CORPUS_STRING_MASSES.items():
        name, index = key.split("#")
        entry = entries[name]
        cfg = entry.configs[int(index)]
        distributions = {
            field: technique_distribution(cfg, entry.original_assignment[field], domain)
            for field, domain in entry.oracle.fields
        }
        assert exhaustive_probability(entry.oracle, distributions) == float(expected), key
    test_exhaustive_probability_requires_all_fields_and_respects_cap()


LETTERS = "abcdefghijklmnopqrstuvwxyz_"


def test_a_long_suffix_is_one_leaf_and_counts_in_closed_form():
    # the suffix's 12 char_at leaves share one state instead of 2**12
    suffix = EndsWith("x", LETTERS[:12])
    leaves = []
    accepts = oracles._product(And((suffix, MatchesClass("x", "[a-z_]"))), 16, leaves)
    assert len(leaves) == 1 and accepts((True,)) and not accepts((False,))
    # lengths 0-16 are equally likely; the 5 from 12 on end with it at 27**-12
    assert oracles._string_mass(suffix, Chars(LETTERS, 0, 16, "")) == Fraction(5, 17 * 27**12)


# ---------------------------------------------------------------------------
# integer supports as runs, walked by cells


def noise_reference(value, low, high, max_inclusive, noise):
    """Integer noise listed integer by integer: every integer j of the
    exact noise interval adds its overlap with [j - 1/2, j + 1/2), the
    values that round half-up to j, to the bucket j clamps to."""
    noise_q, value_q = Fraction(repr(noise)), Fraction(value)
    lo = value_q - noise_q * (value_q - Fraction(low))
    hi = value_q + noise_q * (Fraction(high) - value_q)
    lo_d, hi_d = integer_bounds(low, high, max_inclusive)
    masses = defaultdict(Fraction)
    half = Fraction(1, 2)
    for j in range(math.floor(lo + half), math.floor(hi + half) + 1):
        overlap = min(hi, j + half) - max(lo, j - half)
        if overlap > 0:
            masses[min(max(j, lo_d), hi_d)] += overlap / (hi - lo)
    return tuple((Continuous(float(j), 0), p) for j, p in sorted(masses.items()))


def typed(outcomes):
    """Outcomes with every type and field spelled out, precision included."""
    return [(type(v), v.value, v.precision, type(p), p) for v, p in outcomes]


NOISES = (1.0, 0.5, 0.25, 0.1, 0.3, 0.7, 1 / 3, 0.05, 0.01, 0.999, 1e-3, 0.123456789, 2**-10)


def test_noise_runs_list_exactly_the_per_integer_reference():
    cases = 0
    for low in (0.0, -3.0, 0.5, -2.25, 1.7):
        for width in (1.0, 2.5, 3.0, 7.0, 12.3, 40.0):
            high = low + width
            values = [low, high, *range(math.ceil(low), math.floor(high) + 1)]
            for max_inclusive, noise, value in itertools.product((True, False), NOISES, values):
                try:
                    clamp = integer_bounds(low, high, max_inclusive)
                except DegenerateIntervalError:
                    continue
                runs = oracles._noise_runs(value, low, high, noise, clamp)
                listed = FiniteDistribution._unlisted(runs).outcomes
                expected = noise_reference(value, low, high, max_inclusive, noise)
                assert typed(listed) == typed(expected), (value, low, high, max_inclusive, noise)
                assert len(runs) <= 3 and sum(r.last - r.first + 1 for r in runs) == len(expected)
                cases += 1
    assert cases >= 10_000


@pytest.mark.parametrize("value, low, high, max_inclusive, noise, values", [
    (0, 0, 10, True, 0.25, [0, 1, 2]),  # hi = 2.5: 3 rounds only the edge itself, of mass 0
    (5, 0, 10, True, 1e-3, [5]),  # one bucket, of weight Fraction(1)
    (10, 0, 10, False, 0.5, [5, 6, 7, 8, 9]),  # 10 clamps into 9
    (0, 0, 10, True, 1.0, list(range(11))),
])
def test_noise_runs_fixed_cases(value, low, high, max_inclusive, noise, values):
    domain = NumericDomain(low, high, max_inclusive=max_inclusive, integer=True)
    dist = technique_distribution(NoiseAdditionConfig(noise), Continuous(value), domain)
    assert dist._outcomes is None and dist._size() == len(values)
    assert [v.value for v, _ in dist.outcomes] == values
    assert typed(dist.outcomes) == typed(noise_reference(value, low, high, max_inclusive, noise))


def fraction_noise_runs(value, low, high, noise, clamp):
    """``_noise_runs`` in ``Fraction`` arithmetic: the same runs and weights
    from the decimal-exact interval and its half-unit edges."""
    noise_q, value_q = Fraction(repr(noise)), Fraction(value)
    lo = value_q - noise_q * (value_q - Fraction(low))
    hi = value_q + noise_q * (Fraction(high) - value_q)
    width, half = hi - lo, Fraction(1, 2)
    first, last = (min(max(math.floor(x + half), clamp[0]), clamp[1]) for x in (lo, hi))
    if last > first and last - half >= hi:  # hi lies on last's lower edge
        last -= 1
    if first == last:
        return (oracles._Run(first, last, Fraction(1)),)
    inner = (oracles._Run(first + 1, last - 1, 1 / width),) if last - first > 1 else ()
    return (oracles._Run(first, first, (first + half - lo) / width), *inner,
            oracles._Run(last, last, (hi - (last - half)) / width))


@st.composite
def _wide_noise_cases(draw):
    low = draw(st.one_of(
        st.integers(-2**62, 2**62).map(float),
        st.integers(-800, 800).map(lambda k: k / 8),
        st.floats(-1e6, 1e6),
    ))
    high = low + draw(st.one_of(st.integers(1, 2**62).map(float), st.floats(0.5, 1e6)))
    max_inclusive = draw(st.booleans())
    try:
        clamp = integer_bounds(low, high, max_inclusive)
    except DegenerateIntervalError:
        assume(False)
    value = draw(st.one_of(st.sampled_from([low, high]),
                           st.integers(*clamp).map(float)))
    noise = draw(st.one_of(st.sampled_from(NOISES), st.floats(1e-9, 1.0)))
    return value, low, high, max_inclusive, noise


@given(_wide_noise_cases())
@settings(max_examples=1000, deadline=None)
@example((2.0**62, -2.0**62, 2.0**62, True, 0.123456789))
@example((-2.0**62, -2.0**62, 2.0**62, False, 2**-10))
@example((0.75, 0.75, 2.0**61, True, 1 / 3))
@example((3.0, -7.25, 3.0, False, 1 / 3))
def test_integer_noise_runs_equal_the_fraction_reference(case):
    value, low, high, max_inclusive, noise = case
    clamp = integer_bounds(low, high, max_inclusive)
    runs = oracles._noise_runs(value, low, high, noise, clamp)
    assert runs == fraction_noise_runs(value, low, high, noise, clamp)
    assert all(type(run.weight) is Fraction for run in runs)


def test_integer_distribution_lists_its_outcomes_only_when_read():
    dist = technique_distribution(LocalSuppressionConfig(), Continuous(29), DAY)
    assert dist._compact == (oracles._Run(1, 31, Fraction(1, 31)),)
    assert dist._outcomes is None and dist._size() == 31
    listed = FiniteDistribution((Continuous(v, 0), Fraction(1, 31)) for v in range(1, 32))
    assert dist == listed and hash(dist) == hash(listed) and repr(dist) == repr(listed)
    assert typed(dist.outcomes) == typed(listed.outcomes)
    with pytest.raises(OracleError):
        FiniteDistribution._unlisted((oracles._Run(1, 3, Fraction(1, 4)),))


def point_walk(expr, distributions):
    """Mass of the listed joint points of the fields ``expr`` reads that
    satisfy it."""
    fields = sorted(oracles._fields_of(expr))
    total = Fraction(0)
    for combo in itertools.product(*(distributions[f].outcomes for f in fields)):
        if evaluate_expr(expr, {f: value for f, (value, _) in zip(fields, combo)}):
            total += math.prod(Fraction(p) for _, p in combo)
    return total


@st.composite
def _integer_distributions(draw):
    low = draw(st.integers(-20, 20))
    domain = NumericDomain(low, low + draw(st.integers(1, 30)),
                           max_inclusive=draw(st.booleans()), integer=True)
    first, last = integer_bounds(domain.min, domain.max, domain.max_inclusive)
    value = Continuous(draw(st.integers(first, last)))
    cfg = draw(st.one_of(
        st.just(LocalSuppressionConfig()),
        st.builds(GlobalRecodingConfig, st.integers(2, 5)),
        st.builds(NoiseAdditionConfig, st.sampled_from(NOISES)),
    ))
    return technique_distribution(cfg, value, domain)


BOUNDS = st.one_of(
    st.integers(-30, 60),
    st.integers(-60, 120).map(lambda k: k / 2 + 0.25),
    st.sampled_from([math.inf, -math.inf, 1e300, -1e300, 2.0**60, 0.5]),
)


def _integer_predicates(names):
    field = st.sampled_from(names)
    leaves = st.one_of(
        st.builds(lambda f, a, b: InRange(f, min(a, b), max(a, b)), field, BOUNDS, BOUNDS),
        st.builds(Equals, field, BOUNDS.filter(lambda v: abs(v) != math.inf)),
    )
    return st.recursive(leaves, lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, st.lists(children, min_size=1, max_size=3).map(tuple)),
        st.builds(Or, st.lists(children, min_size=1, max_size=3).map(tuple)),
    ), max_leaves=6)


@st.composite
def _cell_cases(draw):
    names = ["x", "y"][: draw(st.integers(1, 2))]
    return draw(_integer_predicates(names)), {n: draw(_integer_distributions()) for n in names}


@given(_cell_cases())
@settings(max_examples=300, deadline=None)
@example((InRange("x", 3, 1e300), {"x": technique_distribution(
    NoiseAdditionConfig(0.3), Continuous(29), DAY)}))
@example((Or((Equals("x", 2**60), Not(InRange("x", -math.inf, 4.5)))), {"x": technique_distribution(
    GlobalRecodingConfig(2), Continuous(3), DAY)}))
def test_cells_give_the_mass_of_the_points(case):
    expr, distributions = case
    fields = sorted(oracles._fields_of(expr))
    expected = point_walk(expr, distributions)
    cells = oracles._joint(fields, functools.partial(evaluate_expr, expr), distributions,
                           oracles._cuts(expr))
    assert cells == expected
    assert oracles._probability(expr, distributions) == expected


def test_cells_past_exact_floats_walk_every_integer():
    # float(j) rounds beyond 2**53: 2**54 + 1 and + 2 read as 2**54, so the
    # leaf is not constant from its cut at 2**54 + 1 on
    far = FiniteDistribution._unlisted((oracles._Run(2**54 - 4, 2**54 + 4, Fraction(1, 9)),))
    expr = InRange("x", 2**54 + 1, math.inf)
    cells = oracles._joint(["x"], functools.partial(evaluate_expr, expr), {"x": far},
                           oracles._cuts(expr))
    assert cells == point_walk(expr, {"x": far}) == Fraction(2, 9)


def test_exhaustive_probability_walks_integer_cells_and_never_lists_them(monkeypatch):
    def fresh(entry, cfg):
        return {field: technique_distribution(cfg, entry.original_assignment[field], domain)
                for field, domain in entry.oracle.fields}

    integer = {}
    for entry in corpus.load_all():
        for index, cfg in enumerate(entry.configs):
            try:
                distributions = fresh(entry, cfg)
            except EnumerationInfeasibleError:
                continue
            read = [distributions[f] for f in oracles._fields_of(entry.oracle.predicate)]
            if all(isinstance(dist._compact, tuple) for dist in read):
                integer[f"{entry.name}#{index}"] = (
                    entry, cfg, point_walk(entry.oracle.predicate, distributions))
    assert len(integer) >= 30

    def listing(runs):
        raise AssertionError(f"listed the integers of {runs}")

    monkeypatch.setattr(oracles, "_run_support", listing)
    for key, (entry, cfg, expected) in integer.items():
        distributions = fresh(entry, cfg)
        assert oracles._probability(entry.oracle.predicate, distributions) == expected, key
        assert exhaustive_probability(entry.oracle, distributions) == float(expected), key
    meds = fresh(*integer["did_i_take_my_meds#0"][:2])
    assert oracles._probability(integer["did_i_take_my_meds#0"][0].oracle.predicate, meds) == Fraction(1, 2)


@st.composite
def _year_runs(draw):
    """Up to three disjoint runs of years, of any masses summing to 1."""
    runs, start = [], draw(st.integers(-3000, 3000))
    for _ in range(draw(st.integers(1, 3))):
        last = start + draw(st.integers(0, 800))
        runs.append((start, last, draw(st.integers(1, 9))))
        start = last + 1 + draw(st.integers(0, 500))
    total = sum(mass for _, _, mass in runs)
    return tuple(oracles._Run(first, last, Fraction(mass, total * (last - first + 1)))
                 for first, last, mass in runs)


LEAP_DAY = IsLeapDay("d", "m", "y")


@given(_year_runs())
@settings(max_examples=300, deadline=None)
@example((oracles._Run(-5, 4, Fraction(1, 10)),))  # across year 0, itself a leap year
@example((oracles._Run(-400, -400, Fraction(1, 2)), oracles._Run(-100, -100, Fraction(1, 2))))
@example((oracles._Run(1900, 1900, Fraction(1, 3)), oracles._Run(2000, 2001, Fraction(1, 3))))
def test_leap_years_are_counted_per_run(runs):
    point = FiniteDistribution(((Continuous(29.0, 0), Fraction(1)),))
    distributions = {"d": point, "m": FiniteDistribution(((Continuous(2.0, 0), Fraction(1)),)),
                     "y": FiniteDistribution._unlisted(runs)}
    walked = sum(p for year, p in oracles._cells(runs, None)
                 if oracles.is_gregorian_leap_year(int(year.value)))
    assert oracles._probability(LEAP_DAY, distributions) == walked


def test_birday_counts_its_leap_years_and_walks_no_year(monkeypatch):
    entry = next(e for e in corpus.load_all() if e.name == "birday")
    expected = {}
    for index, cfg in enumerate(entry.configs):
        try:
            expected[index] = (cfg, point_walk(entry.oracle.predicate, {
                field: technique_distribution(cfg, entry.original_assignment[field], domain)
                for field, domain in entry.oracle.fields}))
        except EnumerationInfeasibleError:
            continue
    assert 0 in expected and len(expected) >= 5

    cells = oracles._cells

    def walking(runs, cuts):
        assert cuts is not None, f"walked the integers of {runs}"
        return cells(runs, cuts)

    monkeypatch.setattr(oracles, "_cells", walking)
    for index, (cfg, walked) in expected.items():
        distributions = {field: technique_distribution(cfg, entry.original_assignment[field], domain)
                         for field, domain in entry.oracle.fields}
        assert oracles._probability(entry.oracle.predicate, distributions) == walked, index
        assert exhaustive_probability(entry.oracle, distributions) == float(walked), index
    assert expected[0][1] == Fraction(25, 37200)


# ---------------------------------------------------------------------------
# oracle JSON codec


def test_oracle_json_round_trip():
    oracle = date_oracle()
    assert oracle_from_json(oracle_to_json(oracle)) == oracle


def test_oracle_json_rejects_unknown_op():
    blob = oracle_to_json(date_oracle())
    blob["predicate"] = {"op": "regex", "field": "day", "pattern": ".*"}
    with pytest.raises(ValidationError):
        oracle_from_json(blob)


# ---------------------------------------------------------------------------
# the built-in corpus


def test_corpus_has_21_entries_for_19_bugs():
    names = corpus.available()
    assert len(names) == 21
    # two bugs have a text and a numeric variant; strip the suffix to count bugs
    bugs = {n.removesuffix("_text").removesuffix("_amount") for n in names}
    assert len(bugs) == 19


def test_every_corpus_original_triggers_its_oracle():
    for entry in corpus.load_all():
        assert entry.triggers(), entry.name


def test_every_corpus_entry_round_trips_through_json():
    for entry in corpus.load_all():
        blob = corpus.entry_to_json(entry)
        again = corpus.entry_from_json(json.loads(json.dumps(blob)))
        assert again == entry, entry.name


def test_corpus_metadata_is_complete():
    for entry in corpus.load_all():
        assert set(entry.metadata) >= {"app", "input", "approximate",
                                       "special_char_trigger"}, entry.name
        assert isinstance(entry.metadata["approximate"], bool)
        assert isinstance(entry.metadata["special_char_trigger"], bool)


def test_corpus_config_labels():
    entry = corpus.load("birday")
    noise = {c.noise: c.label for c in entry.configs
             if isinstance(c, NoiseAdditionConfig)}
    assert noise == {0.3: "Hi", 0.4: "Me", 0.5: "Lo"}
    recode = {c.partitions: c.label for c in entry.configs
              if isinstance(c, GlobalRecodingConfig)}
    assert recode == {2: "Lo", 3: "Me", 4: "Hi"}
    wallet = corpus.load("money_wallet")
    recode = {c.partitions: c.label for c in wallet.configs
              if isinstance(c, GlobalRecodingConfig)}
    assert recode == {50: "Lo", 100: "Me", 500: "Hi"}
    strings = corpus.load("tasks")
    policies = {(type(c).__name__, c.label): c.length_policy for c in strings.configs}
    assert policies[("LocalSuppressionConfig", "Hi")] is LengthPolicy.PRESERVE_ORIGINAL
    assert policies[("SCDLocalSuppressionConfig", "Lo")] is LengthPolicy.RANDOM_IN_RANGE


def test_corpus_load_by_path_and_unknown_name(tmp_path):
    entry = corpus.load("birday")
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(corpus.entry_to_json(entry)), encoding="utf-8")
    assert corpus.load(str(path)) == entry
    with pytest.raises(ValidationError, match="birday"):
        corpus.load("no_such_bug")


def test_corpus_dir_env_override(tmp_path, monkeypatch):
    entry = corpus.load("tasks")
    (tmp_path / "tasks.json").write_text(
        json.dumps(corpus.entry_to_json(entry)), encoding="utf-8"
    )
    monkeypatch.setenv("ANONREPRO_CORPUS", str(tmp_path))
    assert corpus.available() == ["tasks"]
    assert corpus.load("tasks") == entry


def test_special_char_triggers_are_flagged():
    flagged = {e.name for e in corpus.load_all()
               if e.metadata["special_char_trigger"]}
    assert flagged == {
        "contact_diary", "einkbro", "food_scale_droid", "grow_tracker_text",
        "nononsense_notes", "splitbills", "tasks", "to_dont", "track_graph_1",
        "track_graph_2_text",
    }


# ---------------------------------------------------------------------------
# the compiled predicate reads a block of trials as evaluate_expr reads each

#: Characters of the [\x00-z] alphabet: NUL, digits, separators and letters.
CHARS = "\x00059.,az"
LABELS = ("a\x00", "5.5", "ab", "\x00", "b.", "z")
BLOCK_FIELDS = (
    ("s", StringDomain("[\x00-z]", 0, 8)),
    ("c", CategoricalDomain(LABELS)),
    ("x", NumericDomain(-40, 40, precision=3)),
    ("day", DAY),
    ("month", MONTH),
    ("year", NumericDomain(-400, 2400, integer=True)),
)
TEXTS = st.text(st.sampled_from(CHARS), max_size=10)
STRING_FIELD = st.sampled_from(["s", "c"])
NUMBERS = st.sampled_from([-3.25, 0.0, 1.5, 2.0, 29.0])
LEAVES = st.one_of(
    st.builds(Equals, STRING_FIELD, TEXTS),
    st.builds(Equals, st.just("x"), NUMBERS),
    st.builds(lambda ends: InRange("x", *sorted(ends)), st.tuples(NUMBERS, NUMBERS)),
    st.builds(Contains, STRING_FIELD, TEXTS),
    st.builds(MatchesClass, STRING_FIELD,
              st.sampled_from(["[\x00-z]", "[a-b]", "[0-9.]", "[\x00a]"])),
    st.builds(EndsWith, STRING_FIELD, TEXTS.filter(bool)),
    st.builds(CharAt, STRING_FIELD, st.integers(-12, 12), st.sampled_from(CHARS)),
    st.just(IsLeapDay("day", "month", "year")),
    st.builds(DecimalSeparatorIs, st.sampled_from(["s", "x"]), st.sampled_from(".,5\x00")),
    st.builds(LengthGt, STRING_FIELD, st.integers(-1, 10)),
)
EXPRS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.builds(And, st.lists(inner, min_size=1, max_size=3)),
    st.builds(Or, st.lists(inner, min_size=1, max_size=3)),
    st.builds(Not, inner),
), max_leaves=8)
ROWS = st.lists(st.tuples(
    TEXTS.map(lambda t: t[:8]), st.sampled_from(LABELS), NUMBERS,
    st.sampled_from([28.0, 29.0, 30.0]), st.sampled_from([1.0, 2.0, 3.0]),
    st.sampled_from([-4.0, 0.0, 1900.0, 2000.0, 2004.0, 2023.0]),
), min_size=1, max_size=12)


def padded(column, extra, fill):
    """``column`` with ``extra`` more places, every place past a row's value
    holding ``fill``: padding must not be read as part of a value."""
    codes = np.pad(column.codes, ((0, 0), (0, extra)))
    codes[np.arange(codes.shape[1]) >= column.lengths[:, None]] = fill
    return Strings(codes, column.lengths, column.kind)


EXAMPLE_ROWS = [("a\x00", "a\x00", 0.0, 29.0, 2.0, 2000.0), ("\x00a", "ab", 1.5, 28.0, 1.0, 0.0),
                ("", "\x00", 2.0, 29.0, 2.0, 1900.0), ("55", "5.5", 0.0, 1.0, 1.0, 1.0)]


@settings(max_examples=600, deadline=None)
@given(expr=st.one_of(LEAVES, EXPRS), rows=ROWS, precision=st.integers(0, 3),
       extra=st.integers(0, 3), fill=st.sampled_from(CHARS))
@example(expr=Or((EndsWith("s", "\x00"), Contains("c", "\x00"), Equals("s", "a\x00"),
                  DecimalSeparatorIs("s", "5"))),
         rows=EXAMPLE_ROWS, precision=1, extra=0, fill="\x00")
@example(expr=Or((CharAt("s", -1, "a"), CharAt("c", -2, "\x00"))), rows=EXAMPLE_ROWS,
         precision=0, extra=1, fill="a")
@example(expr=DecimalSeparatorIs("x", "."), rows=EXAMPLE_ROWS, precision=0, extra=0, fill="a")
@example(expr=DecimalSeparatorIs("x", "."), rows=EXAMPLE_ROWS, precision=2, extra=0, fill="a")
def test_compiled_predicate_agrees_with_evaluate_expr(expr, rows, precision, extra, fill):
    BugOracle(name="block", fields=BLOCK_FIELDS, predicate=expr)  # a well-typed predicate
    s, c, x, day, month, year = zip(*rows)
    columns = {
        "s": padded(pack(list(map(Text, s))), extra, ord(fill)),
        "c": padded(pack(list(map(Categorical, c))), extra, ord(fill)),
        "x": Numbers(np.array(x), precision),
        **{name: Numbers(np.array(v), 0)
           for name, v in (("day", day), ("month", month), ("year", year))},
    }
    got = compile_expr(expr)(columns)
    expected = [
        evaluate_expr(expr, {name: column.box(row) for name, column in columns.items()})
        for row in range(len(rows))
    ]
    assert got.dtype == bool and got.tolist() == expected


ENDS_WITH_TEXTS = ("aaa", "aba", "", "a\x00", "\x00a", "aa")


@pytest.mark.parametrize("expr, expected", [
    (EndsWith("s", "aaaa"), [False] * 6),  # longer than every string
    (EndsWith("s", "aaaaaaaaaa"), [False] * 6),  # longer than the padded column too
    (EndsWith("s", "aaa"), [True, False, False, False, False, False]),
    (EndsWith("s", "aa"), [True, False, False, False, False, True]),
    (EndsWith("s", "\x00"), [False, False, False, True, False, False]),
    (EndsWith("c", "\x00"), [True, False, False, True, False, False]),
    (EndsWith("c", "a\x00"), [True, False, False, False, False, False]),
], ids=["longer", "longer-than-padding", "whole-string", "repeated-char", "nul",
        "categorical-nul", "categorical-whole-label"])
@pytest.mark.parametrize("fill", ["a", "\x00"])
def test_compiled_ends_with_fixed_cases(expr, expected, fill):
    BugOracle(name="block", fields=BLOCK_FIELDS, predicate=expr)
    columns = {
        "s": padded(pack(list(map(Text, ENDS_WITH_TEXTS))), 3, ord(fill)),
        "c": padded(pack(list(map(Categorical, LABELS))), 3, ord(fill)),
    }
    rows = [{name: column.box(row) for name, column in columns.items()} for row in range(6)]
    assert [evaluate_expr(expr, row) for row in rows] == expected
    assert compile_expr(expr)(columns).tolist() == expected
