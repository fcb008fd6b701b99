"""Domains, values, conformance and the trace JSON codec."""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from anonrepro.errors import (
    DomainError,
    NonConformingValueError,
    TraceParseError,
)
from anonrepro.model import (
    Categorical,
    CategoricalDomain,
    Continuous,
    Event,
    FailureTrace,
    NumericDomain,
    StringDomain,
    Text,
    TupleDomain,
    TupleValue,
    conforms,
    domain_from_json,
    domain_to_json,
    dump_json,
    expand_char_class,
    float_precision,
    format_number,
    literal_precision,
    parse_trace,
    rendering_interval,
    serialize_trace,
    value_from_json,
    value_to_json,
    values_equal,
)

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# character classes


def test_char_class_expansions():
    assert expand_char_class("[0-9.,]") == ",.0123456789"
    assert expand_char_class("[0-9:]") == "0123456789:"
    printable = expand_char_class("[!-~]")
    assert len(printable) == 94 and " " not in printable
    with_space = expand_char_class("[ -~]")
    assert len(with_space) == 95 and " " in with_space
    assert len(expand_char_class("[A-Za-z0-9 ]")) == 63
    assert expand_char_class("[a-c-]") == "-abc"
    assert expand_char_class("[-a]") == "-a"


@pytest.mark.parametrize("bad", ["abc", "[]", "[^a-z]", "[z-a]", ""])
def test_char_class_rejects(bad):
    with pytest.raises(DomainError):
        expand_char_class(bad)


# ---------------------------------------------------------------------------
# values and precision


def test_continuous_equality_ignores_precision():
    assert Continuous(4.6, 2) == Continuous(4.6, 1)
    assert Continuous(4.6, 2).rendered() == "4.60"
    assert Continuous(4.6, 1).rendered() == "4.6"


def test_format_number_never_negative_zero():
    assert format_number(-0.0000001, 2) == "0.00"
    assert format_number(-0.006, 2) == "-0.01"


def test_literal_precision():
    assert literal_precision("4.60") == 2
    assert literal_precision("29") == 0
    assert literal_precision("0.125") == 3
    assert literal_precision("1e-3") == 3
    assert literal_precision("2.5e1") == 0


def test_float_precision():
    assert float_precision(8.0) == 0
    assert float_precision(2.5) == 1
    assert float_precision(4.62) == 2


def test_continuous_rejects_negative_precision():
    with pytest.raises(DomainError):
        Continuous(1.0, -1)


# ---------------------------------------------------------------------------
# domains


def test_numeric_domain_validation():
    with pytest.raises(DomainError):
        NumericDomain(5, 5)
    with pytest.raises(DomainError):
        NumericDomain(10, 0)
    with pytest.raises(DomainError):
        NumericDomain(0, float("inf"))
    with pytest.raises(DomainError):
        NumericDomain(0.5, 9, integer=True)
    with pytest.raises(DomainError):
        NumericDomain(0, 9, integer=True, precision=2)
    with pytest.raises(DomainError):
        NumericDomain(0, 9, precision=-1)


def test_numeric_effective_precision():
    assert NumericDomain(1, 31, integer=True).effective_precision == 0
    assert NumericDomain(0, 10).effective_precision == 2
    assert NumericDomain(0, 10, precision=4).effective_precision == 4


def test_categorical_domain_validation():
    with pytest.raises(DomainError):
        CategoricalDomain(())
    with pytest.raises(DomainError):
        CategoricalDomain(("a", "a"))
    with pytest.raises(DomainError):
        CategoricalDomain(("a", "b"), {"g": ("a",)})  # does not cover b
    with pytest.raises(DomainError):
        CategoricalDomain(("a", "b"), {"g": ("a", "b"), "h": ("b",)})
    with pytest.raises(DomainError):
        CategoricalDomain(("a", "b"), {"g": ("a", "b"), "h": ()})


def test_categorical_hierarchy_lookup():
    domain = CategoricalDomain(
        ("infant", "toddler", "teen", "adult"),
        {"young": ("infant", "toddler"), "grown": ("teen", "adult")},
    )
    assert domain.group_of("toddler") == "young"
    assert domain.group_members("grown") == ("teen", "adult")
    with pytest.raises(DomainError):
        domain.group_members("nope")


def test_string_domain_validation():
    with pytest.raises(DomainError):
        StringDomain("[a-z]", 5, 2)
    with pytest.raises(DomainError):
        StringDomain("a-z", 1, 2)
    assert StringDomain("[a-c]", 1, 3).alphabet == "abc"


def test_tuple_domain_validation():
    inner = NumericDomain(0, 1)
    with pytest.raises(DomainError):
        TupleDomain(())
    with pytest.raises(DomainError):
        TupleDomain((TupleDomain((inner,)), inner))


# ---------------------------------------------------------------------------
# conformance


def test_conforms_numeric():
    real = NumericDomain(0, 10, max_inclusive=False)
    assert conforms(Continuous(0.0), real)
    assert conforms(Continuous(9.99), real)
    assert not conforms(Continuous(10.0), real)
    assert conforms(Continuous(10.0), NumericDomain(0, 10))
    assert not conforms(Continuous(-0.01), real)
    assert not conforms(Continuous(float("nan")), real)
    assert not conforms(Text("5"), real)
    integer = NumericDomain(1, 31, integer=True)
    assert conforms(Continuous(31.0), integer)
    assert not conforms(Continuous(2.5), integer)


def test_conforms_categorical_and_string():
    cats = CategoricalDomain(("a", "b"))
    assert conforms(Categorical("a"), cats)
    assert not conforms(Categorical("c"), cats)
    assert not conforms(Text("a"), cats)
    strings = StringDomain("[0-9:]", 1, 5)
    assert conforms(Text(":30"), strings)
    assert not conforms(Text(""), strings)
    assert not conforms(Text("123456"), strings)
    assert not conforms(Text("12a"), strings)


def test_conforms_tuple():
    domain = TupleDomain((NumericDomain(1, 31, integer=True), NumericDomain(1, 12, integer=True)))
    assert conforms(TupleValue((Continuous(29), Continuous(2))), domain)
    assert not conforms(TupleValue((Continuous(29),)), domain)
    assert not conforms(TupleValue((Continuous(29), Continuous(13))), domain)
    assert not conforms(Continuous(29), domain)


# ---------------------------------------------------------------------------
# user-visible equality


def near_zero(precision):
    """Values within one float of 0 and of the grid's half step around 0."""
    half = 0.5 * 10.0**-precision
    edges = [half, math.nextafter(half, 0), math.nextafter(half, 1), 5e-324, 0.0]
    return st.sampled_from(edges).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=500, deadline=None)
@given(precision=st.integers(min_value=0, max_value=18), data=st.data())
def test_rendering_interval_is_where_the_rendering_agrees(precision, data):
    x = data.draw(st.one_of(
        near_zero(precision),
        st.sampled_from([2.0**53, 2.0**53 - 1, 2.0**53 + 2, 4.6, 0.125, 29.0]).flatmap(
            lambda x: st.sampled_from([x, -x])),
        st.floats(allow_nan=False, allow_infinity=False),
    ))
    rendered = format_number(x, precision)
    lo, hi = rendering_interval(x, precision)
    assert lo <= x <= hi
    assert format_number(lo, precision) == rendered == format_number(hi, precision)
    # past either end the rendering differs ("-inf" and "inf" past the finite floats)
    assert format_number(math.nextafter(lo, -math.inf), precision) != rendered
    assert format_number(math.nextafter(hi, math.inf), precision) != rendered


@pytest.mark.parametrize("x, precision", [
    (sign * x, precision)
    for x, precision in [
        (sys.float_info.max, 0), (sys.float_info.max, 20),
        (5e-324, 2), (5e-324, 20),
        (0.0, 0), (0.0, 20),
        (0.125, 2), (0.375, 2),  # exact half ties at an edge of "0.12" and "0.38"
        (float(2**53 - 1), 0), (float(2**53 + 1), 0),
        (4.6, 20), (0.1, 20),
    ]
    for sign in (1, -1)
])
def test_rendering_interval_at_the_edges(x, precision):
    rendered = format_number(x, precision)
    lo, hi = rendering_interval(x, precision)
    assert lo <= x <= hi
    assert format_number(lo, precision) == rendered == format_number(hi, precision)
    assert format_number(math.nextafter(lo, -math.inf), precision) != rendered
    assert format_number(math.nextafter(hi, math.inf), precision) != rendered


def test_values_equal_uses_reference_precision():
    original = Continuous(4.6, 2)  # entered as "4.60"
    assert values_equal(original, Continuous(4.603, 3))
    assert values_equal(original, Continuous(4.6, 0))
    assert not values_equal(original, Continuous(4.61, 2))
    # the reference's own precision decides, not the candidate's
    assert not values_equal(Continuous(4.603, 3), Continuous(4.6, 2))


def test_values_equal_other_kinds():
    assert values_equal(Text("a b"), Text("a b"))
    assert not values_equal(Text("a"), Text("A"))
    assert values_equal(Categorical("x"), Categorical("x"))
    assert not values_equal(Text("x"), Categorical("x"))
    left = TupleValue((Continuous(1), Text("a")))
    assert values_equal(left, TupleValue((Continuous(1.0, 4), Text("a"))))
    assert not values_equal(left, TupleValue((Continuous(2), Text("a"))))
    assert not values_equal(left, TupleValue((Continuous(1),)))


# ---------------------------------------------------------------------------
# events and traces


def test_event_rejects_nonconforming_value():
    with pytest.raises(NonConformingValueError):
        Event("type", "amount", (Continuous(11.0), NumericDomain(0, 10)))


def test_trace_round_trip_all_domain_kinds():
    trace = FailureTrace(events=(
        Event("launch", "app"),
        Event("type", "amount", (Continuous(4.6, 2), NumericDomain(0, 100))),
        Event("type", "name", (Text("a:b"), StringDomain("[!-~]", 1, 9))),
        Event(
            "pick", "kind",
            (Categorical("x"), CategoricalDomain(("x", "y"), {"g": ("x", "y")})),
        ),
        Event(
            "type", "date",
            (
                TupleValue((Continuous(29), Continuous(2))),
                TupleDomain((
                    NumericDomain(1, 31, integer=True),
                    NumericDomain(1, 12, integer=True),
                )),
            ),
        ),
    ))
    again = parse_trace(serialize_trace(trace))
    assert again == trace
    # serialization is canonical: a second round trip is byte-identical
    assert serialize_trace(again) == serialize_trace(trace)


def test_golden_trace_is_stable():
    text = (DATA / "golden_trace.json").read_text(encoding="utf-8")
    trace = parse_trace(text)
    assert serialize_trace(trace) == text
    amount = trace.events[1]
    assert amount.widget == "amount"
    value, domain = amount.data
    assert value == Continuous(4.6) and value.rendered() == "4.60"
    assert domain == NumericDomain(0, 100, max_inclusive=False)
    date_value, date_domain = trace.events[4].data
    assert date_value.components[0] == Continuous(29)
    assert isinstance(date_domain, TupleDomain)


# ---------------------------------------------------------------------------
# the indented JSON writer

JSON_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=())),  # lone surrogates too
    st.sampled_from(["", "\ud800", "\x00\x1f\x7f", '"q" \\ \\"', "\u2028\u00e9\U0001f600"]),
)
JSON_SCALARS = st.one_of(
    JSON_TEXT,
    st.integers(),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
    st.floats(),
    st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.none(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_dump_json_writes_the_bytes_of_json_dumps(value):
    assert dump_json(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


def test_dump_json_leaves_a_non_string_key_to_json_dumps():
    value = {"events": [{1: "one", None: [], 2.5: ("x",)}]}
    text = dump_json(value)
    assert text == json.dumps(value, indent=2, ensure_ascii=False) + "\n"
    assert '"1": "one"' in text and '"null": []' in text and '"2.5": [' in text


def test_parse_trace_bad_json_reports_position():
    with pytest.raises(TraceParseError, match="line 1"):
        parse_trace("{...")


def test_parse_trace_structural_errors():
    with pytest.raises(TraceParseError):
        parse_trace("[]")
    with pytest.raises(TraceParseError, match="event 0"):
        parse_trace('{"events": [42]}')
    with pytest.raises(TraceParseError, match="widget"):
        parse_trace('{"events": [{"action": "x"}]}')
    with pytest.raises(TraceParseError, match="value"):
        parse_trace('{"events": [{"action": "x", "widget": "w", "data": {}}]}')


def test_parse_trace_rejects_nonconforming_value():
    text = (
        '{"events": [{"action": "type", "widget": "amount", "data": '
        '{"value": "11", "domain": {"kind": "numeric", "min": 0, "max": 10}}}]}'
    )
    with pytest.raises(NonConformingValueError, match="amount"):
        parse_trace(text)


# ---------------------------------------------------------------------------
# value / domain JSON codecs


def test_value_codec_preserves_literal_precision():
    domain = NumericDomain(0, 100)
    value = value_from_json("4.60", domain)
    assert value == Continuous(4.6) and value.precision == 2
    assert value_to_json(value) == "4.60"
    assert value_from_json(29, NumericDomain(1, 31, integer=True)).precision == 0
    assert value_from_json(2.5, domain) == Continuous(2.5)


def test_domain_codec_round_trip():
    domains = [
        NumericDomain(0, 10, max_inclusive=False, precision=3),
        NumericDomain(1, 31, integer=True),
        CategoricalDomain(("a", "b"), {"g": ("a", "b")}),
        StringDomain("[ -~]", 1, 25),
        TupleDomain((NumericDomain(0, 1), StringDomain("[a-z]", 1, 2))),
    ]
    for domain in domains:
        assert domain_from_json(domain_to_json(domain)) == domain


def test_domain_codec_rejects_unknown_kind():
    with pytest.raises(TraceParseError):
        domain_from_json({"kind": "fancy"})
    with pytest.raises(TraceParseError):
        domain_from_json("numeric")


# ---------------------------------------------------------------------------
# properties


_names = st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=8)


@st.composite
def _events(draw):
    choice = draw(st.integers(0, 3))
    action = draw(_names)
    widget = draw(_names)
    if choice == 0:
        return Event(action, widget)
    if choice == 1:
        lo = draw(st.integers(-50, 49))
        hi = draw(st.integers(lo + 1, lo + 60))
        value = draw(st.integers(lo, hi))
        return Event(
            action, widget,
            (Continuous(value), NumericDomain(lo, hi, integer=True)),
        )
    if choice == 2:
        length = draw(st.integers(1, 6))
        text = draw(st.text(st.sampled_from("ab:. "), min_size=length, max_size=length))
        return Event(action, widget, (Text(text), StringDomain("[ -~]", 1, 10)))
    labels = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
    return Event(
        action, widget,
        (Categorical(draw(st.sampled_from(labels))), CategoricalDomain(labels)),
    )


@given(st.lists(_events(), max_size=6).map(tuple).map(FailureTrace))
def test_trace_codec_round_trip_property(trace):
    assert parse_trace(serialize_trace(trace)) == trace
