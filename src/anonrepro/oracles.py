"""Bug oracles: predicates over named input fields.

A BugOracle states, for a set of named fields with domains, the condition
under which an input triggers a failure.  Predicates are small expression
trees built from a fixed vocabulary of primitives (value comparisons, string
probes, a leap-day test, ...) combined with and/or/not, and they serialize
to JSON so oracles can live in data files.

``evaluate`` applies an oracle to an assignment of field values.
``exhaustive_probability`` computes the exact trigger probability under a
per-field regeneration distribution; ``technique_distribution`` derives that
distribution for technique configurations whose output space is finite and
small enough to enumerate (integer and categorical domains generally;
strings only when short over a small alphabet).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Union

from .errors import (
    EnumerationInfeasibleError,
    EvaluationError,
    OracleError,
)
from .model import (
    Categorical,
    CategoricalDomain,
    Continuous,
    DataValue,
    DomainSpec,
    NumericDomain,
    StringDomain,
    Text,
    TupleDomain,
    _char_class_set,
    check_type,
    conforms,
    domain_from_json,
    domain_to_json,
    expand_char_class,
    field_table,
    fields_from_json,
    fields_to_json,
)
from .techniques import (
    Chars,
    Constant,
    Grid,
    NoiseAdditionConfig,
    Pick,
    SCDLocalSuppressionConfig,
    Span,
    TechniqueConfig,
    anonymize_conforming,
    draw_plan,
    integer_bounds,
    noise_plan,
)

#: Hard cap on how many joint outcomes exact enumeration may visit.
ENUMERATION_LIMIT = 10_000_000
#: String supports enumerate only up to this length ...
STRING_ENUM_MAX_LENGTH = 4
#: ... and only over alphabets up to this size.
STRING_ENUM_MAX_ALPHABET = 16


# ---------------------------------------------------------------------------
# predicate expressions


@dataclass(frozen=True)
class Equals:
    field: str
    value: float | str


@dataclass(frozen=True)
class InRange:
    """lo <= field <= hi, both ends inclusive."""

    field: str
    lo: float
    hi: float


@dataclass(frozen=True)
class Contains:
    field: str
    substring: str


@dataclass(frozen=True)
class MatchesClass:
    """Every character of the field lies in the character class."""

    field: str
    char_class: str


@dataclass(frozen=True)
class EndsWith:
    field: str
    suffix: str


@dataclass(frozen=True)
class CharAt:
    """The character at ``index`` (negative counts from the end) equals
    ``char``; out-of-range indexes make the predicate false."""

    field: str
    index: int
    char: str


@dataclass(frozen=True)
class IsLeapDay:
    """day == 29, month == 2, and the Gregorian leap rule holds for year."""

    day: str
    month: str
    year: str


@dataclass(frozen=True)
class DecimalSeparatorIs:
    """The field is a decimal literal using ``separator``.

    For strings: exactly one occurrence of the separator, every other
    character a digit, at least one digit.  For numeric values: true iff the
    separator is "." and the value renders with fraction digits.
    """

    field: str
    separator: str


@dataclass(frozen=True)
class LengthGt:
    field: str
    length: int


@dataclass(frozen=True)
class And:
    args: tuple["OracleExpr", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Or:
    args: tuple["OracleExpr", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Not:
    arg: "OracleExpr"


OracleExpr = Union[
    Equals,
    InRange,
    Contains,
    MatchesClass,
    EndsWith,
    CharAt,
    IsLeapDay,
    DecimalSeparatorIs,
    LengthGt,
    And,
    Or,
    Not,
]


def _text(value: DataValue, field: str) -> str:
    if isinstance(value, Text):
        return value.value
    if isinstance(value, Categorical):
        return value.label
    raise EvaluationError(f"field {field!r} is not string-valued")


def _number(value: DataValue, field: str) -> float:
    if isinstance(value, Continuous):
        return value.value
    raise EvaluationError(f"field {field!r} is not numeric")


def is_gregorian_leap_year(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def _is_decimal_literal(text: str, separator: str) -> bool:
    if text.count(separator) != 1:
        return False
    rest = text.replace(separator, "", 1)
    return len(rest) > 0 and all(c.isdigit() and c.isascii() for c in rest)


def evaluate_expr(expr: OracleExpr, assignment: Mapping[str, DataValue]) -> bool:
    """Evaluate a predicate node against field values.

    Unchecked: every field the node reads must be present.  ``evaluate``
    checks presence and conformance first.
    """
    if isinstance(expr, And):
        return all(evaluate_expr(a, assignment) for a in expr.args)
    if isinstance(expr, Or):
        return any(evaluate_expr(a, assignment) for a in expr.args)
    if isinstance(expr, Not):
        return not evaluate_expr(expr.arg, assignment)
    if isinstance(expr, IsLeapDay):
        day = _number(assignment[expr.day], expr.day)
        month = _number(assignment[expr.month], expr.month)
        year = _number(assignment[expr.year], expr.year)
        return day == 29 and month == 2 and is_gregorian_leap_year(int(year))
    value = assignment[expr.field]
    if isinstance(expr, Equals):
        if isinstance(expr.value, str):
            return _text(value, expr.field) == expr.value
        return _number(value, expr.field) == float(expr.value)
    if isinstance(expr, InRange):
        return expr.lo <= _number(value, expr.field) <= expr.hi
    if isinstance(expr, Contains):
        return expr.substring in _text(value, expr.field)
    if isinstance(expr, MatchesClass):
        allowed = _char_class_set(expr.char_class)
        return all(c in allowed for c in _text(value, expr.field))
    if isinstance(expr, EndsWith):
        return _text(value, expr.field).endswith(expr.suffix)
    if isinstance(expr, CharAt):
        text = _text(value, expr.field)
        if not -len(text) <= expr.index < len(text):
            return False
        return text[expr.index] == expr.char
    if isinstance(expr, DecimalSeparatorIs):
        if isinstance(value, Continuous):
            return expr.separator == "." and value.precision > 0
        return _is_decimal_literal(_text(value, expr.field), expr.separator)
    if isinstance(expr, LengthGt):
        return len(_text(value, expr.field)) > expr.length
    raise EvaluationError(f"unknown predicate node {expr!r}")


# ---------------------------------------------------------------------------
# oracles


@dataclass(frozen=True)
class BugOracle:
    """Named fields plus the predicate that makes an input failure-inducing."""

    name: str
    fields: tuple[tuple[str, DomainSpec], ...]
    predicate: OracleExpr
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", tuple(self.fields))
        names = [n for n, _ in self.fields]
        if len(set(names)) != len(names):
            raise OracleError(f"oracle {self.name!r} repeats a field name")
        _check_expr(self.predicate, dict(self.fields), self.name)

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.fields)

    def domain_of(self, field: str) -> DomainSpec:
        for name, domain in self.fields:
            if name == field:
                return domain
        raise OracleError(f"oracle {self.name!r} has no field {field!r}")


def _check_expr(
    expr: OracleExpr, domains: Mapping[str, DomainSpec], oracle: str
) -> None:
    """Static type check: every primitive must fit its field's domain."""

    def fail(msg: str) -> OracleError:
        return OracleError(f"oracle {oracle!r}: {msg}")

    def domain_for(field: str) -> DomainSpec:
        if field not in domains:
            raise fail(f"predicate references unknown field {field!r}")
        return domains[field]

    def expect_string(field: str) -> None:
        if not isinstance(domain_for(field), (StringDomain, CategoricalDomain)):
            raise fail(f"field {field!r} must be string-valued")

    def expect_numeric(field: str) -> None:
        if not isinstance(domain_for(field), NumericDomain):
            raise fail(f"field {field!r} must be numeric")

    if isinstance(expr, (And, Or)):
        if not expr.args:
            raise fail("and/or needs at least one argument")
        for arg in expr.args:
            _check_expr(arg, domains, oracle)
    elif isinstance(expr, Not):
        _check_expr(expr.arg, domains, oracle)
    elif isinstance(expr, Equals):
        if isinstance(expr.value, str):
            expect_string(expr.field)
        else:
            expect_numeric(expr.field)
            if expr.value != expr.value:  # NaN equals nothing
                raise fail(f"equals on {expr.field!r} compares with NaN")
    elif isinstance(expr, InRange):
        expect_numeric(expr.field)
        if expr.lo != expr.lo or expr.hi != expr.hi:
            raise fail(f"in_range on {expr.field!r} has a NaN bound")
        if expr.lo > expr.hi:
            raise fail(f"empty range [{expr.lo}, {expr.hi}]")
    elif isinstance(expr, (Contains, MatchesClass, EndsWith, CharAt, LengthGt)):
        expect_string(expr.field)
        if isinstance(expr, MatchesClass):
            expand_char_class(expr.char_class)
        if isinstance(expr, CharAt) and len(expr.char) != 1:
            raise fail("char_at compares a single character")
        if isinstance(expr, EndsWith) and not expr.suffix:
            raise fail("ends_with needs a non-empty suffix")
    elif isinstance(expr, IsLeapDay):
        for field in (expr.day, expr.month, expr.year):
            domain = domain_for(field)
            if not (isinstance(domain, NumericDomain) and domain.integer):
                raise fail(f"leap-day component {field!r} must be an integer field")
    elif isinstance(expr, DecimalSeparatorIs):
        if len(expr.separator) != 1:
            raise fail("decimal separator is a single character")
        domain = domain_for(expr.field)
        if not isinstance(domain, (StringDomain, NumericDomain)):
            raise fail(f"field {expr.field!r} must be string or numeric")
    else:
        raise fail(f"unknown predicate node {expr!r}")


def evaluate(oracle: BugOracle, assignment: Mapping[str, DataValue]) -> bool:
    """Whether ``assignment`` triggers the oracle.

    Every oracle field must be present and conforming, otherwise an
    EvaluationError names the offending field.
    """
    for name, domain in oracle.fields:
        if name not in assignment:
            raise EvaluationError(f"assignment is missing oracle field {name!r}")
        value = assignment[name]
        if not conforms(value, domain):
            raise EvaluationError(
                f"field {name!r} value {value!r} does not conform to its domain"
            )
    return evaluate_expr(oracle.predicate, assignment)


# ---------------------------------------------------------------------------
# exact enumeration


@dataclass(frozen=True)
class FiniteDistribution:
    """A finite support with outcome probabilities (sums to 1): exact
    ``Fraction``s from technique_distribution, or floats read exactly."""

    outcomes: tuple[tuple[DataValue, Fraction | float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        total = math.fsum(p for _, p in self.outcomes)
        if not self.outcomes or abs(total - 1.0) > 1e-9:
            raise OracleError(f"outcome probabilities sum to {total}, not 1")


def _uniform(values: Iterable[DataValue]) -> FiniteDistribution:
    vals = list(values)
    p = Fraction(1, len(vals))
    return FiniteDistribution(tuple((v, p) for v in vals))


def _string_support(plan: Chars) -> FiniteDistribution:
    alphabet, lo, hi = plan.alphabet, plan.lo, plan.hi
    if len(alphabet) > STRING_ENUM_MAX_ALPHABET:
        raise EnumerationInfeasibleError(
            f"alphabet of {len(alphabet)} characters is too large to enumerate"
        )
    if hi > STRING_ENUM_MAX_LENGTH:
        raise EnumerationInfeasibleError(
            f"strings of length {hi} are too long to enumerate"
        )
    outcomes: list[tuple[DataValue, Fraction]] = []
    for length in range(lo, hi + 1):
        string_weight = Fraction(1, (hi - lo + 1) * len(alphabet) ** length)
        for chars in itertools.product(alphabet, repeat=length):
            outcomes.append((Text("".join(chars)), string_weight))
    return FiniteDistribution(tuple(outcomes))


def _noise_int_distribution(
    value: float, domain: NumericDomain, noise: float
) -> FiniteDistribution:
    # noise_interval in exact arithmetic, with the noise read as its decimal
    noise_q, value_q = Fraction(repr(noise)), Fraction(value)
    lo = value_q - noise_q * (value_q - Fraction(domain.min))
    hi = value_q + noise_q * (Fraction(domain.max) - value_q)
    lo_d, hi_d = integer_bounds(domain.min, domain.max, domain.max_inclusive)
    masses: dict[int, Fraction] = defaultdict(Fraction)
    half = Fraction(1, 2)
    # round half-up maps x to j iff x is in [j - 0.5, j + 0.5)
    for j in range(math.floor(lo + half), math.floor(hi + half) + 1):
        overlap = min(hi, j + half) - max(lo, j - half)
        if overlap > 0:
            masses[min(max(j, lo_d), hi_d)] += overlap / (hi - lo)
    return FiniteDistribution(
        tuple((Continuous(float(j), 0), p) for j, p in sorted(masses.items()))
    )


def technique_distribution(
    cfg: TechniqueConfig, value: DataValue, domain: DomainSpec
) -> FiniteDistribution:
    """Exact distribution of anonymize-then-regenerate for one field, read
    from the record's draw plan (``techniques.draw_plan``).

    Raises EnumerationInfeasibleError when the output space is continuous or
    too large (real-valued domains, long strings, special-character
    placement) or the field is a tuple.
    """
    if isinstance(domain, TupleDomain):
        raise EnumerationInfeasibleError("tuple fields are not enumerated")
    if isinstance(cfg, SCDLocalSuppressionConfig):
        raise EnumerationInfeasibleError(
            "special-character placement is not enumerated"
        )
    if isinstance(cfg, NoiseAdditionConfig):
        plan = noise_plan(value, domain, cfg.noise)
        if isinstance(plan, Span) and plan.clamp:  # integer noise, in exact arithmetic
            return _noise_int_distribution(value.value, domain, cfg.noise)  # type: ignore
    else:
        plan = draw_plan(anonymize_conforming(value, domain, cfg))
    if isinstance(plan, Constant):
        return FiniteDistribution(((plan.value, Fraction(1)),))
    if isinstance(plan, Pick):
        return _uniform(map(Categorical, plan.labels))
    if isinstance(plan, Chars):
        return _string_support(plan)
    if isinstance(plan, Grid) and domain.integer:  # type: ignore[union-attr]
        return _uniform(Continuous(float(i), 0) for i in range(plan.lo, plan.hi + 1))
    raise EnumerationInfeasibleError("real-valued domains have no finite enumeration")


def _fields_of(expr: OracleExpr) -> frozenset[str]:
    """Names of the fields a predicate reads."""
    if isinstance(expr, (And, Or)):
        return frozenset().union(*map(_fields_of, expr.args))
    if isinstance(expr, Not):
        return _fields_of(expr.arg)
    if isinstance(expr, IsLeapDay):
        return frozenset((expr.day, expr.month, expr.year))
    return frozenset((expr.field,))


def _components(expr: And | Or) -> list[OracleExpr]:
    """Split an and/or into sub-predicates over pairwise disjoint fields."""
    groups: list[tuple[frozenset[str], list[OracleExpr]]] = []
    for arg in expr.args:
        fields, members = _fields_of(arg), [arg]
        for group in [g for g in groups if not g[0].isdisjoint(fields)]:
            groups.remove(group)
            fields, members = fields | group[0], group[1] + members
        groups.append((fields, members))
    return [m[0] if len(m) == 1 else type(expr)(tuple(m)) for _, m in groups]


def _joint(fields: list[str], test: Callable[[dict], bool], weights: Mapping) -> Fraction:
    """Mass of the joint points of ``fields`` that pass ``test``."""
    assignment: dict[str, DataValue] = {}
    total = 0
    for combo in itertools.product(*(weights[f][1] for f in fields)):
        weight = 1
        for name, (value, numerator) in zip(fields, combo):
            assignment[name] = value
            weight *= numerator
        if test(assignment):
            total += weight
    return Fraction(total, math.prod(weights[f][0] for f in fields))


def _probability(expr: OracleExpr, weights: Mapping) -> Fraction:
    """Exact probability of ``expr``, factorized over independent fields."""
    if isinstance(expr, Not):
        return 1 - _probability(expr.arg, weights)
    if isinstance(expr, IsLeapDay) and len(_fields_of(expr)) == 3:
        tests = {expr.day: lambda x: x == 29, expr.month: lambda x: x == 2,
                 expr.year: lambda x: is_gregorian_leap_year(int(x))}
        return math.prod(_joint([f], lambda a, f=f: tests[f](_number(a[f], f)), weights)
                         for f in tests)
    if isinstance(expr, (And, Or)) and len(split := _components(expr)) > 1:
        parts = [_probability(part, weights) for part in split]
        if isinstance(expr, And):
            return math.prod(parts)
        return 1 - math.prod(1 - p for p in parts)
    fields = [f for f in weights if f in _fields_of(expr)]
    return _joint(fields, functools.partial(evaluate_expr, expr), weights)


def _integer_weights(outcomes: tuple) -> tuple[int, list[tuple[DataValue, int]]]:
    """A support's common weight denominator and its (value, numerator) pairs."""
    # supports share weight objects, so convert each distinct object once
    exact = {k: Fraction(p) for k, p in {id(p): p for _, p in outcomes}.items()}
    denominator = math.lcm(*(w.denominator for w in exact.values()))
    numerators = {k: w.numerator * (denominator // w.denominator) for k, w in exact.items()}
    return denominator, [(value, numerators[id(p)]) for value, p in outcomes]


def exhaustive_probability(
    oracle: BugOracle, distributions: Mapping[str, FiniteDistribution]
) -> float:
    """Exact trigger probability of the oracle under per-field distributions.

    Every oracle field needs a distribution; the joint support of all fields
    must stay within ENUMERATION_LIMIT points.  The probability is a rational
    rounded once to float; only the fields the predicate reads are enumerated.
    """
    for name, _ in oracle.fields:
        if name not in distributions:
            raise EvaluationError(f"no distribution for oracle field {name!r}")
    size = math.prod(len(distributions[n].outcomes) for n in oracle.field_names)
    if size > ENUMERATION_LIMIT:
        raise EnumerationInfeasibleError(
            f"joint support of {size} points exceeds the {ENUMERATION_LIMIT} cap"
        )
    read = _fields_of(oracle.predicate)
    weights = {name: _integer_weights(distributions[name].outcomes)
               for name in oracle.field_names if name in read}
    exact = _probability(oracle.predicate, weights)
    return float(min(max(exact, 0), 1))


# ---------------------------------------------------------------------------
# JSON codec


_OPS: dict[str, type] = {
    "and": And,
    "or": Or,
    "not": Not,
    "equals": Equals,
    "in_range": InRange,
    "contains": Contains,
    "matches_class": MatchesClass,
    "ends_with": EndsWith,
    "char_at": CharAt,
    "is_leap_day": IsLeapDay,
    "decimal_separator_is": DecimalSeparatorIs,
    "length_gt": LengthGt,
}

_OP_NAMES = {cls: name for name, cls in _OPS.items()}

_OP_FIELDS = {cls: field_table(cls) for cls in _OPS.values()}


def expr_to_json(expr: OracleExpr) -> dict[str, Any]:
    fields = fields_to_json(_OP_FIELDS[type(expr)], expr, expr_to_json)
    return {"op": _OP_NAMES[type(expr)], **fields}


def expr_from_json(raw: Any) -> OracleExpr:
    if not isinstance(raw, dict) or "op" not in raw:
        raise OracleError(f"a predicate node is an object with an 'op': {raw!r}")
    op = raw["op"]
    cls = _OPS.get(op) if isinstance(op, str) else None
    if cls is None:
        raise OracleError(f"unknown predicate op {op!r}")
    kwargs = fields_from_json(
        _OP_FIELDS[cls], raw, f"predicate op {op!r}", OracleError, expr_from_json, kind="op"
    )
    return cls(**kwargs)


def oracle_to_json(oracle: BugOracle) -> dict[str, Any]:
    return {
        "name": oracle.name,
        "description": oracle.description,
        "fields": {name: domain_to_json(d) for name, d in oracle.fields},
        "predicate": expr_to_json(oracle.predicate),
    }


def oracle_from_json(raw: Any) -> BugOracle:
    if not isinstance(raw, dict):
        raise OracleError(f"an oracle is a JSON object, got {raw!r}")
    for key in ("name", "fields", "predicate"):
        if key not in raw:
            raise OracleError(f"oracle is missing key {key!r}")
    name = check_type(raw["name"], (str,), "oracle", "name", OracleError)
    where = f"oracle {name!r}"
    fields = check_type(raw["fields"], (dict,), where, "fields", OracleError)
    return BugOracle(
        name=name,
        fields=tuple((field, domain_from_json(d)) for field, d in fields.items()),
        predicate=expr_from_json(raw["predicate"]),
        description=check_type(
            raw.get("description", ""), (str,), where, "description", OracleError
        ),
    )
