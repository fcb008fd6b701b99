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
strings only when short over a small alphabet, for now).  A string field
read alone is not listed: its probability is a count of the strings that a
product of small automata, one per predicate leaf, accepts.  Nor is an
integer field: its support is a few runs of equally likely integers, walked
by the cells on which the predicate's leaves are constant.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Union

import numpy as np

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
    Column,
    Constant,
    Grid,
    Numbers,
    Pick,
    SCDLocalSuppressionConfig,
    Span,
    TechniqueConfig,
    _EXACT,
    field_plan,
    text_codes,
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


def _char_ats(expr: EndsWith) -> And:
    """``expr`` as one ``CharAt`` from the end per character of the suffix:
    an index out of range is false, so a shorter string fails."""
    m = len(expr.suffix)
    return And(tuple(CharAt(expr.field, k - m, char) for k, char in enumerate(expr.suffix)))


Compiled = Callable[[Mapping[str, Column]], np.ndarray]


def _positions(column: Column) -> np.ndarray:
    """Which places of each row of a string column lie inside its value."""
    return np.arange(column.codes.shape[1]) < column.lengths[:, None]  # type: ignore[union-attr]


def compile_expr(expr: OracleExpr) -> Compiled:
    """``evaluate_expr`` for a block of trials at once: a function from the
    block's columns (``techniques.regenerate_block``), by field name, to
    whether each trial satisfies ``expr``.

    Unchecked, as ``evaluate_expr`` is: every field the node reads must have
    a column, numeric or string as ``BugOracle``'s check of the node
    requires.  Build it once per run; every call reads only its columns.
    """
    if isinstance(expr, (And, Or)):
        parts = [compile_expr(a) for a in expr.args]
        join = np.logical_and if isinstance(expr, And) else np.logical_or
        return lambda columns: join.reduce([part(columns) for part in parts])
    if isinstance(expr, Not):
        inner = compile_expr(expr.arg)
        return lambda columns: ~inner(columns)
    if isinstance(expr, EndsWith):
        return compile_expr(_char_ats(expr))
    if isinstance(expr, IsLeapDay):
        day, month, year = expr.day, expr.month, expr.year

        def is_leap_day(columns):
            y = columns[year].values.astype(np.int64)
            leap = (y % 4 == 0) & ((y % 100 != 0) | (y % 400 == 0))
            return (columns[day].values == 29) & (columns[month].values == 2) & leap
        return is_leap_day
    field = expr.field
    if isinstance(expr, Equals):
        if isinstance(expr.value, str):
            text = expr.value
            return lambda columns: columns[field].equals(text)
        number = float(expr.value)
        return lambda columns: columns[field].values == number
    if isinstance(expr, InRange):
        lo, hi = expr.lo, expr.hi
        return lambda columns: (lo <= columns[field].values) & (columns[field].values <= hi)
    if isinstance(expr, Contains):
        target = text_codes(expr.substring)
        m = len(target)

        def contains(columns):
            column = columns[field]
            windows = column.codes.shape[1] - m + 1
            if windows <= 0:
                return np.zeros(len(column.lengths), dtype=bool)
            # window j holds places j .. j + m - 1, all inside the value
            found = column.lengths[:, None] >= np.arange(m, m + windows)
            for k, code in enumerate(target.tolist()):
                found &= column.codes[:, k : k + windows] == code
            return found.any(axis=1)
        return contains
    if isinstance(expr, MatchesClass):
        alphabet = text_codes(expand_char_class(expr.char_class))
        allowed = np.zeros(int(alphabet.max()) + 2, dtype=bool)  # the last entry stays False
        allowed[alphabet] = True

        def matches_class(columns):
            column = columns[field]
            inside = allowed[np.minimum(column.codes, len(allowed) - 1)]
            return (inside | ~_positions(column)).all(axis=1)
        return matches_class
    if isinstance(expr, CharAt):
        index, code = expr.index, ord(expr.char)

        def char_at(columns):
            column = columns[field]
            place = column.lengths + index if index < 0 else np.full(len(column.lengths), index)
            inside = (place >= 0) & (place < column.lengths)
            if not inside.any():
                return inside
            picked = column.codes[np.arange(len(place)), np.where(inside, place, 0)]
            return inside & (picked == code)
        return char_at
    if isinstance(expr, DecimalSeparatorIs):
        separator = ord(expr.separator)
        is_dot = expr.separator == "."

        def decimal_separator_is(columns):
            column = columns[field]
            if isinstance(column, Numbers):
                return np.full(len(column.values), is_dot and column.precision > 0)
            inside = _positions(column)
            codes = column.codes
            at_separator = inside & (codes == separator)
            stray = inside & ~at_separator & ((codes < ord("0")) | (codes > ord("9")))
            once = at_separator.sum(axis=1) == 1
            return once & ~stray.any(axis=1) & (column.lengths >= 2)
        return decimal_separator_is
    if isinstance(expr, LengthGt):
        length = expr.length
        return lambda columns: columns[field].lengths > length
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


class _Run(NamedTuple):
    """The integers first..last, each of probability ``weight``."""

    first: int
    last: int
    weight: Fraction


def _check_total(total: Fraction | float) -> None:
    if abs(total - 1) > 1e-9:
        raise OracleError(f"outcome probabilities sum to {total}, not 1")


class FiniteDistribution:
    """A finite support with outcome probabilities (sums to 1): exact
    ``Fraction``s from technique_distribution, or floats read exactly.

    A distribution from technique_distribution may hold its support in
    compact form and list ``outcomes`` only when they are first read: a
    string field keeps its ``Chars`` plan, an integer field its runs of
    equally likely integers (at most three).  ``exhaustive_probability``
    counts the strings and walks the integers by cells instead of listing
    them.  Two distributions are equal when their outcomes are.
    """

    __slots__ = ("_outcomes", "_compact")

    def __init__(self, outcomes: Iterable[tuple[DataValue, Fraction | float]]) -> None:
        outcomes = tuple(outcomes)
        _check_total(math.fsum(p for _, p in outcomes))
        self._outcomes: tuple | None = outcomes
        self._compact: Chars | tuple[_Run, ...] | None = None

    @classmethod
    def _unlisted(cls, compact: Chars | tuple[_Run, ...]) -> "FiniteDistribution":
        """The strings of a ``Chars`` plan, uniform in length and in each
        character, or the integers of runs; listed when first read."""
        if not isinstance(compact, Chars):
            _check_total(sum((run.last - run.first + 1) * run.weight for run in compact))
        dist = cls.__new__(cls)
        dist._outcomes, dist._compact = None, compact
        return dist

    @property
    def outcomes(self) -> tuple[tuple[DataValue, Fraction | float], ...]:
        if self._outcomes is None:
            compact = self._compact
            listing = _string_support if isinstance(compact, Chars) else _run_support
            self._outcomes = listing(compact)  # type: ignore[arg-type]
        return self._outcomes

    def _size(self) -> int:
        """How many outcomes the support holds, without listing a compact one."""
        compact = self._compact
        if isinstance(compact, Chars):
            return sum(len(compact.alphabet) ** n for n in range(compact.lo, compact.hi + 1))
        if compact is not None:
            return sum(run.last - run.first + 1 for run in compact)
        return len(self._outcomes)  # type: ignore[arg-type]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.outcomes == other.outcomes  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.outcomes,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(outcomes={self.outcomes!r})"


def _strings(plan: Chars) -> FiniteDistribution:
    """The distribution of ``plan``'s strings, within the enumeration caps."""
    if len(plan.alphabet) > STRING_ENUM_MAX_ALPHABET:
        raise EnumerationInfeasibleError(
            f"alphabet of {len(plan.alphabet)} characters is too large to enumerate"
        )
    if plan.hi > STRING_ENUM_MAX_LENGTH:
        raise EnumerationInfeasibleError(
            f"strings of length {plan.hi} are too long to enumerate"
        )
    return FiniteDistribution._unlisted(plan)


def _string_support(plan: Chars) -> tuple[tuple[DataValue, Fraction], ...]:
    """Every string ``plan`` can draw, with its probability."""
    alphabet, lo, hi = plan.alphabet, plan.lo, plan.hi
    outcomes: list[tuple[DataValue, Fraction]] = []
    for length in range(lo, hi + 1):
        string_weight = Fraction(1, (hi - lo + 1) * len(alphabet) ** length)
        for chars in itertools.product(alphabet, repeat=length):
            outcomes.append((Text("".join(chars)), string_weight))
    return tuple(outcomes)


def _run_support(runs: tuple[_Run, ...]) -> tuple[tuple[DataValue, Fraction], ...]:
    """Every integer of ``runs``, in order, with its probability."""
    return tuple(_cells(runs, None))


def _noise_runs(value: float, low: float, high: float, noise: float,
                clamp: tuple[int, int]) -> tuple[_Run, ...]:
    """Integer noise on ``value`` in the domain [low, high]: a uniform draw
    from the noise interval, rounded half-up and clamped into ``clamp``'s
    inclusive bounds, in exact arithmetic with the noise read as its
    decimal.

    Round half-up maps x to j iff x is in [j - 1/2, j + 1/2).  Every
    integer strictly between the first and the last outcome covers a whole
    unit of the interval; the first takes the mass below its upper edge
    and the last the mass above its lower edge.

    The arithmetic is on integers: the floats are binary fractions and the
    noise a decimal one, so the interval's ends and the half-unit edges
    are numerators over one even denominator ``unit``; only the weights
    are ``Fraction``s.
    """
    ratios = [x.as_integer_ratio() for x in (value, low, high)]
    scale = max(d for _, d in ratios)  # powers of two: their lcm is the largest
    v, a, b = (x * (scale // d) for x, d in ratios)  # value, low, high over scale
    n, n_d = Decimal(repr(noise)).as_integer_ratio()
    half = n_d * scale
    unit = 2 * half
    lo, hi = 2 * (n_d * v - n * (v - a)), 2 * (n_d * v + n * (b - v))  # over unit
    width = hi - lo
    first, last = (min(max((x + half) // unit, clamp[0]), clamp[1]) for x in (lo, hi))
    if last > first and last * unit - half >= hi:  # hi lies on last's lower edge
        last -= 1
    if first == last:
        return (_Run(first, last, Fraction(1)),)
    inner = (_Run(first + 1, last - 1, Fraction(unit, width)),) if last - first > 1 else ()
    return (_Run(first, first, Fraction(first * unit + half - lo, width)), *inner,
            _Run(last, last, Fraction(hi - (last * unit - half), width)))


def technique_distribution(
    cfg: TechniqueConfig, value: DataValue, domain: DomainSpec
) -> FiniteDistribution:
    """Exact distribution of anonymize-then-regenerate for one field, read
    from the field's draw plan (``techniques.field_plan``).

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
    plan = field_plan(value, domain, cfg)
    if isinstance(plan, Span) and plan.clamp:  # integer noise
        return FiniteDistribution._unlisted(_noise_runs(
            value.value, domain.min, domain.max, cfg.noise, plan.clamp))  # type: ignore
    if isinstance(plan, Constant):
        return FiniteDistribution(((plan.value, Fraction(1)),))
    if isinstance(plan, Pick):
        p = Fraction(1, len(plan.labels))
        return FiniteDistribution((Categorical(label), p) for label in plan.labels)
    if isinstance(plan, Chars):
        return _strings(plan)
    if isinstance(plan, Grid) and domain.integer:  # type: ignore[union-attr]
        return FiniteDistribution._unlisted(
            (_Run(plan.lo, plan.hi, Fraction(1, plan.hi - plan.lo + 1)),))
    raise EnumerationInfeasibleError("real-valued domains have no finite enumeration")


def _fields_of(expr: OracleExpr) -> frozenset[str]:
    """Names of the fields a predicate reads."""
    return frozenset(_cuts(expr))


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


class _Leaf(NamedTuple):
    """A string leaf's automaton: the state before the first character, the
    state after reading a character at a position, and whether an end state
    satisfies the leaf; for a ``_while`` leaf, also its character test."""

    start: Any
    step: Callable[[Any, str, int], Any]
    accepts: Callable[[Any], bool]
    holds: Callable[[str, int], bool] | None = None


def _fixed(answer: bool) -> _Leaf:
    """A leaf decided by the length alone."""
    return _Leaf(answer, lambda state, char, position: state, bool)


def _while(holds: Callable[[str, int], bool]) -> _Leaf:
    """A leaf that holds while every character read passes ``holds``."""
    return _Leaf(True, lambda ok, char, position: ok and holds(char, position), bool, holds)


def _kmp(pattern: str) -> _Leaf:
    """The KMP automaton of a non-empty ``pattern``: the state is the length
    of the longest prefix of it that the text read so far ends with, and a
    match, once reached, holds."""
    m = len(pattern)
    border = [0] * m  # border[q]: the longest proper border of pattern[:q + 1]
    k = 0
    for q in range(1, m):
        while k and pattern[q] != pattern[k]:
            k = border[k - 1]
        if pattern[q] == pattern[k]:
            k += 1
        border[q] = k

    def step(q: int, char: str, position: int) -> int:
        if q == m:
            return m
        while q and pattern[q] != char:
            q = border[q - 1]
        return q + 1 if pattern[q] == char else 0
    return _Leaf(0, step, lambda q: q == m)


def _decimal_literal(separator: str) -> _Leaf:
    """``_is_decimal_literal`` for strings of at least 2 characters: the
    separators seen, capped at 2, and whether any other character is not a
    digit."""
    def step(state: tuple[int, bool], char: str, position: int) -> tuple[int, bool]:
        seen, stray = state
        if char == separator:
            return min(seen + 1, 2), stray
        return seen, stray or not "0" <= char <= "9"
    return _Leaf((0, False), step, lambda state: state == (1, False))


def _leaf_automaton(expr: OracleExpr, length: int) -> _Leaf:
    """``evaluate_expr`` of a string leaf, as an automaton over strings of
    ``length`` characters."""
    if isinstance(expr, Contains):
        return _kmp(expr.substring) if expr.substring else _fixed(True)
    if isinstance(expr, CharAt):
        at, char = expr.index + length if expr.index < 0 else expr.index, expr.char
        if not 0 <= at < length:
            return _fixed(False)
        return _while(lambda c, position: position != at or c == char)
    if isinstance(expr, LengthGt):
        return _fixed(length > expr.length)
    if isinstance(expr, MatchesClass):
        allowed = _char_class_set(expr.char_class)
        return _while(lambda c, position: c in allowed)
    if isinstance(expr, Equals) and isinstance(expr.value, str):
        text = expr.value
        if len(text) != length:
            return _fixed(False)
        return _while(lambda c, position: c == text[position])
    if isinstance(expr, DecimalSeparatorIs):
        return _decimal_literal(expr.separator) if length >= 2 else _fixed(False)
    raise EvaluationError(f"predicate node {expr!r} does not test a string")


def _conjuncts(expr: OracleExpr) -> Iterable[OracleExpr]:
    """The operands of ``expr`` under ``and``, nested ``and`` nodes and
    ``ends_with`` (an ``and`` of ``char_at``s) opened."""
    if isinstance(expr, EndsWith):
        expr = _char_ats(expr)
    if isinstance(expr, And):
        for arg in expr.args:
            yield from _conjuncts(arg)
    else:
        yield expr


def _append(leaf: _Leaf, leaves: list[_Leaf]) -> Callable[[tuple], bool]:
    """Append ``leaf`` to ``leaves``: whether a tuple of end states satisfies it."""
    k = len(leaves)
    leaves.append(leaf)
    return lambda states: leaf.accepts(states[k])


def _product(expr: OracleExpr, length: int, leaves: list[_Leaf]) -> Callable[[tuple], bool]:
    """Whether a tuple of leaf end states satisfies ``expr``; appends the
    automaton of each leaf of ``expr`` to ``leaves``, in order, except that
    the ``_while`` leaves under one ``and`` become one leaf that holds while
    all of them do, so that they add one state and not one each."""
    if isinstance(expr, Or):
        parts = [_product(arg, length, leaves) for arg in expr.args]
        return lambda states: any(part(states) for part in parts)
    if isinstance(expr, Not):
        inner = _product(expr.arg, length, leaves)
        return lambda states: not inner(states)
    if not isinstance(expr, (And, EndsWith)):
        return _append(_leaf_automaton(expr, length), leaves)
    parts, tests = [], []
    for arg in _conjuncts(expr):
        if isinstance(arg, (Or, Not)):
            parts.append(_product(arg, length, leaves))
        elif (leaf := _leaf_automaton(arg, length)).holds is None:
            parts.append(_append(leaf, leaves))
        else:
            tests.append(leaf.holds)
    if tests:
        parts.append(_append(_while(tests[0] if len(tests) == 1 else lambda c, position: all(
            test(c, position) for test in tests)), leaves))
    return lambda states: all(part(states) for part in parts)


def _string_mass(expr: OracleExpr, plan: Chars) -> Fraction:
    """Mass of the strings of ``plan`` that satisfy ``expr``, a predicate
    over that field alone, counted rather than listed.

    For each length, a pass over the positions counts the strings that
    reach each tuple of per-leaf automaton states.  Every length in
    [lo, hi] is equally likely and every string of a length is too.
    """
    alphabet = plan.alphabet
    mass = Fraction(0)
    for length in range(plan.lo, plan.hi + 1):
        leaves: list[_Leaf] = []
        accepts = _product(expr, length, leaves)
        counts: dict[tuple, int] = {tuple(leaf.start for leaf in leaves): 1}
        for position in range(length):
            reached: dict[tuple, int] = defaultdict(int)
            for states, n in counts.items():
                for char in alphabet:
                    reached[tuple(leaf.step(state, char, position)
                                  for leaf, state in zip(leaves, states))] += n
            counts = reached
        accepted = sum(n for states, n in counts.items() if accepts(states))
        mass += Fraction(accepted, len(alphabet) ** length)
    return mass / (plan.hi - plan.lo + 1)


def _cuts(expr: OracleExpr, cuts: dict | None = None) -> dict[str, set[int] | None]:
    """For each field ``expr`` reads, the integers x at which one of its
    leaves may tell x - 1 from x, so that every leaf is constant on the
    integers between consecutive cuts (below ``_EXACT``); None for
    a field that a leaf may tell apart at any integer (the leap-year test,
    a string probe)."""
    cuts = {} if cuts is None else cuts
    if isinstance(expr, (And, Or)):
        for arg in expr.args:
            _cuts(arg, cuts)
        return cuts
    if isinstance(expr, Not):
        return _cuts(expr.arg, cuts)
    at: tuple[tuple[str, tuple[int, ...] | None], ...]
    if isinstance(expr, IsLeapDay):
        at = ((expr.day, (29, 30)), (expr.month, (2, 3)), (expr.year, None))
    elif isinstance(expr, InRange):  # an infinite bound holds or fails at every integer
        edges = []
        if abs(expr.lo) != math.inf:
            edges.append(math.ceil(expr.lo))
        if abs(expr.hi) != math.inf:
            edges.append(math.floor(expr.hi) + 1)
        at = ((expr.field, tuple(edges)),)
    elif isinstance(expr, Equals) and not isinstance(expr.value, str):
        v = expr.value  # no integer below _EXACT equals a larger float(v)
        exact = abs(v) < _EXACT and float(v).is_integer()
        at = ((expr.field, (int(v), int(v) + 1) if exact else ()),)
    elif isinstance(expr, DecimalSeparatorIs):  # reads only the precision, 0 for integers
        at = ((expr.field, ()),)
    else:
        at = ((expr.field, None),)
    for field, points in at:
        if points is None or cuts.get(field, ()) is None:
            cuts[field] = None
        else:
            cuts.setdefault(field, set()).update(points)
    return cuts


def _past_exact(runs: tuple[_Run, ...]) -> bool:
    """Whether a run reaches ``_EXACT``, past which float(j) rounds."""
    return any(max(-run.first, run.last) >= _EXACT for run in runs)


def _leaps(year: int) -> int:
    """How many Gregorian leap years lie in [1, year]; their count in
    (a, b] is _leaps(b) - _leaps(a) for any integers, negative ones too."""
    return year // 4 - year // 100 + year // 400


def _cells(runs: tuple[_Run, ...], cuts: set[int] | None) -> list[tuple[DataValue, Fraction]]:
    """One (value, mass) pair per cell of ``runs``: the integers between
    consecutive ``cuts``, at the cell's first integer with the whole cell's
    mass; one per integer, in order, when ``cuts`` is None or a run reaches
    ``_EXACT``."""
    if cuts is None or _past_exact(runs):
        return [(Continuous(float(j), 0), run.weight)
                for run in runs for j in range(run.first, run.last + 1)]
    edges = sorted(cuts)
    cells: dict[int, list] = {}  # cell index -> [first integer, mass]
    for run in runs:
        start = run.first
        while start <= run.last:
            k = bisect.bisect_right(edges, start)
            end = run.last if k == len(edges) else min(run.last, edges[k] - 1)
            mass = (end - start + 1) * run.weight
            if k in cells:
                cells[k][1] += mass
            else:
                cells[k] = [start, mass]
            start = end + 1
    return [(Continuous(float(j), 0), mass) for j, mass in cells.values()]


def _joint(fields: list[str], test: Callable[[dict], bool],
           distributions: Mapping[str, FiniteDistribution],
           cuts: Mapping[str, set[int] | None]) -> Fraction:
    """Mass of the joint points of ``fields`` that pass ``test``, where an
    integer field is walked by the cells between its ``cuts``, on which
    ``test`` is constant."""
    def walk(field: str) -> Iterable[tuple[DataValue, Fraction | float]]:
        compact = distributions[field]._compact
        if compact is None or isinstance(compact, Chars):
            return distributions[field].outcomes
        return _cells(compact, cuts[field])
    weights = [_integer_weights(walk(f)) for f in fields]
    assignment: dict[str, DataValue] = {}
    total = 0
    for combo in itertools.product(*(pairs for _, pairs in weights)):
        weight = 1
        for name, (value, numerator) in zip(fields, combo):
            assignment[name] = value
            weight *= numerator
        if test(assignment):
            total += weight
    return Fraction(total, math.prod(denominator for denominator, _ in weights))


def _probability(expr: OracleExpr, distributions: Mapping[str, FiniteDistribution]) -> Fraction:
    """Exact probability of ``expr``, factorized over independent fields; a
    node over one string field with a plan is counted, not walked,
    integer fields are walked by cells, and a leap-day year's runs are
    counted by the Gregorian rule."""
    if isinstance(expr, Not):
        return 1 - _probability(expr.arg, distributions)
    if isinstance(expr, (And, Or)) and len(split := _components(expr)) > 1:
        parts = [_probability(part, distributions) for part in split]
        if isinstance(expr, And):
            return math.prod(parts)
        return 1 - math.prod(1 - p for p in parts)
    cuts = _cuts(expr)
    if isinstance(expr, IsLeapDay) and len(cuts) == 3:
        tests = {expr.day: lambda x: x == 29, expr.month: lambda x: x == 2,
                 expr.year: lambda x: is_gregorian_leap_year(int(x))}

        def mass(f: str) -> Fraction:
            runs = distributions[f]._compact
            if f == expr.year and isinstance(runs, tuple) and not _past_exact(runs):
                return sum(run.weight * (_leaps(run.last) - _leaps(run.first - 1)) for run in runs)
            return _joint([f], lambda a: tests[f](_number(a[f], f)), distributions, cuts)
        return math.prod(map(mass, tests))
    fields = [f for f in distributions if f in cuts]
    if len(fields) == 1 and isinstance(plan := distributions[fields[0]]._compact, Chars):
        return _string_mass(expr, plan)
    return _joint(fields, functools.partial(evaluate_expr, expr), distributions, cuts)


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
    rounded once to float; only the fields the predicate reads are enumerated,
    and a string field that a node reads alone is counted instead.
    """
    for name, _ in oracle.fields:
        if name not in distributions:
            raise EvaluationError(f"no distribution for oracle field {name!r}")
    size = math.prod(distributions[n]._size() for n in oracle.field_names)
    if size > ENUMERATION_LIMIT:
        raise EnumerationInfeasibleError(
            f"joint support of {size} points exceeds the {ENUMERATION_LIMIT} cap"
        )
    read = _fields_of(oracle.predicate)
    exact = _probability(oracle.predicate,
                         {name: distributions[name] for name in oracle.field_names if name in read})
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
