"""Failure traces and the typed values they carry.

A failure trace is an ordered list of GUI events.  An event may carry a data
value (the text typed into a widget, a picked date component, ...) together
with a domain describing which values that widget accepts.  Domains are what
the anonymization techniques operate on: they bound what a value can reveal
and what a regenerated value may look like.

Value kinds and domain kinds pair up one-to-one:

* ``Continuous``  <-> ``NumericDomain``   (reals or integers in an interval)
* ``Categorical`` <-> ``CategoricalDomain`` (a label from a finite set)
* ``Text``        <-> ``StringDomain``    (bounded-length string over a
  character class such as ``[0-9.,]``)
* ``TupleValue``  <-> ``TupleDomain``     (one level of composition, e.g. the
  day/month/year of a date picker)

Traces serialize to JSON as ``{"events": [{"action", "widget", "data"?}]}``
where ``data`` is ``{"value": ..., "domain": {...}}``.  Numeric values are
written as string literals ("4.60") so the number of fraction digits the
user actually typed survives a round-trip.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from decimal import Decimal
from enum import Enum, EnumMeta
from functools import lru_cache
from types import UnionType
from typing import Any, Callable, Iterable, Mapping, Union, get_args, get_origin, get_type_hints

from .errors import (
    DomainError,
    NonConformingValueError,
    TraceParseError,
    ValidationError,
)

#: Fraction digits assumed for real-valued domains that do not declare any.
DEFAULT_REAL_PRECISION = 2


# ---------------------------------------------------------------------------
# character classes


@lru_cache(maxsize=None)
def expand_char_class(spec: str) -> str:
    """Expand a bracketed character class like ``[0-9.,]`` into its alphabet.

    Supports literal characters and ``a-z`` ranges.  A ``-`` first or last in
    the class is a literal.  Negation is not supported.  The result is sorted
    by codepoint with duplicates removed.
    """
    if len(spec) < 3 or not spec.startswith("[") or not spec.endswith("]"):
        raise DomainError(f"malformed character class {spec!r}")
    body = spec[1:-1]
    if body.startswith("^"):
        raise DomainError(f"negated character class {spec!r} is not supported")
    chars: set[str] = set()
    i = 0
    while i < len(body):
        if i + 2 < len(body) and body[i + 1] == "-":
            lo, hi = body[i], body[i + 2]
            if ord(lo) > ord(hi):
                raise DomainError(f"inverted range {lo}-{hi} in {spec!r}")
            chars.update(chr(c) for c in range(ord(lo), ord(hi) + 1))
            i += 3
        else:
            chars.add(body[i])
            i += 1
    return "".join(sorted(chars))


@lru_cache(maxsize=None)
def _char_class_set(spec: str) -> frozenset[str]:
    return frozenset(expand_char_class(spec))


# ---------------------------------------------------------------------------
# values


@dataclass(frozen=True)
class Continuous:
    """A numeric value plus the fraction digits of the literal it came from.

    ``precision`` only affects how the value renders ("4.60" vs "4.6"); two
    values that differ only in precision compare equal.
    """

    value: float
    precision: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        if self.precision < 0:
            raise DomainError("precision must be >= 0")

    def rendered(self) -> str:
        return format_number(self.value, self.precision)


@dataclass(frozen=True)
class Categorical:
    label: str


@dataclass(frozen=True)
class Text:
    value: str


@dataclass(frozen=True)
class TupleValue:
    components: tuple["DataValue", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))


DataValue = Union[Continuous, Categorical, Text, TupleValue]


def format_number(value: float, precision: int) -> str:
    """Render ``value`` with exactly ``precision`` fraction digits."""
    text = f"{value:.{precision}f}"
    if text.startswith("-") and float(text) == 0.0:
        text = text[1:]  # avoid "-0.00"
    return text


def literal_precision(literal: str) -> int:
    """Fraction digits of a numeric literal: "4.60" -> 2, "29" -> 0."""
    text = literal.strip()
    if "e" in text.lower():
        return max(0, -Decimal(text).as_tuple().exponent)
    if "." in text:
        return len(text.split(".", 1)[1])
    return 0


def float_precision(value: float) -> int:
    """Fraction digits of the shortest literal that round-trips ``value``."""
    if float(value).is_integer():
        return 0
    return max(0, -Decimal(repr(float(value))).as_tuple().exponent)


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class NumericDomain:
    """An interval of reals or integers.  ``min`` is always inclusive."""

    min: float
    max: float
    max_inclusive: bool = True
    integer: bool = False
    precision: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "min", float(self.min))
        object.__setattr__(self, "max", float(self.max))
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise DomainError("domain bounds must be finite")
        if self.min >= self.max:
            raise DomainError(f"empty numeric domain [{self.min}, {self.max}]")
        if self.integer:
            if not (self.min.is_integer() and self.max.is_integer()):
                raise DomainError("integer domain bounds must be integers")
            if self.precision not in (None, 0):
                raise DomainError("integer domains have precision 0")
        if self.precision is not None and self.precision < 0:
            raise DomainError("precision must be >= 0")
        # regeneration draws int64 indexes of the 10**-precision grid
        precision = self.effective_precision
        scale = 10 ** min(precision, 19)  # 10**19 is past int64 already
        if not (scale < 2**63 and -(2**63) <= self.min * scale and self.max * scale < 2**63):
            raise DomainError(
                f"numeric domain [{self.min}, {self.max}] at precision {precision} "
                "has grid indexes beyond int64"
            )

    @property
    def effective_precision(self) -> int:
        if self.integer:
            return 0
        if self.precision is not None:
            return self.precision
        return DEFAULT_REAL_PRECISION


@dataclass(frozen=True)
class CategoricalDomain:
    """A finite label set, optionally partitioned into named groups."""

    categories: tuple[str, ...]
    hierarchy: tuple[tuple[str, tuple[str, ...]], ...] | None = None

    def __init__(
        self,
        categories: Iterable[str],
        hierarchy: Mapping[str, Iterable[str]] | None = None,
    ) -> None:
        cats = tuple(categories)
        if not cats:
            raise DomainError("categorical domain needs at least one category")
        if len(set(cats)) != len(cats):
            raise DomainError("duplicate categories")
        object.__setattr__(self, "categories", cats)
        if hierarchy is None:
            object.__setattr__(self, "hierarchy", None)
            return
        groups = tuple((name, tuple(members)) for name, members in hierarchy.items())
        seen: set[str] = set()
        for name, members in groups:
            if not members:
                raise DomainError(f"hierarchy group {name!r} is empty")
            overlap = seen.intersection(members)
            if overlap:
                raise DomainError(f"categories {sorted(overlap)} appear in two groups")
            seen.update(members)
        if seen != set(cats):
            raise DomainError("hierarchy groups must cover exactly the categories")
        object.__setattr__(self, "hierarchy", groups)

    def group_of(self, label: str) -> str:
        """Name of the hierarchy group containing ``label``."""
        assert self.hierarchy is not None
        for name, members in self.hierarchy:
            if label in members:
                return name
        raise DomainError(f"label {label!r} is in no hierarchy group")

    def group_members(self, group: str) -> tuple[str, ...]:
        assert self.hierarchy is not None
        for name, members in self.hierarchy:
            if name == group:
                return members
        raise DomainError(f"unknown hierarchy group {group!r}")


@dataclass(frozen=True)
class StringDomain:
    """Strings over a character class with an inclusive length interval."""

    char_class: str
    length_min: int
    length_max: int

    def __post_init__(self) -> None:
        expand_char_class(self.char_class)  # validates
        if self.length_min < 0 or self.length_min > self.length_max:
            raise DomainError(
                f"bad length bounds [{self.length_min}, {self.length_max}]"
            )

    @property
    def alphabet(self) -> str:
        return expand_char_class(self.char_class)


@dataclass(frozen=True)
class TupleDomain:
    components: tuple["DomainSpec", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise DomainError("tuple domain needs at least one component")
        for comp in self.components:
            if isinstance(comp, TupleDomain):
                raise DomainError("tuple domains do not nest")


DomainSpec = Union[NumericDomain, CategoricalDomain, StringDomain, TupleDomain]


# ---------------------------------------------------------------------------
# conformance


def conforms(value: DataValue, domain: DomainSpec) -> bool:
    """Whether ``value`` is a member of ``domain``.  Total: never raises."""
    if isinstance(domain, NumericDomain):
        if not isinstance(value, Continuous) or not math.isfinite(value.value):
            return False
        v = value.value
        if domain.integer and not v.is_integer():
            return False
        if v < domain.min:
            return False
        return v <= domain.max if domain.max_inclusive else v < domain.max
    if isinstance(domain, CategoricalDomain):
        return isinstance(value, Categorical) and value.label in domain.categories
    if isinstance(domain, StringDomain):
        if not isinstance(value, Text):
            return False
        if not domain.length_min <= len(value.value) <= domain.length_max:
            return False
        allowed = _char_class_set(domain.char_class)
        return all(c in allowed for c in value.value)
    if isinstance(domain, TupleDomain):
        if not isinstance(value, TupleValue):
            return False
        if len(value.components) != len(domain.components):
            return False
        return all(
            conforms(v, d) for v, d in zip(value.components, domain.components)
        )
    return False


def values_equal(reference: DataValue, other: DataValue) -> bool:
    """Equality as a user would read the values back.

    Strings and labels compare exactly; numbers compare by their rendering at
    the *reference* value's precision, so regenerating 4.603 against an
    original "4.60" counts as equal while 4.61 does not.
    """
    if isinstance(reference, Continuous):
        return isinstance(other, Continuous) and (
            format_number(other.value, reference.precision) == reference.rendered()
        )
    if isinstance(reference, TupleValue):
        return (
            isinstance(other, TupleValue)
            and len(reference.components) == len(other.components)
            and all(
                values_equal(r, o)
                for r, o in zip(reference.components, other.components)
            )
        )
    return reference == other


# ---------------------------------------------------------------------------
# events and traces


@dataclass(frozen=True)
class Event:
    """One GUI interaction; ``data`` pairs the entered value with its domain."""

    action: str
    widget: str
    data: tuple[DataValue, DomainSpec] | None = None

    def __post_init__(self) -> None:
        if self.data is not None:
            value, domain = self.data
            if not conforms(value, domain):
                raise NonConformingValueError(
                    f"value {value!r} does not conform to its domain"
                )


@dataclass(frozen=True)
class FailureTrace:
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))


# ---------------------------------------------------------------------------
# JSON codec


def domain_to_json(domain: DomainSpec) -> dict[str, Any]:
    if isinstance(domain, CategoricalDomain):
        out: dict[str, Any] = {"kind": "categorical", "categories": list(domain.categories)}
        if domain.hierarchy is not None:
            out["hierarchy"] = {name: list(m) for name, m in domain.hierarchy}
        return out
    kind = _DOMAIN_KINDS.get(type(domain))
    if kind is None:
        raise DomainError(f"unknown domain {domain!r}")
    table = _DOMAIN_FIELDS[kind][1]
    return {"kind": kind, **fields_to_json(table, domain, domain_to_json, omit_none=True)}


_DOMAIN_KINDS = {
    NumericDomain: "numeric",
    CategoricalDomain: "categorical",
    StringDomain: "string",
    TupleDomain: "tuple",
}

_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    bool: "true or false",
    str: "a string",
    type(None): "null",
    dict: "an object",
    list: "an array",
}


def _options(hint: Any) -> tuple[Any, ...]:
    """The types a value annotated ``hint`` may have: ``X | None`` -> (X, None)."""
    return get_args(hint) if get_origin(hint) in (Union, UnionType) else (hint,)


def check_type(
    raw: Any,
    options: tuple[Any, ...],
    where: str,
    key: str,
    error: type[ValidationError] = TraceParseError,
) -> Any:
    """``raw``, the value of ``key`` in ``where``, read as one of the types
    ``options`` (``type(None)`` admits null).

    An ``int`` passes for ``float``, a ``bool`` passes only for ``bool`` and
    an enum is read from its string value.  Anything else raises ``error``
    naming ``where`` and ``key``.
    """
    kind = type(raw)
    for option in options:
        if kind is option or (kind is int and option is float):
            return raw
        if isinstance(option, EnumMeta) and kind is str and raw in option._value2member_map_:
            return option(raw)
    expected = " or ".join(
        "one of " + ", ".join(map(repr, option._value2member_map_))
        if isinstance(option, EnumMeta)
        else _TYPE_NAMES[option]
        for option in options
    )
    raise error(f"{where}: {key!r} must be {expected}, got {raw!r}")


def check_keys(
    raw: Mapping[str, Any],
    known: Iterable[str],
    where: str,
    error: type[ValidationError] = TraceParseError,
) -> None:
    """Raise ``error`` naming ``where`` and every key of the JSON object
    ``raw`` outside ``known``: a misspelt key would otherwise drop or change
    its content without a word."""
    unknown = set(raw).difference(known)
    if unknown:
        raise error(f"unknown key(s) for {where}: {', '.join(map(repr, sorted(unknown)))}")


FieldTable = tuple[tuple[str, str, Any, str, bool], ...]


def field_table(cls: type, keys: Mapping[str, str] | None = None) -> FieldTable:
    """(field, JSON key, type, reader, required) for each field of the
    dataclass ``cls``, in field order; ``keys`` renames fields in JSON.  The
    type of a scalar or domain field is the tuple of types it admits, that of
    any other field its resolved annotation.

    Build it once, at import: ``get_type_hints`` costs more than a decode.
    """
    hints = get_type_hints(cls)
    table = []
    for f in fields(cls):
        hint = hints[f.name]
        if hint == DataValue:
            reader = "value"
        elif hint == DomainSpec or hint in _DOMAIN_KINDS:
            reader, hint = "domain", _options(hint)
        elif get_origin(hint) is tuple:
            reader = "array"
        elif all(o in _TYPE_NAMES or isinstance(o, EnumMeta) for o in _options(hint)):
            reader, hint = "scalar", _options(hint)
        else:
            reader = "nested"
        required = f.default is MISSING and f.default_factory is MISSING
        table.append((f.name, (keys or {}).get(f.name, f.name), hint, reader, required))
    return tuple(table)


def fields_from_json(
    table: FieldTable,
    raw: Mapping[str, Any],
    where: str,
    error: type[ValidationError] = TraceParseError,
    element: Callable[[Any], Any] | None = None,
    *,
    kind: str,
) -> dict[str, Any]:
    """Constructor arguments for a dataclass read from the JSON object ``raw``.

    ``table`` comes from ``field_table``; only a field with a default may be
    left out, and ``raw`` may hold no key but the table's and the format's
    ``kind`` key (see ``check_keys``).  A field annotated with a domain type
    is read by ``domain_from_json`` and must be of that type, and a
    ``DataValue`` is read against the ``domain`` field before it.  ``element`` reads a field of
    another dataclass type, and each item of a ``tuple[X, ...]`` array.  Any
    other value must pass ``check_type``.
    """
    kwargs: dict[str, Any] = {}
    found = kind in raw  # keys counted, so a well-formed object builds no set
    for name, key, hint, reader, required in table:
        if key not in raw:
            if required:
                raise error(f"{where} is missing key {key!r}")
            continue
        found += 1
        item = raw[key]
        if reader == "scalar":
            if type(item) not in hint:  # the common case skips the call
                item = check_type(item, hint, where, key, error)
            kwargs[name] = item
        elif reader == "domain":
            kwargs[name] = domain_from_json(item)
            if not isinstance(kwargs[name], hint):
                kinds = " or ".join(_DOMAIN_KINDS[c] for c in hint)
                raise error(f"{where}: {key!r} must be a {kinds} domain")
        elif reader == "value":
            kwargs[name] = value_from_json(item, kwargs["domain"])
        elif reader == "nested":
            kwargs[name] = element(item)  # type: ignore[misc]
        elif isinstance(item, list):
            kwargs[name] = tuple(map(element, item))  # type: ignore[arg-type]
        else:
            raise error(f"{where}: {key!r} must be an array, got {item!r}")
    if found < len(raw):
        check_keys(raw, {kind, *(key for _, key, *_ in table)}, where, error)
    return kwargs


def fields_to_json(
    table: FieldTable,
    obj: Any,
    element: Callable[[Any], Any] | None = None,
    omit_none: bool = False,
) -> dict[str, Any]:
    """The JSON object of the dataclass ``obj``, keyed and read back as by
    ``fields_from_json``; enums are written as their values."""
    out: dict[str, Any] = {}
    for name, key, _, reader, _ in table:
        value = getattr(obj, name)
        if reader == "scalar":
            if isinstance(value, Enum):
                value = value.value
            elif value is None and omit_none:
                continue
        elif reader == "domain":
            value = domain_to_json(value)
        elif reader == "value":
            value = value_to_json(value)
        elif reader == "nested":
            value = element(value)  # type: ignore[misc]
        else:
            value = [element(v) for v in value]  # type: ignore[misc]
        out[key] = value
    return out


#: Domain kinds read field by field; a categorical hierarchy is a JSON object.
_DOMAIN_FIELDS = {
    kind: (cls, field_table(cls))
    for cls, kind in _DOMAIN_KINDS.items()
    if cls is not CategoricalDomain
}


def _is_label_list(raw: Any) -> bool:
    return isinstance(raw, list) and all(isinstance(label, str) for label in raw)


def domain_from_json(raw: Any) -> DomainSpec:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise TraceParseError(f"domain must be an object with a 'kind': {raw!r}")
    kind = raw["kind"]
    if kind == "categorical":
        check_keys(raw, ("kind", "categories", "hierarchy"), "categorical domain")
        if "categories" not in raw:
            raise TraceParseError("domain is missing key 'categories'")
        categories, hierarchy = raw["categories"], raw.get("hierarchy")
        if not _is_label_list(categories):
            raise TraceParseError(
                f"categorical domain: 'categories' must be a list of strings, "
                f"got {categories!r}"
            )
        if hierarchy is not None and not (
            isinstance(hierarchy, dict) and all(map(_is_label_list, hierarchy.values()))
        ):
            raise TraceParseError(
                f"categorical domain: 'hierarchy' must map group names to lists "
                f"of strings, got {hierarchy!r}"
            )
        return CategoricalDomain(categories=categories, hierarchy=hierarchy)
    if isinstance(kind, str) and kind in _DOMAIN_FIELDS:
        cls, table = _DOMAIN_FIELDS[kind]
        return cls(**fields_from_json(
            table, raw, f"{kind} domain", element=domain_from_json, kind="kind"))
    raise TraceParseError(f"unknown domain kind {kind!r}")


def value_to_json(value: DataValue) -> Any:
    if isinstance(value, Continuous):
        rendered = value.rendered()
        # Keep the exact float when the fixed-point literal would change it.
        if float(rendered) != value.value:
            rendered = repr(value.value)
        return rendered
    if isinstance(value, Categorical):
        return value.label
    if isinstance(value, Text):
        return value.value
    if isinstance(value, TupleValue):
        return [value_to_json(c) for c in value.components]
    raise DomainError(f"unknown value {value!r}")


def value_from_json(raw: Any, domain: DomainSpec) -> DataValue:
    if isinstance(domain, NumericDomain):
        if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
            raise TraceParseError(f"expected a numeric literal, got {raw!r}")
        try:
            if isinstance(raw, str):
                return Continuous(float(raw), literal_precision(raw))
            if isinstance(raw, int):
                return Continuous(float(raw), 0)
            return Continuous(raw, float_precision(raw))
        except (ValueError, ArithmeticError) as exc:
            raise TraceParseError(f"bad numeric literal {raw!r}") from exc
    if isinstance(domain, CategoricalDomain):
        if not isinstance(raw, str):
            raise TraceParseError(f"expected a category label, got {raw!r}")
        return Categorical(raw)
    if isinstance(domain, StringDomain):
        if not isinstance(raw, str):
            raise TraceParseError(f"expected a string, got {raw!r}")
        return Text(raw)
    if isinstance(domain, TupleDomain):
        if not isinstance(raw, list) or len(raw) != len(domain.components):
            raise TraceParseError(
                f"expected {len(domain.components)} tuple components, got {raw!r}"
            )
        return TupleValue(
            tuple(value_from_json(r, d) for r, d in zip(raw, domain.components))
        )
    raise DomainError(f"unknown domain {domain!r}")


def event_to_json(event: Event) -> dict[str, Any]:
    out: dict[str, Any] = {"action": event.action, "widget": event.widget}
    if event.data is not None:
        value, domain = event.data
        out["data"] = {
            "value": value_to_json(value),
            "domain": domain_to_json(domain),
        }
    return out


def event_from_json(raw: Any, index: int, payload: str = "data") -> Event:
    """Event ``index`` of a trace.  Besides its action and widget an event
    holds only its ``payload`` key: the ``data`` read here in a trace, or the
    ``record`` its caller reads in an anonymized trace."""
    where = f"event {index}"
    if not isinstance(raw, dict):
        raise TraceParseError(f"{where}: expected an object, got {raw!r}")
    check_keys(raw, ("action", "widget", payload), where)
    for key in ("action", "widget"):
        if not isinstance(raw.get(key), str):
            raise TraceParseError(f"{where}: missing or non-string {key!r}")
    data = raw.get("data")
    if data is None:
        return Event(action=raw["action"], widget=raw["widget"])
    if not isinstance(data, dict) or "value" not in data or "domain" not in data:
        raise TraceParseError(f"{where}: data needs 'value' and 'domain'")
    check_keys(data, ("value", "domain"), f"{where} data")
    domain = domain_from_json(data["domain"])
    value = value_from_json(data["value"], domain)
    try:
        return Event(action=raw["action"], widget=raw["widget"], data=(value, domain))
    except NonConformingValueError as exc:
        raise NonConformingValueError(
            f"{where} (widget {raw['widget']!r}): {exc}"
        ) from exc


def parse_trace(text: str) -> FailureTrace:
    """Parse a trace from its JSON text.

    Raises TraceParseError for malformed input and NonConformingValueError
    when an event's value lies outside its declared domain.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("events"), list):
        raise TraceParseError("a trace is an object with an 'events' array")
    events = tuple(
        event_from_json(item, index) for index, item in enumerate(raw["events"])
    )
    return FailureTrace(events=events)


def serialize_trace(trace: FailureTrace) -> str:
    """Render a trace to canonical JSON text (stable across runs)."""
    payload = {"events": [event_to_json(e) for e in trace.events]}
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
