"""The five anonymization techniques and their regeneration rules.

Anonymization happens in two phases.  ``anonymize`` maps a (value, domain,
config) triple to an AnonymizedRecord: the shareable artifact that replaces
the raw value inside a trace.  ``regenerate`` maps a record plus a random
stream back to a concrete value that conforms to the original domain, so an
anonymized trace can be replayed.

Techniques and the records they produce:

* Global Recoding   -> IntervalGroup (numeric) / CategoryGroup (categorical)
* Rounding          -> Concrete (the nearest of k interval midpoints)
* Local Suppression -> Suppressed (value dropped entirely)
* SCD Local Suppression -> SpecialChars (value dropped, but the multiset of
  special characters survives; specials are everything outside [A-Za-z0-9]
  except the space character)
* Noise Addition    -> Concrete (uniform draw from a noise interval around
  the value; already random at anonymization time)

Regenerated numbers land on the decimal grid of the domain's precision (two
fraction digits by default for real domains) so they read like values a user
could actually have typed, and integer noise samples round half-up before
clamping into the domain.
"""

from __future__ import annotations

import functools
import logging
import math
import string
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Any, NamedTuple, Union

import numpy as np

from .errors import (
    ConfigError,
    DegenerateIntervalError,
    MissingHierarchyError,
    NonConformingValueError,
    TraceParseError,
    UnsupportedTechniqueError,
    ValidationError,
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
    TupleValue,
    conforms,
    field_table,
    fields_from_json,
    fields_to_json,
)
from .rng import TAPE_WORDS, TrialBlock, bounded, split, uniform

log = logging.getLogger(__name__)

_ALNUM = frozenset(string.ascii_letters + string.digits)
_MASK32 = (1 << 32) - 1


def is_special_char(char: str) -> bool:
    """Special characters: not alphanumeric ASCII and not the space."""
    return char not in _ALNUM and char != " "


def special_characters(text: str) -> str:
    """The multiset of special characters in ``text``, sorted."""
    return "".join(sorted(c for c in text if is_special_char(c)))


# ---------------------------------------------------------------------------
# technique configurations


class LengthPolicy(str, Enum):
    """How suppression picks the length of a regenerated string."""

    PRESERVE_ORIGINAL = "preserve_original"
    RANDOM_IN_RANGE = "random_in_range"


@dataclass(frozen=True)
class GlobalRecodingConfig:
    """Coarsen to one of ``partitions`` equal-width sub-intervals, or to a
    hierarchy group for categorical values (``partitions`` ignored there)."""

    partitions: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.partitions is not None and self.partitions < 2:
            raise ConfigError("recoding needs at least 2 partitions")


@dataclass(frozen=True)
class RoundingConfig:
    partitions: int
    label: str | None = None

    def __post_init__(self) -> None:
        if self.partitions < 2:
            raise ConfigError("rounding needs at least 2 partitions")


@dataclass(frozen=True)
class LocalSuppressionConfig:
    length_policy: LengthPolicy = LengthPolicy.RANDOM_IN_RANGE
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "length_policy", LengthPolicy(self.length_policy))


@dataclass(frozen=True)
class SCDLocalSuppressionConfig:
    length_policy: LengthPolicy = LengthPolicy.RANDOM_IN_RANGE
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "length_policy", LengthPolicy(self.length_policy))


@dataclass(frozen=True)
class NoiseAdditionConfig:
    """Relative noise magnitude in (0, 1]."""

    noise: float
    label: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.noise <= 1.0:
            raise ConfigError(f"noise must be in (0, 1], got {self.noise}")


TechniqueConfig = Union[
    GlobalRecodingConfig,
    RoundingConfig,
    LocalSuppressionConfig,
    SCDLocalSuppressionConfig,
    NoiseAdditionConfig,
]


# ---------------------------------------------------------------------------
# anonymized records


@dataclass(frozen=True)
class Suppressed:
    """The value is gone; only an optional original-length hint remains."""

    domain: DomainSpec
    length_hint: int | None = None

    def __post_init__(self) -> None:
        if self.length_hint is not None:
            if not isinstance(self.domain, StringDomain):
                raise ValidationError("length hints only apply to string domains")
            if not self.domain.length_min <= self.length_hint <= self.domain.length_max:
                raise ValidationError("length hint outside domain bounds")


@dataclass(frozen=True)
class SpecialChars:
    """Suppressed string that keeps its special-character multiset."""

    domain: StringDomain
    specials: str
    length_hint: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.domain, StringDomain):
            raise ValidationError("special-character records need a string domain")
        object.__setattr__(self, "specials", "".join(sorted(self.specials)))
        bad = [c for c in self.specials if not is_special_char(c)]
        if bad:
            raise ValidationError(f"not special characters: {bad!r}")
        if self.length_hint is not None and not (
            self.domain.length_min <= self.length_hint <= self.domain.length_max
        ):
            raise ValidationError("length hint outside domain bounds")


@dataclass(frozen=True)
class IntervalGroup:
    """A numeric value coarsened to the sub-interval that contained it."""

    domain: NumericDomain
    lo: float
    hi: float
    hi_inclusive: bool

    def __post_init__(self) -> None:
        if not isinstance(self.domain, NumericDomain):
            raise ValidationError("interval groups need a numeric domain")
        if not (self.domain.min <= self.lo < self.hi <= self.domain.max):
            raise ValidationError(
                f"interval [{self.lo}, {self.hi}] not inside the domain"
            )


@dataclass(frozen=True)
class CategoryGroup:
    """A categorical value coarsened to its hierarchy group."""

    domain: CategoricalDomain
    group_label: str

    def __post_init__(self) -> None:
        if self.domain.hierarchy is None:
            raise MissingHierarchyError("domain has no hierarchy")
        self.domain.group_members(self.group_label)  # validates


@dataclass(frozen=True)
class Concrete:
    """An already-concrete replacement value (rounding, noise addition)."""

    domain: DomainSpec
    value: DataValue

    def __post_init__(self) -> None:
        if not conforms(self.value, self.domain):
            raise NonConformingValueError(
                f"concrete record value {self.value!r} outside its domain"
            )


@dataclass(frozen=True)
class TupleRecord:
    components: tuple["AnonymizedRecord", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))


AnonymizedRecord = Union[
    Suppressed, SpecialChars, IntervalGroup, CategoryGroup, Concrete, TupleRecord
]


def record_domain(record: AnonymizedRecord) -> DomainSpec:
    """The domain a record regenerates into."""
    if isinstance(record, TupleRecord):
        return TupleDomain(tuple(record_domain(c) for c in record.components))
    return record.domain


# ---------------------------------------------------------------------------
# draw plans: what a record regenerates from
#
# ``draw_plan`` and ``noise_plan`` state once which parameters a value is
# drawn from; ``draw`` (one value), ``_column`` (a block of trials) and
# ``oracles.technique_distribution`` (exact enumeration) read them.


class Constant(NamedTuple):
    """The value itself, with no draw."""

    value: DataValue


class Grid(NamedTuple):
    """``rng.integers(lo, hi + 1) / scale``, read at ``precision`` fraction
    digits, with ``scale == 10**precision``; integer domains are scale 1,
    precision 0."""

    lo: int
    hi: int
    scale: int
    precision: int


class Span(NamedTuple):
    """``rng.uniform(lo, hi)``: read at ``precision`` fraction digits when no
    grid point lies inside the interval, or, with ``clamp`` (integer noise),
    rounded half-up and clamped into ``clamp``'s inclusive bounds."""

    lo: float
    hi: float
    precision: int
    clamp: tuple[int, int] | None


class Pick(NamedTuple):
    """``labels[rng.integers(len(labels))]``."""

    labels: tuple[str, ...]


class Chars(NamedTuple):
    """A string over ``alphabet`` of ``rng.integers(lo, hi + 1)`` characters
    (no draw when lo == hi) holding ``specials`` at random positions; plain
    suppression has no specials."""

    alphabet: str
    lo: int
    hi: int
    specials: str


Plan = Union[Constant, Grid, Span, Pick, Chars]


def _grid_ceil(x: float, scale: int) -> int:
    """Smallest integer i with i/scale >= x."""
    idx = math.ceil(x * scale)
    if (idx - 1) / scale >= x:
        idx -= 1
    elif idx / scale < x:
        idx += 1
    return idx


def integer_bounds(lo: float, hi: float, hi_inclusive: bool) -> tuple[int, int]:
    """Inclusive integer bounds of the interval; raises when it holds none."""
    lo_i = math.ceil(lo)
    hi_i = math.floor(hi)
    if not hi_inclusive and float(hi).is_integer():
        hi_i = int(hi) - 1
    if lo_i > hi_i:
        raise DegenerateIntervalError(
            f"no integer inside [{lo}, {hi}{']' if hi_inclusive else ')'}"
        )
    return lo_i, hi_i


def _grid_plan(domain: NumericDomain, lo: float, hi: float, hi_inclusive: bool) -> Plan:
    """A uniform draw from [lo, hi] (or [lo, hi)) on the decimal grid of the
    domain's precision, or a raw uniform draw when the interval is narrower
    than one grid step of a real domain."""
    if domain.integer:
        return Grid(*integer_bounds(lo, hi, hi_inclusive), 1, 0)
    precision = domain.effective_precision
    scale = 10**precision
    lo_idx = _grid_ceil(lo, scale)
    hi_idx = -_grid_ceil(-hi, scale)  # the largest i with i/scale <= hi
    if not hi_inclusive and hi_idx / scale == hi:
        hi_idx -= 1
    if lo_idx > hi_idx:
        return Span(lo, hi, precision, None)
    return Grid(lo_idx, hi_idx, scale, precision)


def _chars_plan(domain: StringDomain, length_hint: int | None, specials: str) -> Chars:
    if length_hint is None:
        return Chars(domain.alphabet, domain.length_min, domain.length_max, specials)
    return Chars(domain.alphabet, length_hint, length_hint, specials)


def draw_plan(record: AnonymizedRecord) -> Plan:
    """What ``regenerate`` draws ``record``'s value from.  Tuple-valued
    records have no plan: their components draw from split streams."""
    if isinstance(record, Concrete):
        return Constant(record.value)
    if isinstance(record, IntervalGroup):
        return _grid_plan(record.domain, record.lo, record.hi, record.hi_inclusive)
    if isinstance(record, CategoryGroup):
        return Pick(record.domain.group_members(record.group_label))
    if isinstance(record, SpecialChars):
        return _chars_plan(record.domain, record.length_hint, record.specials)
    if isinstance(record, Suppressed):
        domain = record.domain
        if isinstance(domain, NumericDomain):
            return _grid_plan(domain, domain.min, domain.max, domain.max_inclusive)
        if isinstance(domain, CategoricalDomain):
            return Pick(domain.categories)
        if isinstance(domain, StringDomain):
            return _chars_plan(domain, record.length_hint, "")
    raise ConfigError(f"unknown anonymized record {record!r}")


def _draw_chars(plan: Chars, rng: np.random.Generator, length_raises: Counter | None) -> Text:
    length = plan.lo if plan.lo == plan.hi else int(rng.integers(plan.lo, plan.hi + 1))
    alphabet, specials = plan.alphabet, plan.specials
    needed = len(specials)
    if length < needed:
        if length_raises is None:
            log.warning(
                "raising regenerated length %d to %d to fit special characters",
                length,
                needed,
            )
        else:
            length_raises[needed] += 1
        length = needed
    picks = rng.integers(0, len(alphabet), size=length) if length else ()
    chars = [alphabet[int(i)] for i in picks]
    if needed:
        positions = rng.choice(length, size=needed, replace=False)
        for pos, which in zip(positions, rng.permutation(needed)):
            chars[int(pos)] = specials[int(which)]
    return Text("".join(chars))


def draw(
    plan: Plan, rng: np.random.Generator, length_raises: Counter | None = None
) -> DataValue:
    """One value drawn from ``plan``; see ``regenerate`` for ``length_raises``."""
    if isinstance(plan, Grid):
        return Continuous(int(rng.integers(plan.lo, plan.hi + 1)) / plan.scale, plan.precision)
    if isinstance(plan, Span):
        drawn = float(rng.uniform(plan.lo, plan.hi))
        if plan.clamp is None:
            return Continuous(drawn, plan.precision)
        lo, hi = plan.clamp
        return Continuous(float(min(max(math.floor(drawn + 0.5), lo), hi)), 0)
    if isinstance(plan, Pick):
        return Categorical(plan.labels[int(rng.integers(len(plan.labels)))])
    if isinstance(plan, Chars):
        return _draw_chars(plan, rng, length_raises)
    return plan.value


# ---------------------------------------------------------------------------
# global recoding


def partition_boundaries(domain: NumericDomain, partitions: int) -> list[float]:
    """The partitions-1 interior boundaries of the equal-width split."""
    width = (domain.max - domain.min) / partitions
    return [domain.min + i * width for i in range(1, partitions)]


def global_recoding_anonymize(
    value: DataValue, domain: DomainSpec, cfg: GlobalRecodingConfig
) -> AnonymizedRecord:
    """Coarsen ``value`` to the sub-interval or hierarchy group holding it.

    Interior boundaries belong to the sub-interval on their right; only the
    last sub-interval inherits the domain's max inclusiveness.
    """
    if isinstance(domain, NumericDomain):
        if cfg.partitions is None:
            raise ConfigError("recoding a numeric value needs a partition count")
        bounds = partition_boundaries(domain, cfg.partitions)
        index = bisect_right(bounds, value.value)  # type: ignore[union-attr]
        lo = domain.min if index == 0 else bounds[index - 1]
        last = index == len(bounds)
        hi = domain.max if last else bounds[index]
        return IntervalGroup(domain, lo, hi, domain.max_inclusive if last else False)
    if isinstance(domain, CategoricalDomain):
        if domain.hierarchy is None:
            raise MissingHierarchyError(
                "recoding a categorical value needs a hierarchy"
            )
        return CategoryGroup(domain, domain.group_of(value.label))  # type: ignore[union-attr]
    raise UnsupportedTechniqueError(
        "global recoding applies to numeric and categorical values only"
    )


# ---------------------------------------------------------------------------
# rounding


def rounding_points(domain: NumericDomain, partitions: int) -> tuple[float, ...]:
    """Midpoints of the equal-width sub-intervals; integer domains round each
    midpoint half-up and clamp it into the domain."""
    width = (domain.max - domain.min) / partitions
    points = [domain.min + (i + 0.5) * width for i in range(partitions)]
    if domain.integer:
        lo_i, hi_i = integer_bounds(domain.min, domain.max, domain.max_inclusive)
        points = [float(min(max(math.floor(p + 0.5), lo_i), hi_i)) for p in points]
    return tuple(points)


def rounding_anonymize(
    value: DataValue, domain: DomainSpec, cfg: RoundingConfig
) -> AnonymizedRecord:
    """Replace ``value`` with the nearest rounding point (ties go lower)."""
    if not isinstance(domain, NumericDomain):
        raise UnsupportedTechniqueError("rounding applies to numeric values only")
    assert isinstance(value, Continuous)
    nearest = min(rounding_points(domain, cfg.partitions),
                  key=lambda p: abs(value.value - p))
    return Concrete(domain, Continuous(nearest, domain.effective_precision))


# ---------------------------------------------------------------------------
# suppression


def local_suppression_anonymize(
    value: DataValue, domain: DomainSpec, cfg: LocalSuppressionConfig
) -> AnonymizedRecord:
    """Drop the value.  Strings keep their length when the policy says so;
    nothing else about the original survives."""
    hint = None
    if (
        isinstance(domain, StringDomain)
        and cfg.length_policy is LengthPolicy.PRESERVE_ORIGINAL
    ):
        hint = len(value.value)  # type: ignore[union-attr]
    return Suppressed(domain, hint)


def scd_local_suppression_anonymize(
    value: DataValue, domain: DomainSpec, cfg: SCDLocalSuppressionConfig
) -> AnonymizedRecord:
    """Drop the string but keep its special-character multiset."""
    if not isinstance(domain, StringDomain):
        raise UnsupportedTechniqueError(
            "special-character suppression applies to string values only"
        )
    assert isinstance(value, Text)
    hint = (
        len(value.value)
        if cfg.length_policy is LengthPolicy.PRESERVE_ORIGINAL
        else None
    )
    return SpecialChars(domain, special_characters(value.value), hint)


# ---------------------------------------------------------------------------
# noise addition


def noise_interval(
    value: float, domain: NumericDomain, noise: float
) -> tuple[float, float]:
    """[value - noise*(value-min), value + noise*(max-value)]."""
    return (
        value - noise * (value - domain.min),
        value + noise * (domain.max - value),
    )


@functools.lru_cache(maxsize=1024)
def noise_plan(value: DataValue, domain: DomainSpec, noise: float) -> Plan:
    """What noise addition draws ``value``'s replacement from: the grid
    points of its noise interval (or a raw draw when there are none), and
    for integer domains a raw draw rounded half-up and clamped into the
    domain.  Cached, because a run adds noise to the same value each trial."""
    if not isinstance(domain, NumericDomain):
        raise UnsupportedTechniqueError("noise addition applies to numeric values only")
    lo, hi = noise_interval(value.value, domain, noise)  # type: ignore[union-attr]
    if domain.integer:
        return Span(lo, hi, 0, integer_bounds(domain.min, domain.max, domain.max_inclusive))
    hi_inclusive = domain.max_inclusive if hi >= domain.max else True
    return _grid_plan(domain, lo, hi, hi_inclusive)


def noise_addition_anonymize(
    value: DataValue,
    domain: DomainSpec,
    cfg: NoiseAdditionConfig,
    rng: np.random.Generator,
) -> AnonymizedRecord:
    """Replace the value with a uniform draw from its noise interval.

    Integer domains draw a real, round half-up and clamp into the domain.
    """
    return Concrete(domain, draw(noise_plan(value, domain, cfg.noise), rng))


# ---------------------------------------------------------------------------
# dispatchers


def draws_to_anonymize(cfg: TechniqueConfig) -> bool:
    """Whether ``anonymize`` draws from its stream under ``cfg``.

    Only noise addition does.  Every other technique anonymizes a given
    value to the same record each time, so a caller may anonymize once and
    regenerate from that record.
    """
    return isinstance(cfg, NoiseAdditionConfig)


def anonymize(
    value: DataValue,
    domain: DomainSpec,
    cfg: TechniqueConfig,
    rng: np.random.Generator | None = None,
) -> AnonymizedRecord:
    """Apply the technique selected by ``cfg``, componentwise to tuples.

    Only noise addition draws randomness at this stage, so only noise
    addition splits ``rng`` across tuple components; the other techniques
    leave it untouched (``Generator.spawn`` advances the generator, and
    callers regenerate from the same stream).
    """
    if rng is None and draws_to_anonymize(cfg):
        raise ConfigError("noise addition needs a random stream")
    if not conforms(value, domain):
        raise NonConformingValueError(f"value {value!r} does not conform to {domain!r}")
    return anonymize_conforming(value, domain, cfg, rng)


def anonymize_conforming(
    value: DataValue,
    domain: DomainSpec,
    cfg: TechniqueConfig,
    rng: np.random.Generator | None = None,
) -> AnonymizedRecord:
    """``anonymize`` without checking that ``value`` conforms to ``domain``."""
    if isinstance(domain, TupleDomain):
        count = len(domain.components)
        draws = draws_to_anonymize(cfg)
        streams = split(rng, count) if draws else [rng] * count  # type: ignore[arg-type]
        parts = zip(value.components, domain.components, streams)  # type: ignore[union-attr]
        return TupleRecord(tuple(anonymize_conforming(v, d, cfg, r) for v, d, r in parts))
    if isinstance(cfg, NoiseAdditionConfig):
        return noise_addition_anonymize(value, domain, cfg, rng)  # type: ignore[arg-type]
    if isinstance(cfg, GlobalRecodingConfig):
        return global_recoding_anonymize(value, domain, cfg)
    if isinstance(cfg, RoundingConfig):
        return rounding_anonymize(value, domain, cfg)
    if isinstance(cfg, LocalSuppressionConfig):
        return local_suppression_anonymize(value, domain, cfg)
    if isinstance(cfg, SCDLocalSuppressionConfig):
        return scd_local_suppression_anonymize(value, domain, cfg)
    raise ConfigError(f"unknown technique configuration {cfg!r}")


def regenerate(
    record: AnonymizedRecord,
    rng: np.random.Generator,
    length_raises: Counter | None = None,
) -> DataValue:
    """Draw a concrete value for ``record``; Concrete records are identity.

    A special-character record whose drawn length cannot hold its specials
    is regenerated at the specials' count.  That is logged as a warning, or,
    when ``length_raises`` is given, counted there under the specials' count.
    """
    if isinstance(record, Suppressed) and isinstance(record.domain, TupleDomain):
        record = TupleRecord(tuple(map(Suppressed, record.domain.components)))
    if isinstance(record, TupleRecord):
        streams = split(rng, len(record.components))
        return TupleValue(
            tuple(
                regenerate(r, g, length_raises)
                for r, g in zip(record.components, streams)
            )
        )
    return draw(draw_plan(record), rng, length_raises)


# ---------------------------------------------------------------------------
# columns: one field regenerated for a whole block of trials
#
# A column draws a plan for every trial of a block, reproducing the numpy
# algorithm behind each of ``draw``'s calls on the block's tape (see rng).
# It returns the values, the trials it leaves to the scalar path (a rejected
# draw, a draw past the tape), and the length raises among the others; or
# None when the plan's parameters have no column form.

Column = tuple[list[DataValue], np.ndarray, Counter]

#: Integers beyond this do not survive a round trip through float64.
_EXACT = 2**53
#: Character positions a string column draws at a time.
_SLAB = 32


def _integer_column(
    block: TrialBlock, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """``rng.integers(lo, hi + 1)`` per trial, and the trials it rejects."""
    if not -_EXACT < lo <= hi < _EXACT or hi - lo > _MASK32:
        return None
    value, rejected = bounded(block.halves(1)[0], hi - lo)
    return value + lo, rejected


def _continuous(values: np.ndarray, precision: int) -> list[DataValue]:
    """``Continuous(v, precision)`` per value, one object per distinct value."""
    distinct, which = np.unique(values, return_inverse=True)
    objects = [Continuous(v, precision) for v in distinct.tolist()]
    return [objects[i] for i in which.tolist()]


def _column(plan: Plan, block: TrialBlock) -> Column | None:
    """``draw(plan, ...)`` per trial of ``block``."""
    n = len(block)
    if isinstance(plan, Constant):
        return [plan.value] * n, np.zeros(n, bool), Counter()
    if isinstance(plan, Chars):
        return _string_column(block, plan)
    if isinstance(plan, Pick):
        drawn = _integer_column(block, 0, len(plan.labels) - 1)
        if drawn is None:
            return None
        objects = [Categorical(label) for label in plan.labels]
        return [objects[i] for i in drawn[0].tolist()], drawn[1], Counter()
    if isinstance(plan, Grid):
        drawn = _integer_column(block, plan.lo, plan.hi)
        if drawn is None or plan.scale > _EXACT:  # the grid step is no longer exact
            return None
        values, rejected = drawn[0] / plan.scale, drawn[1]
    else:
        values, rejected = uniform(block.words(1)[0], plan.lo, plan.hi), np.zeros(n, bool)
        if plan.clamp is not None:
            lo, hi = plan.clamp
            if not -_EXACT < lo <= hi < _EXACT:
                return None
            values = np.clip(np.floor(values + 0.5), lo, hi)
    return _continuous(values, plan.precision), rejected, Counter()


class _Reader:
    """Each trial's position in a block's stream of 32-bit draws."""

    def __init__(self, halves: np.ndarray, start: np.ndarray, leftover: np.ndarray):
        self.halves = halves
        self.cursor = start
        self.leftover = leftover
        self.rows = np.arange(halves.shape[1])

    def _next(self, pending: np.ndarray) -> np.ndarray:
        """The next 32-bit value of each pending trial; a trial past the tape
        is left over."""
        end = len(self.halves)
        self.leftover |= pending & (self.cursor >= end)
        value = self.halves[np.minimum(self.cursor, end - 1), self.rows]
        self.cursor += pending
        return value

    def bounded(self, top: np.ndarray) -> np.ndarray:
        """``random_bounded_uint64(0, top)`` per trial: Lemire's method,
        where a trial whose draw numpy would reject is left over."""
        take = top > 0
        value, rejected = bounded(self._next(take), top)
        self.leftover |= take & rejected
        return np.where(take, value, 0)

    def interval(self, top: int) -> np.ndarray:
        """``random_interval(top)`` per trial: masked rejection sampling
        under the smallest all-ones mask that covers ``top``."""
        mask = np.uint64((1 << top.bit_length()) - 1)
        value = np.zeros(len(self.rows), dtype=np.int64)
        pending = ~self.leftover
        while pending.any():
            candidate = (self._next(pending) & mask).astype(np.int64)
            pending &= ~self.leftover
            accepted = pending & (candidate <= top)
            value[accepted] = candidate[accepted]
            pending &= ~accepted
        return value


def _swap(table: np.ndarray, picked: np.ndarray, i: int) -> None:
    """Per column r, swap ``table[picked[r], r]`` with ``table[i, r]``."""
    rows = np.arange(table.shape[1])
    held = table[picked, rows]
    table[picked, rows] = table[i]
    table[i] = held


def _string_column(block: TrialBlock, plan: Chars) -> Column | None:
    """``_draw_chars`` per trial."""
    alphabet, lo, hi, specials = plan
    if "\0" in alphabet + specials:  # NUL pads the code-point matrix
        return None
    n, k = len(block), len(specials)
    if hi - lo > _MASK32:
        return None
    drawn_length = int(lo != hi)
    picking = len(alphabet) > 1
    # the length, one draw per character, then Floyd's k, the shuffle's and
    # the permutation's k - 1 each, with room for the permutation's rejections
    wanted = drawn_length + picking * max(hi, k) + 4 * k
    halves = block.halves(max(1, min(wanted, 2 * TAPE_WORDS)))
    length, leftover = bounded(halves[0], hi - lo)
    length += lo
    raised = length < k
    length = np.maximum(length, k)
    width = min(int(length.max()), len(halves) - drawn_length)
    leftover |= length > width
    in_string = np.arange(width)[:, None] < length
    alphabet_codes = np.array([ord(c) for c in alphabet], dtype=np.uint32)
    codes = np.empty((width, n), dtype=np.uint32)
    for first in range(0, width, _SLAB):  # bounds the temporaries
        at = slice(first, min(first + _SLAB, width))
        picks, rejected = bounded(
            halves[drawn_length + at.start : drawn_length + at.stop], len(alphabet) - 1
        )
        leftover |= (rejected & in_string[at]).any(axis=0)
        codes[at] = alphabet_codes[picks]
    if k:
        reader = _Reader(halves, drawn_length + picking * length, leftover)
        # choice(length, k, replace=False): Floyd's algorithm, then a shuffle
        chosen = np.empty((k, n), dtype=np.int64)
        for step in range(k):
            top = length - k + step
            value = reader.bounded(top)
            seen = (chosen[:step] == value).any(axis=0)
            chosen[step] = np.where(seen, top, value)
        for i in range(k - 1, 0, -1):
            _swap(chosen, reader.bounded(np.full(n, i)), i)
        # permutation(k)
        order = np.repeat(np.arange(k)[:, None], n, axis=1)
        for i in range(k - 1, 0, -1):
            _swap(order, reader.interval(i), i)
        special_codes = np.array([ord(c) for c in specials], dtype=np.uint32)
        codes[np.where(leftover, 0, chosen), np.arange(n)] = special_codes[order]
    codes[~in_string] = 0
    if width:
        rows = np.ascontiguousarray(codes.T).view(np.dtype(("U", width)))
        texts = rows.ravel().tolist()
    else:
        texts = [""] * n
    raises = Counter({k: int((raised & ~leftover).sum())})
    return list(map(Text, texts)), leftover, raises


def regenerate_block(
    original: DataValue,
    domain: DomainSpec,
    cfg: TechniqueConfig,
    record: AnonymizedRecord | None,
    block: TrialBlock,
    length_raises: Counter,
) -> list[DataValue]:
    """The field's regenerated value in each trial of ``block``.

    Each value is what ``regenerate(record, g, length_raises)`` gives on the
    trial's stream g, with ``record`` None meaning ``anonymize(original,
    domain, cfg, g)`` (noise addition, which draws while anonymizing).

    The field's draw plan (``noise_plan`` when ``record`` is None) is built
    first, so the block raises what the scalar path would.  When the block
    has derived states, the values come from its tape as one column of that
    plan.  The first trial the column covers is compared with the scalar
    path on the same state; on any difference (a numpy whose algorithms have
    changed) every trial takes the scalar path, and otherwise only the
    trials the column leaves over do.  The result never depends on the
    column alone.  A tuple field has no plan and raises ConfigError: its
    components draw from streams split off ``substream``'s own.
    """
    if isinstance(domain if record is None else record_domain(record), TupleDomain):
        raise ConfigError("a tuple field is regenerated per trial, from its substream")
    plan = (draw_plan(record) if record is not None
            else noise_plan(original, domain, cfg.noise))  # type: ignore[union-attr]

    def scalar(row: int, raises: Counter = length_raises) -> DataValue:
        stream = block.stream(row)
        drawn = record if record is not None else anonymize(original, domain, cfg, stream)
        return regenerate(drawn, stream, raises)

    n = len(block)
    column = None if block.states is None else _column(plan, block)
    if column is None:
        return [scalar(row) for row in range(n)]
    values, leftover, raises = column
    covered = np.flatnonzero(~leftover)
    if covered.size:
        check = int(covered[0])
        check_raises: Counter = Counter()
        reference = scalar(check, check_raises)
        if repr(reference) == repr(values[check]):
            length_raises += raises
        else:
            values[check] = reference
            length_raises += check_raises
            leftover = np.arange(n) != check
    for row in np.flatnonzero(leftover).tolist():
        values[row] = scalar(row)
    return values


# ---------------------------------------------------------------------------
# JSON codecs for configurations and records


_CONFIG_TYPES: dict[str, type] = {
    "global_recoding": GlobalRecodingConfig,
    "rounding": RoundingConfig,
    "local_suppression": LocalSuppressionConfig,
    "scd_local_suppression": SCDLocalSuppressionConfig,
    "noise_addition": NoiseAdditionConfig,
}

_CONFIG_NAMES = {cls: name for name, cls in _CONFIG_TYPES.items()}


def technique_name(cfg: TechniqueConfig) -> str:
    return _CONFIG_NAMES[type(cfg)]


_RECORD_TYPES: dict[str, type] = {
    "suppressed": Suppressed,
    "special_chars": SpecialChars,
    "interval_group": IntervalGroup,
    "category_group": CategoryGroup,
    "concrete": Concrete,
    "tuple": TupleRecord,
}

_RECORD_NAMES = {cls: name for name, cls in _RECORD_TYPES.items()}

#: Each config and record class's fields; CategoryGroup.group_label is "group".
_FIELDS = {
    cls: field_table(cls, {"group_label": "group"})
    for cls in (*_CONFIG_TYPES.values(), *_RECORD_TYPES.values())
}


def config_to_json(cfg: TechniqueConfig) -> dict[str, Any]:
    fields = fields_to_json(_FIELDS[type(cfg)], cfg, omit_none=True)
    return {"technique": technique_name(cfg), **fields}


def config_from_json(raw: Any) -> TechniqueConfig:
    if not isinstance(raw, dict) or "technique" not in raw:
        raise ConfigError(f"a technique config is an object with 'technique': {raw!r}")
    name = raw["technique"]
    cls = _CONFIG_TYPES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ConfigError(
            f"unknown technique {name!r}; expected one of {sorted(_CONFIG_TYPES)}"
        )
    return cls(**fields_from_json(
        _FIELDS[cls], raw, f"technique {name!r}", ConfigError, kind="technique"))


def record_to_json(record: AnonymizedRecord) -> dict[str, Any]:
    if type(record) not in _RECORD_NAMES:
        raise ConfigError(f"unknown anonymized record {record!r}")
    fields = fields_to_json(_FIELDS[type(record)], record, record_to_json)
    return {"record": _RECORD_NAMES[type(record)], **fields}


def record_from_json(raw: Any) -> AnonymizedRecord:
    if not isinstance(raw, dict) or "record" not in raw:
        raise TraceParseError(f"a record is an object with a 'record' kind: {raw!r}")
    kind = raw["record"]
    cls = _RECORD_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise TraceParseError(f"unknown record kind {kind!r}")
    kwargs = fields_from_json(
        _FIELDS[cls], raw, f"{kind} record", element=record_from_json, kind="record"
    )
    if cls is SpecialChars:
        domain, specials = kwargs["domain"], kwargs["specials"]
        if not set(specials) <= set(domain.alphabet):
            raise TraceParseError(
                f"special_chars specials {specials!r} fall outside the domain "
                f"alphabet {domain.char_class}"
            )
        if len(specials) > domain.length_max:
            raise TraceParseError(
                f"special_chars record holds {len(specials)} specials, more than "
                f"the domain's length_max {domain.length_max}"
            )
    return cls(**kwargs)
