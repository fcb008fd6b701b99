"""Monte-Carlo measurement of reproduction and disclosure frequencies.

A trial anonymizes each oracle field of the original failure-inducing
assignment, regenerates a concrete value from each record, and asks the
bug oracle whether the regenerated assignment still triggers the failure.
Every trial draws from its own random substream keyed by (seed, trial,
field index), so results do not depend on execution order and a parallel
run reproduces a serial one bit for bit.  The trials are regenerated a
block at a time, one typed column per field (per component of a tuple)
drawn from the field's draw plan (``techniques.field_plan``) on the
streams' word tape (``rng.TrialBlock``, ``techniques.regenerate_block``),
and each block is scored as arrays: a predicate compiled once per run
(``oracles.compile_expr``) and a disclosure test per field (a number's
``model.rendering_interval``, a string's code points).  One row of each
column is checked against the scalar draw on ``rng.substream``, and the
rows a column leaves over are drawn there, so the counts are those of the
per-trial loop.  SCD length raises are counted and logged once per run.

``run_trials(workers=N)`` splits a run's trials into chunks over one
process pool shared by every call in the process.  The pool is started on
the first parallel call, with ``min(N, usable CPUs)`` workers, and is
reused by every later call that asks for that size.  A call that asks for
another size shuts the old pool down, waiting for its workers, before the
new one starts; a call that finds a worker dead drops the pool and raises
``BrokenProcessPool``, and the next call starts a fresh one.  Workers are
forked when the pool starts (the default start method on Linux), so a
change made to module globals after that (a monkeypatched ``rng.BLOCK``,
say) does not reach them.  ``concurrent.futures`` joins the workers when
the interpreter exits.
"""
from __future__ import annotations

import logging
import math
import os
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import CorpusEntry
from .errors import ConfigError, InvalidBaselineError, naming
from .model import Continuous, DataValue, Text, TupleValue, rendering_interval
from .oracles import (
    BugOracle,
    compile_expr,
    evaluate,
    exhaustive_probability,
    technique_distribution,
)
from .rng import TrialBlock, blocks
from .techniques import (
    GlobalRecodingConfig,
    LocalSuppressionConfig,
    NoiseAdditionConfig,
    RoundingConfig,
    SCDLocalSuppressionConfig,
    TechniqueConfig,
    field_plan,
    regenerate_block,
    technique_name,
)

log = logging.getLogger(__name__)

DEFAULT_CONFIDENCE = 0.95

ConfigLike = TechniqueConfig | Mapping[str, TechniqueConfig]


def attempts_for_confidence(
    probability: float, confidence: float = DEFAULT_CONFIDENCE
) -> int | None:
    """Smallest n with 1 - (1-p)^n >= confidence; None when p == 0.

    A bug seen in a fraction p of trials needs this many reproduction
    attempts before at least one is expected to succeed with the given
    confidence.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {probability!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    if probability == 0.0:
        return None
    if probability == 1.0:
        return 1
    # log1p keeps a small p's digits, which 1 - p would round away; the
    # ratio is taken exactly, as a float one overflows for a subnormal p
    step, target = math.log1p(-probability), math.log1p(-confidence)
    n = math.ceil(Fraction(target) / Fraction(step))
    # the logs are rounded, so n can be one off either way; past 2**53 a
    # float product no longer tells n from n - 1
    if n < 2**53:
        while n > 1 and (n - 1) * step <= target:
            n -= 1
        while n * step > target:
            n += 1
    return n


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one oracle x configuration Monte-Carlo run."""

    oracle: str
    technique: str
    label: str
    config: str
    trials: int
    successes: int
    disclosures: int
    seed: int
    confidence: float = DEFAULT_CONFIDENCE

    @property
    def reproduction_frequency(self) -> float:
        return self.successes / self.trials

    @property
    def disclosure_frequency(self) -> float:
        return self.disclosures / self.trials

    @property
    def attempts(self) -> int | None:
        """Attempts needed for the report's confidence; None if never seen."""
        return attempts_for_confidence(self.reproduction_frequency, self.confidence)


def _summarize(cfg: TechniqueConfig) -> str:
    if isinstance(cfg, GlobalRecodingConfig):
        return "hierarchy" if cfg.partitions is None else f"partitions={cfg.partitions}"
    if isinstance(cfg, RoundingConfig):
        return f"partitions={cfg.partitions}"
    if isinstance(cfg, (LocalSuppressionConfig, SCDLocalSuppressionConfig)):
        return f"length={cfg.length_policy.value}"
    if isinstance(cfg, NoiseAdditionConfig):
        return f"noise={cfg.noise:g}"
    raise ConfigError(f"unknown technique configuration {cfg!r}")


def resolve_configs(
    oracle: BugOracle, config: ConfigLike
) -> tuple[TechniqueConfig, ...]:
    """Expand a single config or a field->config mapping into field order."""
    if isinstance(config, Mapping):
        missing = [n for n in oracle.field_names if n not in config]
        if missing:
            raise ConfigError(
                f"no technique configured for field(s) {', '.join(missing)}"
            )
        extra = [n for n in config if n not in oracle.field_names]
        if extra:
            raise ConfigError(
                f"configured field(s) {', '.join(extra)} not in oracle "
                f"{oracle.name!r}"
            )
        return tuple(config[n] for n in oracle.field_names)
    return tuple(config for _ in oracle.field_names)


def _describe(
    oracle: BugOracle, per_field: Sequence[TechniqueConfig]
) -> tuple[str, str, str]:
    """(technique, label, config summary) columns for a per-field setup."""
    names: list[str] = []
    for cfg in per_field:
        name = technique_name(cfg)
        if name not in names:
            names.append(name)
    labels: list[str] = []
    for cfg in per_field:
        if cfg.label is not None and cfg.label not in labels:
            labels.append(cfg.label)
    if len(set(map(_summarize, per_field))) == 1 and len(names) == 1:
        summary = _summarize(per_field[0])
    else:
        summary = "; ".join(
            f"{field}: {technique_name(cfg)} {_summarize(cfg)}"
            for field, cfg in zip(oracle.field_names, per_field)
        )
    return "+".join(names), "+".join(labels), summary


def _disclosure(original: DataValue) -> Callable[..., np.ndarray]:
    """Which rows of a field's column read back as ``original``, as
    ``values_equal`` tells: a number's rendering interval, a string's or
    label's code points, or a tuple's components all at once."""
    if isinstance(original, TupleValue):
        tests = tuple(map(_disclosure, original.components))
        return lambda columns: np.logical_and.reduce([t(c) for t, c in zip(tests, columns)])
    if isinstance(original, Continuous):
        lo, hi = rendering_interval(original.value, original.precision)
        return lambda column: (lo <= column.values) & (column.values <= hi)  # type: ignore[union-attr]
    text = original.value if isinstance(original, Text) else original.label  # type: ignore[union-attr]
    return lambda column: column.equals(text)  # type: ignore[union-attr]


def _run_chunk(
    oracle: BugOracle,
    originals: tuple[DataValue, ...],
    per_field: tuple[TechniqueConfig, ...],
    seed: int,
    start: int,
    stop: int,
) -> tuple[int, int, Counter]:
    """Successes, disclosures and length raises over trials [start, stop).

    Each trial draws exactly what ``substream(seed, trial, index)`` gives
    it.  Each field's draw plan (``techniques.field_plan``) and disclosure
    test are built once, in field order, before the first block, so the
    first failing field raises first.  The trials are then taken a block at
    a time (``rng.blocks``): each field is regenerated for the whole block
    as one column of its plan, or a tuple field as one column per component.
    The block is scored as arrays: the predicate, compiled once
    (``oracles.compile_expr``), maps the columns to the trials that trigger
    it, and the fields' disclosure tests, ANDed, to the trials that read
    back every original.

    Length raises are counted per (field, specials' count) instead of being
    logged per trial.  The originals are checked by ``run_trials`` and every
    regenerated value conforms to its domain, so the assignments are not
    checked again.
    """
    names = oracle.field_names
    triggers = compile_expr(oracle.predicate)
    plans = []
    for (name, domain), original, cfg in zip(oracle.fields, originals, per_field):
        with naming(f"field {name!r}"):
            plans.append(field_plan(original, domain, cfg))
    # every field reads back its original: the disclosure test of a tuple
    disclosed = _disclosure(TupleValue(originals))
    raises = [Counter() for _ in originals]
    successes = disclosures = 0
    for block in blocks(range(start, stop)):
        columns = [regenerate_block(plan, TrialBlock(seed, block, index), counts)
                   for index, (plan, counts) in enumerate(zip(plans, raises))]
        successes += int(np.count_nonzero(triggers(dict(zip(names, columns)))))
        disclosures += int(np.count_nonzero(disclosed(columns)))
    length_raises = Counter({
        (name, needed): count
        for name, counts in zip(names, raises)
        for needed, count in counts.items()
    })
    return successes, disclosures, length_raises


_pool_lock = threading.Lock()
_pool: tuple[int, ProcessPoolExecutor] | None = None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # platforms without CPU affinity


def _worker_pool(size: int) -> ProcessPoolExecutor:
    """The process's pool of ``size`` workers, started on first use.

    Call with ``_pool_lock`` held.
    """
    global _pool
    if _pool is not None and _pool[0] != size:
        _drop_pool()
    if _pool is None:
        _pool = (size, ProcessPoolExecutor(max_workers=size))
    return _pool[1]


def _drop_pool() -> None:
    """Shut the pool down and wait for its workers; the next call starts anew."""
    global _pool
    if _pool is not None:
        _, pool = _pool
        _pool = None
        pool.shutdown(wait=True)


def _check_baseline(oracle: BugOracle, original: Mapping[str, DataValue]) -> None:
    """The original assignment holds every field, conforming, and triggers."""
    if not evaluate(oracle, original):
        raise InvalidBaselineError(
            f"original assignment does not trigger oracle {oracle.name!r}"
        )


def run_trials(
    oracle: BugOracle,
    original: Mapping[str, DataValue],
    config: ConfigLike,
    *,
    trials: int = 100,
    seed: int = 0,
    confidence: float = DEFAULT_CONFIDENCE,
    workers: int = 1,
) -> TrialReport:
    """Monte-Carlo run of one oracle under one technique setup.

    The original assignment must itself trigger the oracle; anything else
    would measure reproduction of a non-failure.

    With ``workers`` > 1 the trials are split into one chunk per worker of
    the process's shared pool, sized ``min(workers, usable CPUs)``; at one
    usable CPU, or fewer than two trials per worker, the run is serial.  The
    counts are the serial run's whatever the split.  An error raised in a
    chunk reaches the caller as it would serially, and the pool is kept; a
    dead worker raises ``BrokenProcessPool`` and the pool is dropped.
    """
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    if workers < 1:
        raise ConfigError(f"workers must be positive, got {workers}")
    _check_baseline(oracle, original)
    per_field = resolve_configs(oracle, config)
    originals = tuple(original[name] for name in oracle.field_names)
    size = min(workers, _usable_cpus())
    if size == 1 or trials < 2 * size:
        successes, disclosures, raises = _run_chunk(
            oracle, originals, per_field, seed, 0, trials
        )
    else:
        # Totals are order-independent sums, so any chunking reproduces
        # the serial run exactly.
        bounds = [round(trials * i / size) for i in range(size + 1)]
        with _pool_lock:
            try:
                parts = list(
                    _worker_pool(size).map(
                        _run_chunk,
                        [oracle] * size,
                        [originals] * size,
                        [per_field] * size,
                        [seed] * size,
                        bounds[:-1],
                        bounds[1:],
                    )
                )
            except BrokenProcessPool:
                _drop_pool()
                raise
        successes = sum(s for s, _, _ in parts)
        disclosures = sum(d for _, d, _ in parts)
        raises = sum((r for _, _, r in parts), Counter())
    for (name, needed), count in sorted(raises.items()):
        log.warning(
            "raising regenerated length of field %r to fit %d special characters "
            "in %d/%d trials",
            name,
            needed,
            count,
            trials,
        )
    technique, label, summary = _describe(oracle, per_field)
    return TrialReport(
        oracle=oracle.name,
        technique=technique,
        label=label,
        config=summary,
        trials=trials,
        successes=successes,
        disclosures=disclosures,
        seed=seed,
        confidence=confidence,
    )


def run_entry(
    entry: CorpusEntry,
    configs: Sequence[ConfigLike] | None = None,
    *,
    trials: int = 100,
    seed: int = 0,
    confidence: float = DEFAULT_CONFIDENCE,
    workers: int = 1,
) -> list[TrialReport]:
    """Run one corpus entry under each configuration (its own by default)."""
    selected: Sequence[ConfigLike] = entry.configs if configs is None else configs
    return [
        run_trials(
            entry.oracle,
            entry.original_assignment,
            cfg,
            trials=trials,
            seed=seed,
            confidence=confidence,
            workers=workers,
        )
        for cfg in selected
    ]


@dataclass(frozen=True)
class AggregateRow:
    """Per technique x label summary across oracles."""

    technique: str
    label: str
    oracles: int
    mean_frequency: float
    mean_attempts: float | None
    max_attempts: int | None
    not_reproduced: int
    mean_disclosure: float


def aggregate(reports: Sequence[TrialReport]) -> list[AggregateRow]:
    """Group reports by (technique, label), in first-seen order.

    Attempts averages skip oracles that were never reproduced; those are
    counted separately.
    """
    groups: dict[tuple[str, str], list[TrialReport]] = {}
    for report in reports:
        groups.setdefault((report.technique, report.label), []).append(report)
    rows: list[AggregateRow] = []
    for (technique, label), members in groups.items():
        attempts = [r.attempts for r in members]
        defined = [a for a in attempts if a is not None]
        rows.append(
            AggregateRow(
                technique=technique,
                label=label,
                oracles=len(members),
                mean_frequency=math.fsum(r.reproduction_frequency for r in members)
                / len(members),
                mean_attempts=math.fsum(defined) / len(defined) if defined else None,
                max_attempts=max(defined) if defined else None,
                not_reproduced=attempts.count(None),
                mean_disclosure=math.fsum(r.disclosure_frequency for r in members)
                / len(members),
            )
        )
    return rows


@dataclass(frozen=True)
class VerificationResult:
    """Monte-Carlo successes checked against the exact trigger probability."""

    oracle: str
    technique: str
    label: str
    config: str
    trials: int
    successes: int
    exact_probability: float
    lower: int
    upper: int

    @property
    def passed(self) -> bool:
        return self.lower <= self.successes <= self.upper

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


#: The levels of P(X <= k) that bound the central 99% region, as exact decimals.
_LEVELS = (Fraction(1, 200), Fraction(199, 200))
#: A float CDF within this relative distance of a level is decided exactly.
_NEAR = 1e-9


def acceptance_region(trials: int, probability: float) -> tuple[int, int]:
    """Central 99% acceptance region for Binomial(trials, probability).

    Its lower end is the smallest k with P(X <= k) >= 0.005 and its upper end
    the smallest k with P(X <= k) >= 0.995, the float probability taken
    exactly.  The pmf is summed over mean +- (12 sd + 40), clipped to
    [0, trials], where all but far less than 1e-20 of the mass lies: each
    point's log relative to the window's first is a cumulative sum of
    log((n - j)/(j + 1)) + log(p/q), and the window's total normalizes the
    sums.  A float CDF within 1e-9 (relative) of a level is decided by
    ``_reaches`` in exact arithmetic; up to 10**6 trials the float sums' own
    error is far smaller.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {probability!r}")
    if probability in (0.0, 1.0):
        end = trials if probability == 1.0 else 0
        return end, end
    n, p = trials, probability
    mean = n * p
    width = 12 * math.sqrt(mean * (1 - p)) + 40
    lo, hi = max(0, math.floor(mean - width)), min(n, math.ceil(mean + width))
    j = np.arange(lo, hi, dtype=np.float64)
    steps = np.log((n - j) / (j + 1)) + (math.log(p) - math.log1p(-p))
    log_mass = np.concatenate(([0.0], np.cumsum(steps)))
    cdf = np.cumsum(np.exp(log_mass - log_mass.max()))
    cdf /= cdf[-1]

    def quantile(level: Fraction) -> int:
        # below i the CDF misses the level and from the first point beyond
        # the near band it reaches it, whatever the float error
        i = int(np.searchsorted(cdf, float(level) * (1 - _NEAR)))
        while cdf[i] < float(level) * (1 + _NEAR) and not _reaches(n, p, lo + i, level):
            i += 1
        return lo + i

    lower, upper = map(quantile, _LEVELS)
    return lower, upper


def _reaches(trials: int, probability: float, k: int, level: Fraction) -> bool:
    """P(X <= k) >= level for X ~ Binomial(trials, probability), in integers:
    with p = a/d and b = d - a, P(X <= k) d**n is the sum over i <= k of
    comb(n, i) a**i b**(n - i), each term the last times (n - i) a/((i + 1) b).
    The terms have about trials * log2(d) bits, so it serves near-ties only.
    """
    a, d = probability.as_integer_ratio()
    b = d - a
    term = mass = b**trials
    for i in range(k):
        term = term * (trials - i) * a // ((i + 1) * b)
        mass += term
    return mass * level.denominator >= level.numerator * d**trials


def verify_against_bruteforce(
    oracle: BugOracle,
    original: Mapping[str, DataValue],
    config: ConfigLike,
    *,
    trials: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> VerificationResult:
    """Cross-check a Monte-Carlo run against exhaustive enumeration.

    The exact trigger probability comes from enumerating every joint
    outcome of the per-field anonymize/regenerate distributions; the run
    passes when its success count falls inside the central 99% binomial
    acceptance region around that probability.  The original assignment is
    checked as ``run_trials`` checks it, before enumerating.  Raises
    EnumerationInfeasibleError when any field cannot be enumerated.
    """
    _check_baseline(oracle, original)
    per_field = resolve_configs(oracle, config)
    distributions = {
        name: technique_distribution(cfg, original[name], domain)
        for (name, domain), cfg in zip(oracle.fields, per_field)
    }
    exact = exhaustive_probability(oracle, distributions)
    report = run_trials(
        oracle, original, config, trials=trials, seed=seed, workers=workers
    )
    lower, upper = acceptance_region(trials, exact)
    return VerificationResult(
        oracle=oracle.name,
        technique=report.technique,
        label=report.label,
        config=report.config,
        trials=trials,
        successes=report.successes,
        exact_probability=exact,
        lower=lower,
        upper=upper,
    )
