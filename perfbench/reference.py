"""Rebuild ``reference.json``, the data the benchmark's checks read.

    python3 perfbench/reference.py

* ``exact``: for every bundled entry x config whose per-field supports are
  enumerable, the exact trigger probability as a ``Fraction`` and the size
  of the joint support.  Supports come from ``technique_distribution``;
  their weights are recomputed here as exact rationals (uniform supports
  weigh 1/n, integer noise masses are interval overlaps) and summed as
  integers over a common denominator, never as floats.
* ``mc_pool``: serial success and disclosure counts for every entry x
  config at the ``mc_pool`` workload's seed and trial count.

Rebuild it whenever a change legitimately moves these numbers, e.g. one
that makes more configs enumerable or changes the random streams.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
from fractions import Fraction

from common import REFERENCE, import_program
from workloads import MC_TRIALS, corpus_configs

POOL_SEED = 7


def noise_masses(value: float, domain, noise: float) -> dict[float, Fraction]:
    """Exact distribution of half-up-rounded, clamped uniform noise."""
    n = Fraction(repr(noise))
    v, lo_d, hi_d = Fraction(value), Fraction(domain.min), Fraction(domain.max)
    lo, hi = v - n * (v - lo_d), v + n * (hi_d - v)
    first = math.ceil(domain.min)
    last = int(domain.max) if domain.max_inclusive else int(domain.max) - 1
    half = Fraction(1, 2)
    masses: dict[float, Fraction] = {}
    for j in range(math.floor(lo + half), math.floor(hi + half) + 1):
        overlap = min(hi, j + half) - max(lo, j - half)
        if overlap > 0:
            key = float(min(max(j, first), last))
            masses[key] = masses.get(key, Fraction(0)) + overlap / (hi - lo)
    return masses


def exact_support(ar, cfg, value, domain) -> list[tuple[object, Fraction]]:
    """The program's support for one field with exact weights."""
    outcomes = ar.oracles.technique_distribution(cfg, value, domain).outcomes
    if isinstance(cfg, ar.NoiseAdditionConfig):
        masses = noise_masses(value.value, domain, cfg.noise)
        if sorted(masses) != sorted(v.value for v, _ in outcomes):
            raise ValueError(f"noise support differs from the exact one for {domain}")
        weights = [masses[v.value] for v, _ in outcomes]
    else:
        if len({p for _, p in outcomes}) != 1:
            raise ValueError(f"expected a uniform support for {cfg}")
        weights = [Fraction(1, len(outcomes))] * len(outcomes)
    for (_, p), w in zip(outcomes, weights):
        if abs(p - w) > 1e-12:
            raise ValueError(f"weight {p!r} is not close to the exact {w}")
    return [(v, w) for (v, _), w in zip(outcomes, weights)]


def exact_probability(ar, oracle, supports) -> Fraction:
    """Sum of the joint weights of every point the predicate accepts."""
    denominators = [math.lcm(*(w.denominator for _, w in s)) for s in supports]
    numerators = [[(v, int(w * d)) for v, w in s] for s, d in zip(supports, denominators)]
    names, predicate = oracle.field_names, oracle.predicate
    evaluate_expr = ar.oracles.evaluate_expr
    assignment: dict = {}
    total = 0
    for combo in itertools.product(*numerators):
        weight = 1
        for name, (value, numerator) in zip(names, combo):
            assignment[name] = value
            weight *= numerator
        if evaluate_expr(predicate, assignment):
            total += weight
    return Fraction(total, math.prod(denominators))


def build(ar) -> dict:
    exact, counts = {}, {}
    for key, entry, cfg in corpus_configs(ar.corpus.load_all()):
        report = ar.harness.run_trials(entry.oracle, entry.original_assignment, cfg,
                                       trials=MC_TRIALS, seed=POOL_SEED, workers=1)
        counts[key] = [report.successes, report.disclosures]
        try:
            supports = [exact_support(ar, cfg, entry.original_assignment[name], domain)
                        for name, domain in entry.oracle.fields]
        except ar.EnumerationInfeasibleError:
            continue
        points = math.prod(len(s) for s in supports)
        if points > ar.oracles.ENUMERATION_LIMIT:
            continue
        probability = exact_probability(ar, entry.oracle, supports)
        exact[key] = {"probability": str(probability), "points": points}
        print(f"{key}: {probability} over {points} points", file=sys.stderr)
    return {"exact": exact,
            "mc_pool": {"seed": POOL_SEED, "trials": MC_TRIALS, "counts": counts}}


def main() -> int:
    reference = build(import_program())
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}: {len(reference['exact'])} exact configs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
