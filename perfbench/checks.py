"""Output checks computed apart from the program.

Each check raises CheckError when an output breaks a property the method
must have.  Nothing here calls into ``anonrepro``: binomial regions,
character classes, special characters, partition midpoints and noise
intervals are all recomputed from their definitions, so a fault in the
program cannot also hide in its own check.
"""
from __future__ import annotations

import math
import string
from collections import Counter
from fractions import Fraction
from typing import Any

ALNUM = frozenset(string.ascii_letters + string.digits)


class CheckError(AssertionError):
    """An output failed a correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Monte-Carlo counts


def binomial_region(trials: int, probability: Fraction | float, alpha: float) -> tuple[int, int]:
    """Smallest [lo, hi] with P(X < lo) <= alpha/2 and P(X > hi) <= alpha/2
    for X ~ Binomial(trials, probability)."""
    p = float(probability)
    if p <= 0.0:
        return 0, 0
    if p >= 1.0:
        return trials, trials
    log_p, log_q = math.log(p), math.log1p(-p)
    log_choose = math.lgamma(trials + 1)
    pmf = [
        math.exp(log_choose - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                 + k * log_p + (trials - k) * log_q)
        for k in range(trials + 1)
    ]
    lo, below = 0, 0.0
    while lo < trials and below + pmf[lo] <= alpha / 2:
        below += pmf[lo]
        lo += 1
    hi, above = trials, 0.0
    while hi > 0 and above + pmf[hi] <= alpha / 2:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def check_counts(successes: int, disclosures: int, trials: int, expected_trials: int) -> None:
    require(trials == expected_trials, f"ran {trials} trials, asked for {expected_trials}")
    require(0 <= successes <= trials, f"successes {successes} outside [0, {trials}]")
    require(0 <= disclosures <= trials, f"disclosures {disclosures} outside [0, {trials}]")


def check_deterministic(successes: int, trials: int) -> None:
    """Rounding regenerates one fixed value, so a run never half-reproduces."""
    require(successes in (0, trials), f"rounding run has {successes}/{trials} successes")


def check_in_region(successes: int, region: tuple[int, int]) -> None:
    lo, hi = region
    require(lo <= successes <= hi, f"successes {successes} outside binomial region [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# exact probabilities


def check_probability(value: float, reference: Fraction, deterministic: bool) -> None:
    require(0.0 <= value <= 1.0, f"probability {value!r} outside [0, 1]")
    require(abs(value - reference) <= 1e-9,
            f"probability {value!r} differs from exact {reference} by more than 1e-9")
    if deterministic:
        require(value in (0.0, 1.0), f"rounding probability {value!r} is neither 0 nor 1")


def check_acceptance_region(region: tuple[int, int], trials: int, probability: float) -> None:
    lo, hi = region
    require(0 <= lo <= hi <= trials, f"region [{lo}, {hi}] not inside [0, {trials}]")
    # A binomial median lies between floor and ceil of the mean, and a
    # central region holds the median.
    mean = trials * probability
    require(lo <= math.ceil(mean) and math.floor(mean) <= hi,
            f"region [{lo}, {hi}] misses the mean {mean}")


# ---------------------------------------------------------------------------
# trace values (JSON level)


def is_special(char: str) -> bool:
    return char not in ALNUM and char != " "


def special_chars(text: str) -> str:
    return "".join(sorted(c for c in text if is_special(c)))


def char_class_alphabet(spec: str) -> frozenset[str]:
    """Alphabet of a bracketed class of literals and ``a-z`` ranges."""
    require(len(spec) >= 3 and spec[0] == "[" and spec[-1] == "]", f"bad class {spec!r}")
    body, chars, i = spec[1:-1], set(), 0
    while i < len(body):
        if i + 2 < len(body) and body[i + 1] == "-":
            chars.update(map(chr, range(ord(body[i]), ord(body[i + 2]) + 1)))
            i += 3
        else:
            chars.add(body[i])
            i += 1
    return frozenset(chars)


def number(raw: Any) -> float:
    require(isinstance(raw, str), f"numbers are written as string literals, got {raw!r}")
    value = float(raw)
    require(math.isfinite(value), f"non-finite number {raw!r}")
    return value


def integer_range(domain: dict) -> tuple[int, int]:
    hi = int(domain["max"]) if domain.get("max_inclusive", True) else int(domain["max"]) - 1
    return math.ceil(domain["min"]), hi


def check_conforms(value: Any, domain: dict) -> None:
    """``value`` lies in ``domain``: range, char class, length, membership."""
    kind = domain["kind"]
    if kind == "numeric":
        v = number(value)
        if domain.get("integer"):
            lo, hi = integer_range(domain)
            require(v.is_integer() and lo <= v <= hi,
                    f"{value!r} not an integer in [{lo}, {hi}]")
        else:
            top = domain["max"]
            upper_ok = v <= top if domain.get("max_inclusive", True) else v < top
            require(domain["min"] <= v and upper_ok,
                    f"{value!r} outside [{domain['min']}, {top}]")
    elif kind == "string":
        require(isinstance(value, str), f"expected a string, got {value!r}")
        lo, hi = domain["length_min"], domain["length_max"]
        require(lo <= len(value) <= hi, f"length {len(value)} of {value!r} outside [{lo}, {hi}]")
        outside = set(value) - char_class_alphabet(domain["char_class"])
        require(not outside,
                f"{value!r} has characters {sorted(outside)} outside {domain['char_class']}")
    elif kind == "categorical":
        require(value in domain["categories"], f"{value!r} is not a category")
    elif kind == "tuple":
        require(isinstance(value, list) and len(value) == len(domain["components"]),
                f"{value!r} does not match a {len(domain['components'])}-tuple")
        for component, sub in zip(value, domain["components"]):
            check_conforms(component, sub)
    else:
        raise CheckError(f"unknown domain kind {kind!r}")


def rounding_point(value: float, domain: dict, partitions: int) -> float:
    """Nearest of the equal-width partition midpoints; ties go to the lower.

    Integer domains round each midpoint half-up and clamp it into range.
    """
    lo, hi = Fraction(domain["min"]), Fraction(domain["max"])
    width = (hi - lo) / partitions
    points = [lo + (i + Fraction(1, 2)) * width for i in range(partitions)]
    if domain.get("integer"):
        first, last = integer_range(domain)
        points = [Fraction(min(max(math.floor(p + Fraction(1, 2)), first), last)) for p in points]
    target = Fraction(value)
    return float(min(points, key=lambda p: abs(target - p)))


def noise_bounds(value: float, domain: dict, noise: float) -> tuple[float, float]:
    """[v - n(v - min), v + n(max - v)], widened on integer domains to the
    half-up rounding of its ends and clamped into the domain.

    The ends get a 1e-9 slack: the program computes them in floating point,
    which may land on either side of an exact rounding boundary.
    """
    n = Fraction(repr(noise))
    v, lo_d, hi_d = Fraction(value), Fraction(domain["min"]), Fraction(domain["max"])
    slack = Fraction(1, 10**9)
    lo, hi = v - n * (v - lo_d) - slack, v + n * (hi_d - v) + slack
    if domain.get("integer"):
        first, last = integer_range(domain)
        return (float(max(math.floor(lo + Fraction(1, 2)), first)),
                float(min(math.floor(hi + Fraction(1, 2)), last)))
    return float(lo), float(hi)


def _components(original: Any, record: dict, domain: dict):
    """Per-component (original, record, domain) triples of a tuple field."""
    require(record["record"] == "tuple", f"tuple field got a {record['record']!r} record")
    require(set(record) == {"record", "components"}, f"tuple record keys {sorted(record)}")
    require(len(record["components"]) == len(domain["components"]) == len(original),
            "tuple record arity differs from its domain")
    return zip(original, record["components"], domain["components"])


#: Keys each record kind carries besides "record" and "domain".
RECORD_KEYS = {
    "suppressed": {"length_hint"},
    "special_chars": {"specials", "length_hint"},
    "interval_group": {"lo", "hi", "hi_inclusive"},
    "category_group": {"group"},
    "concrete": {"value"},
}
TECHNIQUE_RECORDS = {
    "local_suppression": "suppressed",
    "scd_local_suppression": "special_chars",
    "rounding": "concrete",
    "noise_addition": "concrete",
}


def check_record(original: Any, record: dict, domain: dict, config: dict) -> None:
    """An anonymized record keeps what its technique keeps and nothing more."""
    if domain["kind"] == "tuple":
        for value, rec, sub in _components(original, record, domain):
            check_record(value, rec, sub, config)
        return
    technique, kind = config["technique"], record.get("record")
    expected = TECHNIQUE_RECORDS.get(technique) or (
        "interval_group" if domain["kind"] == "numeric" else "category_group")
    require(kind == expected, f"{technique} gave a {kind!r} record, expected {expected!r}")
    require(set(record) == {"record", "domain"} | RECORD_KEYS[kind],
            f"{kind} record has keys {sorted(record)}")
    require(record["domain"] == domain, f"{kind} record changed the field's domain")
    if kind in ("suppressed", "special_chars"):
        preserve = config.get("length_policy") == "preserve_original"
        hint = len(original) if preserve and domain["kind"] == "string" else None
        require(record["length_hint"] == hint,
                f"length hint {record['length_hint']!r}, expected {hint!r}")
    if kind == "special_chars":
        require(all(is_special(c) for c in record["specials"]),
                f"SCD record holds non-special characters in {record['specials']!r}")
        require(Counter(record["specials"]) == Counter(special_chars(original)),
                f"SCD record keeps {record['specials']!r}, "
                f"the original has {special_chars(original)!r}")
    elif kind == "interval_group":
        check_in_interval(number(original), record)
    elif kind == "category_group":
        require(original in domain["hierarchy"][record["group"]],
                f"group {record['group']!r} does not hold {original!r}")
    elif technique == "rounding":
        point = rounding_point(number(original), domain, config["partitions"])
        require(number(record["value"]) == point,
                f"rounded {original!r} to {record['value']!r}, nearest midpoint is {point!r}")
    elif technique == "noise_addition":
        lo, hi = noise_bounds(number(original), domain, config["noise"])
        require(lo <= number(record["value"]) <= hi,
                f"noisy {record['value']!r} outside [{lo}, {hi}] around {original!r}")
        check_conforms(record["value"], domain)


def check_in_interval(value: float, record: dict) -> None:
    upper_ok = value <= record["hi"] if record["hi_inclusive"] else value < record["hi"]
    require(record["lo"] <= value and upper_ok,
            f"{value!r} outside interval [{record['lo']}, {record['hi']}]")


def check_regenerated(value: Any, record: dict, domain: dict) -> None:
    """A regenerated value conforms to its domain and fits its record."""
    check_conforms(value, domain)
    if domain["kind"] == "tuple":
        for component, rec, sub in zip(value, record["components"], domain["components"]):
            check_regenerated(component, rec, sub)
        return
    kind = record["record"]
    if kind == "suppressed" and record["length_hint"] is not None:
        require(len(value) == record["length_hint"],
                f"{value!r} ignores the length hint {record['length_hint']}")
    elif kind == "special_chars":
        missing = Counter(record["specials"]) - Counter(value)
        require(not missing, f"{value!r} lacks the specials {sorted(missing.elements())}")
        hint = record["length_hint"]
        if hint is not None:
            require(len(value) == max(hint, len(record["specials"])),
                    f"{value!r} ignores the length hint {hint}")
    elif kind == "interval_group":
        check_in_interval(number(value), record)
    elif kind == "category_group":
        require(value in domain["hierarchy"][record["group"]],
                f"{value!r} is not in group {record['group']!r}")
    elif kind == "concrete":
        require(number(value) == number(record["value"]),
                f"concrete record {record['value']!r} regenerated as {value!r}")


def check_events(original: list[dict], produced: list[dict], payload: str) -> None:
    """Same event count and order; data sits under ``payload`` exactly where
    the original had data."""
    require(len(produced) == len(original), f"{len(produced)} events, expected {len(original)}")
    for index, (a, b) in enumerate(zip(original, produced)):
        require((a["action"], a["widget"]) == (b["action"], b["widget"]),
                f"event {index} is {b['action']}/{b['widget']}, "
                f"expected {a['action']}/{a['widget']}")
        require(("data" in a) == (payload in b), f"event {index} gained or lost its {payload}")
        require(set(b) <= {"action", "widget", payload}, f"event {index} has keys {sorted(b)}")
