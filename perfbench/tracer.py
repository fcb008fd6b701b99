"""Spans around the public functions of each ``anonrepro`` module.

A traced function is replaced, in every ``anonrepro`` module that holds it
under the same name, by a wrapper that times the call with
``perf_counter_ns``.  A span's self time is its duration minus the time its
child spans cover.  Totals stay in memory until the run ends.  Functions
imported by value (``from .rng import substream``) are found by identity,
so the wrapper sees the calls wherever they are looked up; recursion
through a module global (``evaluate_expr``, ``regenerate``) is seen too.
"""
from __future__ import annotations

import re
import sys
import time
from collections import defaultdict
from typing import Callable

EXHAUSTIVE = "oracles.exhaustive_probability"

TECHNIQUES = ("global_recoding", "rounding", "local_suppression", "scd_local_suppression",
              "noise_addition")
RECORD_KINDS = ("suppressed", "special_chars", "interval_group", "category_group", "concrete",
                "tuple")
PREDICATE_OPS = ("and", "or", "not", "equals", "in_range", "contains", "matches_class",
                 "ends_with", "char_at", "is_leap_day", "decimal_separator_is", "length_gt")


def by_type(prefix: str) -> Callable[..., str]:
    """Span name from the first argument's class: ``InRange`` -> ``<prefix>.in_range``,
    ``TupleRecord`` -> ``<prefix>.tuple``."""
    names: dict[type, str] = {}

    def key_of(obj, *args, **kwargs) -> str:
        cls = type(obj)
        if cls not in names:
            snake = re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()
            names[cls] = f"{prefix}.{snake.removesuffix('_record')}"
        return names[cls]
    return key_of


class Tracer:
    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.points = 0
        self.missing: list[str] = []
        self._covered = [0]   # child-span time of each open span
        self._open = [""]     # key of each open span
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, key_of: Callable[..., str],
             total_of: Callable[..., str] | None = None) -> Callable:
        covered, open_, clock = self._covered, self._open, time.perf_counter_ns
        self_ns, total_ns, calls = self.self_ns, self.total_ns, self.calls

        def traced(*args, **kwargs):
            key = key_of(*args, **kwargs)
            covered.append(0)
            open_.append(key)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_.pop()
                self_ns[key] += elapsed - covered.pop()
                covered[-1] += elapsed
                calls[key] += 1
                if total_of is not None:
                    total_ns[total_of(*args, **kwargs)] += elapsed

        return traced

    def patch(self, module: str, name: str, key_of: Callable[..., str],
              total_of: Callable[..., str] | None = None) -> None:
        """Replace ``anonrepro.<module>.<name>`` wherever it is bound."""
        original = getattr(sys.modules.get(f"anonrepro.{module}"), name, None)
        if original is None:
            self.missing.append(f"{module}.{name}")
            return
        wrapped = self.wrap(original, key_of, total_of)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "anonrepro" or mod_name.startswith("anonrepro.")) \
                    and getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)
                self._patches.append((mod, name, original))

    def restore(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every traced function of the program's modules."""
        fixed = lambda key: (lambda *a, **k: key)  # noqa: E731
        self.patch("rng", "substream", fixed("rng.substream"))
        for technique in TECHNIQUES:
            self.patch("techniques", f"{technique}_anonymize",
                       fixed(f"techniques.anonymize.{technique}"))
        self.patch("techniques", "regenerate", by_type("techniques.regenerate"))
        for name in ("record_to_json", "record_from_json", "config_from_json"):
            self.patch("techniques", name, fixed(f"techniques.{name}"))
        for name in ("conforms", "values_equal", "parse_trace", "serialize_trace"):
            self.patch("model", name, fixed(f"model.{name}"))
        self.patch("oracles", "evaluate", fixed("oracles.evaluate"))
        op_key, open_ = by_type("oracles.evaluate_expr"), self._open

        def expr_key(expr, *a, **k):
            if open_[-1] == EXHAUSTIVE:  # a root predicate evaluation
                self.points += 1
            return op_key(expr)

        self.patch("oracles", "evaluate_expr", expr_key)
        self.patch("oracles", "technique_distribution", fixed("oracles.technique_distribution"))
        self.patch("oracles", "exhaustive_probability", fixed(EXHAUSTIVE),
                   lambda oracle, *a, **k: f"{EXHAUSTIVE}.{oracle.name}")
        self.patch("harness", "run_trials", fixed("harness.run_trials"))
        self.patch("harness", "acceptance_region", fixed("harness.acceptance_region"))
        for name in ("trials_to_csv", "aggregate_to_csv", "trials_table", "aggregate_table"):
            self.patch("report", name, fixed("report.write"))
        self.patch("cli", "main", fixed("cli.other"),
                   lambda argv, *a, **k: f"cli.main.{argv[0]}")

    def ms(self, key: str) -> float:
        return self.self_ns.get(key, 0) / 1e6

    def total_ms(self, key: str) -> float:
        return self.total_ns.get(key, 0) / 1e6
