"""Paths and the import of the program under test.

The benchmark always measures the ``anonrepro`` sources of the checkout it
lives in (``<checkout>/src``), never an installed copy.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
#: Lines the child writes on its stderr around the traced round.
TRACE_START = "perfbench: traced round starts"
TRACE_END = "perfbench: traced round ends"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/anonrepro`` package to measure."""


def program_present() -> bool:
    return (SRC / "anonrepro" / "__init__.py").is_file()


def import_program():
    """Import ``anonrepro`` from this checkout's ``src`` and return it."""
    if not program_present():
        raise MissingProgram(f"no anonrepro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    anonrepro = importlib.import_module("anonrepro")
    for module in ("report", "cli"):  # not imported by the package itself
        importlib.import_module(f"anonrepro.{module}")
    if not Path(anonrepro.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"anonrepro was imported from {anonrepro.__file__}, not {SRC}")
    return anonrepro
