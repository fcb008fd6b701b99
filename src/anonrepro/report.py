"""CSV persistence and aligned-table rendering for harness results.

CSV files carry raw counts so they round-trip exactly; derived columns
(frequencies, attempts) are included for spreadsheet use but recomputed on
read.  Oracles that were never reproduced render as "-" in the attempts
columns.
"""
from __future__ import annotations

import csv
import io
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence, get_args, get_type_hints

from .errors import ValidationError
from .harness import AggregateRow, TrialReport, VerificationResult

TRIAL_FIELDS = (
    "oracle",
    "technique",
    "label",
    "config",
    "trials",
    "successes",
    "reproduction_frequency",
    "attempts",
    "disclosures",
    "disclosure_frequency",
    "seed",
    "confidence",
)

AGGREGATE_FIELDS = (
    "technique",
    "label",
    "oracles",
    "mean_frequency",
    "mean_attempts",
    "max_attempts",
    "not_reproduced",
    "mean_disclosure",
)

VERIFICATION_FIELDS = (
    "oracle",
    "technique",
    "label",
    "config",
    "trials",
    "successes",
    "exact_probability",
    "lower",
    "upper",
    "verdict",
)

NOT_REPRODUCED = "-"


def format_percent(fraction: float) -> str:
    """Frequency as a percentage with four significant digits."""
    return f"{fraction * 100:.4g}%"


def format_disclosure(fraction: float) -> str:
    """Disclosure as a percentage with two fixed decimals."""
    return f"{fraction * 100:.2f}%"


def _attempts_cell(value: int | float | None, *, mean: bool = False) -> str:
    if value is None:
        return NOT_REPRODUCED
    return f"{value:.1f}" if mean else str(int(value))


# ---------------------------------------------------------------------------
# CSV writers and readers

#: Columns and row type of each results CSV.  A column that is not a field of
#: the row type is derived: written, then recomputed on read.
CSV_KINDS = {
    "trials": (TRIAL_FIELDS, TrialReport),
    "aggregate": (AGGREGATE_FIELDS, AggregateRow),
    "verification": (VERIFICATION_FIELDS, VerificationResult),
}

_FIELD_TYPES = {row_type: get_type_hints(row_type) for _, row_type in CSV_KINDS.values()}


def write_csv(kind: str, rows: Sequence[Any], path: str | Path) -> None:
    """Write ``rows`` as the results CSV ``kind``; None is written as "-"."""
    columns = CSV_KINDS[kind][0]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            cells = (getattr(row, column) for column in columns)
            writer.writerow([NOT_REPRODUCED if c is None else c for c in cells])


def _cell(text: str, hint: Any) -> Any:
    """A CSV cell read as the field annotation ``hint``; "-" reads as None."""
    options = get_args(hint) or (hint,)
    if text == NOT_REPRODUCED and type(None) in options:
        return None
    return options[0](text)


def read_csv(kind: str, path: str | Path) -> list[Any]:
    """The rows of the results CSV ``kind`` at ``path``."""
    columns, row_type = CSV_KINDS[kind]
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != columns:
            raise ValidationError(
                f"{path}: expected columns {', '.join(columns)}, "
                f"got {', '.join(reader.fieldnames or ())}"
            )
        rows = list(reader)
    out = []
    for row in rows:
        try:
            out.append(row_type(**{
                name: _cell(row[name], hint)
                for name, hint in _FIELD_TYPES[row_type].items()
            }))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: bad row {row!r}: {exc}") from exc
    return out


trials_to_csv = partial(write_csv, "trials")
aggregate_to_csv = partial(write_csv, "aggregate")
verification_to_csv = partial(write_csv, "verification")
trials_from_csv = partial(read_csv, "trials")
aggregate_from_csv = partial(read_csv, "aggregate")
verification_from_csv = partial(read_csv, "verification")


def sniff_csv(path: str | Path) -> str:
    """Which result kind a CSV holds: 'trials', 'aggregate' or 'verification'."""
    with open(path, newline="", encoding="utf-8") as handle:
        header = tuple(next(csv.reader(handle), ()))
    for kind, (columns, _) in CSV_KINDS.items():
        if header == columns:
            return kind
    raise ValidationError(f"{path}: not a recognized results CSV")


# ---------------------------------------------------------------------------
# aligned tables


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], aligns: str
) -> str:
    """Space-padded columns; aligns is one 'l'/'r' per column."""
    if len(aligns) != len(headers):
        raise ValueError("one alignment per column")
    table = [list(map(str, headers))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    out = io.StringIO()
    for index, row in enumerate(table):
        cells = [
            cell.ljust(width) if align == "l" else cell.rjust(width)
            for cell, width, align in zip(row, widths, aligns)
        ]
        print("  ".join(cells).rstrip(), file=out)
        if index == 0:
            print("  ".join("-" * w for w in widths), file=out)
    return out.getvalue()


#: Header, alignment and cell of each column of each aligned table.
TABLE_COLUMNS: dict[str, tuple[tuple[str, str, Callable[[Any], Any]], ...]] = {
    "trials": (
        ("oracle", "l", lambda r: r.oracle),
        ("technique", "l", lambda r: r.technique),
        ("label", "l", lambda r: r.label),
        ("config", "l", lambda r: r.config),
        ("trials", "r", lambda r: r.trials),
        ("frequency", "r", lambda r: format_percent(r.reproduction_frequency)),
        ("attempts", "r", lambda r: _attempts_cell(r.attempts)),
        ("disclosure", "r", lambda r: format_disclosure(r.disclosure_frequency)),
    ),
    "aggregate": (
        ("technique", "l", lambda r: r.technique),
        ("label", "l", lambda r: r.label),
        ("oracles", "r", lambda r: r.oracles),
        ("mean_freq", "r", lambda r: format_percent(r.mean_frequency)),
        ("mean_attempts", "r", lambda r: _attempts_cell(r.mean_attempts, mean=True)),
        ("max_attempts", "r", lambda r: _attempts_cell(r.max_attempts)),
        ("not_reproduced", "r", lambda r: r.not_reproduced),
        ("mean_disclosure", "r", lambda r: format_disclosure(r.mean_disclosure)),
    ),
    "verification": (
        ("oracle", "l", lambda r: r.oracle),
        ("technique", "l", lambda r: r.technique),
        ("label", "l", lambda r: r.label),
        ("config", "l", lambda r: r.config),
        ("exact", "r", lambda r: f"{r.exact_probability:.6g}"),
        ("trials", "r", lambda r: r.trials),
        ("successes", "r", lambda r: r.successes),
        ("region", "r", lambda r: f"[{r.lower}, {r.upper}]"),
        ("verdict", "l", lambda r: r.verdict),
    ),
}


def results_table(kind: str, rows: Sequence[Any]) -> str:
    """The aligned table of results ``kind``: 'trials', 'aggregate' or
    'verification'."""
    columns = TABLE_COLUMNS[kind]
    return render_table(
        [header for header, _, _ in columns],
        [[cell(row) for _, _, cell in columns] for row in rows],
        "".join(align for _, align, _ in columns),
    )


trials_table = partial(results_table, "trials")
aggregate_table = partial(results_table, "aggregate")
verification_table = partial(results_table, "verification")
