"""Command line interface.

Subcommands:

* ``anonymize``   apply techniques to a failure trace
* ``regenerate``  draw concrete values from an anonymized trace
* ``simulate``    Monte-Carlo runs over bug oracles, with optional
                  verification against exhaustive enumeration
* ``report``      re-render a results CSV as an aligned table

Exit codes: 0 success, 1 invalid input, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import corpus, report as report_mod
from .errors import (
    AnonReproError,
    ConfigError,
    EnumerationInfeasibleError,
    TraceParseError,
    ValidationError,
)
from .harness import (
    DEFAULT_CONFIDENCE,
    TrialReport,
    VerificationResult,
    aggregate,
    run_trials,
    verify_against_bruteforce,
)
from .model import (
    Event,
    FailureTrace,
    check_keys,
    check_type,
    event_from_json,
    parse_trace,
    serialize_trace,
)
from .rng import substream
from .techniques import (
    TechniqueConfig,
    anonymize,
    config_from_json,
    record_domain,
    record_from_json,
    record_to_json,
    regenerate,
)

log = logging.getLogger(__name__)

DEFAULT_TRIALS = 100
VERIFY_MIN_TRIALS = 100_000

#: Run config keys and their defaults; a ``simulate`` flag of the same name
#: overrides the file.  A non-None default also fixes the key's JSON type.
_RUN_DEFAULTS: dict[str, Any] = {
    "oracles": None,
    "techniques": None,
    "trials": DEFAULT_TRIALS,
    "seed": 0,
    "confidence": DEFAULT_CONFIDENCE,
    "workers": 1,
    "format": "csv",
    "verify": False,
}


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str) -> Any:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# anonymize / regenerate


def _config_or_map(raw: Any, key: str) -> TechniqueConfig | dict[str, TechniqueConfig]:
    """One technique object, or ``{key: {name: technique object}}``."""
    if isinstance(raw, dict) and key in raw:
        check_keys(raw, (key,), f"a config with {key!r}", ConfigError)
        if not isinstance(raw[key], dict):
            raise ConfigError(f"{key!r} must map names to technique configs")
        return {name: config_from_json(cfg) for name, cfg in raw[key].items()}
    return config_from_json(raw)


def cmd_anonymize(args: argparse.Namespace) -> int:
    trace = parse_trace(_read_text(args.trace))
    configs = _config_or_map(_read_json(args.config), "widgets")
    events_out: list[dict[str, Any]] = []
    for index, event in enumerate(trace.events):
        item: dict[str, Any] = {"action": event.action, "widget": event.widget}
        if event.data is not None:
            cfg = configs.get(event.widget) if isinstance(configs, dict) else configs
            if cfg is None:
                raise ConfigError(
                    f"no technique configured for widget {event.widget!r}"
                )
            value, domain = event.data
            record = anonymize(value, domain, cfg, substream(args.seed, index))
            item["record"] = record_to_json(record)
        events_out.append(item)
    _write_text(
        Path(args.out),
        json.dumps({"events": events_out}, indent=2, ensure_ascii=False) + "\n",
    )
    print(f"anonymized {len(trace.events)} event(s) -> {args.out}")
    return 0


def cmd_regenerate(args: argparse.Namespace) -> int:
    raw = _read_json(args.trace)
    if not isinstance(raw, dict) or not isinstance(raw.get("events"), list):
        raise TraceParseError("a trace is an object with an 'events' array")
    events: list[Event] = []
    for index, item in enumerate(raw["events"]):
        if isinstance(item, dict) and "data" in item:
            raise ValidationError(
                f"event {index} holds a raw value; regenerate expects an "
                "anonymized trace (run 'anonymize' first)"
            )
        event = event_from_json(item, index, payload="record")
        if "record" in item:
            record = record_from_json(item["record"])
            value = regenerate(record, substream(args.seed, index))
            event = Event(event.action, event.widget, (value, record_domain(record)))
        events.append(event)
    _write_text(Path(args.out), serialize_trace(FailureTrace(tuple(events))))
    print(f"regenerated {len(events)} event(s) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# simulate / report


def _load_run_config(args: argparse.Namespace) -> dict[str, Any]:
    raw = _read_json(args.config) if args.config else {}
    if not isinstance(raw, dict):
        raise ConfigError("a run config is a JSON object")
    check_keys(raw, _RUN_DEFAULTS, "run config", ConfigError)
    cfg = {**_RUN_DEFAULTS, **raw}
    for key, default in _RUN_DEFAULTS.items():
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
        if default is not None:
            check_type(cfg[key], (type(default),), "run config", key, ConfigError)
    for key in ("trials", "workers"):
        if cfg[key] < 1:
            raise ConfigError(f"run config: {key!r} must be positive, got {cfg[key]!r}")
    if not 0 < cfg["confidence"] < 1:
        raise ConfigError(
            f"run config: 'confidence' must lie in (0, 1), got {cfg['confidence']!r}"
        )
    if cfg["format"] not in ("csv", "table", "both"):
        raise ConfigError(
            f"run config: 'format' must be csv, table or both, got {cfg['format']!r}"
        )
    return cfg


def _run_simulation(
    cfg: Mapping[str, Any]
) -> tuple[list[TrialReport], list[VerificationResult], int]:
    names = cfg["oracles"] or corpus.available()
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ConfigError("'oracles' must be a list of corpus names or paths")
    raw_techniques = cfg["techniques"] or []
    if not isinstance(raw_techniques, list):
        raise ConfigError("'techniques' must be a list of technique configs")
    shared = [_config_or_map(item, "per_field") for item in raw_techniques]

    reports: list[TrialReport] = []
    verifications: list[VerificationResult] = []
    skipped = 0
    for name in names:
        entry = corpus.load(name)
        configs: Sequence[Any] = shared if shared else entry.configs
        for technique_cfg in configs:
            trial = run_trials(
                entry.oracle,
                entry.original_assignment,
                technique_cfg,
                trials=cfg["trials"],
                seed=cfg["seed"],
                confidence=cfg["confidence"],
                workers=cfg["workers"],
            )
            reports.append(trial)
            if cfg["verify"]:
                try:
                    verifications.append(
                        verify_against_bruteforce(
                            entry.oracle,
                            entry.original_assignment,
                            technique_cfg,
                            trials=max(cfg["trials"], VERIFY_MIN_TRIALS),
                            seed=cfg["seed"],
                            workers=cfg["workers"],
                        )
                    )
                except EnumerationInfeasibleError:
                    skipped += 1
    return reports, verifications, skipped


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    reports, verifications, skipped = _run_simulation(cfg)
    rows = aggregate(reports)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results: dict[str, Sequence[Any]] = {"trials": reports, "aggregate": rows}
    if verifications:
        results["verification"] = verifications
    written: list[Path] = []
    for suffix, formats in (("csv", ("csv", "both")), ("txt", ("table", "both"))):
        if cfg["format"] not in formats:
            continue
        for kind, items in results.items():
            written.append(out_dir / f"{kind}.{suffix}")
            if suffix == "csv":
                report_mod.write_csv(kind, items, written[-1])
            else:
                _write_text(written[-1], report_mod.results_table(kind, items))

    print(report_mod.aggregate_table(rows), end="")
    if verifications:
        failed = sum(1 for v in verifications if not v.passed)
        print(
            f"\nverification: {len(verifications) - failed}/{len(verifications)} "
            f"passed"
            + (f", {skipped} not enumerable" if skipped else "")
        )
        if failed:
            print(f"{failed} verification(s) FAILED", file=sys.stderr)
    for path in written:
        print(f"wrote {path}")
    return 2 if verifications and any(not v.passed for v in verifications) else 0


def cmd_report(args: argparse.Namespace) -> int:
    text = _read_text(args.infile)
    kind = report_mod.sniff_csv(args.infile)
    if args.format == "table":
        text = report_mod.results_table(kind, report_mod.read_csv(kind, args.infile))
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anonrepro",
        description=(
            "Anonymize failure traces and measure how often regenerated "
            "inputs still reproduce the recorded bugs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_anon = sub.add_parser("anonymize", help="apply techniques to a failure trace")
    p_anon.add_argument("--trace", required=True, help="input trace JSON")
    p_anon.add_argument("--config", required=True, help="technique config JSON")
    p_anon.add_argument("--out", required=True, help="anonymized trace output path")
    p_anon.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p_anon.set_defaults(func=cmd_anonymize)

    p_regen = sub.add_parser(
        "regenerate", help="draw concrete values from an anonymized trace"
    )
    p_regen.add_argument("--trace", required=True, help="anonymized trace JSON")
    p_regen.add_argument("--out", required=True, help="regenerated trace output path")
    p_regen.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p_regen.set_defaults(func=cmd_regenerate)

    p_sim = sub.add_parser(
        "simulate", help="Monte-Carlo reproduction runs over bug oracles"
    )
    p_sim.add_argument("--config", help="run config JSON (optional)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--trials", type=int, help=f"trials per run (default {DEFAULT_TRIALS})")
    p_sim.add_argument("--seed", type=int, help="random seed (default 0)")
    p_sim.add_argument("--confidence", type=float, help="attempts confidence (default 0.95)")
    p_sim.add_argument("--workers", type=int, help="parallel worker processes")
    p_sim.add_argument(
        "--verify",
        action="store_true",
        default=None,
        help="cross-check against exhaustive enumeration where feasible",
    )
    p_sim.add_argument("--format", choices=("csv", "table", "both"), help="output format")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="re-render a results CSV")
    p_rep.add_argument("--in", dest="infile", required=True, help="results CSV path")
    p_rep.add_argument(
        "--format", choices=("table", "csv"), default="table", help="output format"
    )
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(format="%(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AnonReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last resort
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
