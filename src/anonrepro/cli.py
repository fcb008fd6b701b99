"""Command line interface.

Subcommands:

* ``anonymize``   apply techniques to a failure trace
* ``regenerate``  draw concrete values from an anonymized trace
* ``simulate``    Monte-Carlo runs over bug oracles, with optional
                  verification against exhaustive enumeration
* ``report``      re-render a results CSV as an aligned table

Exit codes: 0 success, 1 invalid input, 2 runtime failure.  With
``ANONREPRO_DEBUG=1`` an unexpected error also prints its traceback.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from . import corpus, report as report_mod
from .errors import (
    AnonReproError,
    ConfigError,
    EnumerationInfeasibleError,
    ValidationError,
    naming,
)
from .harness import (
    DEFAULT_CONFIDENCE,
    TrialReport,
    VerificationResult,
    aggregate,
    run_entry,
    verify_against_bruteforce,
)
from .model import (
    Event,
    FailureTrace,
    check_keys,
    check_type,
    decode_json,
    dump_json,
    event_from_json,
    parse_trace,
    serialize_trace,
    trace_events,
)
from .rng import substream
from .techniques import (
    NoiseAdditionConfig,
    TechniqueConfig,
    anonymize_conforming,
    config_from_json,
    draws,
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str) -> Any:
    text = _read_text(path)
    with naming(path):
        return decode_json(text, ValidationError)


@contextmanager
def _writing(path: Path) -> Iterator[None]:
    """An output that cannot be written is bad input, as one that cannot be read."""
    try:
        yield
    except (OSError, UnicodeEncodeError) as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    with _writing(path):
        data = text.encode("utf-8")  # first: opening the file truncates it
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


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
    text = _read_text(args.trace)
    with naming(args.trace):
        trace = parse_trace(text)
    raw_configs = _read_json(args.config)
    with naming(args.config):
        configs = _config_or_map(raw_configs, "widgets")
    events_out: list[dict[str, Any]] = []
    for index, event in enumerate(trace.events):
        item: dict[str, Any] = {"action": event.action, "widget": event.widget}
        if event.data is not None:
            with naming(f"{args.trace}: event {index}"):
                cfg = configs.get(event.widget) if isinstance(configs, dict) else configs
                if cfg is None:
                    raise ConfigError(f"no technique configured for widget {event.widget!r}")
                value, domain = event.data
                # parse_trace checked the value; only noise addition draws
                rng = substream(args.seed, index) if isinstance(cfg, NoiseAdditionConfig) else None
                record = anonymize_conforming(value, domain, cfg, rng)
            item["record"] = record_to_json(record)
        events_out.append(item)
    _write_text(Path(args.out), dump_json({"events": events_out}))
    print(f"anonymized {len(trace.events)} event(s) -> {args.out}")
    return 0


def cmd_regenerate(args: argparse.Namespace) -> int:
    text = _read_text(args.trace)
    events: list[Event] = []
    with naming(args.trace):
        for index, item in enumerate(trace_events(text)):
            if isinstance(item, dict) and "data" in item:
                raise ValidationError(
                    f"event {index} holds a raw value; regenerate expects an "
                    "anonymized trace (run 'anonymize' first)"
                )
            event = event_from_json(item, index, payload="record")
            if "record" in item:
                raised: Counter = Counter()
                with naming(f"event {index}"):
                    record = record_from_json(item["record"])
                    rng = substream(args.seed, index) if draws(record) else None
                    value = regenerate(record, rng, raised)
                for needed in sorted(raised):
                    log.warning(
                        "event %d (widget %r): raising regenerated length to %d to fit "
                        "special characters", index, event.widget, needed)
                event = Event(event.action, event.widget, (value, record_domain(record)))
            events.append(event)
    _write_text(Path(args.out), serialize_trace(FailureTrace(tuple(events))))
    print(f"regenerated {len(events)} event(s) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# simulate / report


def _load_run_config(args: argparse.Namespace) -> dict[str, Any]:
    """The run config, its flags applied and its techniques read; an error
    names the config file, if one was given."""
    raw = _read_json(args.config) if args.config else {}
    with naming(args.config) if args.config else nullcontext():
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
        names = cfg["oracles"] or []
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ConfigError("'oracles' must be a list of corpus names or paths")
        if not isinstance(cfg["techniques"] or [], list):
            raise ConfigError("'techniques' must be a list of technique configs")
        techniques = []
        for index, item in enumerate(cfg["techniques"] or []):
            with naming(f"techniques[{index}]"):
                techniques.append(_config_or_map(item, "per_field"))
        cfg["techniques"] = techniques
    return cfg


def _run_simulation(
    cfg: Mapping[str, Any]
) -> tuple[list[TrialReport], list[VerificationResult], int]:
    reports: list[TrialReport] = []
    verifications: list[VerificationResult] = []
    skipped = 0
    for name in cfg["oracles"] or corpus.available():
        entry = corpus.load(name)
        configs: Sequence[Any] = cfg["techniques"] or entry.configs
        with naming(f"oracle {entry.oracle.name!r}"):
            reports += run_entry(entry, configs, trials=cfg["trials"], seed=cfg["seed"],
                                 confidence=cfg["confidence"], workers=cfg["workers"])
            for technique_cfg in configs if cfg["verify"] else ():
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
    out_dir = Path(args.out)
    with _writing(out_dir):  # before the runs, so an unwritable --out fails at once
        out_dir.mkdir(parents=True, exist_ok=True)
    reports, verifications, skipped = _run_simulation(cfg)
    rows = aggregate(reports)

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
                with _writing(written[-1]):
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
    except Exception as exc:  # last resort
        if os.environ.get("ANONREPRO_DEBUG") == "1":
            traceback.print_exc()
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
