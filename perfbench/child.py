"""One workload in a fresh interpreter: set up, run timed rounds, check.

Started by ``run.py``; writes its measurements as JSON to ``--result``.
``--setup-only`` stops once set-up is done, so the parent can time set-up
more than once per run.  With ``--trace 1`` the untraced rounds are
followed by one round with every traced function wrapped.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from common import OUT, TRACE_END, TRACE_START, import_program
from tracer import PREDICATE_OPS, RECORD_KINDS, TECHNIQUES, Tracer
from workloads import POOL_WORKERS, WORKLOADS, load_reference


def run_round(ops) -> tuple[float, dict[str, float], list[tuple[str, str]]]:
    """Run every op once; check outputs after the timed part.

    Returns the round's wall time, the latency of each timed op by name,
    and (op, reason) for every op that raised or failed its check.
    """
    gc.collect()
    outputs = []
    latencies = {}
    start = time.perf_counter()
    for op in ops:
        began = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        if op.timed:
            latencies[op.name] = time.perf_counter() - began
        outputs.append((op, result, error))
    wall = time.perf_counter() - start
    failures = []
    for op, result, error in outputs:
        if error is None:
            try:
                op.check(result)
            except Exception as exc:  # a wrong output counts the op as failed
                error = f"check failed: {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append((op.name, error))
    return wall, latencies, failures


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def pool_startup_ms(ar, entries) -> float:
    """Median of three ``run_trials`` calls at the fewest trials that start a pool."""
    entry = next(e for e in entries if e.name == "birday")
    times = []
    for _ in range(3):
        began = time.perf_counter()
        ar.harness.run_trials(entry.oracle, entry.original_assignment, entry.configs[0],
                              trials=2 * POOL_WORKERS, seed=0, workers=POOL_WORKERS)
        times.append((time.perf_counter() - began) * 1e3)
    return statistics.median(times)


def per_layer(tracer: Tracer, workload, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric; layers the workload does not reach read 0."""
    m: dict[str, float] = {}
    m["rng.substream.calls"] = tracer.calls.get("rng.substream", 0)
    m["rng.substream.ms"] = tracer.ms("rng.substream")
    for technique in TECHNIQUES:
        key = f"techniques.anonymize.{technique}"
        m[f"{key}.ms"], m[f"{key}.calls"] = tracer.ms(key), tracer.calls.get(key, 0)
    for kind in RECORD_KINDS:
        key = f"techniques.regenerate.{kind}"
        m[f"{key}.ms"], m[f"{key}.calls"] = tracer.ms(key), tracer.calls.get(key, 0)
    for name in ("record_to_json", "record_from_json", "config_from_json"):
        m[f"techniques.{name}.ms"] = tracer.ms(f"techniques.{name}")
    conforms_calls = tracer.calls.get("model.conforms", 0)
    m["model.conforms.calls"] = conforms_calls
    m["model.conforms.ms"] = tracer.ms("model.conforms")
    field_trials = workload.field_trials_per_round
    m["model.conforms.per_field_trial"] = conforms_calls / field_trials if field_trials else 0.0
    for name in ("values_equal", "parse_trace", "serialize_trace"):
        m[f"model.{name}.ms"] = tracer.ms(f"model.{name}")
    m["oracles.evaluate.ms"] = tracer.ms("oracles.evaluate")
    for op in PREDICATE_OPS:
        m[f"oracles.evaluate_expr.{op}.ms"] = tracer.ms(f"oracles.evaluate_expr.{op}")
    m["oracles.technique_distribution.ms"] = tracer.ms("oracles.technique_distribution")
    m["oracles.exhaustive_probability.ms"] = tracer.ms("oracles.exhaustive_probability")
    for oracle in sorted({key.split("#")[0] for key in load_reference()["exact"]}):
        name = f"oracles.exhaustive_probability.{oracle}"
        m[f"{name}.ms"] = tracer.total_ms(name)
    m["oracles.exhaustive_probability.points"] = tracer.points
    m["harness.run_trials.self_ms"] = tracer.ms("harness.run_trials")
    m["harness.acceptance_region.ms"] = tracer.ms("harness.acceptance_region")
    m["report.write.ms"] = tracer.ms("report.write")
    for command in ("anonymize", "regenerate"):
        m[f"cli.main.{command}.ms"] = tracer.total_ms(f"cli.main.{command}")
    m["cli.other.ms"] = tracer.ms("cli.other")
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ar = import_program()
    began = time.perf_counter()
    entries = ar.corpus.load_all()
    load_all_ms = (time.perf_counter() - began) * 1e3
    workload = WORKLOADS[args.workload](ar, entries, args.seed, OUT / args.workload)
    gc.freeze()  # collections during the rounds skip the set-up heap
    result: dict = {"ready": time.monotonic()}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    walls, failures = [], []
    latencies: dict[str, list[float]] = {}
    rounds = 0
    cpu_self = cpu_seconds(resource.RUSAGE_SELF)
    cpu_children = cpu_seconds(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    while True:
        wall, lat, failed = run_round(workload.ops)
        rounds += 1
        walls.append(wall)
        for name, seconds in lat.items():
            latencies.setdefault(name, []).append(seconds)
        failures += failed
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    cpu_self = (cpu_seconds(resource.RUSAGE_SELF) - cpu_self) / rounds
    cpu_children = (cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children) / rounds

    if args.trace:
        layers = {"corpus.load_all.ms": load_all_ms}
        uses_pool = workload.name == "mc_pool"
        layers["harness.pool.startup_ms"] = pool_startup_ms(ar, entries) if uses_pool else 0.0
        layers["harness.pool.cpu_children_s"] = cpu_children if uses_pool else 0.0
        layers["harness.pool.cpu_self_s"] = cpu_self if uses_pool else 0.0
        layers["harness.pool.busy_ratio"] = (
            cpu_children / (POOL_WORKERS * statistics.mean(walls)) if uses_pool else 0.0)
        tracer = Tracer()
        tracer.install()
        print(TRACE_START, file=sys.stderr, flush=True)
        try:
            traced_wall, _, failed = run_round(workload.ops)
        finally:
            print(TRACE_END, file=sys.stderr, flush=True)
            tracer.restore()
        rounds += 1
        failures += failed
        layers.update(per_layer(tracer, workload, traced_wall, statistics.mean(walls)))
        result["layers"] = layers
        result["untraced"] = tracer.missing
        spans = {key: {"self_ms": tracer.ms(key), "calls": tracer.calls[key]}
                 for key in sorted(tracer.calls)}
        (OUT / args.workload / "spans.json").write_text(json.dumps(spans, indent=1))

    unexpected = [f for f in failures if f[0] not in workload.known_failures]
    result.update(
        rounds=rounds,
        attempted=rounds * len(workload.ops),
        failures=failures,
        unexpected=unexpected,
        walls=walls,
        # Each op's latency is its mean over the rounds.  The host's speed
        # switches between modes up to 2x apart, and a median of few
        # samples jumps between them where a mean moves smoothly.
        op_seconds=[statistics.mean(v) for v in latencies.values()],
        tail_percentile=workload.tail_percentile,
        trials_per_round=workload.trials_per_round,
        events_per_round=workload.events_per_round,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        children_rss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
