"""anonrepro benchmark: one workload per call, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh interpreter (``child.py``) against the
checkout's own ``src/anonrepro``.  Set-up is timed from process start to
the first timed op, in that child and in extra set-up-only children, and
reported as the median.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, TRACE_END, TRACE_START, program_present  # noqa: E402

WORKLOAD_NAMES = ("mc_corpus", "exact_corpus", "trace_cli", "mc_pool")
SETUP_PROBES = 2          # set-up-only children per run, besides the measuring one
DEADLINE_S = 170          # a run ends within this, whatever --seconds says

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "trials_per_s": "1/s", "events_per_s": "1/s", "peak_rss_mb": "MB",
}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("per_field_trial", "busy_ratio")):
        return "ratio"
    return "count"


class ChildFailed(RuntimeError):
    pass


def spawn(args, out: Path, name: str, deadline: float, extra: list[str]) -> tuple[dict, float]:
    """Run child.py to completion; return its result and its start time."""
    result = out / f"{name}.result.json"
    result.unlink(missing_ok=True)
    command = [sys.executable, str(Path(__file__).resolve().parent / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", str(result), *extra]
    with open(out / f"{name}.stdout.txt", "wb") as stdout, \
            open(out / f"{name}.stderr.txt", "wb") as stderr:
        started = time.monotonic()
        child = subprocess.Popen(command, stdout=stdout, stderr=stderr,
                                 env={**os.environ, "PYTHONHASHSEED": "0"})
        try:
            code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise ChildFailed(f"{name} did not finish before the {DEADLINE_S} s deadline")
    if code != 0 or not result.is_file():
        tail = (out / f"{name}.stderr.txt").read_text(errors="replace")[-2000:]
        raise ChildFailed(f"{name} exited {code}:\n{tail}")
    return json.loads(result.read_text()), started


def warnings_in_traced_round(stderr: Path) -> int:
    """Length-raise warning lines between the child's traced-round markers."""
    inside, count = False, 0
    for line in stderr.read_text(errors="replace").splitlines():
        if line == TRACE_START:
            inside = True
        elif line == TRACE_END:
            inside = False
        elif inside and "raising regenerated length" in line:
            count += 1
    return count


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    setups = []
    for probe in range(0 if args.trace else SETUP_PROBES):  # set-up is an end-to-end metric
        ready, started = spawn(args, out, f"setup{probe}", deadline, ["--setup-only"])
        setups.append(ready["ready"] - started)
    run, started = spawn(args, out, "run", deadline, [])
    setups.append(run["ready"] - started)

    for op, reason in sorted({tuple(f) for f in run["failures"]}):
        print(f"{args.workload}: op {op} failed: {reason}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in run["layers"].items()}
        metrics["techniques.length_raise_warnings"] = {
            "value": warnings_in_traced_round(out / "run.stderr.txt"), "unit": "count"}
    else:
        wall = statistics.mean(run["walls"])
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "op_ms_p50": statistics.median(run["op_seconds"]) * 1e3,
            "op_ms_tail": percentile(run["op_seconds"], run["tail_percentile"]) * 1e3,
            "trials_per_s": run["trials_per_round"] / wall,
            "events_per_s": run["events_per_round"] / wall,
            "peak_rss_mb": (run["rss_kb"] + run["children_rss_kb"]) / 1024,
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    return {"correct": not run["unexpected"], "attempted": run["attempted"],
            "failed": len(run["failures"]), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print("perfbench: no src/anonrepro in this checkout; run from its root", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            result = measure(args)
        except ChildFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(f"{name}:", file=sys.stderr)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
