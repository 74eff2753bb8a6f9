"""The repository benchmark: one workload run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload for ``--seconds`` seconds with no
instrumentation and reports the end-to-end metrics; ``--trace 1`` runs
the traced pass of every workload once (the same for any
``--workload``), reports every per-layer metric, and leaves the span
trees under ``.perfbench/trace/<workload>/`` for ``repro trace top``.
Progress and correctness problems go to standard error; the last line
of standard output is the result::

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

The metric names and units are those of ``BENCHMARK.json``.  Without
the program (``src/repro``) in the current directory the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from common import (
    BenchError,
    bootstrap_repro,
    checkout_root,
    log,
    metric,
    result_line,
    work_dir,
)

WORKLOADS = ("paper-grid", "serve-mix", "kernel-sim")
#: The benchmark's own spec, beside this directory (so the same
#: benchmark code can be pointed at another checkout's program).
SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def workload_module(name: str):
    import kernel_sim
    import paper_grid
    import serve_mix

    return {"paper-grid": paper_grid, "serve-mix": serve_mix,
            "kernel-sim": kernel_sim}[name]


def declared(section: str) -> dict[str, str]:
    """``{metric name: unit}`` of one section of ``BENCHMARK.json``."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def run_untraced(root, workload: str, seed: int, seconds: float) -> str:
    outcome = workload_module(workload).run(root, seed, seconds)
    units = declared("end_to_end")
    if set(outcome.metrics) != set(units):
        raise BenchError(f"metrics {sorted(outcome.metrics)} != declared {sorted(units)}")
    for e in outcome.errors:
        log(f"INCORRECT: {e}")
    return result_line(not outcome.errors, outcome.attempted, outcome.failed,
                       outcome.metrics)


def run_traced(root, seed: int) -> str:
    units = declared("per_layer")
    layers: dict[str, float] = {}
    errors: list[str] = []
    summary = {"seed": seed, "end_to_end": {}}
    attempted = 0
    for workload in WORKLOADS:
        log(f"traced pass: {workload}")
        traced = workload_module(workload).traced_pass(root, seed)
        if traced.probe is not None:
            traced.probe.write(work_dir(root, "trace", workload), workload, seed)
        errors.extend(traced.errors)
        layers.update(traced.layers)
        summary["end_to_end"][workload] = traced.end_to_end
        attempted += 1
    summary["per_layer"] = layers
    (work_dir(root, "trace") / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    if set(layers) != set(units):
        raise BenchError(f"per-layer metrics {sorted(layers)} != declared {sorted(units)}")
    for e in errors:
        log(f"INCORRECT: {e}")
    metrics = {name: metric(layers[name], unit) for name, unit in units.items()}
    return result_line(not errors, attempted, 0, metrics)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A TERM unwinds like an exception, so the service processes a run
    # started are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = checkout_root()
    try:
        bootstrap_repro(root)
        if args.trace:
            line = run_traced(root, args.seed)
        else:
            line = run_untraced(root, args.workload, args.seed, args.seconds)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
