"""Pieces every workload shares: the checkout bootstrap, set-up timing,
the end-to-end metrics and the result line.

The benchmark drives the program from the checkout it is run in: the
``repro`` package is imported from ``<checkout>/src`` and nothing else,
so a directory without the program makes the benchmark fail instead of
measuring some other copy.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

#: Spawns per run whose median is reported as ``setup_s``.
SETUP_REPEATS = 3

#: Where runs leave their scratch state and traces (git-ignored).
WORK_DIR_NAME = ".perfbench"


class BenchError(Exception):
    """The benchmark cannot run here (no program, a spawn failed)."""


@dataclass
class Outcome:
    """One untraced workload run: what was attempted and measured, and
    every correctness problem found in the program's outputs."""

    attempted: int
    failed: int
    metrics: dict[str, Any]
    errors: list[str] = field(default_factory=list)


@dataclass
class Traced:
    """One traced pass: correctness problems, per-layer metrics, the
    pass's own end-to-end figures (for the tracing overhead) and the
    probe holding its span tree."""

    errors: list[str]
    layers: dict[str, float]
    end_to_end: dict[str, float]
    probe: Any


def checkout_root() -> Path:
    """The checkout the benchmark measures: the current directory."""
    return Path.cwd()


def bootstrap_repro(root: Path) -> Path:
    """Put ``<root>/src`` first on ``sys.path``; fail without it."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program to measure: {src / 'repro'} is missing "
            f"(run the benchmark from the root of a checkout)"
        )
    sys.path.insert(0, str(src))
    return src


def program_env(root: Path) -> dict[str, str]:
    """Environment for a program subprocess: only the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def work_dir(root: Path, *parts: str) -> Path:
    d = root.joinpath(WORK_DIR_NAME, *parts)
    d.mkdir(parents=True, exist_ok=True)
    return d


def time_spawn_until_ready(root: Path, code: str, timeout: float = 120.0) -> float:
    """Seconds from spawning ``python -c code`` until it prints ``ready``.

    The child imports what a workload needs and builds its inputs, so
    this is the set-up a fresh command-line run pays before it works.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=root, env=program_env(root),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err[-2000:]}")
    return elapsed


def median_setup(root: Path, code: str) -> float:
    return statistics.median(
        time_spawn_until_ready(root, code) for _ in range(SETUP_REPEATS)
    )


def peak_rss_mb_self() -> float:
    """This process's peak resident set size in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def end_to_end(setup_s: float, peak_rss_mb: float,
               op_seconds: Sequence[float], wall_s: float) -> dict[str, Any]:
    """The end-to-end metrics every workload reports.

    ``op_seconds`` holds the latency of each operation the run
    completed and ``wall_s`` the measured wall time they took together.
    """
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "op_p50_ms": metric(statistics.median(op_seconds) * 1e3, "ms"),
        "ops_per_s": metric(len(op_seconds) / wall_s, "1/s"),
    }


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, Any]) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed), "metrics": metrics,
    })


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)
