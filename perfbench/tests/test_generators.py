"""Workload inputs come from the seed argument and only from it."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import kernel_sim
import paper_grid
import run
import serve_mix
from conftest import BENCH


def _stream(seed: int, n: int = 64) -> list:
    return [(r.kind, json.dumps(r.payload, sort_keys=True))
            for r in itertools.islice(serve_mix.query_stream(seed), n)]


def test_query_stream_is_deterministic_for_its_seed():
    assert _stream(7) == _stream(7)
    assert _stream(7) != _stream(8)


def test_query_stream_mix_is_one_cold_query_per_block():
    reqs = list(itertools.islice(serve_mix.query_stream(3), 8 * 20))
    for block in range(20):
        kinds = [r.kind for r in reqs[8 * block: 8 * block + 8]]
        assert kinds.count("cold") == 1
    cold = [json.dumps(r.payload, sort_keys=True) for r in reqs if r.kind == "cold"]
    assert len(set(cold)) == len(cold)  # every cold network is new


def test_query_stream_ends_when_the_cold_pool_is_used_up():
    n = sum(1 for _ in serve_mix.query_stream(1))
    assert n == serve_mix.COLD_EVERY * len(serve_mix.cold_pool())


def test_kernel_inputs_are_deterministic_for_their_seed():
    layer = kernel_sim.LAYERS[0]
    a = kernel_sim.make_inputs(11, layer, 0)
    b = kernel_sim.make_inputs(11, layer, 0)
    c = kernel_sim.make_inputs(12, layer, 0)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])


def test_grid_sample_is_deterministic_for_its_seed():
    grid = ((512, 1024, 2048, 4096), (1, 16, 64, 128, 256))
    picks = {s: paper_grid.sample_points(s, "vgg16", *grid) for s in range(20)}
    assert picks[3] == paper_grid.sample_points(3, "vgg16", *grid)
    assert len({tuple(p) for p in picks.values()}) > 1


def test_seed_is_a_required_argument():
    with pytest.raises(SystemExit):
        run.main(["--workload", "kernel-sim", "--seconds", "1"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
