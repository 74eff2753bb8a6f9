"""Every correctness check of the benchmark rejects a corrupted output."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

import kernel_sim
import paper_grid
import serve_mix


# ----------------------------------------------------------------------
# paper-grid
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_grid():
    from repro.codesign import codesign_sweep
    from repro.nets import vgg16_layers

    layers = vgg16_layers(height=128, width=128)[:3]
    sweep = codesign_sweep("vgg16-small", layers, (1024, 2048), (1, 64)).to_dict()
    return layers, sweep


def _point(sweep, vlen, l2):
    return next(e for e in sweep["results"] if (e["vlen"], e["l2_mb"]) == (vlen, l2))


def test_grid_checks_pass_on_the_real_output(small_grid):
    layers, sweep = small_grid
    assert paper_grid.check_grid(sweep, layers, [(1024, 1), (2048, 64)]) == []


def test_perturbed_cycle_count_is_caught(small_grid):
    layers, sweep = small_grid
    bad = copy.deepcopy(sweep)
    _point(bad, 2048, 64)["network"]["total"]["cycles"] *= 1 + 1e-9
    assert paper_grid.check_grid(bad, layers, [])


def test_perturbed_sampled_point_is_caught(small_grid):
    layers, sweep = small_grid
    bad = copy.deepcopy(sweep)
    stats = _point(bad, 1024, 1)["network"]["per_layer"][0]
    stats["issue_cycles"] += 1.0
    stats["cycles"] = (stats["issue_cycles"] + stats["l2_stall_cycles"]
                       + stats["dram_stall_cycles"])
    assert paper_grid.check_grid(bad, layers, []) == []  # self-consistent ...
    assert paper_grid.check_grid(bad, layers, [(1024, 1)])  # ... but not fresh


def test_swapped_l2_points_are_caught(small_grid):
    layers, sweep = small_grid
    bad = copy.deepcopy(sweep)
    small, large = _point(bad, 1024, 1), _point(bad, 1024, 64)
    assert small["network"]["total"]["cycles"] > large["network"]["total"]["cycles"]
    small["network"], large["network"] = large["network"], small["network"]
    assert paper_grid.check_grid(bad, layers, [])


def test_flops_that_vary_across_the_grid_are_caught(small_grid):
    layers, sweep = small_grid
    bad = copy.deepcopy(sweep)
    _point(bad, 2048, 1)["network"]["total"]["flops"] += 2
    assert paper_grid.check_grid(bad, layers, [])


def test_a_later_grid_that_differs_is_caught(small_grid, monkeypatch):
    layers, sweep = small_grid
    monkeypatch.setattr(paper_grid, "networks", lambda: [("vgg16-small", lambda: layers)])
    bad = copy.deepcopy(sweep)
    _point(bad, 2048, 1)["network"]["total"]["l2_misses"] += 1
    assert paper_grid.verify([("vgg16-small", sweep)], seed=1) == []
    assert paper_grid.verify([("vgg16-small", sweep), ("vgg16-small", bad)], seed=1)


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
def _cold_request(height: int) -> serve_mix.Request:
    return serve_mix.Request(0, "cold", {
        "cfg": serve_mix.cfg_text("vgg16"), "name": "vgg16-cold",
        "height": height, "width": 96, "max_layers": 3,
        "vlens": [1024], "l2_mbs": [1, 16],
    })


def _answer(reference: dict, served: dict) -> bytes:
    sweep = {"name": "vgg16-cold", "results": [
        {"vlen": v, "l2_mb": l, "network": net}
        for (v, l), net in sorted(reference.items())]}
    events = [{"event": "query_end", "served": served},
              {"event": "query_result", "sweep": sweep}]
    return "".join(json.dumps(e) + "\n" for e in events).encode()


def test_served_answer_checks_pass_on_the_reference():
    req = _cold_request(64)
    ref = serve_mix.cold_reference(req.payload)
    body = _answer(ref, {"store": 0, "computed": 2, "coalesced": 0})
    assert serve_mix.check_answer(req, body, ref) == []


def test_result_from_another_geometry_is_caught():
    req = _cold_request(64)
    ref = serve_mix.cold_reference(req.payload)
    other = serve_mix.cold_reference(_cold_request(96).payload)
    body = _answer(other, {"store": 0, "computed": 2, "coalesced": 0})
    assert serve_mix.check_answer(req, body, ref)


def test_hot_answer_that_was_computed_is_caught():
    req = _cold_request(64)
    ref = serve_mix.cold_reference(req.payload)
    hot = serve_mix.Request(0, "hot", req.payload)
    body = _answer(ref, {"store": 0, "computed": 2, "coalesced": 0})
    assert serve_mix.check_answer(hot, body, ref)


def test_missing_point_and_error_answers_are_caught():
    req = _cold_request(64)
    ref = serve_mix.cold_reference(req.payload)
    partial = {p: v for p, v in ref.items() if p[1] == 1}
    assert serve_mix.check_answer(
        req, _answer(partial, {"store": 0, "computed": 2, "coalesced": 0}), ref)
    error = json.dumps({"event": "query_error", "reason": "boom"}).encode() + b"\n"
    assert serve_mix.check_answer(req, error, ref)


def test_counter_checks_catch_double_compute_and_misses():
    before = {"hits": 10, "misses": 2, "disk_hits": 0, "points_computed": 2,
              "queue_seconds": 0.0}
    good = dict(before, hits=30, misses=7, points_computed=7)
    assert serve_mix.check_counters(before, good, hot_points=20, cold_points=5) == []
    twice = dict(good, points_computed=8)
    assert serve_mix.check_counters(before, twice, hot_points=20, cold_points=5)
    missed_hot = dict(good, hits=29, misses=8)
    assert serve_mix.check_counters(before, missed_hot, hot_points=20, cold_points=5)


# ----------------------------------------------------------------------
# kernel-sim
# ----------------------------------------------------------------------
SMALL = kernel_sim.Layer("tiny.conv3x3s2", "im2col_gemm", 2, 4, 8, 3, 2, 1, 512)


@pytest.fixture(scope="module")
def small_kernel():
    x, w = kernel_sim.make_inputs(3, SMALL, 0)
    out, machine, stats = kernel_sim.simulate(SMALL, x, w)
    return x, w, out, machine.tracer.total_flops


def test_kernel_checks_pass_on_the_real_output(small_kernel):
    x, w, out, flops = small_kernel
    assert kernel_sim.check_layer(SMALL, x, w, out, flops) == []


def test_output_past_tolerance_is_caught(small_kernel):
    from repro.conv.reference import direct_conv2d

    x, w, out, flops = small_kernel
    ref = direct_conv2d(x.astype(np.float64), w.astype(np.float64),
                        stride=SMALL.stride, pad=SMALL.pad)
    bad = out.copy()
    bad[0, 0, 0] += np.float32(2 * kernel_sim.REL_TOLERANCE * np.abs(ref).max())
    assert kernel_sim.check_layer(SMALL, x, w, bad, flops)


def test_wrong_traced_flops_are_caught(small_kernel):
    x, w, out, flops = small_kernel
    assert kernel_sim.check_layer(SMALL, x, w, out, flops + 2)


def test_winograd_layer_is_within_tolerance():
    layer = kernel_sim.Layer("tiny.wino", "winograd", 2, 2, 6, 3, 1, 1, 512)
    x, w = kernel_sim.make_inputs(5, layer, 0)
    out, machine, _ = kernel_sim.simulate(layer, x, w)
    assert kernel_sim.check_layer(layer, x, w, out, machine.tracer.total_flops) == []
