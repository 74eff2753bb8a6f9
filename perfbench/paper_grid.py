"""``paper-grid``: the paper's co-design grid, cold, as ``repro sweep`` runs it.

One round is a cold :func:`repro.codesign.codesign_sweep` of VGG16 and
then YOLOv3-20L at 768x576 over VLEN {512..4096} x L2 {1..256} MB, in
this process, serially.  Nothing carries over between grids: the sweep
keeps no recording or result between calls, and each grid rebuilds its
layer list, as a fresh ``repro sweep`` does.  The model layer does
almost all of the work; ``serve`` and ``rvv`` stay idle.

An operation is one round (both grids).  The seed only picks which
points are re-simulated from scratch for the bit-identity check; the
grids themselves are the paper's and do not vary.
"""

from __future__ import annotations

import gc
import json
import random
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from common import Outcome, Traced, end_to_end, median_setup, peak_rss_mb_self
from probes import LayerProbe

SETUP_CODE = (
    "from repro.codesign import codesign_sweep\n"
    "from repro.nets import vgg16_layers, yolov3_layers\n"
    "vgg16_layers(); yolov3_layers()\n"
    "print('ready', flush=True)\n"
)

#: Grid points per network re-simulated with a fresh ``simulate_inference``.
SAMPLED_POINTS = 1


def networks() -> list[tuple[str, Callable[[], list]]]:
    from repro.nets import vgg16_layers, yolov3_layers

    return [("vgg16", vgg16_layers), ("yolov3", yolov3_layers)]


def run_grid(name: str, build: Callable[[], list]) -> dict[str, Any]:
    """One cold paper grid; returns the sweep in its JSON form."""
    from repro.codesign import codesign_sweep
    from repro.codesign.sweep import PAPER_L2_MBS, PAPER_VLENS

    return codesign_sweep(name, build(), PAPER_VLENS, PAPER_L2_MBS).to_dict()


def sample_points(seed: int, name: str, vlens: Sequence[int],
                  l2_mbs: Sequence[int], k: int = SAMPLED_POINTS) -> list[tuple[int, int]]:
    """The seeded grid points of ``name`` that are re-simulated."""
    rng = random.Random(f"{seed}:{name}")
    points = [(v, l) for v in vlens for l in l2_mbs]
    return sorted(rng.sample(points, k))


def check_grid(sweep: dict[str, Any], layers: list,
               sample: Sequence[tuple[int, int]]) -> list[str]:
    """Everything wrong with one grid's output (empty when correct).

    - every grid point is present;
    - flops are the same at every point (the work does not depend on
      the machine);
    - ``cycles == issue + L2 stall + DRAM stall`` for the total and
      every layer;
    - at fixed VLEN, cycles and L2 misses do not increase as L2 grows;
    - each sampled point equals a fresh ``simulate_inference`` there,
      bit for bit.
    """
    from repro.nets.inference import simulate_inference
    from repro.sim.system import SystemConfig

    errors: list[str] = []
    name = sweep["name"]
    points = {(e["vlen"], e["l2_mb"]): e["network"] for e in sweep["results"]}
    expected = {(v, l) for v in sweep["vlens"] for l in sweep["l2_mbs"]}
    if set(points) != expected:
        errors.append(f"{name}: grid points {sorted(points)} != {sorted(expected)}")
        return errors
    flops = {p: r["total"]["flops"] for p, r in points.items()}
    if len(set(flops.values())) != 1:
        errors.append(f"{name}: flops differ across the grid: {flops}")
    for p, r in points.items():
        for stats in [r["total"], *r["per_layer"]]:
            parts = (stats["issue_cycles"] + stats["l2_stall_cycles"]
                     + stats["dram_stall_cycles"])
            if stats["cycles"] != parts:
                errors.append(f"{name} {p} {stats['label']}: cycles "
                              f"{stats['cycles']!r} != issue+stalls {parts!r}")
    for v in sweep["vlens"]:
        column = [points[(v, l)]["total"] for l in sweep["l2_mbs"]]
        for key in ("cycles", "l2_misses"):
            seq = [s[key] for s in column]
            if any(b > a for a, b in zip(seq, seq[1:])):
                errors.append(f"{name} vlen {v}: {key} grows with L2: {seq}")
    for v, l in sample:
        fresh = simulate_inference(
            name, layers, SystemConfig().with_(vlen_bits=v, l2_mb=l)).to_dict()
        if fresh != points[(v, l)]:
            errors.append(f"{name} ({v}, {l}): replayed result differs from "
                          f"a fresh simulate_inference")
    return errors


def run(root: Path, seed: int, seconds: float) -> Outcome:
    """The untraced workload: whole rounds of both grids for ``seconds``."""
    setup_s = median_setup(root, SETUP_CODE)
    round_s: list[float] = []
    outputs: list[tuple[str, str]] = []
    while sum(round_s) < seconds:
        gc.collect()  # every round starts from the same heap state
        t0 = time.perf_counter()
        sweeps = [(name, run_grid(name, build)) for name, build in networks()]
        round_s.append(time.perf_counter() - t0)
        # Kept as text: one untracked object per grid, not thousands of
        # dicts that later rounds' collections would have to walk.
        outputs.extend((name, json.dumps(sweep)) for name, sweep in sweeps)
        del sweeps
    rss = peak_rss_mb_self()
    return Outcome(attempted=len(round_s), failed=0,
                   metrics=end_to_end(setup_s, rss, round_s, sum(round_s)),
                   errors=verify([(n, json.loads(t)) for n, t in outputs], seed))


def verify(outputs: list[tuple[str, dict[str, Any]]], seed: int) -> list[str]:
    """Check every grid; the first grid of each network is also
    re-simulated at the seeded points, and later rounds must repeat it."""
    builders = dict(networks())
    errors: list[str] = []
    first: dict[str, dict[str, Any]] = {}
    for name, sweep in outputs:
        if name in first:
            if sweep != first[name]:
                errors.append(f"{name}: a later cold grid differs from the first")
            continue
        first[name] = sweep
        sample = sample_points(seed, name, sweep["vlens"], sweep["l2_mbs"])
        errors.extend(check_grid(sweep, builders[name](), sample))
    return errors


# ----------------------------------------------------------------------
# The traced pass.
# ----------------------------------------------------------------------
def instrument(probe) -> None:
    """Wrap the model, winograd and codesign entry points a grid uses."""
    import repro.codesign.executor as executor
    import repro.model.winograd_model as winograd_model
    import repro.nets.inference as inference
    from repro.model.traffic import CondensedTraffic
    from repro.nets.inference import NetworkRecording

    def phases_classes(args, kwargs, out, state) -> dict[str, float]:
        return {"traffic_classes": sum(len(ph.traffic) for ph in out)}

    def one_phase_classes(args, kwargs, out, state) -> dict[str, float]:
        return {"traffic_classes": len(out.traffic)}

    probe.wrap(inference, "layer_phases",
               classify=lambda a, kw, out: f"model.build.{kw['algorithm'].value}",
               counters=phases_classes)
    probe.wrap(inference, "shortcut_model", "model.build.aux",
               counters=one_phase_classes)
    probe.wrap(inference, "maxpool_model", "model.build.aux",
               counters=one_phase_classes)
    probe.wrap(inference, "stats_from_model", "model.template")
    probe.wrap(CondensedTraffic, "from_phases", "model.condense")
    probe.wrap(NetworkRecording, "evaluate", "model.replay")
    probe.wrap(winograd_model, "f6x3_transforms", "winograd.transforms")
    probe.wrap(executor, "_evaluate_vlen_exact", "codesign.column",
               structural=True,
               attrs=lambda a, kw: {"label": f"{a[0]} column v{a[2]}"})


def traced_pass(root, seed: int) -> Traced:
    """One traced round of both grids (the wrappers are removed before
    the outputs are checked, so the checks add no spans)."""
    probe = LayerProbe("perfbench.paper-grid", seed=seed)
    grid_s: dict[str, float] = {}
    outputs = []
    instrument(probe)
    try:
        for name, build in networks():
            with probe.span("codesign.grid", label=f"{name} grid") as s:
                sweep = run_grid(name, build)
            grid_s[name] = s.wall_seconds
            outputs.append((name, sweep))
    finally:
        probe.close()
    column_s = sum(c.wall_seconds for c in probe.root.walk()
                   if c.name == "codesign.column")
    layers = {
        "model.build_s.im2col_gemm": probe.seconds("model.build.im2col_gemm"),
        "model.build_s.winograd": probe.seconds("model.build.winograd"),
        "model.build_s.aux": probe.seconds("model.build.aux"),
        "model.template_s": probe.seconds("model.template"),
        "model.condense_s": probe.seconds("model.condense"),
        "model.replay_s": probe.seconds("model.replay"),
        "model.traffic_classes.im2col_gemm": probe.count(
            "model.build.im2col_gemm", "traffic_classes"),
        "model.traffic_classes.winograd": probe.count(
            "model.build.winograd", "traffic_classes"),
        "model.traffic_classes.aux": probe.count(
            "model.build.aux", "traffic_classes"),
        "winograd.transforms_s": probe.seconds("winograd.transforms"),
        "winograd.transforms_calls": probe.count("winograd.transforms"),
        "codesign.column_s": column_s,
        "codesign.overhead_s": sum(grid_s.values()) - column_s,
        "codesign.grid_s.vgg16": grid_s["vgg16"],
        "codesign.grid_s.yolov3": grid_s["yolov3"],
    }
    layers["model.traffic_classes"] = sum(
        layers[f"model.traffic_classes.{k}"] for k in ("im2col_gemm", "winograd", "aux"))
    round_s = sum(grid_s.values())
    traced_e2e = {"op_p50_ms": 1e3 * round_s, "ops_per_s": 1 / round_s}
    return Traced(verify(outputs, seed), layers, traced_e2e, probe)
