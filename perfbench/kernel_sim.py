"""``kernel-sim``: the paper's kernels on the functional RVV machine.

One round simulates a fixed set of convolution layers, each run through
:mod:`repro.kernels.drivers` on an :class:`~repro.rvv.RvvMachine` with a
capturing tracer and then replayed through the exact cache hierarchy by
:meth:`repro.sim.Simulator.run_trace` -- what ``repro conv`` does.  The
layer shapes are VGG16 and YOLOv3 layers shrunk to a size the
functional machine traces in about a second (channels and spatial size
divided, kernel size, stride and padding kept), at two vector lengths
each.  ``rvv`` and ``sim`` do all of the work; ``model``, ``codesign``
and ``serve`` do none.

An operation is one round: every layer of :data:`LAYERS` simulated
(functional run plus timing replay).  The seed draws the input and
filter values.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import Outcome, Traced, end_to_end, median_setup, peak_rss_mb_self
from probes import LayerProbe

SETUP_CODE = (
    "from repro.kernels import im2col_gemm_conv2d_sim, winograd_conv2d_sim\n"
    "from repro.rvv import Memory, RvvMachine, Tracer\n"
    "from repro.sim import Simulator, SystemConfig\n"
    "from repro.conv import direct_conv2d\n"
    "RvvMachine(512, memory=Memory(1 << 24), tracer=Tracer(capture=True))\n"
    "print('ready', flush=True)\n"
)

#: Accepted error of a simulated output against the float64 direct
#: convolution: ``max|out - ref| <= REL_TOLERANCE * max|ref|``.  Float32
#: Winograd F(6x6,3x3) reaches about 6e-6 on these layers, im2col+GEMM
#: about 5e-7.
REL_TOLERANCE = 1e-4

#: Bytes of simulated memory given to each machine.
MACHINE_BYTES = 1 << 24

WINOGRAD_PHASES = ("filter_transform", "input_transform",
                   "tuple_multiplication", "output_transform")
IM2COL_PHASES = ("im2col", "gemm")
PHASES = WINOGRAD_PHASES + IM2COL_PHASES


@dataclass(frozen=True)
class Layer:
    """One convolution layer of the round."""

    label: str
    algorithm: str  # "winograd" or "im2col_gemm"
    c_in: int
    c_out: int
    size: int
    ksize: int
    stride: int
    pad: int
    vlen: int

    @property
    def out_size(self) -> int:
        return (self.size + 2 * self.pad - self.ksize) // self.stride + 1


#: VGG16 conv1_2 (64->64, 3x3, 768x576) and YOLOv3 conv1 (32->64, 3x3
#: stride 2) and conv2 (64->32, 1x1), channels divided by 8/4 and the
#: image cut to a few Winograd tiles.
LAYERS = (
    Layer("vgg16.conv1_2/8", "winograd", 8, 8, 12, 3, 1, 1, 512),
    Layer("vgg16.conv1_2/8", "winograd", 8, 8, 12, 3, 1, 1, 1024),
    Layer("yolov3.conv1/4", "im2col_gemm", 8, 16, 24, 3, 2, 1, 512),
    Layer("yolov3.conv2/4", "im2col_gemm", 16, 8, 24, 1, 1, 0, 1024),
)


def make_inputs(seed: int, layer: Layer, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded float32 input ``(C, H, W)`` and filters ``(K, C, k, k)``."""
    rng = np.random.default_rng([seed, index])
    x = rng.standard_normal((layer.c_in, layer.size, layer.size)).astype(np.float32)
    w = rng.standard_normal(
        (layer.c_out, layer.c_in, layer.ksize, layer.ksize)).astype(np.float32)
    return x, w


def simulate(layer: Layer, x: np.ndarray, w: np.ndarray):
    """Functional run plus timing replay; returns ``(output, machine, stats)``."""
    from repro.kernels.drivers import im2col_gemm_conv2d_sim, winograd_conv2d_sim
    from repro.rvv import Memory, RvvMachine, Tracer
    from repro.sim import Simulator, SystemConfig

    machine = RvvMachine(layer.vlen, memory=Memory(MACHINE_BYTES),
                         tracer=Tracer(capture=True))
    if layer.algorithm == "winograd":
        out = winograd_conv2d_sim(machine, x, w, pad=layer.pad)
    else:
        out = im2col_gemm_conv2d_sim(machine, x, w, stride=layer.stride,
                                     pad=layer.pad)
    stats = Simulator(SystemConfig(vlen_bits=layer.vlen)).run_trace(
        machine.tracer, label=layer.label)
    return out, machine, stats


def check_layer(layer: Layer, x: np.ndarray, w: np.ndarray,
                out: np.ndarray, traced_flops: int) -> list[str]:
    """Everything wrong with one simulated layer (empty when correct)."""
    from repro.conv.reference import direct_conv2d

    ref = direct_conv2d(x.astype(np.float64), w.astype(np.float64),
                        stride=layer.stride, pad=layer.pad)
    if out.shape != ref.shape:
        return [f"{layer.label}@{layer.vlen}: output shape {out.shape} != {ref.shape}"]
    errors = []
    err = float(np.max(np.abs(out.astype(np.float64) - ref)))
    limit = REL_TOLERANCE * float(np.max(np.abs(ref)))
    if not err <= limit:
        errors.append(f"{layer.label}@{layer.vlen}: max abs error {err:.3e} "
                      f"exceeds {limit:.3e}")
    if layer.algorithm == "im2col_gemm":
        expected = (2 * layer.c_out * layer.c_in * layer.ksize ** 2
                    * layer.out_size ** 2)
        if traced_flops != expected:
            errors.append(f"{layer.label}@{layer.vlen}: traced flops "
                          f"{traced_flops} != 2*K*C*k^2*Ho*Wo = {expected}")
    return errors


def run_round(seed: int, errors: list[str]) -> float:
    """Simulate every layer once and return the simulated seconds.

    Each layer is checked untimed, and its machine is freed (with a
    collection) before the next one starts, so no two machines' traces
    are alive at once and the peak memory is the largest layer's.
    """
    seconds = 0.0
    for i, layer in enumerate(LAYERS):
        x, w = make_inputs(seed, layer, i)
        t0 = time.perf_counter()
        out, machine, _ = simulate(layer, x, w)
        seconds += time.perf_counter() - t0
        errors.extend(check_layer(layer, x, w, out, machine.tracer.total_flops))
        del out, machine
        gc.collect()
    return seconds


def run(root: Path, seed: int, seconds: float) -> Outcome:
    """The untraced workload: whole rounds for ``seconds`` of simulation."""
    setup_s = median_setup(root, SETUP_CODE)
    round_s: list[float] = []
    errors: list[str] = []
    while sum(round_s) < seconds:
        round_s.append(run_round(seed, errors))
    return Outcome(attempted=len(round_s), failed=0,
                   metrics=end_to_end(setup_s, peak_rss_mb_self(), round_s,
                                      sum(round_s)),
                   errors=errors)


# ----------------------------------------------------------------------
# The traced pass.
# ----------------------------------------------------------------------
def instrument(probe: LayerProbe) -> None:
    """Wrap each kernel phase the drivers call and the timing replay."""
    import repro.kernels.drivers as drivers
    from repro.sim import Simulator

    def instrs_before(args, kwargs) -> int:
        return args[0].tracer.total_instrs

    def instrs_delta(args, kwargs, out, before: int) -> dict[str, float]:
        return {"instrs": args[0].tracer.total_instrs - before}

    entry_points = {"im2col": "im2col_kernel", "gemm": "gemm_kernel"}
    for phase in PHASES:
        probe.wrap(drivers, entry_points.get(phase, phase), f"kernels.{phase}",
                   before=instrs_before, counters=instrs_delta)
    probe.wrap(Simulator, "run_trace", "sim.run_trace")


def traced_pass(root: Path, seed: int) -> Traced:
    """One traced round; the checks run after the wrappers are removed."""
    probe = LayerProbe("perfbench.kernel-sim", seed=seed)
    layer_s: list[float] = []
    instrs: list[int] = []
    runs = []
    instrument(probe)
    try:
        for i, layer in enumerate(LAYERS):
            x, w = make_inputs(seed, layer, i)
            with probe.span("kernels.layer", label=layer.label,
                            algorithm=layer.algorithm, vlen_bits=layer.vlen) as s:
                out, machine, _ = simulate(layer, x, w)
            layer_s.append(s.wall_seconds)
            instrs.append(machine.tracer.total_instrs)
            runs.append((layer, x, w, out, machine.tracer.total_flops))
            del machine  # as in the untimed part of run_round
            gc.collect()
    finally:
        probe.close()
    errors = [e for r in runs for e in check_layer(*r)]
    layers: dict[str, float] = {}
    for phase in PHASES:
        layers[f"kernels.{phase}_s"] = probe.seconds(f"kernels.{phase}")
        layers[f"rvv.instrs.{phase}"] = probe.count(f"kernels.{phase}", "instrs")
    layers["sim.run_trace_s"] = probe.seconds("sim.run_trace")
    layers["rvv.sim_instrs_per_s"] = sum(instrs) / sum(layer_s)
    traced_e2e = {"op_p50_ms": 1e3 * sum(layer_s), "ops_per_s": 1 / sum(layer_s)}
    return Traced(errors, layers, traced_e2e, probe)
