"""``serve-mix``: mixed hot and cold traffic against ``repro serve``.

The service runs as its own process (``python -m repro serve``, two
workers, a durable store directory) and is driven over HTTP by
:data:`CLIENTS` closed-loop clients in this process: each sends its
next query when the previous answer has been read in full.

Before the measured window the service answers the whole hot grid of
VGG16 and YOLOv3 (VLEN {1024, 2048, 4096} x every paper L2 size) once,
so it has "already answered" those networks.  The seeded stream then
mixes:

- hot queries (seven in eight): a random 2 x 3 sub-grid of one of
  those two networks.  Every point is in the store, so protocol
  parsing, content hashing, store lookups and result encoding do all
  of the work and the model none.  The size is fixed so that the
  latency median does not wander with a seed's mix of sizes;
- cold queries (one in eight, at a seeded place in each block of
  eight): VGG16 or YOLOv3 cfg text at an input size and layer prefix
  the service has not seen, over a random 1 x 2 sub-grid, so every
  point is computed by the worker pool, written to the store and its
  disk tier, and competes with hot answers for the service's
  interpreter.  Cold queries are kept small (2-4 layers, at most
  224 x 320): when computing cold points keeps the service busy for
  about half of the window, the hot median sits on the edge between
  hot queries that overlap a computation and those that do not, and
  swings by a third from run to run.

An operation is one query.  Every answer is compared bit for bit with
:func:`repro.codesign.executor.evaluate_column` run in this process,
hot answers must come from the store, and each cold point must be
computed exactly once.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from common import (
    BenchError,
    Outcome,
    Traced,
    end_to_end,
    log,
    program_env,
    work_dir,
)

HOT_NETWORKS = ("vgg16", "yolov3")
HOT_VLENS = (1024, 2048, 4096)
L2_MBS = (1, 16, 64, 128, 256)
#: One query in every block of this many is cold.
COLD_EVERY = 8
COLD_HEIGHTS = tuple(range(96, 225, 32))
COLD_WIDTHS = tuple(range(128, 321, 16))
COLD_PREFIXES = (2, 3, 4)
#: Closed-loop clients (at most ``nproc`` on the reference machine).
CLIENTS = 2
WORKERS = 2
#: Queries of the stream the traced pass sends (a fixed number, so its
#: counts repeat exactly for a seed).
TRACE_QUERIES = 96
#: Seconds to wait for the service to come up or drain.
SERVICE_TIMEOUT = 90.0


@dataclass(frozen=True)
class Request:
    """One query of the stream."""

    index: int
    kind: str  # "hot" or "cold"
    payload: dict[str, Any]

    @property
    def points(self) -> list[tuple[int, int]]:
        return [(v, l) for v in self.payload["vlens"] for l in self.payload["l2_mbs"]]


def cold_pool() -> list[tuple[str, int, int, int]]:
    """Every (network, height, width, prefix) a cold query may use."""
    return [(net, h, w, n) for net in HOT_NETWORKS for h in COLD_HEIGHTS
            for w in COLD_WIDTHS for n in COLD_PREFIXES]


def cfg_text(network: str) -> str:
    from repro.nets.vgg16 import VGG16_CFG
    from repro.nets.yolov3 import YOLOV3_CFG_HEAD

    return {"vgg16": VGG16_CFG, "yolov3": YOLOV3_CFG_HEAD}[network]


def query_stream(seed: int) -> Iterator[Request]:
    """The seeded query stream; it ends when the cold pool is used up."""
    rng = random.Random(seed)
    pool = cold_pool()
    rng.shuffle(pool)
    index = 0
    for net, h, w, n in pool:
        cold_at = rng.randrange(COLD_EVERY)
        for slot in range(COLD_EVERY):
            if slot == cold_at:
                payload = {
                    "cfg": cfg_text(net), "name": f"{net}-{h}x{w}-{n}L",
                    "height": h, "width": w, "max_layers": n,
                    "vlens": [rng.choice(HOT_VLENS)],
                    "l2_mbs": sorted(rng.sample(L2_MBS, 2)),
                }
                yield Request(index, "cold", payload)
            else:
                payload = {
                    "network": rng.choice(HOT_NETWORKS),
                    "vlens": sorted(rng.sample(HOT_VLENS, 2)),
                    "l2_mbs": sorted(rng.sample(L2_MBS, 3)),
                }
                yield Request(index, "hot", payload)
            index += 1


# ----------------------------------------------------------------------
# The service process.
# ----------------------------------------------------------------------
class Service:
    """One ``repro serve`` process on an ephemeral port."""

    _LISTEN = re.compile(r"listening on http://[^:]+:(\d+)")

    def __init__(self, root: Path, argv: list[str], store_dir: Path,
                 log_path: Path) -> None:
        self.t_spawn = time.perf_counter()
        self._log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            argv + ["--host", "127.0.0.1", "--port", "0",
                    "--workers", str(WORKERS), "--store-dir", str(store_dir)],
            cwd=root, env=program_env(root),
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        # One CPU for the service: its interpreter runs one thread at a
        # time anyway, and letting its event-loop and worker threads
        # hand the interpreter lock across CPUs made latency swing by a
        # third from run to run.  Set before the service starts threads.
        os.sched_setaffinity(self.proc.pid, {max(os.sched_getaffinity(0))})
        self.port = 0

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/v1/healthz`` answers."""
        deadline = self.t_spawn + SERVICE_TIMEOUT
        while not self.port:
            m = self._LISTEN.search(self._log_path.read_text(encoding="utf-8"))
            if m:
                self.port = int(m.group(1))
            elif self.proc.poll() is not None or time.perf_counter() > deadline:
                raise BenchError("service did not start: "
                                 + self._log_path.read_text(encoding="utf-8")[-2000:])
            else:
                time.sleep(0.005)
        while True:
            try:
                if self.get_json("/v1/healthz").get("ok"):
                    return time.perf_counter() - self.t_spawn
            except (OSError, http.client.HTTPException, ValueError):
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise BenchError("service never answered /v1/healthz")
            time.sleep(0.005)

    def _get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
        finally:
            conn.close()
        if resp.status != 200:
            raise BenchError(f"GET {path} answered {resp.status}")
        return body

    def get_json(self, path: str) -> dict[str, Any]:
        return json.loads(self._get(path))

    def scrape(self) -> dict[str, Any]:
        """Store counters and the /metrics samples the checks use."""
        store = self.get_json("/v1/stats")["store"]
        text = self._get("/metrics").decode("utf-8")

        def sample(name: str) -> float:
            m = re.search(rf"^{name} (\S+)$", text, re.MULTILINE)
            return float(m.group(1)) if m else 0.0

        return {
            "hits": store["hits"], "misses": store["misses"],
            "disk_hits": store["disk_hits"],
            "points_computed": sample("repro_serve_points_computed_total"),
            "queue_seconds": sample("repro_serve_queue_seconds_sum"),
        }

    def query(self, payload: dict[str, Any]) -> tuple[float, int, bytes]:
        """POST one query; ``(seconds, status, body)`` as the client sees it."""
        body = json.dumps(payload).encode("utf-8")
        t0 = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=300)
        try:
            conn.request("POST", "/v1/query", body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        return time.perf_counter() - t0, resp.status, data

    def peak_rss_mb(self) -> float:
        """The service's peak resident set size (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        m = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if not m:
            raise BenchError("no VmHWM for the service process")
        return int(m.group(1)) / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVICE_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def service_argv(traced_out: Path | None, seed: int) -> list[str]:
    """Plain ``repro serve``, or the probe launcher for the traced pass."""
    if traced_out is None:
        return [sys.executable, "-m", "repro", "serve"]
    launcher = Path(__file__).resolve().parent / "serve_launcher.py"
    return [sys.executable, str(launcher), "--out", str(traced_out),
            "--seed", str(seed), "--", "serve"]


def start_service(root: Path, tag: str, traced_out: Path | None = None,
                  seed: int = 0) -> tuple[Service, float]:
    """Spawn a service with a fresh store directory; wait until ready."""
    run_dir = work_dir(root, f"serve-{tag}")
    store_dir = run_dir / "store"
    if store_dir.exists():
        shutil.rmtree(store_dir)
    service = Service(root, service_argv(traced_out, seed), store_dir,
                      run_dir / "service.log")
    try:
        return service, service.wait_ready()
    except BaseException:
        service.stop()
        raise


# ----------------------------------------------------------------------
# References and checks.
# ----------------------------------------------------------------------
def normalized(result) -> dict[str, Any]:
    """A ``NetworkResult`` as it reads after a JSON round trip."""
    return json.loads(json.dumps(result.to_dict()))


def reference_points(name: str, layers: list, vlens, l2_mbs) -> dict[tuple[int, int], dict]:
    from repro.codesign.executor import evaluate_column

    out = {}
    for v in vlens:
        column, _ = evaluate_column(name, layers, v, l2_mbs)
        for l2, result, _secs in column:
            out[(v, l2)] = normalized(result)
    return out


def hot_references() -> dict[str, dict[tuple[int, int], dict]]:
    from repro.nets import vgg16_layers, yolov3_layers

    builders = {"vgg16": vgg16_layers, "yolov3": yolov3_layers}
    return {net: reference_points(net, builders[net](), HOT_VLENS, L2_MBS)
            for net in HOT_NETWORKS}


def cold_reference(payload: dict[str, Any]) -> dict[tuple[int, int], dict]:
    from repro.nets import build_layers

    layers = build_layers(payload["cfg"], height=payload["height"],
                          width=payload["width"], max_layers=payload["max_layers"])
    return reference_points(payload["name"], layers, payload["vlens"],
                            payload["l2_mbs"])


def parse_answer(body: bytes) -> tuple[dict | None, dict | None, str | None]:
    """``(sweep, served, error)`` from one NDJSON answer."""
    sweep = served = error = None
    for line in body.decode("utf-8").splitlines():
        if not line.strip():
            continue
        ev = json.loads(line)
        kind = ev.get("event")
        if kind == "query_result":
            sweep = ev["sweep"]
        elif kind == "query_end":
            served = ev["served"]
        elif kind == "query_error":
            error = str(ev.get("reason"))
    return sweep, served, error


def check_answer(req: Request, body: bytes,
                 reference: dict[tuple[int, int], dict]) -> list[str]:
    """Everything wrong with one answer (empty when correct)."""
    tag = f"query {req.index} ({req.kind})"
    sweep, served, error = parse_answer(body)
    if error is not None or sweep is None or served is None:
        return [f"{tag}: no result ({error or 'stream ended early'})"]
    got = {(e["vlen"], e["l2_mb"]): e["network"] for e in sweep["results"]}
    errors = []
    if sorted(got) != sorted(req.points):
        errors.append(f"{tag}: answered points {sorted(got)} != asked {req.points}")
    for p in req.points:
        if p in got and got[p] != reference[p]:
            errors.append(f"{tag}: point {p} differs from evaluate_column")
    source = "store" if req.kind == "hot" else "computed"
    if served.get(source) != len(req.points):
        errors.append(f"{tag}: served {served}, expected every point from {source}")
    return errors


def check_counters(before: dict, after: dict, hot_points: int,
                   cold_points: int) -> list[str]:
    """Store and compute counters over a block of queries: hot points are
    store hits, cold points miss once and are computed exactly once."""
    errors = []
    delta = {k: after[k] - before[k] for k in before}
    if delta["hits"] != hot_points:
        errors.append(f"store hits {delta['hits']} != hot points {hot_points}")
    if delta["misses"] != cold_points:
        errors.append(f"store misses {delta['misses']} != cold points {cold_points}")
    if delta["points_computed"] != cold_points:
        errors.append(f"points computed {delta['points_computed']:g} != cold "
                      f"points {cold_points} (each must be computed exactly once)")
    return errors


# ----------------------------------------------------------------------
# Driving the service.
# ----------------------------------------------------------------------
def warm_requests() -> list[Request]:
    """The hot grid, one VLEN column per query, so the service computes
    one column at a time and its peak memory does not depend on how two
    concurrent columns happened to overlap."""
    return [Request(-1, "cold", {"network": net, "vlens": [v],
                                 "l2_mbs": list(L2_MBS)})
            for net in HOT_NETWORKS for v in HOT_VLENS]


def warm(service: Service) -> tuple[dict, list[str]]:
    """Have the service answer the hot grid while this process computes
    the same points as references; returns ``(references, errors)``."""
    requests = warm_requests()
    answers: list[tuple[int, bytes]] = []

    def ask() -> None:
        for req in requests:
            _, status, body = service.query(req.payload)
            answers.append((status, body))

    thread = threading.Thread(target=ask)
    thread.start()
    refs = hot_references()
    thread.join(timeout=SERVICE_TIMEOUT * 4)
    errors = []
    if len(answers) != len(requests):
        errors.append(f"warm-up answered {len(answers)} of {len(requests)} queries")
    for req, (status, body) in zip(requests, answers):
        if status != 200:
            errors.append(f"warm-up query {req.payload} answered {status}")
        else:
            errors.extend(check_answer(req, body, refs[req.payload["network"]]))
    return refs, errors


@dataclass
class Answer:
    request: Request
    seconds: float
    status: int
    body: bytes


def drive(service: Service, stream: Iterator[Request], deadline: float | None,
          limit: int | None) -> tuple[list[Answer], float]:
    """Closed loop: each client sends its next query once the previous
    answer is read.  Stops at ``deadline`` (perf_counter) or after
    ``limit`` queries; returns the answers and the window's wall time."""
    answers: list[Answer] = []
    lock = threading.Lock()
    sent = [0]

    def client() -> None:
        while True:
            with lock:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                if limit is not None and sent[0] >= limit:
                    return
                req = next(stream, None)
                if req is None:
                    return
                sent[0] += 1
            t0 = time.perf_counter()
            try:
                secs, status, body = service.query(req.payload)
            except (OSError, http.client.HTTPException):
                secs, status, body = time.perf_counter() - t0, 0, b""
            answers.append(Answer(req, secs, status, body))

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return answers, time.perf_counter() - t0


def verify(answers: list[Answer], refs: dict, before: dict, after: dict) -> tuple[int, list[str]]:
    """Check every answer and the counters; returns ``(failed, errors)``."""
    errors: list[str] = []
    failed = 0
    hot_points = cold_points = 0
    for a in answers:
        if a.status != 200:
            failed += 1
            continue
        if a.request.kind == "hot":
            hot_points += len(a.request.points)
            ref = refs[a.request.payload["network"]]
        else:
            cold_points += len(a.request.points)
            ref = cold_reference(a.request.payload)
        errors.extend(check_answer(a.request, a.body, ref))
    errors.extend(check_counters(before, after, hot_points, cold_points))
    return failed, errors


def run(root: Path, seed: int, seconds: float) -> Outcome:
    """The untraced workload: ``seconds`` of mixed traffic."""
    setups = []
    for i in range(2):
        spare, setup = start_service(root, f"setup{i}")
        spare.stop()
        setups.append(setup)
    service, setup = start_service(root, "main")
    setups.append(setup)
    try:
        refs, errors = warm(service)
        before = service.scrape()
        answers, wall = drive(service, query_stream(seed),
                              time.perf_counter() + seconds, None)
        after = service.scrape()
        rss = service.peak_rss_mb()
    finally:
        service.stop()
    failed, check_errors = verify(answers, refs, before, after)
    ok = [a.seconds for a in answers if a.status == 200]
    log(f"serve-mix: {len(answers)} queries "
        f"({sum(a.request.kind == 'cold' for a in answers)} cold) in {wall:.2f}s")
    return Outcome(attempted=len(answers), failed=failed,
                   metrics=end_to_end(statistics.median(setups), rss, ok, wall),
                   errors=errors + check_errors)


# ----------------------------------------------------------------------
# The traced pass.
# ----------------------------------------------------------------------
def instrument(probe) -> None:
    """Wrap the protocol, store and result entry points of the service
    (installed by ``serve_launcher.py`` inside the service process)."""
    import repro.serve.protocol as protocol
    import repro.serve.service as service
    from repro.codesign.sweep import SweepResult
    from repro.model.layer_model import NetworkResult
    from repro.serve.store import ResultStore

    def hit(args, kwargs, out, state) -> dict[str, float]:
        return {"hits": float(out is not None)}

    def nbytes(args, kwargs, out, state) -> dict[str, float]:
        return {"bytes": len(out)}

    def kind(span, args, out) -> None:
        get = next((c for c in span.children if c.name == "serve.store.get"), None)
        misses = 0 if get is None else get.counters["calls"] - get.counters["hits"]
        which = "cold" if misses else "hot"
        span.set_attrs(network=args[1].network, kind=which,
                       label=f"{which} {args[1].network}")

    probe.wrap(protocol.Query, "from_payload", "serve.protocol.parse")
    probe.wrap(protocol, "network_hash", "serve.protocol.network_hash")
    probe.wrap(service, "network_hash", "serve.protocol.network_hash")
    probe.wrap(ResultStore, "get", "serve.store.get", counters=hit)
    probe.wrap(ResultStore, "put", "serve.store.put")
    probe.wrap(NetworkResult, "from_dict", "serve.result.decode")
    probe.wrap(SweepResult, "to_dict", "serve.result.encode")
    probe.wrap(service, "encode_event", "serve.result.encode", counters=nbytes)
    probe.wrap_async(service.CodesignService, "handle_query", "serve.query",
                     on_exit=kind)


def layer_metrics(root_span, answers: list[Answer], before: dict,
                  after: dict) -> dict[str, float]:
    """Per-layer figures from the service's span tree and the counters
    scraped around the traced block (warm-up queries excluded)."""
    queries = [s for s in root_span.children if s.name == "serve.query"]
    warmups = [s for s in queries if s.attrs.get("network") in HOT_NETWORKS
               and s.attrs.get("kind") == "cold"]
    hot = [s for s in queries if s.attrs.get("kind") == "hot"]
    cold = [s for s in queries if s.attrs.get("kind") == "cold" and s not in warmups]

    def leaf(span, name):
        return next((c for c in span.children if c.name == name), None)

    def per_hot(name: str, counter: str | None = None) -> float:
        total = 0.0
        for s in hot:
            c = leaf(s, name)
            if c is not None:
                total += c.wall_seconds if counter is None else c.counters.get(counter, 0)
        return total / len(hot)

    def mean_call(name: str) -> float:
        spans = [c for c in root_span.walk() if c.name == name]
        calls = sum(c.counters.get("calls", 0) for c in spans)
        return sum(c.wall_seconds for c in spans) / calls if calls else 0.0

    delta = {k: after[k] - before[k] for k in before}
    hot_bytes = [len(a.body) for a in answers if a.request.kind == "hot"]
    return {
        "serve.protocol.parse_ms": 1e3 * mean_call("serve.protocol.parse"),
        "serve.protocol.hash_ms": 1e3 * per_hot("serve.protocol.network_hash"),
        "serve.protocol.hash_calls": per_hot("serve.protocol.network_hash", "calls"),
        "serve.store.get_us": 1e6 * mean_call("serve.store.get"),
        "serve.store.hits": delta["hits"],
        "serve.store.misses": delta["misses"],
        "serve.store.disk_hits": delta["disk_hits"],
        "serve.store.put_ms": 1e3 * mean_call("serve.store.put"),
        "serve.result.decode_ms": 1e3 * per_hot("serve.result.decode"),
        "serve.result.encode_ms": 1e3 * per_hot("serve.result.encode"),
        "serve.response_bytes": statistics.mean(hot_bytes),
        "serve.queue_wait_s": delta["queue_seconds"],
        "serve.points_computed": delta["points_computed"],
        "serve.hot_query_ms": 1e3 * statistics.median(s.wall_seconds for s in hot),
        "serve.cold_query_s": statistics.median(s.wall_seconds for s in cold),
    }


def traced_pass(root: Path, seed: int) -> Traced:
    """The first :data:`TRACE_QUERIES` queries of the stream against a
    service started by ``serve_launcher.py``; returns its span tree."""
    from repro.obs import Span, load_trace

    trace_dir = work_dir(root, "trace", "serve-mix")
    trace_file = trace_dir / "trace.json"
    if trace_file.exists():
        trace_file.unlink()
    service, setup = start_service(root, "traced", traced_out=trace_dir, seed=seed)
    try:
        refs, errors = warm(service)
        before = service.scrape()
        answers, wall = drive(service, query_stream(seed), None, TRACE_QUERIES)
        after = service.scrape()
    finally:
        service.stop()
    failed, check_errors = verify(answers, refs, before, after)
    if failed:
        check_errors.append(f"{failed} traced queries failed")
    root_span: Span = load_trace(trace_dir).span
    layers = layer_metrics(root_span, answers, before, after)
    traced_e2e = {
        "setup_s": setup,
        "op_p50_ms": 1e3 * statistics.median(a.seconds for a in answers),
        "ops_per_s": len(answers) / wall,
    }
    return Traced(errors + check_errors, layers, traced_e2e, None)
