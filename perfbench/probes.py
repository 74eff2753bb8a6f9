"""Per-layer timing for the traced run.

A :class:`LayerProbe` replaces public entry points of the program's
layers (module functions, methods, classmethods) with wrappers that time
each call, count it, and record it as a span with the program's own
:mod:`repro.obs` span types.  Nothing inside the program changes: the
wrappers live here and are removed by :meth:`LayerProbe.close`.

Spans come in two shapes.  :meth:`LayerProbe.span` opens a distinct
child span (a grid, a VLEN column, a query).  Wrapped calls are
*aggregated*: all calls of one entry point under one parent span share a
single child span whose wall time is their sum and whose ``calls``
counter is their number, so a query that hashes its network 21 times
yields one span, not 21.  The current parent lives in a context
variable, so concurrent asyncio tasks and threads each nest correctly.

:meth:`LayerProbe.write` saves the tree in the ``repro profile --trace``
directory format (``trace.json`` + ``manifest.json``), which
``repro trace top`` / ``diff`` / ``export`` read unchanged.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.obs import Span, Tracer, run_manifest, trace_payload, write_manifest

Counters = Callable[[tuple, dict, Any, Any], dict[str, float]]


class LayerProbe:
    """Wraps layer entry points and records their calls as spans."""

    def __init__(self, root_name: str, **attrs: Any) -> None:
        self.tracer = Tracer()
        self._root_cm = self.tracer.span(root_name, **attrs)
        self.root: Span = self._root_cm.__enter__()
        self._current: ContextVar[Span | None] = ContextVar(
            f"perfbench_probe_{id(self)}", default=None)
        self._lock = threading.Lock()
        self._leaves: dict[tuple[int, str], Span] = {}
        #: name -> [seconds, calls, summed counters...] over the whole run.
        self.totals: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._restore: list[tuple[Any, str, Any]] = []
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def current(self) -> Span:
        return self._current.get() or self.root

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """A distinct child span of the current span."""
        s = Span(name, attrs)
        with self._lock:
            self.current.children.append(s)
        token = self._current.set(s)
        t0 = time.perf_counter()
        try:
            yield s
        finally:
            s.wall_seconds = time.perf_counter() - t0
            self._current.reset(token)

    def record(self, name: str, seconds: float, **counters: float) -> None:
        """Add one call of ``name`` to the current span's aggregate."""
        parent = self.current
        with self._lock:
            leaf = self._leaves.get((id(parent), name))
            if leaf is None:
                leaf = Span(name)
                parent.children.append(leaf)
                self._leaves[(id(parent), name)] = leaf
            leaf.wall_seconds += seconds
            leaf.add_counters(calls=1, **counters)
            tot = self.totals[name]
            tot["seconds"] += seconds
            tot["calls"] += 1
            for k, v in counters.items():
                tot[k] += v

    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str | None = None, *,
             classify: Callable[[tuple, dict, Any], str] | None = None,
             counters: Counters | None = None,
             before: Callable[[tuple, dict], Any] | None = None,
             structural: bool = False,
             attrs: Callable[[tuple, dict], dict[str, Any]] | None = None) -> None:
        """Time every call of ``owner.attr``.

        ``classify(args, kwargs, result)`` picks the span name (default
        ``name``); ``counters(args, kwargs, result, state)`` adds
        counters, where ``state`` is what ``before(args, kwargs)``
        returned ahead of the call.  ``structural`` makes each call a
        distinct span that the calls it makes nest under, with
        attributes ``attrs(args, kwargs)``.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        call = getattr(owner, attr) if is_classmethod else raw
        label = name or attr

        if structural:
            @functools.wraps(call)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(label, **(attrs(args, kwargs) if attrs else {})):
                    return call(*args, **kwargs)
        else:
            @functools.wraps(call)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                state = before(args, kwargs) if before is not None else None
                t0 = time.perf_counter()
                out = call(*args, **kwargs)
                dt = time.perf_counter() - t0
                span_name = classify(args, kwargs, out) if classify else label
                extra = (counters(args, kwargs, out, state)
                         if counters is not None else {})
                self.record(span_name, dt, **extra)
                return out

        setattr(owner, attr, staticmethod(wrapper) if is_classmethod else wrapper)
        self._restore.append((owner, attr, raw))

    def wrap_async(self, owner: type, attr: str, name: str,
                   on_exit: Callable[[Span, tuple, Any], None] | None = None) -> None:
        """Make each call of the coroutine method ``owner.attr`` a
        distinct span; ``on_exit(span, args, result)`` runs after it."""
        raw = owner.__dict__[attr]

        @functools.wraps(raw)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as s:
                out = await raw(*args, **kwargs)
            if on_exit is not None:
                on_exit(s, args, out)
            return out

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, raw))

    # ------------------------------------------------------------------
    def seconds(self, name: str) -> float:
        return self.totals[name]["seconds"] if name in self.totals else 0.0

    def count(self, name: str, counter: str = "calls") -> float:
        return self.totals[name][counter] if name in self.totals else 0.0

    def close(self) -> None:
        """Remove every wrapper and close the root span."""
        if self._closed:
            return
        self._closed = True
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()
        self._root_cm.__exit__(None, None, None)

    def write(self, directory: Path, command: str, seed: int,
              extra: dict[str, Any] | None = None) -> Path:
        """Save the span tree as a ``repro profile --trace`` directory."""
        manifest = run_manifest(f"perfbench {command}", seed=seed, extra=extra)
        write_manifest(directory, manifest)
        path = directory / "trace.json"
        path.write_text(json.dumps(trace_payload(self.root, manifest)) + "\n",
                        encoding="utf-8")
        return path
