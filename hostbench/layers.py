"""Host-time layer tracer: times the simulator's layers from outside.

The tracer wraps each layer's public methods at run time (the simulator's
own code is untouched) and keeps spans in memory: name, start, end and
parent.  Nested calls into the layer that is already open collapse into
the outermost span, so a layer's *self time* is its spans' duration minus
the child spans of other layers.

Three kinds of boundary:

* ``timed``: every call opens a span.
* ``sampled``: the boundary is too hot to time on every call (a cache
  ``contains`` check runs ~100k times per STREAM point).  Every call is
  counted and one in :data:`SAMPLE_EVERY` is timed.  That call's own time
  (its duration minus its child spans) is scaled by ``SAMPLE_EVERY`` into
  the layer's self time and out of the caller's.  The other calls push an
  untimed frame, so that their children still subtract from the right
  parent and nested calls into the same layer still collapse.
* ``counted``: calls are counted, and their time stays with the caller.

Wrappers are installed only around the traced part of an operation, so
set-up, output checks and untraced operations run the simulator's own
methods.
"""

from __future__ import annotations

import random
import time
from collections import Counter, defaultdict

SAMPLE_EVERY = 8
"""On average one hot call in this many is timed."""

SAMPLE_SEED = 20170204

MAX_SPANS = 100_000
"""Spans kept in memory per run; later spans are counted as dropped (the
layer totals still include them)."""

LAYERS = ("kernels", "cache.tagstore", "cache.hierarchy", "core.controller",
          "core.stream", "cpu", "energy", "events", "machine", "bench.runner",
          "apps")
"""Reported layers.  ``apps`` is the point functions' own code (program
generation, workload staging), the boundary that separates
``bench.runner`` from the work it runs."""

SUBARRAY_OPS = ("op_and", "op_nor", "op_or", "op_xor", "op_not", "op_copy",
                "op_buz", "op_cmp", "op_search", "op_add", "op_mul",
                "op_reduce", "op_clmul", "op_batch")


BOUNDARIES = (
    ("kernels", "repro.sram.subarray:ComputeSubarray", SUBARRAY_OPS, "timed"),
    ("kernels", "repro.sram.subarray:ComputeSubarray",
     ("read_block", "write_block"), "sampled"),
    ("cache.tagstore", "repro.cache.cache:CacheLevel",
     ("lookup", "contains", "fill", "invalidate", "read_block", "write_block",
      "pin", "unpin", "locate"), "sampled"),
    ("cache.hierarchy", "repro.cache.hierarchy:CacheHierarchy",
     ("access_block", "read", "write", "cc_prepare", "cc_release",
      "coherent_peek"), "sampled"),
    ("core.controller", "repro.api:ComputeCacheController", ("execute",), "timed"),
    ("core.stream", "repro.api:CCInstructionStream", ("execute",), "timed"),
    ("cpu", "repro.cpu.core_model:CoreModel", ("run",), "timed"),
    ("cpu", "repro.api:MulticoreRunner", ("run",), "timed"),
    ("energy", "repro.energy.accounting:EnergyLedger", ("add",), "sampled"),
    ("events", "repro.api:EventTracer", ("emit",), "timed"),
    ("machine", "repro.api:ComputeCacheMachine",
     ("__init__", "load", "warm_l3"), "timed"),
    ("bench.runner", "repro.api:PointRunner", ("run",), "timed"),
    # Dispatch counters, the base of core.controller.batched_ratio.
    ("inplace", "repro.core.inplace:InPlaceExecutor",
     ("execute", "execute_batch", "kernel_batch"), "counted"),
)
"""``(layer, "module:Class", methods, mode)`` of every traced boundary."""


def boundaries() -> tuple[list, list]:
    """``(layer, owner, method, mode)`` of every boundary the simulator
    has, and the names of those it lacks.  A refactor that renames a
    boundary leaves that boundary out of the split instead of ending the
    traced run."""
    import importlib

    found, absent = [], []
    for layer, where, names, mode in BOUNDARIES:
        module, _, cls = where.partition(":")
        try:
            owner = getattr(importlib.import_module(module), cls)
        except (ImportError, AttributeError):
            owner = None
        for name in names:
            if owner is not None and callable(owner.__dict__.get(name)):
                key = f"{layer}.{name}" if mode == "counted" else layer
                found.append((key, owner, name, mode))
            else:
                absent.append(f"{where}.{name}")
    return found, absent


_CTRL_FIELDS = ("instructions", "page_splits", "level_memo_hits",
                "hazard_memo_hits", "block_ops_inplace", "block_ops_nearplace",
                "block_ops_risc")
"""``CCControllerStats`` fields behind the core.controller ratios."""


class LayerTracer:
    """Per-layer call counts, self time and spans for traced operations."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.spans: list = []
        self.dropped = 0
        self.stream_instructions = 0
        self.stream_fused = 0
        self.ctrl: Counter = Counter()
        self._stack: list = []
        self._installed: list = []
        self._watched: list = []     # controller stats of set-up machines
        self._transient: list = []   # controller stats of machines built while traced
        self._boundaries, self.absent = boundaries()
        try:
            from repro.bench.points import POINT_FUNCTIONS
        except ImportError:
            POINT_FUNCTIONS = {}
            self.absent.append("repro.bench.points.POINT_FUNCTIONS")
        self._points = POINT_FUNCTIONS   # its entries are the ``apps`` boundary
        self._ignored_tracers: set[int] = set()
        self._after = {"core.stream:execute": self._stream_result,
                       "machine:__init__": self._new_machine}
        # Sampling is random, not every n-th call: a caller that makes a
        # fixed number of calls per invocation would otherwise always have
        # its own sample and its callees' samples fall together.
        self._draw = random.Random(SAMPLE_SEED).random

    # -- what the workloads tell the tracer ------------------------------------------

    def watch(self, machine) -> None:
        """Count controller decisions of the machine built during set-up."""
        self._watched = [c.stats for c in machine.controllers]

    def ignore_tracer(self, tracer) -> None:
        """Leave a point runner's own wall-clock tracer out of ``events``:
        its emits are the runner's bookkeeping, not simulation events."""
        self._ignored_tracers = {id(tracer)}

    # -- install / uninstall ----------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self._before = self._ctrl_totals()
        for layer, owner, name, mode in self._boundaries:
            fn = owner.__dict__[name]   # present: boundaries() checked
            self._installed.append((owner, name, fn))
            setattr(owner, name, self._wrap(layer, f"{layer}:{name}", fn, mode))
        for name, fn in list(self._points.items()):
            self._installed.append((self._points, name, fn))
            self._points[name] = self._wrap("apps", f"apps:{name}", fn, "timed")
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, fn in reversed(self._installed):
            if isinstance(owner, dict):
                owner[name] = fn
            else:
                setattr(owner, name, fn)
        self._installed.clear()
        self.ctrl.update(self._ctrl_totals() - self._before)
        self._transient.clear()

    def _ctrl_totals(self) -> Counter:
        total: Counter = Counter()
        for stats in self._watched + self._transient:
            for name in _CTRL_FIELDS:
                value = getattr(stats, name, None)
                if value is None:
                    if f"CCControllerStats.{name}" not in self.absent:
                        self.absent.append(f"CCControllerStats.{name}")
                    continue
                total[name] += value
        return total

    # -- wrappers ---------------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, mode: str):
        calls = self.calls
        if mode == "counted":
            def counted(*args, **kwargs):
                calls[layer] += 1
                return fn(*args, **kwargs)
            return counted

        stack, spans, self_s, incl_s = (self._stack, self.spans, self.self_s,
                                        self.incl_s)
        clock = time.perf_counter
        every = SAMPLE_EVERY if mode == "sampled" else 1
        draw = self._draw
        after = self._after.get(name)
        skip = self._ignored_tracers if layer == "events" else ()

        def traced(*args, **kwargs):
            if skip and id(args[0]) in skip:
                return fn(*args, **kwargs)
            calls[layer] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1][3] if stack else -1
            if every > 1 and draw() * every >= 1.0:
                frame = [layer, 0.0, 0.0, parent]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    if stack:
                        stack[-1][2] += frame[2]
            if len(spans) < MAX_SPANS:
                idx = len(spans)
                spans.append(None)
            else:
                idx = -1
                self.dropped += 1
            frame = [layer, 0.0, 0.0, idx]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                children = frame[2]
                own = (end - start - children) * every
                self_s[layer] += own
                incl_s[layer] += own + children
                if stack:
                    stack[-1][2] += own + children
                if idx >= 0:
                    spans[idx] = (name, start, end, parent, every)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _stream_result(self, args, result) -> None:
        self.stream_instructions += len(result.results)
        self.stream_fused += result.fused_instructions

    def _new_machine(self, args, result) -> None:
        self._transient.extend(c.stats for c in args[0].controllers)

    # -- report -----------------------------------------------------------------------

    def metrics(self, traced_s: float, per_pass: float) -> dict[str, float]:
        """Per-layer metrics, with counts and seconds scaled by
        ``per_pass`` (one pass of the workload's operation trace)."""
        out: dict[str, float] = {}
        attributed = 0.0
        for layer in LAYERS:
            attributed += self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer] * per_pass
            out[f"{layer}.self_s"] = self.self_s[layer] * per_pass
            out[f"{layer}.share"] = _ratio(self.self_s[layer], traced_s)
        out["other.self_s"] = (traced_s - attributed) * per_pass
        out["other.share"] = _ratio(traced_s - attributed, traced_s)
        ctrl = self.ctrl
        # Every page-local piece of an instruction consults both memos; a
        # split instruction has two pieces unless it spans three pages.
        pieces = ctrl["instructions"] + ctrl["page_splits"]
        out["core.controller.level_memo_hit_ratio"] = _ratio(
            ctrl["level_memo_hits"], pieces)
        out["core.controller.hazard_memo_hit_ratio"] = _ratio(
            ctrl["hazard_memo_hits"], pieces)
        out["core.controller.risc_fallback_ratio"] = _ratio(
            ctrl["block_ops_risc"], ctrl["block_ops_inplace"]
            + ctrl["block_ops_nearplace"] + ctrl["block_ops_risc"])
        dispatches = sum(self.calls[f"inplace.{name}"]
                         for name in ("execute", "execute_batch", "kernel_batch"))
        out["core.controller.batched_ratio"] = _ratio(
            self.calls["inplace.execute_batch"], dispatches)
        out["core.stream.fused_fraction"] = _ratio(
            self.stream_fused, self.stream_instructions)
        out["bench.runner.overhead_ratio"] = _ratio(
            self.self_s["bench.runner"], self.incl_s["bench.runner"])
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

