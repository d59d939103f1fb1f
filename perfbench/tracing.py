"""Outside-in span tracing for the traced benchmark run.

The traced run wraps public methods of each program layer *from here*
(class attributes are swapped for timing wrappers and restored when the
run ends), so nothing under ``src/`` changes. Every wrapped call records
one span: name, layer, start, end, parent span, thread lane, the
batch / request / cycle id it belongs to, and an optional count taken
from the call's arguments or return value. Spans stay in memory and are
written out as Chrome trace-event JSON when the run ends.

A span's *self time* is its duration minus the union of its children's
intervals (clipped to the span), so a delay inside one layer shows up
as that layer's self time and never as its parent's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

#: (module, class, method, layer[, count[, tag]]) for every wrapped call.
#: ``count(args, result)`` gives an int recorded on the span; ``tag(args)``
#: identifies the scan and slice a pruning call worked on.
WRAPPED = [
    ("repro.core.database", "HarmonyDB", "build", "db"),
    ("repro.core.database", "HarmonyDB", "search", "db"),
    ("repro.core.database", "HarmonyDB", "add", "db"),
    ("repro.core.database", "HarmonyDB", "remove", "db"),
    ("repro.core.database", "HarmonyDB", "cache_probe", "db"),
    ("repro.index.ivf", "IVFFlatIndex", "train", "index"),
    ("repro.index.ivf", "IVFFlatIndex", "add", "index"),
    ("repro.index.ivf", "IVFFlatIndex", "remove_ids", "index"),
    ("repro.index.ivf", "IVFFlatIndex", "probe", "index",
     lambda args, out: int(out.shape[0])),
    ("repro.core.planner", "QueryPlanner", "profile", "planner"),
    ("repro.core.planner", "QueryPlanner", "choose", "planner"),
    ("repro.core.pipeline", "PipelineEngine", "place_data", "pipeline"),
    ("repro.core.layout", "ShardPackedBase", "build", "layout"),
    ("repro.core.layout", "ShardPackedBase", "refresh", "layout"),
    ("repro.core.layout", "ShardPackedBase", "gather", "layout",
     lambda args, out: int(out[0].size)),
    ("repro.core.executor.base", "HostBackend", "search", "backend"),
    ("repro.core.executor.kernel", "ScanKernel", "search_batch", "kernel"),
    ("repro.core.executor.kernel", "ScanKernel", "search_one", "kernel"),
    ("repro.core.executor.kernel", "ScanKernel", "begin_query", "kernel"),
    ("repro.core.executor.kernel", "ScanKernel", "packed_base", "kernel"),
    ("repro.core.executor.kernel", "ScanKernel", "run_shard_group", "kernel"),
    ("repro.core.pruning", "ShardGroupScan", "process_slice", "pruning",
     lambda args, out: int(out), lambda args: (id(args[0]), int(args[1]))),
    ("repro.core.pruning", "ShardGroupScan", "prune", "pruning",
     lambda args, out: int(out), lambda args: (id(args[0]),)),
    ("repro.core.pruning", "ShardScan", "process_slice", "pruning",
     lambda args, out: int(out), lambda args: (id(args[0]), int(args[1]))),
    ("repro.core.pruning", "ShardScan", "prune", "pruning",
     lambda args, out: int(out), lambda args: (id(args[0]),)),
    ("repro.core.routing", "RoutingCache", "route_for", "routing"),
    ("repro.cache.result_cache", "ResultCache", "lookup", "cache"),
    ("repro.cache.result_cache", "ResultCache", "insert", "cache"),
    ("repro.cache.result_cache", "ResultCache", "invalidate", "cache"),
    ("repro.serve.server", "HarmonyServer", "submit", "serve"),
]

#: Calls whose worker-pool children (tasks run on executor threads)
#: belong under them: a pool-thread span opened while one of these is
#: active takes it as parent.
FANOUT = {"HostBackend.search", "ScanKernel.search_batch"}

POOL_THREAD_PREFIX = "ThreadPoolExecutor"


@dataclass
class Span:
    id: int
    parent: int
    name: str
    layer: str
    start: float
    end: float
    lane: int
    ctx: str
    phase: str
    count: int | None = None
    tag: "tuple | None" = None


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.phase = "setup"
        #: Extra sleep (seconds) injected inside the named span; used by
        #: the self-check that a delayed layer owns its delay.
        self.delays: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout: list[tuple[int, str]] = []
        self._lanes: dict[int, int] = {}
        self._lane_names: dict[int, str] = {}
        self._lock = threading.Lock()
        self._restore: list[tuple[type, str, object]] = []
        self._flushes = itertools.count()
        #: Most recent ``self`` each wrapped method was called on.
        self.last_self: dict[str, object] = {}
        #: Optional callable whose value :meth:`begin_run` snapshots.
        self.counters = None
        self.start_counters = None

    # -- context ------------------------------------------------------

    def begin_run(self) -> None:
        """Spans from here on belong to the measured part of the pass."""
        self.phase = "run"
        if self.counters is not None:
            self.start_counters = self.counters()

    def set_ctx(self, ctx: "str | None") -> None:
        """Tag spans the calling thread opens from now on."""
        self._local.ctx = ctx

    def _lane(self) -> int:
        ident = threading.get_ident()
        lane = self._lanes.get(ident)
        if lane is None:
            with self._lock:
                lane = self._lanes.setdefault(ident, len(self._lanes))
                self._lane_names[lane] = threading.current_thread().name
        return lane

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int, str]:
        stack = self._stack()
        if stack:
            parent, ctx = stack[-1]
        elif (
            self._fanout
            and threading.current_thread().name.startswith(POOL_THREAD_PREFIX)
        ):
            parent, ctx = self._fanout[-1]
        else:
            parent, ctx = 0, None
        ctx = getattr(self._local, "ctx", None) or ctx
        if ctx is None:
            # A root span on a program-owned thread (the serve flusher):
            # each one is its own unit of work until the program carries
            # request ids of its own.
            ctx = f"flush{next(self._flushes)}"
        span_id = next(self._ids)
        stack.append((span_id, ctx))
        return span_id, parent, ctx

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        """Open a span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        span_id, parent, ctx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(Span(span_id, parent, name, layer, start,
                             time.perf_counter(), self._lane(), ctx,
                             self.phase))

    def _close(self, span: Span) -> None:
        self._stack().pop()
        self.spans.append(span)

    # -- wrapping -----------------------------------------------------

    def wrap(self, owner: type, attr: str, layer: str, count=None,
             tag=None) -> None:
        """Swap ``owner.attr`` for a recording wrapper (undone by
        :meth:`unwrap_all`)."""
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        name = f"{owner.__name__}.{attr}"
        fanout = name in FANOUT
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            if args:
                recorder.last_self[name] = args[0]
            span_id, parent, ctx = recorder._open()
            if fanout:
                recorder._fanout.append((span_id, ctx))
            start = time.perf_counter()
            out = None
            try:
                delay = recorder.delays.get(name)
                if delay:
                    time.sleep(delay)
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                if fanout:
                    recorder._fanout.pop()
                span = Span(span_id, parent, name, layer, start, end,
                            recorder._lane(), ctx, recorder.phase)
                if count is not None and out is not None:
                    span.count = count(args, out)
                if tag is not None:
                    span.tag = tag(args)
                recorder._close(span)

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._restore.append((owner, attr, original))

    def wrap_program(self) -> None:
        for module, cls, attr, layer, *extra in WRAPPED:
            owner = getattr(importlib.import_module(module), cls)
            self.wrap(owner, attr, layer, *extra)

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- export -------------------------------------------------------

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        if not self.spans:
            return {"traceEvents": []}
        t0 = min(span.start for span in self.spans)
        events = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
             "args": {"name": name}}
            for lane, name in sorted(self._lane_names.items())
        ]
        for span in self.spans:
            args = {"id": span.id, "parent": span.parent, "ctx": span.ctx,
                    "phase": span.phase}
            if span.count is not None:
                args["count"] = span.count
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X", "pid": 1,
                "tid": span.lane,
                "ts": (span.start - t0) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def union_length(intervals: "list[tuple[float, float]]") -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: "list[Span]") -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            children[parent.id].append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.id: (span.end - span.start)
        - union_length([iv for iv in children[span.id] if iv[1] > iv[0]])
        for span in spans
    }


def layer_self_seconds(spans: "list[Span]",
                       phase: "str | None" = None) -> dict[str, float]:
    """Self time summed per layer, over the spans of ``phase`` (all
    spans when None); children in other phases still count as children."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        if phase is None or span.phase == phase:
            out[span.layer] += own[span.id]
    return dict(out)


def overlap_fraction(windows, lanes_busy) -> float:
    """Share of the ``windows`` intervals during which at least two
    lanes are busy at once.

    Args:
        windows: ``[(start, end)]`` measurement windows.
        lanes_busy: ``{lane: [(start, end)]}`` busy intervals.
    """
    total = sum(end - start for start, end in windows)
    if total <= 0:
        return 0.0
    events = []
    for intervals in lanes_busy.values():
        # Merge a lane's own intervals so one lane never counts twice.
        merged: list[list[float]] = []
        for start, end in sorted(intervals):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        for start, end in merged:
            events.append((start, 1))
            events.append((end, -1))
    events.sort()
    both = []
    level = 0
    opened = None
    for t, delta in events:
        level += delta
        if level >= 2 and opened is None:
            opened = t
        elif level < 2 and opened is not None:
            both.append((opened, t))
            opened = None
    covered = 0.0
    for w_start, w_end in windows:
        for start, end in both:
            lo, hi = max(start, w_start), min(end, w_end)
            if hi > lo:
                covered += hi - lo
    return covered / total


def slice_profile(spans: "list[Span]", n_slices: int = 4):
    """Pruning funnel from process_slice / prune spans.

    Returns ``(candidates, rows_scored, alive_after)`` where
    ``alive_after[j]`` sums the rows still alive after slice ``j``'s
    prune over every scan.
    """
    events = sorted(
        (span for span in spans
         if span.name.endswith((".process_slice", ".prune"))
         and span.count is not None),
        key=lambda span: span.start,
    )
    candidates = 0
    scored = 0
    alive_after = [0] * n_slices
    current: dict[int, int] = {}
    for span in events:
        scan = span.tag[0]
        if span.name.endswith(".process_slice"):
            slice_id = span.tag[1]
            scored += span.count
            if slice_id == 0:
                candidates += span.count
            current[scan] = slice_id
            if slice_id < n_slices:
                alive_after[slice_id] += span.count
        else:
            slice_id = current.get(scan)
            if slice_id is not None and slice_id < n_slices:
                alive_after[slice_id] -= span.count
    return candidates, scored, alive_after


def delayed_layer_check(run_once, recorder: SpanRecorder,
                        target: str = "ShardGroupScan.prune",
                        delay: float = 0.05) -> "tuple[bool, dict]":
    """Self-check: a delay injected inside one wrapped call must land in
    that call's layer self time, not in its parent's.

    ``run_once()`` performs the same small traced operation each time it
    is called. Returns ``(ok, details)``.
    """
    def measure() -> "tuple[dict[str, float], int]":
        recorder.spans = []
        run_once()
        calls = sum(1 for span in recorder.spans if span.name == target)
        return layer_self_seconds(recorder.spans), calls

    base, _ = measure()
    recorder.delays[target] = delay
    try:
        slowed, calls = measure()
    finally:
        recorder.delays.pop(target, None)
    injected = delay * calls
    layer = next(row[3] for row in WRAPPED
                 if f"{row[1]}.{row[2]}" == target)
    gained = slowed.get(layer, 0.0) - base.get(layer, 0.0)
    elsewhere = sum(
        max(0.0, slowed.get(name, 0.0) - base.get(name, 0.0))
        for name in set(base) | set(slowed) if name != layer
    )
    ok = calls > 0 and gained >= 0.9 * injected and elsewhere < 0.25 * injected
    return ok, {"target": target, "calls": calls, "injected_s": injected,
                "gained_s": gained, "elsewhere_s": elsewhere}
