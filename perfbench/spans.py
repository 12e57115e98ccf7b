"""Layer spans for the traced run, recorded from the benchmark's side.

:class:`Tracer` keeps spans in memory. :func:`install` wraps each
layer's entry points at the binding its caller actually resolves (a
module global imported by name is patched in the importing module, a
method on its class), so the program under ``src/`` is not edited.

Every span has a name, start, end and parent. The parent is the span
current in the calling thread or task (a context variable), so nested
calls form a tree, and async tasks do not mix their stacks. A layer's
self time is its duration minus the time its child spans cover; in
one thread or task children run one after another, so that is the sum
of their durations. Spans of one served request carry the id the load
generator sent in its ``X-Bench-Request`` header.

Per-entry leaf calls (one codec encode per cache entry, one
compression per matrix row) take a cheaper path: they are aggregated
and charged to their parent but not kept as records when they have a
parent, which bounds overhead and memory on long runs. Records are kept
for everything else and written as Chrome trace-event JSON.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_CURRENT: "contextvars.ContextVar[Optional[_Frame]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)
_REQUEST: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_request", default=None
)
#: perf_counter_ns at which the current request finished parsing.
_PARSED: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_parsed", default=None
)

REQUEST_HEADER = "x-bench-request"
MAX_RECORDS = 400_000


class _Frame:
    __slots__ = ("id", "name", "start", "child_ns", "parent")

    def __init__(self, span_id: int, name: str, start: int,
                 parent: "Optional[_Frame]") -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.child_ns = 0
        self.parent = parent


class Tracer:
    """In-memory span store with per-name aggregates.

    ``clock`` returns nanoseconds; the default is ``perf_counter_ns``,
    which on Linux is CLOCK_MONOTONIC and so comparable across the
    benchmark's processes.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 max_records: int = MAX_RECORDS) -> None:
        self.clock = clock
        self.max_records = max_records
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Last size seen per cache file after a flush.
        self.files: Dict[str, int] = {}
        #: (id, parent id, name, start ns, end ns, request, thread id)
        self.records: List[Tuple[int, int, str, int, int, Optional[str], int]] = []
        self.dropped = 0
        #: Off while the benchmark checks outputs (common.untraced).
        self.enabled = True
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def begin(self, name: str,
              parent: "Optional[_Frame]" = None) -> Tuple[_Frame, Any]:
        if parent is None:
            parent = _CURRENT.get()
        frame = _Frame(next(self._ids), name, self.clock(), parent)
        return frame, _CURRENT.set(frame)

    def end(self, frame: _Frame, token: Any) -> None:
        end = self.clock()
        _CURRENT.reset(token)
        duration = end - frame.start
        parent = frame.parent
        with self._lock:
            self.calls[frame.name] += 1
            self.total_ns[frame.name] += duration
            self.self_ns[frame.name] += duration - frame.child_ns
            if parent is not None:
                parent.child_ns += duration
            self._record_locked(frame.id, parent, frame.name, frame.start, end)

    def leaf(self, name: str, start: int) -> None:
        """End a leaf call begun at ``start`` without a frame of its
        own: a leaf must not call other wrapped functions, so it needs
        no place on the span stack, which keeps per-entry calls cheap.
        A leaf is kept as a record only when it has no parent."""
        end = self.clock()
        parent = _CURRENT.get()
        duration = end - start
        with self._lock:
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration
            if parent is not None:
                parent.child_ns += duration
            else:
                self._record_locked(next(self._ids), None, name, start, end)

    def _record_locked(self, span_id: int, parent: "Optional[_Frame]",
                       name: str, start: int, end: int) -> None:
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append((
            span_id, parent.id if parent is not None else 0, name, start,
            end, _REQUEST.get(), threading.get_ident(),
        ))

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def note_file(self, path: str, size: int) -> None:
        with self._lock:
            self.files[path] = size

    # --- export ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready dump, mergeable with :func:`merge`."""
        with self._lock:
            return {
                "pid": os.getpid(),
                "calls": dict(self.calls),
                "total_ns": dict(self.total_ns),
                "self_ns": dict(self.self_ns),
                "counts": dict(self.counts),
                "files": dict(self.files),
                "records": list(self.records),
                "dropped": self.dropped,
            }

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.snapshot()))


class _SpanContext:
    __slots__ = ("tracer", "name", "frame", "token")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> _Frame:
        self.frame, self.token = self.tracer.begin(self.name)
        return self.frame

    def __exit__(self, *exc: Any) -> None:
        self.tracer.end(self.frame, self.token)


def merge(dumps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum per-process dumps into one aggregate (records are kept per
    process, tagged with the pid)."""
    merged: Dict[str, Any] = {
        "calls": defaultdict(int), "total_ns": defaultdict(int),
        "self_ns": defaultdict(int), "counts": defaultdict(float),
        "files": {}, "records": [], "dropped": 0,
    }
    for dump in dumps:
        for key in ("calls", "total_ns", "self_ns", "counts"):
            for name, value in dump[key].items():
                merged[key][name] += value
        for path, size in dump["files"].items():
            # Cache files only grow; the largest size seen is final.
            merged["files"][path] = max(size, merged["files"].get(path, 0))
        merged["records"].extend(
            (dump["pid"], *record) for record in dump["records"]
        )
        merged["dropped"] += dump["dropped"]
    return merged


def chrome_trace(merged: Dict[str, Any]) -> Dict[str, Any]:
    """Chrome trace-event JSON (opens in Perfetto or chrome://tracing)."""
    events = []
    for pid, span_id, parent, name, start, end, request, tid in (
        merged["records"]
    ):
        args: Dict[str, Any] = {"id": span_id, "parent": parent}
        if request is not None:
            args["request"] = request
        events.append({
            "name": name, "ph": "X", "pid": pid, "tid": tid,
            "ts": start / 1000.0, "dur": (end - start) / 1000.0,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def uncovered_share(ops: List[Tuple[int, int, Optional[str]]],
                    records: List[Tuple]) -> float:
    """Share of the operations' summed wall time that no span covers.

    ``records`` are merged records (pid first). An operation with a
    request id counts only spans of that request; one without counts
    every span overlapping it.
    """
    by_request: Dict[Optional[str], List[Tuple[int, int]]] = defaultdict(list)
    everything: List[Tuple[int, int]] = []
    for record in records:
        start, end, request = record[4], record[5], record[6]
        everything.append((start, end))
        if request is not None:
            by_request[request].append((start, end))
    indexes = {key: Intervals(value) for key, value in by_request.items()}
    whole = Intervals(everything)
    empty = Intervals([])
    total = uncovered = 0
    for op_start, op_end, request in ops:
        index = whole if request is None else indexes.get(request, empty)
        total += op_end - op_start
        uncovered += (op_end - op_start) - index.covered(op_start, op_end)
    return uncovered / total if total else 0.0


class Intervals:
    """Sorted intervals answering "how much of [lo, hi] is covered"."""

    def __init__(self, intervals: List[Tuple[int, int]]) -> None:
        self.items = sorted(intervals)
        self.starts = [start for start, _ in self.items]
        #: reach[i]: the latest end among items[0..i] (non-decreasing,
        #: so the first item that can reach ``lo`` is a bisection).
        self.reach: List[int] = []
        latest = None
        for _, end in self.items:
            latest = end if latest is None else max(latest, end)
            self.reach.append(latest)

    def covered(self, lo: int, hi: int) -> int:
        """Length of the union of the intervals clipped to [lo, hi]."""
        first = bisect.bisect_right(self.reach, lo)
        stop = bisect.bisect_left(self.starts, hi)
        covered = 0
        frontier = lo
        for start, end in self.items[first:stop]:
            if end <= frontier:
                continue
            start = max(start, frontier)
            end = min(end, hi)
            if end > start:
                covered += end - start
                frontier = end
        return covered


# --- hooks ---------------------------------------------------------------


def _thread_wchar() -> int:
    """Bytes the calling thread has passed to write(2) so far (per
    thread, so the server's concurrent socket writes do not count)."""
    try:
        with open("/proc/thread-self/io") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.mod:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, qual = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = qual.split(".")
    for name in owners:
        owner = getattr(owner, name)
    present = (
        attr in vars(owner) if isinstance(owner, type)
        else hasattr(owner, attr)
    )
    if not present:
        raise AttributeError(
            f"perfbench hook target {path} is missing: the layer it "
            f"times was renamed or removed, so the traced run cannot "
            f"attribute its time"
        )
    return owner, attr


def _wrap_sync(tracer: Tracer, fn: Callable, name: str, leaf: bool,
               pre: Optional[Callable], post: Optional[Callable]) -> Callable:
    if leaf:
        @functools.wraps(fn)
        def leaf_wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leaf(name, start)
            if post is not None:
                post(tracer, args, result, None)
            return result

        return leaf_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(*args, **kwargs)
        state = pre(args) if pre is not None else None
        frame, token = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame, token)
        if post is not None:
            post(tracer, args, result, state)
        return result

    return wrapper


def _wrap_async(tracer: Tracer, fn: Callable, name: str,
                post: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return await fn(*args, **kwargs)
        frame, token = tracer.begin(name)
        try:
            result = await fn(*args, **kwargs)
            # Before the span ends, so its record carries the request
            # id the post hook may have just learned.
            if post is not None:
                post(tracer, args, result, None)
        finally:
            tracer.end(frame, token)
        return result

    return wrapper


class Installed:
    """The patches :func:`install` made, undone by :meth:`remove`."""

    def __init__(self) -> None:
        self.patches: List[Tuple[Callable, Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any,
            frozen: bool = False) -> None:
        """Replace ``owner.attr``; ``frozen`` for frozen dataclass
        instances (the artifact registry's entries)."""
        original = (
            vars(owner)[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        setter = object.__setattr__ if frozen else setattr
        self.patches.append((setter, owner, attr, original))
        setter(owner, attr, value)

    def remove(self) -> None:
        for setter, owner, attr, original in reversed(self.patches):
            setter(owner, attr, original)
        self.patches.clear()


def _hook(installed: Installed, tracer: Tracer, path: str, name: str,
          leaf: bool = False, pre: Optional[Callable] = None,
          post: Optional[Callable] = None) -> None:
    owner, attr = _resolve(path)
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        installed.set(owner, attr, classmethod(
            _wrap_sync(tracer, raw.__func__, name, leaf, pre, post)
        ))
    elif isinstance(raw, staticmethod):
        installed.set(owner, attr, staticmethod(
            _wrap_sync(tracer, raw.__func__, name, leaf, pre, post)
        ))
    else:
        installed.set(owner, attr, _wrap_sync(tracer, raw, name, leaf, pre, post))


# Post hooks: (tracer, args, result, pre-state) -> None.

def _count(key: str, amount: Callable[[Any, Any], float]) -> Callable:
    def post(tracer: Tracer, args: Any, result: Any, state: Any) -> None:
        tracer.add(key, amount(args, result))
    return post


def _engine_pre(args: Any) -> Any:
    return args[0].checkpoint()


def _engine_post(tracer: Tracer, args: Any, result: Any, before: Any) -> None:
    delta = args[0].checkpoint().delta_since(before)
    tracer.add("engine.requests", delta.requests)
    tracer.add("engine.hits", delta.hits)
    tracer.add("engine.disk_hits", delta.disk_hits)
    tracer.add("engine.evaluations", delta.evaluations)


def _flush_pre(args: Any) -> int:
    return _thread_wchar()


def _flush_post(tracer: Tracer, args: Any, result: Any, before: int) -> None:
    store = args[0]
    tracer.add("cache.bytes_written", _thread_wchar() - before)
    size = 0
    for suffix in ("", "-wal"):
        try:
            size += os.path.getsize(str(store.path) + suffix)
        except OSError:
            pass
    tracer.note_file(str(store.path), size)


def _sim_post(tracer: Tracer, args: Any, result: Any, state: Any) -> None:
    stats = result[1]
    tracer.add("sim.steps", stats.steps)
    tracer.add("sim.scheduled_products", stats.scheduled_products)
    tracer.add("sim.full_macs", stats.full_macs)


def _read_post(tracer: Tracer, args: Any, request: Any, state: Any) -> None:
    if request is not None:
        _REQUEST.set(request.headers.get(REQUEST_HEADER))
        _PARSED.set(tracer.clock())


DESIGN_CLASSES = (
    "repro.accelerators.tc:TC",
    "repro.accelerators.stc:STC",
    "repro.accelerators.dstc:DSTC",
    "repro.accelerators.s2ta:S2TA",
    "repro.accelerators.highlight:HighLight",
    "repro.accelerators.dsso:DSSO",
)
DESIGNS = ("TC", "STC", "DSTC", "S2TA", "HighLight", "DSSO")


def install(tracer: Tracer) -> Installed:
    """Wrap every layer's entry points; raises if any target is gone."""
    done = Installed()

    def hook(path: str, name: str, **kwargs: Any) -> None:
        _hook(done, tracer, path, name, **kwargs)

    # cli (cli.import is recorded by the launcher around the import)
    hook("repro.cli:build_parser", "cli.parse")
    hook("argparse:ArgumentParser.parse_args", "cli.parse")

    # eval.artifacts: each registered artifact's compute, and every
    # renderer the CLI and the service call.
    artifacts = importlib.import_module("repro.eval.artifacts")
    for info in artifacts.ARTIFACTS.infos():
        done.set(info, "compute", _wrap_sync(
            tracer, info.compute, "artifacts.compute", False, None, None
        ), frozen=True)
    hook("repro.eval.artifacts:ArtifactInfo.render", "artifacts.render")
    hook("repro.cli:_render_outputs", "artifacts.render")
    hook("repro.cli:finished_event_line", "artifacts.render")
    hook("repro.serve.handlers:finished_event_line", "artifacts.render")

    # eval.engine
    hook("repro.eval.engine:SweepEngine.evaluate_cells", "engine")
    hook("repro.eval.engine:SweepEngine.evaluate_workloads", "engine",
         pre=_engine_pre, post=_engine_post)

    # eval.harness: realization as the engine and experiments resolve it
    realized = _count("harness.realized", lambda args, result: len(result))
    hook("repro.eval.engine:realize_workloads", "harness.realize",
         leaf=True, post=realized)
    hook("repro.eval.experiments:workload_for_layer", "harness.realize",
         leaf=True, post=realized)

    # model.batch
    hook("repro.model.batch:WorkloadBatch.from_workloads", "batch.stack",
         post=_count("batch.rows", lambda args, result: len(args[1])))
    hook("repro.model.batch:WorkloadBatch.materialize", "batch.stack")

    # accelerators: the six cost models, batch and scalar paths
    for target, design in zip(DESIGN_CLASSES, DESIGNS):
        span = f"model.{design}"
        hook(f"{target}.evaluate_batch", span,
             post=_count(f"{span}.rows", lambda args, result: len(args[1])))
        hook(f"{target}.evaluate", span, leaf=True,
             post=_count(f"{span}.rows", lambda args, result: 1))

    # eval.cache
    for store in ("JsonCacheStore", "SqliteCacheStore"):
        hook(f"repro.eval.cache:{store}.load", "cache.load")
        hook(f"repro.eval.cache:{store}.flush", "cache.flush",
             pre=_flush_pre, post=_flush_post)
    hook("repro.eval.cache:PersistentCache.get_many", "cache.probe",
         post=_count("cache.probe_keys", lambda args, result: len(args[1])))
    hook("repro.eval.cache:PersistentCache.get", "cache.probe", leaf=True,
         post=_count("cache.probe_keys", lambda args, result: 1))
    hook("repro.eval.cache:PersistentCache.put_many", "cache.put")
    hook("repro.eval.cache:PersistentCache.put", "cache.put", leaf=True)

    # eval.codec, called per entry through the module attribute (the
    # SQLite row decoder calls decode_blob, so only that is wrapped)
    entry = _count("codec.entries", lambda args, result: 1)
    hook("repro.eval.codec:encode_metrics", "codec.encode", leaf=True,
         post=entry)
    hook("repro.eval.codec:columns_from_raw", "codec.encode")
    hook("repro.eval.codec:decode_blob", "codec.decode", leaf=True,
         post=entry)
    hook("repro.eval.codec:raw_from_columns", "codec.decode")

    # eval.queue
    hook("repro.eval.queue:JobStore.fill", "queue.fill")
    hook("repro.eval.queue:JobStore.claim_batch", "queue.claim")
    hook("repro.eval.queue:JobStore.complete", "queue.complete",
         post=_count("queue.batches", lambda args, result: 1))

    # serve: the server calls protocol.* through the module, and the
    # executors through names imported into repro.serve.server.
    protocol, attr = _resolve("repro.serve.protocol:read_request")
    done.set(protocol, attr, _wrap_async(
        tracer, getattr(protocol, attr), "serve.read", _read_post
    ))
    hook("repro.serve.protocol:parse_artifacts_spec", "serve.spec")
    hook("repro.serve.protocol:parse_sweep_spec", "serve.spec")
    hook("repro.serve.server:execute_artifacts", "serve.execute")
    hook("repro.serve.server:execute_sweep", "serve.execute")
    service, attr = _resolve("repro.serve.server:EvaluationService._drive")
    done.set(service, attr, _traced_drive(tracer, vars(service)[attr]))

    # sim
    hook("repro.sim.simulator:HighLightSimulator.run", "sim.run",
         post=_sim_post)
    hook("repro.sim.dsso:simulate_dsso_matmul", "sim.run", post=_sim_post)

    # compression, sparsity, dnn at the simulator's and network's imports
    hook("repro.sim.simulator:encode_hierarchical_cp", "compress", leaf=True)
    hook("repro.sim.simulator:encode_operand_b", "compress", leaf=True)
    hook("repro.sparsity.sparsify:sparsify", "sparsify")
    hook("repro.dnn.inference:sparsify", "sparsify")
    hook("repro.dnn.inference:toeplitz_expand", "toeplitz")
    return done


def _traced_drive(tracer: Tracer, original: Callable) -> Callable:
    """Carry the request id and parse time into the executor thread
    (``run_in_executor`` does not copy context variables) and record
    the wait from request parsed to execution start."""

    @functools.wraps(original)
    async def drive(self: Any, runner: Callable[[], None]) -> None:
        request = _REQUEST.get()
        parsed = _PARSED.get()

        def traced_runner() -> None:
            if not tracer.enabled:
                return runner()
            start = tracer.clock()
            if parsed is not None:
                tracer.add("serve.wait_ns", start - parsed)
            token = _REQUEST.set(request)
            try:
                runner()
            finally:
                _REQUEST.reset(token)

        await original(self, traced_runner)

    return drive


# --- per-layer metrics ---------------------------------------------------

#: Time metrics: metric name -> the span name whose self time it sums.
TIME_METRICS: Dict[str, str] = {
    "cli.import_ms": "cli.import",
    "cli.parse_ms": "cli.parse",
    "artifacts.compute_ms": "artifacts.compute",
    "artifacts.render_ms": "artifacts.render",
    "engine.self_ms": "engine",
    "harness.realize_ms": "harness.realize",
    "batch.stack_ms": "batch.stack",
    **{f"model.{d}.ms": f"model.{d}" for d in DESIGNS},
    "cache.load_ms": "cache.load",
    "cache.probe_ms": "cache.probe",
    "cache.put_ms": "cache.put",
    "cache.flush_ms": "cache.flush",
    "codec.encode_ms": "codec.encode",
    "codec.decode_ms": "codec.decode",
    "queue.fill_ms": "queue.fill",
    "queue.claim_ms": "queue.claim",
    "queue.complete_ms": "queue.complete",
    "serve.read_ms": "serve.read",
    "serve.spec_ms": "serve.spec",
    "serve.execute_ms": "serve.execute",
    "sim.run_ms": "sim.run",
    "compress.ms": "compress",
    "sparsify.ms": "sparsify",
    "toeplitz.ms": "toeplitz",
}

#: Count metrics read straight from the counters.
COUNT_METRICS = (
    "engine.requests", "engine.hits", "engine.disk_hits",
    "engine.evaluations", "harness.realized", "batch.rows",
    *(f"model.{d}.rows" for d in DESIGNS),
    "cache.probe_keys", "cache.bytes_written", "codec.entries",
    "queue.batches", "sim.steps", "sim.scheduled_products",
)

#: Layer -> (span or counter names that must be non-zero, home workload).
COVERAGE: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "cli": (("cli.import", "cli.parse"), "cli-session"),
    "eval.artifacts": (("artifacts.compute", "artifacts.render"),
                       "cli-session"),
    "eval.engine": (("engine",), "dse-sweep"),
    "eval.harness": (("harness.realize",), "dse-sweep"),
    "model.batch": (("batch.stack",), "dse-sweep"),
    "accelerators": (tuple(f"model.{d}" for d in DESIGNS), "dse-sweep"),
    "eval.cache": (("cache.load", "cache.probe", "cache.put",
                    "cache.flush"), "dse-sweep"),
    "eval.codec": (("codec.encode", "codec.decode"), "dse-sweep"),
    "eval.queue": (("queue.fill", "queue.claim", "queue.complete"),
                   "dse-sweep"),
    "serve": (("serve.read", "serve.spec", "serve.execute"),
              "serve-mixed"),
    "sim": (("sim.run",), "sim-infer"),
    "compression": (("compress",), "sim-infer"),
    "sparsity": (("sparsify",), "sim-infer"),
    "dnn": (("toeplitz",), "sim-infer"),
}


def layer_metrics(merged: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric the traced run reports from spans and
    counters (zero where the workload does not reach a layer)."""
    calls, self_ns, counts = merged["calls"], merged["self_ns"], merged["counts"]
    out: Dict[str, float] = {}
    for metric, name in TIME_METRICS.items():
        out[metric] = self_ns.get(name, 0) / 1e6
    for metric in COUNT_METRICS:
        out[metric] = float(counts.get(metric, 0))
    requests = counts.get("engine.requests", 0)
    out["engine.hit_ratio"] = (
        (counts.get("engine.hits", 0) + counts.get("engine.disk_hits", 0))
        / requests if requests else 0.0
    )
    out["cache.flushes"] = float(calls.get("cache.flush", 0))
    final = sum(merged["files"].values())
    out["cache.write_amp"] = (
        counts.get("cache.bytes_written", 0) / final if final else 0.0
    )
    out["serve.wait_ms"] = counts.get("serve.wait_ns", 0) / 1e6
    out["compress.calls"] = float(calls.get("compress", 0))
    products = counts.get("sim.scheduled_products", 0)
    out["sim.utilization"] = (
        counts.get("sim.full_macs", 0) / products if products else 0.0
    )
    return out


def coverage_problems(merged: Dict[str, Any], workload: str) -> List[str]:
    """Layers whose home is ``workload`` but which recorded no call."""
    problems = []
    for layer, (names, home) in COVERAGE.items():
        if home != workload:
            continue
        for name in names:
            if merged["calls"].get(name, 0) == 0:
                problems.append(
                    f"layer {layer}: no call recorded for span {name!r} "
                    f"on its home workload {workload}"
                )
    return problems
