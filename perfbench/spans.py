"""In-memory span tracer for the benchmark's traced run.

The traced run wraps each layer's public entry points, in memory and
from the benchmark's own files (nothing under ``src/`` changes):

* a plain function is timed per call;
* a generator function returns a :class:`TracedGen`, timed per resume,
  so the time a process spends inside ``yield from`` is charged to the
  innermost traced generator, not to the outermost one;
* every callback the simulator dispatches is timed through the
  ``Observability(profile=...)`` dispatch hook (:class:`DispatchSpans`)
  and charged to the layer that owns it.

Each span records name, start, end, parent span and I/O id.  Spans are
kept in compact arrays and written out as gzipped JSONL when the run
ends.  A
span's self time is its duration minus the time its child spans cover,
the tracer's own bookkeeping around each child included, so that
bookkeeping is charged to no layer; self times are accumulated per span
name as spans close.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.prof import Profiler, ProfilerConfig

#: Layers the per-layer table reports, in display order.
LAYERS = (
    "sim", "workloads", "kstack", "spdk", "nvme", "ssd", "power",
    "ftl", "flash", "host", "stats", "other",
)

#: The entry points the traced run wraps:
#: (module, class, method, layer, is_generator).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, bool], ...] = (
    ("repro.workloads.engines", "SyncJobEngine", "run", "workloads", True),
    ("repro.workloads.engines", "AsyncJobEngine", "run", "workloads", True),
    ("repro.workloads.engines", "MetricsCollector", "record", "stats", False),
    ("repro.kstack.stack", "KernelStack", "sync_io", "kstack", True),
    ("repro.kstack.stack", "KernelStack", "submit_async", "kstack", True),
    ("repro.kstack.stack", "KernelStack", "complete_async", "kstack", False),
    ("repro.spdk.stack", "SpdkStack", "sync_io", "spdk", True),
    ("repro.nvme.controller", "NvmeQueuePair", "submit", "nvme", False),
    ("repro.ssd.device", "SsdDevice", "submit", "ssd", False),
    ("repro.ssd.device", "SsdDevice", "precondition", "setup", False),
    ("repro.ssd.controller", "SsdController", "read_unit", "ssd", False),
    ("repro.ssd.controller", "SsdController", "write_unit", "ssd", True),
    ("repro.ftl.core", "PageMappedFtl", "write", "ftl", False),
    ("repro.ftl.core", "PageMappedFtl", "write_to_die", "ftl", False),
    ("repro.ftl.core", "PageMappedFtl", "relocate", "ftl", False),
    ("repro.ftl.core", "PageMappedFtl", "plan_gc", "ftl", False),
    ("repro.flash.chip", "FlashDie", "read", "flash", False),
    ("repro.flash.chip", "FlashDie", "program", "flash", False),
    ("repro.flash.chip", "FlashDie", "erase", "flash", False),
    ("repro.ssd.power", "PowerMeter", "observe_op", "power", False),
    ("repro.ssd.power", "PowerMeter", "observe_transfer", "power", False),
    ("repro.host.accounting", "CpuAccounting", "charge", "host", False),
)

#: Entry points that start a new I/O (each call gets the next I/O id).
IO_STARTS = {"KernelStack.sync_io", "KernelStack.submit_async", "SpdkStack.sync_io"}


def layer_of_module(module: str) -> str:
    """The benchmark layer a ``repro`` module belongs to."""
    if module == "repro.ssd.power":
        return "power"
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


def _module_of_file(filename: str) -> str:
    norm = filename.replace("\\", "/")
    index = norm.rfind("/repro/")
    if index < 0:
        return ""
    tail = norm[index + 1:]
    tail = tail[:-3] if tail.endswith(".py") else tail
    tail = tail[: -len("/__init__")] if tail.endswith("/__init__") else tail
    return tail.replace("/", ".")


class SpanRecorder:
    """Open/close spans on a stack; keep closed spans in arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        #: Per name id: accumulated self nanoseconds, spans, calls.
        self.self_ns: List[int] = []
        self.spans: List[int] = []
        self.calls: List[int] = []
        self.name_col = array("H")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.io_col = array("q")
        #: Open spans: [span id, start ns, child ns, name id, io id,
        #: ns when open() was entered].
        self._stack: List[List[int]] = []
        self._next_io = 0

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.layers.append(layer)
            self.self_ns.append(0)
            self.spans.append(0)
            self.calls.append(0)
        return nid

    def new_io(self) -> int:
        self._next_io += 1
        return self._next_io

    def current_io(self) -> int:
        return self._stack[-1][4] if self._stack else -1

    def open(self, nid: int, io: int = -1, entered: int = 0) -> None:
        """Open a span; ``entered`` backdates the tracer's own footprint
        to work the caller did before calling (the dispatch hook's
        callback resolution)."""
        if not entered:
            entered = perf_counter_ns()
        stack = self._stack
        if stack:
            top = stack[-1]
            parent = top[0]
            if io < 0:
                io = top[4]
        else:
            parent = -1
        sid = len(self.start_col)
        self.name_col.append(nid)
        self.end_col.append(0)
        self.parent_col.append(parent)
        self.io_col.append(io)
        record = [sid, 0, 0, nid, io, entered]
        stack.append(record)
        record[1] = start = perf_counter_ns()
        self.start_col.append(start)

    def close(self) -> None:
        end = perf_counter_ns()
        stack = self._stack
        sid, start, child, nid, _io, entered = stack.pop()
        self.end_col[sid] = end
        self.self_ns[nid] += end - start - child
        self.spans[nid] += 1
        if stack:
            # The parent loses this span's whole footprint, the tracer's
            # own bookkeeping on both sides included.
            stack[-1][2] += perf_counter_ns() - entered

    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self seconds, spans and calls."""
        totals: Dict[str, Dict[str, float]] = {}
        for nid, layer in enumerate(self.layers):
            row = totals.setdefault(layer, {"self_s": 0.0, "spans": 0, "calls": 0})
            row["self_s"] += self.self_ns[nid] / 1e9
            row["spans"] += self.spans[nid]
            row["calls"] += self.calls[nid]
        return totals

    def calls_of(self, *names: str) -> int:
        return sum(self.calls[self._ids[n]] for n in names if n in self._ids)

    def write_jsonl(self, path: Any) -> int:
        """Write every closed span as one JSON object per line, gzipped."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        names, layers = self.names, self.layers
        origin = self.start_col[0] if self.start_col else 0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for sid, (nid, start, end, parent, io) in enumerate(
                zip(self.name_col, self.start_col, self.end_col, self.parent_col, self.io_col)
            ):
                handle.write(
                    f'{{"id":{sid},"name":"{names[nid]}","layer":"{layers[nid]}",'
                    f'"start_ns":{start - origin},"end_ns":{end - origin},'
                    f'"parent":{parent},"io":{io}}}\n'
                )
        return len(self.start_col)


class TracedGen:
    """A generator stand-in that times each resume of ``inner``."""

    __slots__ = ("inner", "nid", "io", "rec", "on_return")

    def __init__(self, inner: Any, nid: int, io: int, rec: SpanRecorder,
                 on_return: Optional[Callable[[Any, int], None]] = None) -> None:
        self.inner = inner
        self.nid = nid
        self.io = io
        self.rec = rec
        self.on_return = on_return

    def __iter__(self) -> "TracedGen":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        rec = self.rec
        rec.open(self.nid, self.io)
        try:
            return self.inner.send(value)
        except StopIteration as stop:
            if self.on_return is not None:
                self.on_return(stop.value, self.io)
            raise
        finally:
            rec.close()

    def throw(self, *exc: Any) -> Any:
        rec = self.rec
        rec.open(self.nid, self.io)
        try:
            return self.inner.throw(*exc)
        finally:
            rec.close()

    def close(self) -> None:
        self.inner.close()


def install(rec: SpanRecorder) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS` (class attributes)."""
    import importlib

    io_of_request: Dict[int, int] = {}

    def remember(request: Any, io: int) -> None:
        io_of_request[id(request)] = io

    for module, cls_name, attr, layer, is_gen in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        original = getattr(cls, attr)
        name = f"{cls_name}.{attr}"
        nid = rec.name_id(name, layer)
        starts_io = name in IO_STARTS
        if is_gen:
            on_return = remember if name == "KernelStack.submit_async" else None
            wrapper = _gen_wrapper(original, nid, rec, starts_io, on_return)
        elif name == "KernelStack.complete_async":
            wrapper = _fn_wrapper(original, nid, rec,
                                  lambda args: io_of_request.pop(id(args[1]), -1))
        else:
            wrapper = _fn_wrapper(original, nid, rec, None)
        setattr(cls, attr, wrapper)


def _gen_wrapper(original: Callable[..., Any], nid: int, rec: SpanRecorder,
                 starts_io: bool, on_return: Any) -> Callable[..., Any]:
    calls = rec.calls

    def wrapper(*args: Any, **kwargs: Any) -> TracedGen:
        calls[nid] += 1
        io = rec.new_io() if starts_io else rec.current_io()
        return TracedGen(original(*args, **kwargs), nid, io, rec, on_return)

    return wrapper


def _fn_wrapper(original: Callable[..., Any], nid: int, rec: SpanRecorder,
                io_of: Optional[Callable[[Tuple[Any, ...]], int]]) -> Callable[..., Any]:
    calls = rec.calls
    open_, close = rec.open, rec.close

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        calls[nid] += 1
        open_(nid, io_of(args) if io_of is not None else -1)
        try:
            return original(*args, **kwargs)
        finally:
            close()

    return wrapper


class DispatchSpans(Profiler):
    """The ``Observability(profile=...)`` hook: one span per dispatch.

    It subclasses :class:`~repro.obs.prof.Profiler` only because the
    bundle accepts nothing else as a profiler; it keeps none of the
    profiler's counters.

    A plain callback is charged to the layer of the module defining it.
    A dispatch that resumes a process is charged to the innermost
    generator of the process's ``yield from`` chain that is not itself
    traced; when the chain reaches a :class:`TracedGen` first, the
    generator code runs inside that generator's own spans and the
    dispatch span keeps only the trampoline, which is the sim kernel's.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        super().__init__(ProfilerConfig(wall=False))
        self.rec = rec
        self.pending_peak = 0
        self._names: Dict[Any, int] = {}
        self._sim_resume = rec.name_id("dispatch:resume-traced", "sim")

    def new_sim(self) -> None:
        pass

    def note_insert(self, now_ns: int, when_ns: int, depth: int) -> None:
        if depth > self.pending_peak:
            self.pending_peak = depth

    def note_stale(self) -> None:
        pass

    def dispatch(self, when_ns: int, callback: Callable[..., Any],
                 args: Tuple[Any, ...], depth: int) -> None:
        entered = perf_counter_ns()
        nid, io = self._site(callback)
        rec = self.rec
        rec.open(nid, io, entered)
        try:
            callback(*args)
        finally:
            rec.close()

    # ------------------------------------------------------------------
    def _site(self, callback: Callable[..., Any]) -> Tuple[int, int]:
        owner = getattr(callback, "__self__", None)
        generator = None
        if owner is not None:
            generator = getattr(owner, "_generator", None)
            if generator is None:
                generator = _generator_behind(owner, 3)
        if generator is not None:
            code, io = None, -1
            while generator is not None:
                if isinstance(generator, TracedGen):
                    io = generator.io
                    break
                inner_code = getattr(generator, "gi_code", None)
                if inner_code is None:
                    break
                code = inner_code
                generator = getattr(generator, "gi_yieldfrom", None)
            if code is None:
                return self._sim_resume, io
            nid = self._names.get(code)
            if nid is None:
                module = _module_of_file(code.co_filename)
                nid = self.rec.name_id(f"dispatch:resume:{module}.{code.co_qualname}",
                                       layer_of_module(module))
                self._names[code] = nid
            return nid, io
        func = getattr(callback, "__func__", callback)
        key = getattr(func, "__code__", func)
        nid = self._names.get(key)
        if nid is None:
            module = getattr(func, "__module__", "") or ""
            qualname = getattr(func, "__qualname__", type(callback).__name__)
            nid = self.rec.name_id(f"dispatch:call:{module}.{qualname}", layer_of_module(module))
            self._names[key] = nid
        return nid, -1


def _generator_behind(event: Any, depth: int) -> Any:
    """The generator a firing event resumes synchronously, if any."""
    if depth <= 0:
        return None
    for registered in getattr(event, "_callbacks", None) or ():
        owner = getattr(registered, "__self__", None)
        if owner is None:
            continue
        generator = getattr(owner, "_generator", None)
        if generator is not None:
            return generator
        generator = _generator_behind(owner, depth - 1)
        if generator is not None:
            return generator
    return None
