"""repro.obs.prof — the deterministic self-profiler for the simulator.

The span tracer and telemetry answer *sim-time* questions (where does a
request's latency go); this module answers the *wall-time* question:
where does the simulator itself spend its events and its host CPU?
Three views:

* **Hotspot attribution** — every callback dispatched by
  :meth:`repro.sim.engine.Simulator.step` is bucketed by *call site*: a
  ``(layer, component, callsite)`` triple derived from the callback's
  defining module (``repro.ssd.channels`` -> layer ``ssd``, component
  ``ssd.channels``).  Generator-trampoline dispatches — a
  :class:`~repro.sim.process.Process` resume, or an event whose firing
  synchronously resumes a waiting process — are attributed to the
  *innermost* generator of the process's ``yield from`` chain, the one
  whose code the resume actually runs.  So the cost of a sleep's
  ``Process._wake`` lands on ``KernelStack._submit_path``, not on the
  ``SyncJobEngine.run`` that delegated to it, nor on the sim kernel.
  Event counts are exact (counted on the sim clock); wall time is
  sampled with ``time.perf_counter_ns`` around each dispatch when
  ``ProfilerConfig.wall`` is on.
* **Event-queue counters** — inserts, stale wakeups (a process resumed
  by an event it already moved on from) and peak queue depth; the
  dispatch count is the total of the hotspot counts.
* **Flamegraph export** — collapsed-stack text (``layer;component;
  callsite count``, pipe into any FlameGraph tool) and speedscope JSON
  (open at https://www.speedscope.app), one sampled profile weighted by
  exact event counts and, when wall sampling is on, a second weighted
  by nanoseconds.

Determinism contract: the profiler observes, never steers.  With
profiling disabled every hook is a single ``is not None`` check on a
slot the simulator samples at construction, and simulation outputs are
byte-identical to a run without the profiler imported.  With profiling
enabled, event *counts* and attribution are a pure function of the
simulation (parallel sweep workers ship their profilers back over the
worker-bundle path and :meth:`Profiler.absorb` merges them in point
order); only the sampled wall-time varies run to run.  Profiler
configuration is deliberately **excluded from sweep cache keys**: a
profiled run always executes live (the engine steps aside under any
enabled bundle), and attribution-only fields must never fragment the
measurement cache.
"""

from __future__ import annotations

import json
import time
from types import CodeType
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.export import atomic_write_text
from repro.obs.recorder import Recorder

#: How deep to follow an event's callback chain looking for the process
#: it will synchronously resume (Timeout -> AnyOf -> Process is depth 2).
_RESOLVE_DEPTH = 3

#: Layers the attribution report treats as first-class (everything under
#: ``repro.`` is *named*; this tuple only fixes the report's ordering).
KNOWN_LAYERS: Tuple[str, ...] = (
    "flash",
    "ftl",
    "ssd",
    "nvme",
    "kstack",
    "spdk",
    "net",
    "host",
    "workloads",
    "faults",
    "sim",
)

#: Catch-all layer for callbacks defined outside the ``repro`` package
#: (test lambdas, benchmark helpers).
OTHER_LAYER = "other"


class CallSite(NamedTuple):
    """One attribution bucket: where a dispatched callback's code lives."""

    layer: str
    component: str
    callsite: str
    kind: str  # "process" (generator resume) or "callback" (plain fn)


class ProfilerConfig:
    """What the profiler samples and how the table is cut.

    ``wall`` toggles ``perf_counter_ns`` sampling around each dispatch
    (event counts are always exact); ``top`` bounds the rendered hotspot
    table (exports always carry every site).
    """

    __slots__ = ("wall", "top")

    def __init__(self, wall: bool = True, top: int = 15) -> None:
        if top < 1:
            raise ValueError("hotspot table size must be >= 1")
        self.wall = bool(wall)
        self.top = int(top)


# ----------------------------------------------------------------------
# Attribution helpers
# ----------------------------------------------------------------------
def _module_to_site(module: str, callsite: str, kind: str) -> CallSite:
    if module.startswith("repro."):
        parts = module.split(".")
        layer = parts[1] if len(parts) > 1 else OTHER_LAYER
        component = ".".join(parts[1:]) or layer
        return CallSite(layer, component, callsite, kind)
    return CallSite(OTHER_LAYER, module or "?", callsite, kind)


def _module_from_filename(filename: str) -> str:
    """Best-effort dotted module for a code object whose frame is gone."""
    norm = filename.replace("\\", "/")
    marker = "/repro/"
    index = norm.rfind(marker)
    if index < 0:
        return ""
    tail = norm[index + 1:]
    if tail.endswith(".py"):
        tail = tail[:-3]
    if tail.endswith("/__init__"):
        tail = tail[: -len("/__init__")]
    return tail.replace("/", ".")


def _generator_of(callback: Callable[..., Any]) -> Optional[Any]:
    """The generator a dispatched callback will synchronously resume.

    Covers the three trampoline shapes the kernel produces:

    * ``Process._resume`` / ``Process._on_event`` / ``Process._wake``
      bound methods — the process's own generator;
    * an :class:`~repro.sim.events.Event` method (``Timeout._fire``)
      whose pending callbacks include a waiting process — firing the
      event resumes that generator in the same dispatch;
    * one or two levels of event indirection (``AnyOf`` racing).

    Duck-typed on ``_generator`` / ``_callbacks`` so this module never
    imports the sim kernel (which imports :mod:`repro.obs.core`).
    """
    owner = getattr(callback, "__self__", None)
    if owner is None:
        return None
    generator = getattr(owner, "_generator", None)
    if generator is not None:
        return generator
    return _generator_behind_event(owner, _RESOLVE_DEPTH)


def _generator_behind_event(event: Any, depth: int) -> Optional[Any]:
    if depth <= 0:
        return None
    callbacks = getattr(event, "_callbacks", None)
    if not callbacks:
        return None
    for registered in callbacks:
        owner = getattr(registered, "__self__", None)
        if owner is None:
            continue
        generator = getattr(owner, "_generator", None)
        if generator is not None:
            return generator
        generator = _generator_behind_event(owner, depth - 1)
        if generator is not None:
            return generator
    return None


def _innermost(generator: Any) -> Any:
    """Follow ``yield from`` delegation down to the generator a resume
    actually runs.

    A suspended generator's ``gi_yieldfrom`` is the sub-generator it is
    delegating to, so resuming the outer one resumes the innermost; the
    walk stops at the first delegate that is not a generator.
    """
    inner = generator.gi_yieldfrom
    while inner is not None and hasattr(inner, "gi_code"):
        generator = inner
        inner = generator.gi_yieldfrom
    return generator


# ----------------------------------------------------------------------
# The profiler
# ----------------------------------------------------------------------
class Profiler(Recorder):
    """Event-attribution recorder plus three event-queue counters.

    One instance profiles every simulator attached to its
    :class:`~repro.obs.core.Observability` bundle.  All counts are exact
    and deterministic; wall nanoseconds are host measurements and vary
    run to run.

    The engine hooks (:meth:`note_insert`, :meth:`note_stale`,
    :meth:`dispatch`, and the recorder's ``new_sim``) keep their
    signatures even where this class ignores an argument: subclasses
    override them to time dispatches their own way.
    """

    def __init__(self, config: Optional[ProfilerConfig] = None) -> None:
        self.config = config or ProfilerConfig()
        #: site -> exact dispatched-event count.
        self.events: Dict[CallSite, int] = {}
        #: site -> sampled wall nanoseconds (empty when wall is off).
        self.wall_ns: Dict[CallSite, int] = {}
        self.inserts = 0
        self.stale_wakeups = 0
        self.peak_depth = 0
        self._wall = self.config.wall
        # Attribution cache: code object (or plain callable) -> site.
        # Keyed by identity on objects that live for the whole run, so
        # the cache never aliases; dropped on pickle (not serializable).
        self._sites: Dict[Any, CallSite] = {}

    # ------------------------------------------------------------------
    # Pickling: sweep workers receive and return whole bundles.  The
    # attribution cache holds code objects, which do not pickle; it
    # refills on demand.
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        return {**self.__dict__, "_sites": {}}

    # ------------------------------------------------------------------
    # Engine hooks (hot path — only reached while profiling is on)
    # ------------------------------------------------------------------
    def note_insert(self, now_ns: int, when_ns: int, depth: int) -> None:
        """A callback was pushed; ``depth`` is the queue length after."""
        self.inserts += 1
        if depth > self.peak_depth:
            self.peak_depth = depth

    def note_stale(self) -> None:
        """A process received a wakeup from a detached (stale) event."""
        self.stale_wakeups += 1

    def dispatch(
        self,
        when_ns: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        depth: int,
    ) -> None:
        """Attribute and run one popped callback (``depth`` is the queue
        length after the pop)."""
        site = self._site_of(callback)
        self.events[site] = self.events.get(site, 0) + 1
        if self._wall:
            started = time.perf_counter_ns()
            callback(*args)
            self.wall_ns[site] = (
                self.wall_ns.get(site, 0) + time.perf_counter_ns() - started
            )
        else:
            callback(*args)

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def _site_of(self, callback: Callable[..., Any]) -> CallSite:
        generator = _generator_of(callback)
        if generator is not None:
            generator = _innermost(generator)
            code = generator.gi_code
            site = self._sites.get(code)
            if site is None:
                site = self._site_for_generator(generator, code)
                self._sites[code] = site
            return site
        func = getattr(callback, "__func__", callback)
        code = getattr(func, "__code__", None)
        key: Any = code if code is not None else func
        site = self._sites.get(key)
        if site is None:
            module = getattr(func, "__module__", "") or ""
            name = getattr(func, "__qualname__", None) or getattr(
                func, "__name__", type(callback).__name__
            )
            site = _module_to_site(module, name, "callback")
            self._sites[key] = site
        return site

    def _site_for_generator(self, generator: Any, code: CodeType) -> CallSite:
        frame = getattr(generator, "gi_frame", None)
        module = ""
        if frame is not None:
            module = frame.f_globals.get("__name__", "") or ""
        if not module:
            module = _module_from_filename(code.co_filename)
        name = getattr(code, "co_qualname", None) or code.co_name
        return _module_to_site(module, name, "process")

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        return sum(self.events.values())

    def attributed_share(self) -> float:
        """Fraction of dispatched events attributed to a named layer."""
        total = self.total_events
        if total == 0:
            return 0.0
        named = sum(
            count
            for site, count in self.events.items()
            if site.layer != OTHER_LAYER
        )
        return named / total

    def hotspots(self, top: Optional[int] = None) -> List[Dict[str, Any]]:
        """Per-site rows, heaviest first (exact counts; deterministic)."""
        total_events = self.total_events
        total_wall = sum(self.wall_ns.values())
        rows: List[Dict[str, Any]] = []
        for site in sorted(
            self.events,
            key=lambda s: (-self.events[s], s.layer, s.component, s.callsite),
        ):
            count = self.events[site]
            wall = self.wall_ns.get(site, 0)
            rows.append(
                {
                    "layer": site.layer,
                    "component": site.component,
                    "callsite": site.callsite,
                    "kind": site.kind,
                    "events": count,
                    "share": count / total_events if total_events else 0.0,
                    "wall_ns": wall,
                    "wall_share": wall / total_wall if total_wall else 0.0,
                }
            )
        if top is not None:
            rows = rows[:top]
        return rows

    def layer_totals(self) -> List[Tuple[str, int]]:
        """(layer, events) in report order, heaviest unknown layers last."""
        totals: Dict[str, int] = {}
        for site, count in self.events.items():
            totals[site.layer] = totals.get(site.layer, 0) + count
        order = {layer: index for index, layer in enumerate(KNOWN_LAYERS)}
        return sorted(
            totals.items(),
            key=lambda item: (order.get(item[0], len(order)), item[0]),
        )

    # ------------------------------------------------------------------
    # Merging (sweep worker-bundle path)
    # ------------------------------------------------------------------
    def absorb(self, other: "Profiler") -> None:
        """Merge a worker profiler; absorbed in point order by the sweep
        engine, so merged counts equal what a serial run produces."""
        for site, count in other.events.items():
            self.events[site] = self.events.get(site, 0) + count
        for site, wall in other.wall_ns.items():
            self.wall_ns[site] = self.wall_ns.get(site, 0) + wall
        self.inserts += other.inserts
        self.stale_wakeups += other.stale_wakeups
        self.peak_depth = max(self.peak_depth, other.peak_depth)


class NullProfiler:
    """The zero-cost default: not a recorder, so the bundle skips it and
    the simulator stores ``None`` on its hot-path slot."""

    enabled = False
    config: Optional[ProfilerConfig] = None


NULL_PROFILER = NullProfiler()


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def hotspot_table(profiler: Profiler, top: Optional[int] = None) -> str:
    """Aligned text table: heaviest call sites plus a coverage footer."""
    top = top if top is not None else profiler.config.top
    rows = profiler.hotspots(top)
    if not rows:
        return "(no events profiled)"
    total = profiler.total_events
    wall_on = bool(profiler.wall_ns)
    width = max(len(f"{r['component']}:{r['callsite']}") for r in rows)
    width = max(width, len("call site"))
    lines = [
        f"{'call site'.ljust(width)}  {'kind':<8} {'events':>10} {'ev%':>6}"
        + (f" {'wall ms':>9} {'wall%':>6}" if wall_on else "")
    ]
    for row in rows:
        name = f"{row['component']}:{row['callsite']}"
        line = (
            f"{name.ljust(width)}  {row['kind']:<8} "
            f"{row['events']:>10,} {row['share']:>5.1%}"
        )
        if wall_on:
            line += f" {row['wall_ns'] / 1e6:>8.2f}ms {row['wall_share']:>5.1%}"
        lines.append(line)
    shown = sum(row["events"] for row in rows)
    if shown < total:
        lines.append(
            f"{'(other sites)'.ljust(width)}  {'':<8} "
            f"{total - shown:>10,} {(total - shown) / total:>5.1%}"
        )
    layers = "  ".join(
        f"{layer}={count / total:.1%}" for layer, count in profiler.layer_totals()
    )
    lines.append(f"-- layers: {layers}")
    lines.append(
        f"-- attributed {profiler.attributed_share():.1%} of "
        f"{total:,} dispatched events to a named layer"
    )
    return "\n".join(lines)


def queue_report(profiler: Profiler) -> str:
    """The event-queue counters as aligned text."""
    lines = [
        f"queue inserts          {profiler.inserts:>12,}",
        f"queue dispatches       {profiler.total_events:>12,}",
        f"stale wakeups          {profiler.stale_wakeups:>12,}",
        f"peak queue depth       {profiler.peak_depth:>12,}",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Flamegraph exports
# ----------------------------------------------------------------------
def _stack_of(site: CallSite) -> Tuple[str, str, str]:
    return (site.layer, site.component, f"{site.callsite} [{site.kind}]")


def to_collapsed(profiler: Profiler, weight: str = "events") -> str:
    """Brendan-Gregg collapsed-stack text: ``layer;component;callsite N``.

    ``weight`` selects the sample weight: exact ``events`` counts
    (default, deterministic) or sampled ``wall`` nanoseconds.
    """
    if weight not in ("events", "wall"):
        raise ValueError(f"unknown collapsed-stack weight {weight!r}")
    source = profiler.events if weight == "events" else profiler.wall_ns
    lines = []
    for site in sorted(source):
        value = source[site]
        if value:
            lines.append(";".join(_stack_of(site)) + f" {value}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_collapsed(
    profiler: Profiler, path: str, weight: str = "events"
) -> None:
    atomic_write_text(path, to_collapsed(profiler, weight))


SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def to_speedscope(profiler: Profiler, name: str = "repro sim profile") -> dict:
    """Speedscope JSON document (sampled profiles over the site stacks).

    Always carries a ``sim events`` profile weighted by exact dispatch
    counts; when wall sampling was on, a second ``wall time`` profile
    weighted in nanoseconds.  Frame and sample order are deterministic.
    """
    frames: List[Dict[str, str]] = []
    frame_index: Dict[str, int] = {}

    def frame_of(label: str) -> int:
        index = frame_index.get(label)
        if index is None:
            index = len(frames)
            frame_index[label] = index
            frames.append({"name": label})
        return index

    sites = sorted(profiler.events)
    stacks = {site: [frame_of(part) for part in _stack_of(site)] for site in sites}

    def profile_for(
        title: str, unit: str, weights_by_site: Dict[CallSite, int]
    ) -> dict:
        samples: List[List[int]] = []
        weights: List[int] = []
        for site in sites:
            weight = weights_by_site.get(site, 0)
            if weight:
                samples.append(stacks[site])
                weights.append(weight)
        return {
            "type": "sampled",
            "name": title,
            "unit": unit,
            "startValue": 0,
            "endValue": sum(weights),
            "samples": samples,
            "weights": weights,
        }

    profiles = [profile_for("sim events", "none", profiler.events)]
    if profiler.wall_ns:
        profiles.append(
            profile_for("wall time", "nanoseconds", profiler.wall_ns)
        )
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "exporter": "repro.obs.prof",
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def write_speedscope(
    profiler: Profiler, path: str, name: str = "repro sim profile"
) -> None:
    atomic_write_text(path, json.dumps(to_speedscope(profiler, name)))


def bench_hotspots(profiler: Profiler, top: int = 10) -> List[Dict[str, Any]]:
    """Compact per-figure hotspot rows for ``BENCH_<date>.json`` documents."""
    return [
        {
            "site": f"{row['component']}:{row['callsite']}",
            "events": row["events"],
            "share": round(row["share"], 4),
        }
        for row in profiler.hotspots(top)
    ]
