"""The observability bundle and its attachment to simulators.

An :class:`Observability` object pairs a span tracer with a metrics
registry.  :class:`~repro.sim.engine.Simulator` looks up the *currently
installed* bundle at construction (``current_obs()``), so enabling
tracing for a whole figure run — which builds its own simulators
internally — is one context manager around the call:

    with Observability() as obs:
        result = run_figure("fig10")
    write_chrome_trace(obs.tracer, "fig10.json")

The default is :data:`NULL_OBS`: a no-op tracer and registry, so
uninstrumented runs pay nothing and stay bit-identical.

Every recorder follows one protocol (:mod:`repro.obs.recorder`), so the
bundle names its recorders only to build them; ``attach``,
``label_device`` and ``absorb`` loop over :attr:`Observability.recorders`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple, Type, TypeVar, Union

from repro.obs.blame import BlameConfig, BlameRecorder
from repro.obs.prof import NULL_PROFILER, Profiler, ProfilerConfig
from repro.obs.recorder import Recorder
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, SpanTracer
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, TelemetryConfig

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


R = TypeVar("R", bound=Recorder)
N = TypeVar("N")


def _resolve(value: Any, recorder_type: Type[R], config_type: type, null: N) -> Union[R, N]:
    """An opt-in recorder from ``True`` (defaults), a config, a ready
    instance (kept by identity), or ``None``/``False`` (``null``)."""
    if value is None or value is False:
        return null
    if value is True:
        return recorder_type()
    if isinstance(value, config_type):
        return recorder_type(value)
    if isinstance(value, recorder_type):
        return value
    raise TypeError(
        f"expected bool, {config_type.__name__} or {recorder_type.__name__}, "
        f"got {type(value).__name__}"
    )


class Observability:
    """A tracer plus a registry (plus, optionally, telemetry, the
    self-profiler and blame), installable as the process default."""

    def __init__(
        self,
        *,
        tracing: bool = True,
        metrics: bool = True,
        telemetry: Union[bool, Telemetry, TelemetryConfig, None] = None,
        profile: Union[bool, Profiler, ProfilerConfig, None] = None,
        blame: Union[bool, BlameRecorder, BlameConfig, None] = None,
    ) -> None:
        self.tracer = SpanTracer() if tracing else NULL_TRACER
        self.registry = MetricsRegistry() if metrics else NULL_REGISTRY
        self.telemetry = _resolve(telemetry, Telemetry, TelemetryConfig, NULL_TELEMETRY)
        self.profiler = _resolve(profile, Profiler, ProfilerConfig, NULL_PROFILER)
        # Blame rides on the tracer: wait edges live on trace contexts,
        # and the tracer forwards it every lifecycle call.
        self.blame: Optional[BlameRecorder] = _resolve(
            blame, BlameRecorder, BlameConfig, None
        )
        if self.blame is not None:
            if not isinstance(self.tracer, SpanTracer):
                raise ValueError(
                    "blame attribution requires tracing "
                    "(wait edges ride on trace contexts)"
                )
            self.tracer.blame = self.blame
        candidates = (self.tracer, self.registry, self.telemetry, self.profiler)
        #: The enabled recorders, in a fixed order; every lifecycle call
        #: loops over them.  (The null objects are not recorders.)
        self.recorders: Tuple[Recorder, ...] = tuple(
            recorder for recorder in candidates if isinstance(recorder, Recorder)
        )

    @property
    def enabled(self) -> bool:
        return bool(self.recorders)

    def fresh(self) -> "Observability":
        """An empty bundle with this one's recorder configs.

        Sweep workers record each point into one (it pickles small:
        configs only), and the parent absorbs it back in point order.
        """
        return Observability(
            tracing=self.tracer.enabled,
            metrics=self.registry.enabled,
            telemetry=self.telemetry.config,
            profile=self.profiler.config,
            blame=self.blame.config if self.blame is not None else None,
        )

    # ------------------------------------------------------------------
    def attach(self, sim: "Simulator") -> None:
        """Called by each :class:`Simulator` binding itself to this bundle."""
        for recorder in self.recorders:
            recorder.new_sim()

    def label_device(self, label: str) -> None:
        """Stamp the current sim's spans/series with a device name.

        Called by :class:`~repro.ssd.device.SsdDevice` construction with
        the registry/spec label its config resolved from, so traces and
        telemetry say *which* device a pid measured.
        """
        for recorder in self.recorders:
            recorder.label_device(label)

    def absorb(self, other: "Observability") -> None:
        """Merge a worker bundle built by :meth:`fresh` into this one.

        The sweep engine ships per-point bundles back from worker
        processes and absorbs them in point order, so parallel traced
        runs produce the same pids/io ids a serial run would.
        """
        if tuple(map(type, other.recorders)) != tuple(map(type, self.recorders)):
            raise ValueError("can only absorb a bundle built by fresh() on this one")
        for mine, theirs in zip(self.recorders, other.recorders):
            mine.absorb(theirs)

    # ------------------------------------------------------------------
    def install(self) -> "Observability":
        """Make this the bundle new simulators pick up."""
        _INSTALLED.append(self)
        return self

    def uninstall(self) -> None:
        _INSTALLED.remove(self)

    def __enter__(self) -> "Observability":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


#: The zero-cost default bundle: no recorder enabled.
NULL_OBS = Observability(tracing=False, metrics=False)

_INSTALLED: List[Observability] = []


def current_obs() -> Observability:
    """The innermost installed bundle, or the no-op default."""
    return _INSTALLED[-1] if _INSTALLED else NULL_OBS
