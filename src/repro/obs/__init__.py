"""GTrace: end-to-end structured tracing + metrics for the GFlink stack.

The paper's whole evaluation (§6, Eq. 1, Observations 1–3) is a story about
*where time goes* — submit/schedule overheads, PCIe transfers, kernel time,
cache hits.  This package is the unified instrumentation layer that tells
that story per run instead of per aggregate:

* :class:`~repro.obs.trace.Tracer` — structured spans/instants with
  sim-clock timestamps, organized into per-worker / per-device /
  per-copy-engine tracks so transfer/compute overlap is visible.
* :class:`~repro.obs.metrics.MetricsRegistry` — labelled counters, gauges
  and histograms: the one numeric sink.  Each fact is written once, here.
* :class:`~repro.obs.monitor.GMonitor` — the online monitor, a subscriber
  of the registry: every window, SLO and health score is derived from
  registry writes, charged to the window of their simulated time.
* :mod:`repro.obs.export` — Chrome trace-event JSON (open in Perfetto) and
  flat metrics JSON, plus a dependency-free schema validator.
* :mod:`repro.obs.profile` — GProfiler: critical-path extraction,
  per-operator bottleneck classification, engine-utilization timelines and
  a baseline regression gate (``repro profile``), over a live tracer or an
  exported trace file.

Wiring: every :class:`~repro.flink.runtime.Cluster` owns an
:class:`Observability` (tracer + registry, plus monitor and flight
recorder), switched by ``FlinkConfig.enable_tracing`` /
``enable_monitoring`` / ``enable_flight_recorder`` — off by default
(tests), on in benchmarks.  None of them schedules simulation events, so
the simulated clock is bit-identical with them on or off.  See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.explain import (
    explain_summaries,
    render_explanation,
    validate_explanation,
)
from repro.obs.flightrecorder import (
    MAX_BUNDLES,
    SPAN_CAPACITY,
    WINDOW_CAPACITY,
    FlightRecorder,
    render_bundle,
    validate_postmortem_bundle,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.monitor import (
    RETENTION_WINDOWS,
    AlertRule,
    GMonitor,
    SLObjective,
    validate_monitor_summary,
)
from repro.obs.profile import (
    ProfileTrace,
    compare_summaries,
    profile_file,
    summarize_tracer,
    validate_profile_summary,
)
from repro.obs.trace import TraceEvent, Tracer, Track

__all__ = [
    "AlertRule",
    "Counter",
    "FlightRecorder",
    "GMonitor",
    "Gauge",
    "Histogram",
    "MAX_BUNDLES",
    "MetricsRegistry",
    "Observability",
    "ProfileTrace",
    "RETENTION_WINDOWS",
    "SLObjective",
    "SPAN_CAPACITY",
    "TraceEvent",
    "Tracer",
    "Track",
    "WINDOW_CAPACITY",
    "compare_summaries",
    "explain_summaries",
    "profile_file",
    "render_bundle",
    "render_explanation",
    "summarize_tracer",
    "validate_explanation",
    "validate_monitor_summary",
    "validate_postmortem_bundle",
    "validate_profile_summary",
]


class Observability:
    """One cluster's tracer + registry + monitor, passed through the stack.

    ``enabled`` switches tracing; ``monitoring`` additionally attaches a
    live :class:`~repro.obs.monitor.GMonitor` as the registry's subscriber
    (so monitoring alone also enables the registry).  When monitoring is
    off, :attr:`monitor` is None and registry writes go nowhere else.
    Capacities are the module constants :data:`RETENTION_WINDOWS`,
    :data:`SPAN_CAPACITY`, :data:`WINDOW_CAPACITY` and :data:`MAX_BUNDLES`.
    """

    def __init__(self, env: Any, enabled: bool = False,
                 monitoring: bool = False, monitor_window_s: float = 1.0,
                 flight_recorder: bool = False,
                 flight_recorder_dir: Any = None):
        self.tracer = Tracer(env, enabled=enabled)
        self.registry = MetricsRegistry(enabled=enabled or monitoring)
        # The recorder is passive (bounded deques + dump-time file I/O):
        # it works with monitoring (alert-triggered bundles with metric
        # windows) or with bare chaos runs (fault-triggered bundles).
        self.recorder = (FlightRecorder(
            env, tracer=self.tracer, dirpath=flight_recorder_dir)
            if flight_recorder else None)
        self.monitor: Optional[GMonitor] = (
            GMonitor(env, tracer=self.tracer, registry=self.registry,
                     window_s=monitor_window_s, recorder=self.recorder)
            if monitoring else None)

    @property
    def enabled(self) -> bool:
        """True when the tracer and registry are recording."""
        return self.tracer.enabled
