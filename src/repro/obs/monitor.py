"""GMonitor: an online telemetry plane over the simulated clock.

GTrace (spans) and GProfiler (post-mortem analysis) answer *where did the
time go* after the run ends.  This module watches the system **while the
simulated clock advances**: it samples the live
:class:`~repro.obs.metrics.MetricsRegistry` into fixed-width windows of
simulated time, tracks latency/availability SLOs with error budgets and
burn rates, evaluates alert rules (threshold / rate-of-change /
sustained-window) with a firing→resolved lifecycle, and rolls worker /
device / cluster health scores — the substrate for admission-control
SLOs.

Clock discipline (the PR 2 contract, kept here): the monitor **never
schedules simulation events**.  Windows are closed lazily — every feed
first observes ``env.now`` and, when it has crossed a window boundary,
closes the elapsed windows, samples the registry, evaluates alert rules
and scores health, all synchronously inside whatever process was already
running.  Enabled or disabled, the simulated clock is bit-identical
(asserted by ``tests/obs/test_monitor.py``).

Window semantics:

* **counter** series: the window value is the delta accumulated in that
  window (missing window = 0).
* **gauge** series: last value set in the window (carried forward for
  alert evaluation).
* **histogram** series: per-window count/sum/min/max/p50/p95/p99
  estimated from the same bucket interpolation the registry histograms
  use.

Registry metrics are sampled at window close: counter deltas, gauge
last-values, and histogram bucket deltas (windowed percentiles).  The
sample is attributed to the window being closed — attribution granularity
is therefore bounded by how often instrumented call sites tick the
monitor, which on the hot paths (pipeline publishes, GPU stages,
heartbeats) is every few simulated milliseconds.

The machine-readable summary (``repro.monitor.summary/v1``) feeds the
dependency-free HTML dashboard (:mod:`repro.obs.dashboard`) and is
validated by :func:`validate_monitor_summary` (wired into
``python -m repro.obs.validate``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.obs.anomaly import SlidingTrend, trend_snapshot
from repro.obs.metrics import Histogram, LabelItems, metric_key, render_key

__all__ = [
    "Alert",
    "AlertRule",
    "GMonitor",
    "HealthScorer",
    "MONITOR_SCHEMA",
    "NULL_MONITOR",
    "SLObjective",
    "SLOTracker",
    "Series",
    "TimeSeriesStore",
    "validate_monitor_summary",
]

MONITOR_SCHEMA = "repro.monitor.summary/v1"

#: severity -> health penalty per active alert touching a worker/device
_SEVERITY_PENALTY = {"critical": 40.0, "warning": 15.0}


# ---------------------------------------------------------------------------
# Time-series store
# ---------------------------------------------------------------------------

class Series:
    """One labelled time series: sparse ``(window_index, value)`` points.

    Points are appended in increasing window order and trimmed to the
    store's retention.  ``kind`` follows the registry metric kinds.
    """

    __slots__ = ("name", "labels", "kind", "points",
                 "_open_idx", "_open_val", "_open_hist")

    def __init__(self, name: str, labels: LabelItems, kind: str,
                 retention: int):
        self.name = name
        self.labels = labels
        self.kind = kind
        self.points: deque = deque(maxlen=retention)
        self._open_idx: Optional[int] = None
        self._open_val = 0.0
        self._open_hist: Optional[Histogram] = None

    @property
    def key(self) -> str:
        return render_key(self.name, self.labels)

    def record(self, idx: int, value: float) -> None:
        """Accumulate ``value`` into the open window ``idx``."""
        if self._open_idx != idx:
            self._open_idx = idx
            if self.kind == "histogram":
                self._open_hist = Histogram(self.name, self.labels)
            else:
                self._open_val = 0.0
        if self.kind == "counter":
            self._open_val += value
        elif self.kind == "gauge":
            self._open_val = float(value)
        else:
            self._open_hist.observe(value)

    def close(self, idx: int):
        """Close window ``idx``; return its value or None if untouched."""
        if self._open_idx != idx:
            return None
        self._open_idx = None
        if self.kind == "histogram":
            h, self._open_hist = self._open_hist, None
            value = {
                "count": h.count, "sum": h.total,
                "min": h.vmin, "max": h.vmax,
                "p50": h.percentile(0.50), "p95": h.percentile(0.95),
                "p99": h.percentile(0.99),
            }
        else:
            value = self._open_val
        self.points.append((idx, value))
        return value

    def set_closed(self, idx: int, value) -> None:
        """Append a point for an already-closed window (derived series)."""
        self.points.append((idx, value))


class TimeSeriesStore:
    """Get-or-create registry of :class:`Series` with bounded retention."""

    def __init__(self, retention: int = 720):
        if retention < 1:
            raise ConfigError(f"retention must be >= 1, got {retention}")
        self.retention = retention
        self._series: Dict[Tuple[str, LabelItems], Series] = {}

    def series(self, name: str, kind: str, **labels: Any) -> Series:
        return self.series_items(name, kind, metric_key(name, labels)[1])

    def series_items(self, name: str, kind: str,
                     labels: LabelItems) -> Series:
        """Like :meth:`series` but with pre-sorted label items — the
        spelling registry sampling uses (label keys like ``kind`` would
        collide with the keyword signature)."""
        key = (name, labels)
        s = self._series.get(key)
        if s is None:
            s = Series(name, labels, kind, self.retention)
            self._series[key] = s
        elif s.kind != kind:
            raise ConfigError(
                f"series {render_key(*key)} already registered as "
                f"{s.kind}, requested {kind}")
        return s

    def family(self, name: str) -> List[Series]:
        """All series sharing ``name``, sorted by labels."""
        return [self._series[k] for k in sorted(self._series)
                if k[0] == name]

    def all_series(self) -> List[Series]:
        return [self._series[k] for k in sorted(self._series)]

    def __len__(self) -> int:
        return len(self._series)

    def close_window(self, idx: int) -> List[Tuple[Series, Any]]:
        """Close window ``idx`` on every open series; return the values."""
        closed = []
        for s in self._series.values():
            v = s.close(idx)
            if v is not None:
                closed.append((s, v))
        return closed


# ---------------------------------------------------------------------------
# SLOs
# ---------------------------------------------------------------------------

@dataclass
class SLObjective:
    """One service-level objective.

    ``kind="latency"``: events are durations; an event is *bad* when it
    exceeds ``target`` seconds, and the objective promises the
    ``percentile`` quantile stays under the target — the allowed bad
    fraction is ``1 - percentile``.  ``target=None`` tracks the
    distribution without gating.

    ``kind="availability"``: events are ok/failed attempts; the objective
    promises a ``target`` fraction of events succeed — the allowed bad
    fraction (the error budget) is ``1 - target``.
    """

    name: str
    kind: str = "latency"
    target: Optional[float] = None
    percentile: float = 0.99

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "availability"):
            raise ConfigError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.percentile < 1.0:
            raise ConfigError("percentile must be in (0, 1)")
        if (self.kind == "availability"
                and (self.target is None or not 0.0 < self.target < 1.0)):
            raise ConfigError("availability target must be in (0, 1)")

    @property
    def allowed_bad_frac(self) -> float:
        if self.kind == "availability":
            return 1.0 - self.target
        return 1.0 - self.percentile


class _SLOState:
    __slots__ = ("slo", "events", "bad", "hist")

    def __init__(self, slo: SLObjective):
        self.slo = slo
        self.events = 0
        self.bad = 0
        self.hist = Histogram(slo.name, ())


class SLOTracker:
    """Error-budget accounting over job/task completion events.

    Burn rate is the classic SRE ratio: the fraction of events that were
    bad divided by the fraction the objective allows.  Burn > 1 means the
    error budget is being consumed faster than it accrues — sustained,
    that is an SLO violation.
    """

    def __init__(self, store: TimeSeriesStore):
        self._store = store
        self._states: Dict[str, _SLOState] = {}

    def add(self, slo: SLObjective) -> SLObjective:
        if slo.name in self._states:
            raise ConfigError(f"SLO {slo.name!r} already registered")
        self._states[slo.name] = _SLOState(slo)
        return slo

    def get(self, name: str) -> Optional[SLObjective]:
        state = self._states.get(name)
        return state.slo if state else None

    def objectives(self) -> List[SLObjective]:
        return [s.slo for s in self._states.values()]

    def observe_latency(self, idx: int, name: str, seconds: float) -> None:
        state = self._states.get(name)
        if state is None or state.slo.kind != "latency":
            return
        state.events += 1
        state.hist.observe(seconds)
        bad = state.slo.target is not None and seconds > state.slo.target
        if bad:
            state.bad += 1
        self._store.series("slo.events", "counter", slo=name).record(idx, 1)
        if bad:
            self._store.series("slo.bad", "counter", slo=name).record(idx, 1)

    def observe_event(self, idx: int, name: str, ok: bool) -> None:
        state = self._states.get(name)
        if state is None or state.slo.kind != "availability":
            return
        state.events += 1
        if not ok:
            state.bad += 1
        self._store.series("slo.events", "counter", slo=name).record(idx, 1)
        if not ok:
            self._store.series("slo.bad", "counter", slo=name).record(idx, 1)

    def burn_rate(self, name: str) -> float:
        state = self._states[name]
        if not state.events:
            return 0.0
        bad_frac = state.bad / state.events
        allowed = state.slo.allowed_bad_frac
        return bad_frac / allowed if allowed > 0 else float("inf")

    def violated(self, name: str) -> bool:
        state = self._states[name]
        slo = state.slo
        if not state.events:
            return False
        if slo.kind == "latency":
            if slo.target is None:
                return False
            return state.hist.percentile(slo.percentile) > slo.target
        return (state.bad / state.events) > slo.allowed_bad_frac

    def summary(self) -> List[Dict[str, Any]]:
        rows = []
        for name, state in sorted(self._states.items()):
            slo = state.slo
            row: Dict[str, Any] = {
                "name": name,
                "kind": slo.kind,
                "target": slo.target,
                "events": state.events,
                "bad": state.bad,
                "bad_frac": (state.bad / state.events
                             if state.events else 0.0),
                "allowed_bad_frac": slo.allowed_bad_frac,
                "burn_rate": self.burn_rate(name),
                "budget_remaining_frac": max(
                    0.0, 1.0 - self.burn_rate(name)),
                "violated": self.violated(name),
            }
            if slo.kind == "latency":
                row["percentile"] = slo.percentile
                row["observed"] = {
                    "count": state.hist.count,
                    "p50": state.hist.percentile(0.50),
                    "p95": state.hist.percentile(0.95),
                    "p99": state.hist.percentile(0.99),
                } if state.hist.count else {"count": 0}
            rows.append(row)
        return rows


# ---------------------------------------------------------------------------
# Alerts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlertRule:
    """One alert rule over a series family.

    ``predicate`` is one of ``above`` / ``below`` (threshold on the window
    value), ``rate_above`` (window-over-window increase exceeds the
    threshold), or ``trend_above`` / ``trend_below`` (least-squares slope
    of the last ``trend_window`` window values, in value-per-window units,
    crosses the threshold).  The rule fires after ``sustained`` consecutive
    breaching windows and resolves after ``resolve_after`` consecutive
    quiet ones.  ``labels`` restricts matching to series whose labels are
    a superset; for histogram series ``window_field`` picks the per-window
    statistic.
    """

    name: str
    series: str
    predicate: str = "above"
    threshold: float = 0.0
    sustained: int = 1
    resolve_after: int = 2
    severity: str = "warning"
    labels: Tuple[Tuple[str, str], ...] = ()
    window_field: str = "count"
    trend_window: int = 8

    def __post_init__(self) -> None:
        if self.predicate not in ("above", "below", "rate_above",
                                  "trend_above", "trend_below"):
            raise ConfigError(f"unknown predicate {self.predicate!r}")
        if self.severity not in ("warning", "critical"):
            raise ConfigError(f"unknown severity {self.severity!r}")
        if self.sustained < 1 or self.resolve_after < 1:
            raise ConfigError("sustained/resolve_after must be >= 1")
        if self.trend_window < 2:
            raise ConfigError("trend_window must be >= 2")

    def matches(self, series: Series) -> bool:
        if series.name != self.series:
            return False
        return set(self.labels) <= set(series.labels)


@dataclass
class Alert:
    """One firing of a rule against one series, with its lifecycle."""

    rule: str
    series: str
    severity: str
    fired_at_s: float
    resolved_at_s: Optional[float] = None
    peak: float = 0.0
    labels: Dict[str, str] = field(default_factory=dict)
    #: Post-mortem bundle filename when a flight recorder dumped one.
    bundle: Optional[str] = None

    @property
    def active(self) -> bool:
        return self.resolved_at_s is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule, "series": self.series,
            "severity": self.severity, "fired_at_s": self.fired_at_s,
            "resolved_at_s": self.resolved_at_s, "peak": self.peak,
            "labels": dict(self.labels), "bundle": self.bundle,
        }


class _RuleState:
    __slots__ = ("series", "breach_run", "ok_run", "last_value", "alert",
                 "trend")

    def __init__(self, series: Series, rule: "AlertRule"):
        self.series = series
        self.breach_run = 0
        self.ok_run = 0
        self.last_value = 0.0
        self.alert: Optional[Alert] = None
        # Online slope state, only materialized for trend predicates.
        self.trend: Optional[SlidingTrend] = (
            SlidingTrend(window=rule.trend_window)
            if rule.predicate in ("trend_above", "trend_below") else None)


class AlertEngine:
    """Evaluates alert rules once per closed window, in window order.

    Firing/resolution are emitted as instants on a dedicated
    ``monitor/alerts`` trace lane so alert history lines up with the spans
    in the Chrome trace.
    """

    def __init__(self, tracer=None):
        self._tracer = tracer
        self.rules: List[AlertRule] = []
        self._states: Dict[Tuple[int, str], _RuleState] = {}
        self.history: List[Alert] = []

    def add_rule(self, rule: AlertRule) -> AlertRule:
        self.rules.append(rule)
        return rule

    def active_alerts(self) -> List[Alert]:
        return [a for a in self.history if a.active]

    def _window_value(self, rule: AlertRule, value) -> float:
        if isinstance(value, dict):
            return float(value.get(rule.window_field, 0.0))
        return float(value)

    def evaluate(self, idx: int, t_end: float,
                 closed: List[Tuple[Series, Any]]) -> List[Alert]:
        """Evaluate every rule against window ``idx`` (ending at t_end).

        Returns the alerts that *fired* this window (for flight-recorder
        dumps); lifecycle state lives in :attr:`history` as before.
        """
        fired: List[Alert] = []
        closed_by_series = {id(s): v for s, v in closed}
        # Discover series newly matching a rule.
        for ri, rule in enumerate(self.rules):
            for s, _v in closed:
                if rule.matches(s):
                    k = (ri, s.key)
                    if k not in self._states:
                        self._states[k] = _RuleState(s, rule)
        for (ri, _skey), state in self._states.items():
            rule = self.rules[ri]
            raw = closed_by_series.get(id(state.series))
            if raw is None:
                # No activity this window: counters/histograms read 0,
                # gauges carry their last value forward.
                value = (state.last_value
                         if state.series.kind == "gauge" else 0.0)
            else:
                value = self._window_value(rule, raw)
            if rule.predicate == "above":
                breach = value > rule.threshold
            elif rule.predicate == "below":
                breach = value < rule.threshold
            elif rule.predicate in ("trend_above", "trend_below"):
                state.trend.update(value)
                slope = state.trend.slope()
                # Half-full window before a slope is trusted: a single
                # early point must not fire a trend rule.
                ready = len(state.trend) >= max(2, rule.trend_window // 2)
                if rule.predicate == "trend_above":
                    breach = ready and slope > rule.threshold
                else:
                    breach = ready and slope < rule.threshold
                state.last_value = value   # raw, for gauge carry-forward
                value = slope              # reported as the alert's peak
            else:  # rate_above
                breach = (value - state.last_value) > rule.threshold
            if rule.predicate not in ("trend_above", "trend_below"):
                state.last_value = value
            if breach:
                state.breach_run += 1
                state.ok_run = 0
            else:
                state.ok_run += 1
                state.breach_run = 0
            alert = state.alert
            if alert is None and state.breach_run >= rule.sustained:
                alert = Alert(rule=rule.name, series=state.series.key,
                              severity=rule.severity, fired_at_s=t_end,
                              peak=value,
                              labels=dict(state.series.labels))
                state.alert = alert
                self.history.append(alert)
                fired.append(alert)
                self._instant("alert.fired", alert)
            elif alert is not None:
                if breach:
                    alert.peak = max(alert.peak, value)
                if state.ok_run >= rule.resolve_after:
                    alert.resolved_at_s = t_end
                    state.alert = None
                    self._instant("alert.resolved", alert)
        return fired

    def _instant(self, what: str, alert: Alert) -> None:
        if self._tracer is None:
            return
        track = self._tracer.track("monitor", "alerts")
        self._tracer.instant(f"{what}:{alert.rule}", "monitor", track,
                             series=alert.series, severity=alert.severity,
                             peak=alert.peak)

    def summary(self) -> List[Dict[str, Any]]:
        return [a.to_dict() for a in self.history]


# ---------------------------------------------------------------------------
# Health
# ---------------------------------------------------------------------------

class HealthScorer:
    """Rolling 0–100 health per worker, device and the whole cluster.

    A score starts at 100 and loses a fixed penalty per *active* alert
    whose series labels pin it to the entity (``worker=``, ``device=``,
    or a device name prefixed by the worker's).  A worker the master
    knows is down scores 0 until it is declared and recovered around.
    Cluster health is the mean worker score.
    """

    def __init__(self, store: TimeSeriesStore):
        self._store = store
        self.workers: List[str] = []
        self.devices: List[str] = []
        self.down: set = set()
        self.latest: Dict[str, float] = {}

    def register_worker(self, name: str) -> None:
        if name not in self.workers:
            self.workers.append(name)

    def register_device(self, name: str) -> None:
        if name not in self.devices:
            self.devices.append(name)

    def worker_down(self, name: str) -> None:
        self.down.add(name)

    def worker_recovered(self, name: str) -> None:
        self.down.discard(name)

    @staticmethod
    def _touches(alert: Alert, worker: Optional[str] = None,
                 device: Optional[str] = None) -> bool:
        labels = alert.labels
        if device is not None:
            return labels.get("device") == device
        w = labels.get("worker")
        d = labels.get("device", "")
        return w == worker or d.startswith(f"{worker}-")

    def _score(self, alerts: List[Alert], worker: Optional[str] = None,
               device: Optional[str] = None) -> float:
        score = 100.0
        for a in alerts:
            if self._touches(a, worker=worker, device=device):
                score -= _SEVERITY_PENALTY.get(a.severity, 15.0)
        return max(0.0, min(100.0, score))

    def score_window(self, idx: int, engine: AlertEngine) -> None:
        active = engine.active_alerts()
        worker_scores = []
        for w in self.workers:
            s = 0.0 if w in self.down else self._score(active, worker=w)
            self.latest[f"worker:{w}"] = s
            self._store.series("health.worker", "gauge",
                               worker=w).set_closed(idx, s)
            worker_scores.append(s)
        for d in self.devices:
            s = self._score(active, device=d)
            self.latest[f"device:{d}"] = s
            self._store.series("health.device", "gauge",
                               device=d).set_closed(idx, s)
        cluster = (sum(worker_scores) / len(worker_scores)
                   if worker_scores else 100.0)
        self.latest["cluster"] = cluster
        self._store.series("health.cluster", "gauge").set_closed(idx, cluster)

    def summary(self) -> Dict[str, Any]:
        return {
            "cluster": self.latest.get("cluster", 100.0),
            "workers": {w: self.latest.get(f"worker:{w}", 100.0)
                        for w in self.workers},
            "devices": {d: self.latest.get(f"device:{d}", 100.0)
                        for d in self.devices},
        }


# ---------------------------------------------------------------------------
# The monitor facade
# ---------------------------------------------------------------------------

class GMonitor:
    """The online telemetry plane: store + SLOs + alerts + health.

    Driven entirely by feeds from instrumented call sites — it owns no
    simulation process and never schedules events.  Every feed starts
    with a :meth:`tick`: when ``env.now`` has crossed into a new window,
    all elapsed windows are closed (registry sampled, alerts evaluated,
    health scored) before the new observation is recorded.
    """

    enabled = True

    DEFAULT_RULES = (
        AlertRule(name="worker_unhealthy", series="worker.heartbeat.missed",
                  predicate="above", threshold=0.0, sustained=1,
                  resolve_after=3, severity="critical"),
        AlertRule(name="backpressure_stall",
                  series="pipeline.backpressure.stall_s",
                  predicate="above", threshold=0.0, sustained=3,
                  resolve_after=3, severity="warning"),
    )

    def __init__(self, env: Any, tracer=None, registry=None,
                 window_s: float = 1.0, retention: int = 720,
                 recorder=None):
        if window_s <= 0:
            raise ConfigError(f"window_s must be positive, got {window_s}")
        self._env = env
        self._registry = registry
        #: Optional FlightRecorder: fed every closed window, dumps a
        #: post-mortem bundle per fired alert.  Never schedules events.
        self.recorder = recorder
        self.window_s = window_s
        self.store = TimeSeriesStore(retention=retention)
        self.slo = SLOTracker(self.store)
        self.alerts = AlertEngine(tracer=tracer)
        self.health = HealthScorer(self.store)
        self._cur = int(env.now / window_s) if env is not None else 0
        self._windows_closed = 0
        self._last_counters: Dict[Tuple[str, LabelItems], float] = {}
        self._last_hist: Dict[Tuple[str, LabelItems], Any] = {}
        self._finalized = False
        for rule in self.DEFAULT_RULES:
            self.alerts.add_rule(rule)
        self.slo.add(SLObjective(name="job_latency", kind="latency",
                                 target=None, percentile=0.99))
        self.slo.add(SLObjective(name="task_availability",
                                 kind="availability", target=0.999))

    # -- window machinery --------------------------------------------------------

    def _widx(self, t: float) -> int:
        return int(t / self.window_s)

    def tick(self) -> None:
        """Close any windows the simulated clock has moved past."""
        w = self._widx(self._env.now)
        if w > self._cur:
            self._advance(w)

    def _advance(self, target: int) -> None:
        # Registry deltas accrued since the last boundary belong to the
        # window being closed first (sampled-at-close attribution).
        self._sample_registry(self._cur)
        while self._cur < target:
            idx = self._cur
            t_end = (idx + 1) * self.window_s
            closed = self.store.close_window(idx)
            fired = self.alerts.evaluate(idx, t_end, closed)
            self.health.score_window(idx, self.alerts)
            if self.recorder is not None:
                self.recorder.record_windows(idx, t_end, closed)
                for alert in fired:
                    alert.bundle = self.recorder.dump_for_alert(
                        self, alert, t_end)
            self._windows_closed += 1
            self._cur += 1

    def _sample_registry(self, idx: int) -> None:
        if self._registry is None or not self._registry.enabled:
            return
        for m in list(self._registry._metrics.values()):
            key = (m.name, m.labels)
            kind = m.kind
            if kind == "counter":
                last = self._last_counters.get(key, 0.0)
                delta = m.value - last
                if delta:
                    self._last_counters[key] = m.value
                    self.store.series_items(
                        m.name, "counter", m.labels).record(idx, delta)
            elif kind == "gauge":
                self.store.series_items(
                    m.name, "gauge", m.labels).record(idx, m.value)
            elif kind == "histogram":
                self._sample_histogram(idx, key, m)

    def _sample_histogram(self, idx: int, key, m) -> None:
        last_count, last_total, last_buckets = self._last_hist.get(
            key, (0, 0.0, None))
        dcount = m.count - last_count
        if not dcount:
            return
        deltas = ([c - lc for c, lc in zip(m.bucket_counts, last_buckets)]
                  if last_buckets else list(m.bucket_counts))
        self._last_hist[key] = (m.count, m.total, list(m.bucket_counts))
        # Windowed percentiles via the registry's own bucket estimator:
        # rebuild a histogram from the bucket deltas.  min/max are the
        # lifetime extremes (best effort — the buckets don't retain them
        # per window), which only loosens the clamp.
        h = Histogram(m.name, m.labels, bounds=m.bounds)
        h.count = dcount
        h.total = m.total - last_total
        h.vmin, h.vmax = m.vmin, m.vmax
        h.bucket_counts = deltas
        s = self.store.series_items(m.name, "histogram", m.labels)
        s.set_closed(idx, {
            "count": dcount, "sum": h.total, "min": h.vmin, "max": h.vmax,
            "p50": h.percentile(0.50), "p95": h.percentile(0.95),
            "p99": h.percentile(0.99),
        })

    # -- direct feeds (all tick first) -------------------------------------------

    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        self.tick()
        self.store.series(name, "counter", **labels).record(self._cur, amount)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.tick()
        self.store.series(name, "gauge", **labels).record(self._cur, value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.tick()
        self.store.series(name, "histogram",
                          **labels).record(self._cur, value)

    def job_completed(self, job: str, makespan_s: float,
                      ok: bool = True) -> None:
        self.tick()
        self.slo.observe_latency(self._cur, "job_latency", makespan_s)
        self.store.series("job.makespan_s", "histogram",
                          job=job).record(self._cur, makespan_s)

    def task_attempt(self, op: str, ok: bool, seconds: float = 0.0) -> None:
        self.tick()
        self.slo.observe_event(self._cur, "task_availability", ok)
        if not ok:
            self.store.series("task.failures", "counter",
                              op=op).record(self._cur, 1)

    def heartbeat_missed(self, worker: str) -> None:
        self.count("worker.heartbeat.missed", 1, worker=worker)

    def worker_down(self, worker: str) -> None:
        self.tick()
        self.health.worker_down(worker)
        self.store.series("worker.down", "counter",
                          worker=worker).record(self._cur, 1)

    def worker_declared_dead(self, worker: str) -> None:
        # The runtime's worker.declared_dead registry counter is sampled
        # into the store; this hook only advances the clock so detection
        # is attributed to the right window.
        self.tick()

    # -- topology / rules --------------------------------------------------------

    def register_worker(self, name: str) -> None:
        self.health.register_worker(name)

    def register_device(self, name: str,
                        pcie_bps: Optional[float] = None) -> None:
        self.health.register_device(name)
        if pcie_bps:
            # PCIe bytes moved in one window vs 90% of the calibrated bus
            # ceiling over the same span — the paper's Observation 2 made
            # an online signal.
            self.alerts.add_rule(AlertRule(
                name="pcie_saturated", series="gpu.pcie.bytes",
                labels=(("device", name),), predicate="above",
                threshold=0.9 * pcie_bps * self.window_s,
                sustained=2, resolve_after=2, severity="warning"))

    def add_rule(self, rule: AlertRule) -> AlertRule:
        return self.alerts.add_rule(rule)

    # -- trends ------------------------------------------------------------------

    def trends(self, name: Optional[str] = None, window: int = 8,
               alpha: float = 0.3) -> Dict[str, Dict[str, Any]]:
        """Per-series trend snapshots over the stored (closed) windows.

        Keyed by the series key; each snapshot carries ``slope`` (value
        per window, least-squares over the last ``window`` points),
        ``zscore`` (EWMA drift of the latest point), ``mean``, ``last``
        and ``direction``.  ``name`` restricts to one series family.
        Pure arithmetic over already-closed windows; never advances the
        clock.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for s in self.store.all_series():
            if name is not None and s.name != name:
                continue
            snap = trend_snapshot(s.points, window=window, alpha=alpha)
            snap["name"] = s.name
            snap["labels"] = dict(s.labels)
            out[s.key] = snap
        return out

    def set_latency_target(self, target: float,
                           percentile: float = 0.99) -> None:
        """Point the built-in job_latency SLO at a concrete target."""
        state = self.slo._states["job_latency"]
        state.slo.target = target
        state.slo.percentile = percentile

    def set_availability_target(self, target: float) -> None:
        self.slo._states["task_availability"].slo.target = target

    # -- finalization / export ---------------------------------------------------

    def finalize(self) -> None:
        """Close the trailing (partial) window at the end of a run."""
        if self._finalized:
            return
        self._finalized = True
        self._advance(self._widx(self._env.now) + 1)

    def __len__(self) -> int:
        return len(self.store) + len(self.alerts.history)

    def summary(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "schema": MONITOR_SCHEMA,
            "window_s": self.window_s,
            "generated_at_s": float(self._env.now),
            "windows_closed": self._windows_closed,
            "series": [
                {"name": s.name, "labels": dict(s.labels), "kind": s.kind,
                 "points": [[i, v] for i, v in s.points]}
                for s in self.store.all_series()
            ],
            "rules": [
                {"name": r.name, "series": r.series,
                 "predicate": r.predicate, "threshold": r.threshold,
                 "sustained": r.sustained, "resolve_after": r.resolve_after,
                 "severity": r.severity, "labels": dict(r.labels),
                 "trend_window": r.trend_window}
                for r in self.alerts.rules
            ],
            "alerts": self.alerts.summary(),
            "slos": self.slo.summary(),
            "health": self.health.summary(),
        }
        return doc


class _NullMonitor:
    """Shared no-op monitor handed out when monitoring is disabled.

    Mirrors the GMonitor feed surface so instrumentation call sites stay
    unconditional — the monitoring half of the zero-cost guarantee.
    """

    __slots__ = ()

    enabled = False

    def tick(self) -> None:
        pass

    def count(self, name, amount=1.0, **labels) -> None:
        pass

    def gauge(self, name, value, **labels) -> None:
        pass

    def observe(self, name, value, **labels) -> None:
        pass

    def job_completed(self, job, makespan_s, ok=True) -> None:
        pass

    def task_attempt(self, op, ok, seconds=0.0) -> None:
        pass

    def heartbeat_missed(self, worker) -> None:
        pass

    def worker_down(self, worker) -> None:
        pass

    def worker_declared_dead(self, worker) -> None:
        pass

    def register_worker(self, name) -> None:
        pass

    def register_device(self, name, pcie_bps=None) -> None:
        pass

    def add_rule(self, rule) -> None:
        pass

    def trends(self, name=None, window=8, alpha=0.3) -> dict:
        return {}

    def set_latency_target(self, target, percentile=0.99) -> None:
        pass

    def set_availability_target(self, target) -> None:
        pass

    def finalize(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_MONITOR = _NullMonitor()


# ---------------------------------------------------------------------------
# Summary validation
# ---------------------------------------------------------------------------

def validate_monitor_summary(doc: Any) -> List[str]:
    """Structural validation of a ``repro.monitor.summary/v1`` document.

    Returns a list of error strings (empty = valid), mirroring
    :func:`repro.obs.export.validate_chrome_trace`.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["summary must be a JSON object"]
    if doc.get("schema") != MONITOR_SCHEMA:
        errors.append(f"schema must be {MONITOR_SCHEMA!r}: "
                      f"{doc.get('schema')!r}")
    window_s = doc.get("window_s")
    if not isinstance(window_s, (int, float)) or window_s <= 0:
        errors.append(f"window_s must be a positive number: {window_s!r}")
    for field_name in ("series", "rules", "alerts", "slos"):
        if not isinstance(doc.get(field_name), list):
            errors.append(f"{field_name} must be a list")
    if errors:
        return errors
    for i, s in enumerate(doc["series"]):
        where = f"series[{i}]"
        if not isinstance(s, dict) or not s.get("name"):
            errors.append(f"{where}: missing name")
            continue
        if s.get("kind") not in ("counter", "gauge", "histogram"):
            errors.append(f"{where}: bad kind {s.get('kind')!r}")
        points = s.get("points")
        if not isinstance(points, list):
            errors.append(f"{where}: points must be a list")
            continue
        last_idx = None
        for p in points:
            if (not isinstance(p, list) or len(p) != 2
                    or not isinstance(p[0], int)):
                errors.append(f"{where}: malformed point {p!r}")
                break
            if last_idx is not None and p[0] < last_idx:
                errors.append(f"{where}: points out of order at {p[0]}")
                break
            last_idx = p[0]
    for i, a in enumerate(doc["alerts"]):
        where = f"alerts[{i}]"
        if not isinstance(a, dict):
            errors.append(f"{where}: must be an object")
            continue
        for req in ("rule", "series", "severity", "fired_at_s"):
            if req not in a:
                errors.append(f"{where}: missing {req}")
        if a.get("severity") not in ("warning", "critical"):
            errors.append(f"{where}: bad severity {a.get('severity')!r}")
        fired = a.get("fired_at_s")
        resolved = a.get("resolved_at_s")
        if (isinstance(fired, (int, float)) and resolved is not None
                and isinstance(resolved, (int, float)) and resolved < fired):
            errors.append(f"{where}: resolved before fired")
    for i, s in enumerate(doc["slos"]):
        where = f"slos[{i}]"
        if not isinstance(s, dict) or s.get("kind") not in (
                "latency", "availability"):
            errors.append(f"{where}: bad SLO kind")
            continue
        if not isinstance(s.get("burn_rate"), (int, float)) \
                or s["burn_rate"] < 0:
            errors.append(f"{where}: burn_rate must be >= 0")
        if s.get("bad", 0) > s.get("events", 0):
            errors.append(f"{where}: bad exceeds events")
    health = doc.get("health")
    if not isinstance(health, dict):
        errors.append("health must be an object")
    else:
        flat = [health.get("cluster", 100.0)]
        flat += list(health.get("workers", {}).values())
        flat += list(health.get("devices", {}).values())
        for v in flat:
            if not isinstance(v, (int, float)) or not 0 <= v <= 100:
                errors.append(f"health score out of range: {v!r}")
                break
    return errors
