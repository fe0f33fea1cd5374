"""GProfiler: critical-path analysis, bottleneck attribution, regression gate.

GTrace (:mod:`repro.obs.trace`) answers "what happened when"; this module
answers the paper's evaluation questions (§6, Figs. 5–8): *where does the
makespan go* — PCIe transfers, kernel compute, JVM-side compute, scheduling
wait, shuffle, HDFS — and *did this change make it worse*.  It consumes a
finished :class:`~repro.obs.trace.Tracer` or an exported Chrome-trace JSON
file (so it works offline on ``traces/*.json``) and produces:

* **critical-path extraction** — a backward walk over the span DAG from the
  last job's finish to the first job's start, following task / exchange /
  submit edges.  The walk partitions the job window exactly, so the path's
  per-category attribution sums to the makespan to within float noise.
* **utilization timelines** — per device engine (kernel lane busy %, copy
  lanes busy %, copy-with-compute overlap %, PCIe bytes/s) and per-worker
  slot occupancy, all derived from exact span occupancy (copy spans record
  the engine-held window only — see ``CUDARuntime._transfer_op``).
* **bottleneck classification** — each operator's wall time is partitioned
  into kernel / h2d / d2h / shuffle / hdfs / cpu / sched shares; the
  dominating share names the class (``kernel_bound``, ``pcie_bound``, …).
* **a regression gate** — :func:`compare_summaries` diffs two summaries
  against configurable relative thresholds; ``repro profile --baseline``
  exits non-zero on regression (wired into ``scripts/ci.sh``).

Everything here is read-only analysis over recorded events: profiling a
trace never touches the simulation, and runs with tracing disabled simply
produce an empty profile.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "SUMMARY_SCHEMA",
    "CATEGORIES",
    "ProfileTrace",
    "PSpan",
    "Segment",
    "Delta",
    "summarize",
    "summarize_tracer",
    "profile_file",
    "load_summary",
    "compare_summaries",
    "default_thresholds",
    "validate_profile_summary",
    "render_text",
    "render_comparison",
]

#: Version tag of the machine-readable summary document.
SUMMARY_SCHEMA = "repro.profile.summary/v1"

#: Critical-path attribution categories, in coverage-priority order: when
#: fine-grained spans overlap inside one path segment, earlier categories
#: claim the time first (a kernel running during a copy is kernel time).
CATEGORIES = ("kernel", "h2d", "d2h", "shuffle", "hdfs", "cpu", "sched")

#: One simulated-clock tick: float-comparison slack for span boundaries.
TICK_S = 1e-9

#: Microseconds (Chrome trace units) → seconds.
_US = 1e6

Interval = Tuple[float, float]


@dataclass(frozen=True)
class PSpan:
    """One complete span, normalized to seconds with resolved lane names."""

    name: str
    cat: str
    ts: float
    dur: float
    pid: int
    tid: int
    process: str
    thread: str
    args: Dict[str, Any]

    @property
    def end(self) -> float:
        return self.ts + self.dur


class ProfileTrace:
    """A parsed trace: spans with resolved process/thread names, in seconds.

    Build one with :meth:`from_tracer` (live run) or :meth:`from_chrome`
    (exported JSON document); :meth:`load` reads a file.
    """

    def __init__(self, spans: Sequence[PSpan],
                 processes: Dict[int, str],
                 threads: Dict[Tuple[int, int], str]):
        self.spans = list(spans)
        self.processes = dict(processes)
        self.threads = dict(threads)

    # -- constructors ----------------------------------------------------------
    @classmethod
    def from_tracer(cls, tracer: Any) -> "ProfileTrace":
        """From a live :class:`repro.obs.trace.Tracer` (timestamps already
        in seconds)."""
        processes = {pid: name for pid, name in tracer._process_names}
        threads = {(pid, tid): name
                   for pid, tid, name in tracer._thread_names}
        spans = [PSpan(e.name, e.cat, e.ts, e.dur, e.pid, e.tid,
                       processes.get(e.pid, f"pid{e.pid}"),
                       threads.get((e.pid, e.tid), f"tid{e.tid}"),
                       dict(e.args) if e.args else {})
                 for e in tracer.events if e.ph == "X"]
        return cls(spans, processes, threads)

    @classmethod
    def from_chrome(cls, doc: Dict[str, Any]) -> "ProfileTrace":
        """From a Chrome trace-event document (µs timestamps)."""
        events = doc.get("traceEvents", [])
        processes: Dict[int, str] = {}
        threads: Dict[Tuple[int, int], str] = {}
        for ev in events:
            if not isinstance(ev, dict) or ev.get("ph") != "M":
                continue
            name = (ev.get("args") or {}).get("name")
            if ev.get("name") == "process_name":
                processes[ev.get("pid")] = name
            elif ev.get("name") == "thread_name":
                threads[(ev.get("pid"), ev.get("tid"))] = name
        spans = []
        for ev in events:
            if not isinstance(ev, dict) or ev.get("ph") != "X":
                continue
            pid, tid = ev.get("pid", 0), ev.get("tid", 0)
            spans.append(PSpan(
                ev.get("name", ""), ev.get("cat", ""),
                float(ev.get("ts", 0.0)) / _US,
                float(ev.get("dur", 0.0)) / _US,
                pid, tid,
                processes.get(pid, f"pid{pid}"),
                threads.get((pid, tid), f"tid{tid}"),
                dict(ev.get("args") or {})))
        return cls(spans, processes, threads)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ProfileTrace":
        """Read a Chrome trace JSON file from disk."""
        return cls.from_chrome(json.loads(Path(path).read_text()))

    # -- selectors -------------------------------------------------------------
    def by_cat(self, *cats: str) -> List[PSpan]:
        wanted = set(cats)
        return [s for s in self.spans if s.cat in wanted]

    def window(self) -> Interval:
        """The analysis window: union of job spans, else full span extent."""
        jobs = [s for s in self.by_cat("job")
                if s.name.startswith("job:")]
        pool = jobs or self.spans
        if not pool:
            return 0.0, 0.0
        return (min(s.ts for s in pool), max(s.end for s in pool))


# -- interval arithmetic -----------------------------------------------------------
def _union(intervals: List[Interval]) -> List[Interval]:
    """Merged, sorted, non-overlapping cover of ``intervals``."""
    out: List[Interval] = []
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if out and lo <= out[-1][1] + TICK_S:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out

def _length(intervals: List[Interval]) -> float:
    return sum(hi - lo for lo, hi in intervals)

def _clip(intervals: List[Interval], lo: float, hi: float) -> List[Interval]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals
            if min(b, hi) > max(a, lo)]

def _subtract(base: List[Interval],
              minus: List[Interval]) -> List[Interval]:
    """``base − minus``; both inputs must be merged/sorted (``_union``)."""
    out: List[Interval] = []
    for lo, hi in base:
        cursor = lo
        for mlo, mhi in minus:
            if mhi <= cursor or mlo >= hi:
                continue
            if mlo > cursor:
                out.append((cursor, mlo))
            cursor = max(cursor, mhi)
            if cursor >= hi:
                break
        if cursor < hi:
            out.append((cursor, hi))
    return out

def _intersect(a: List[Interval], b: List[Interval]) -> List[Interval]:
    """Pairwise intersection of two merged interval lists."""
    out: List[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


# -- critical path -----------------------------------------------------------------
@dataclass
class Segment:
    """One stretch of the critical path."""

    t0: float
    t1: float
    kind: str                      # "task" / "shuffle" / "submit" / "wait"
    name: str
    categories: Dict[str, float] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _device_cat(span: PSpan) -> str:
    if span.name == "h2d":
        return "h2d"
    if span.name == "d2h":
        return "d2h"
    return "kernel"


def _fine_spans_by_worker(trace: ProfileTrace
                          ) -> Dict[str, Dict[str, List[Interval]]]:
    """Fine-grained activity intervals grouped by owning worker: the
    engine lanes of its GPU devices (``<worker>-gpu<i>``) plus its HDFS
    lane."""
    out: Dict[str, Dict[str, List[Interval]]] = {}

    def lanes(worker: str) -> Dict[str, List[Interval]]:
        if worker not in out:
            out[worker] = {"kernel": [], "h2d": [], "d2h": [], "hdfs": []}
        return out[worker]

    for s in trace.by_cat("gpu.device"):
        owner, sep, _ = s.process.rpartition("-gpu")
        if sep:
            lanes(owner)[_device_cat(s)].append((s.ts, s.end))
    for s in trace.by_cat("hdfs"):
        lanes(s.process)["hdfs"].append((s.ts, s.end))
    return out


def _attribute_window(t0: float, t1: float,
                      fine: Dict[str, List[Interval]],
                      rest_cat: str = "cpu") -> Dict[str, float]:
    """Partition ``[t0, t1]`` by coverage priority; remainder → rest_cat."""
    remaining = [(t0, t1)]
    out: Dict[str, float] = {}
    for cat in ("kernel", "h2d", "d2h", "shuffle", "hdfs"):
        cover = _union(_clip(fine.get(cat, []), t0, t1))
        if not cover:
            continue
        claimed = _intersect(remaining, cover)
        if claimed:
            out[cat] = out.get(cat, 0.0) + _length(claimed)
            remaining = _subtract(remaining, _union(claimed))
    rest = _length(remaining)
    if rest > 0.0:
        out[rest_cat] = out.get(rest_cat, 0.0) + rest
    return out


def extract_critical_path(trace: ProfileTrace) -> List[Segment]:
    """Backward walk from the last job end to the window start.

    At each cursor the chain element is the candidate span reaching
    furthest toward the cursor (task, exchange, recovery or ``job.submit``
    span); uncovered stretches become ``wait`` segments (scheduling).  The
    returned segments partition the window exactly, so their category
    attribution sums to the makespan.
    """
    lo, hi = trace.window()
    if hi - lo <= TICK_S:
        return []
    chain: List[PSpan] = list(trace.by_cat("task", "shuffle", "recovery"))
    chain += [s for s in trace.by_cat("job") if s.name == "job.submit"]
    worker_fine = _fine_spans_by_worker(trace)
    segments: List[Segment] = []

    def close(seg_span: PSpan, t0: float, t1: float) -> Segment:
        if seg_span.cat == "shuffle":
            return Segment(t0, t1, "shuffle", seg_span.name,
                           {"shuffle": t1 - t0})
        if seg_span.cat == "job":
            return Segment(t0, t1, "submit", seg_span.name,
                           {"sched": t1 - t0})
        cats = _attribute_window(t0, t1,
                                 worker_fine.get(seg_span.process, {}))
        return Segment(t0, t1, "task", seg_span.name, cats)

    cursor = hi
    while cursor > lo + TICK_S:
        best: Optional[PSpan] = None
        best_reach = -math.inf
        for s in chain:
            if s.ts >= cursor - TICK_S:
                continue
            reach = min(s.end, cursor)
            # Prefer the furthest reach; tie-break on the earliest start
            # (covers more of the remaining window), then name for
            # determinism.
            key = (reach, -s.ts, s.name)
            if best is None or key > (best_reach, -best.ts, best.name):
                best, best_reach = s, reach
        if best is None:
            segments.append(Segment(lo, cursor, "wait", "wait",
                                    {"sched": cursor - lo}))
            break
        if best_reach < cursor - TICK_S:
            segments.append(Segment(best_reach, cursor, "wait", "wait",
                                    {"sched": cursor - best_reach}))
            cursor = best_reach
        start = max(best.ts, lo)
        segments.append(close(best, start, cursor))
        cursor = start
    segments.reverse()
    return segments


# -- operator bottlenecks ----------------------------------------------------------
def classify_operators(trace: ProfileTrace) -> Dict[str, Dict[str, Any]]:
    """Per-operator wall-time shares and the bottleneck class.

    Each operator's wall window is partitioned (priority coverage over
    exact span occupancy) into kernel / h2d / d2h / shuffle / hdfs plus
    ``cpu`` (subtask running, nothing finer covering) and ``sched`` (no
    subtask running).  The class is ``<dominant>_bound`` with h2d+d2h
    folded into ``pcie``.
    """
    from repro.obs.metrics import Histogram
    out: Dict[str, Dict[str, Any]] = {}
    tasks = trace.by_cat("task")
    exchanges = trace.by_cat("shuffle")
    worker_fine = _fine_spans_by_worker(trace)
    for op_span in trace.by_cat("operator", "recovery"):
        op = op_span.args.get("op") or op_span.name.split(":", 1)[-1]
        t0, t1 = op_span.ts, op_span.end
        wall = t1 - t0
        if wall <= 0.0:
            continue
        op_tasks = [s for s in tasks if s.args.get("op") == op]
        workers = {s.process for s in op_tasks}
        fine: Dict[str, List[Interval]] = {
            "kernel": [], "h2d": [], "d2h": [], "hdfs": [], "shuffle": []}
        for w in workers:
            for cat, intervals in worker_fine.get(w, {}).items():
                fine[cat] += intervals
        for s in exchanges:
            if s.args.get("op") == op:
                fine["shuffle"].append((s.ts, s.end))
        busy = _union(_clip([(s.ts, s.end) for s in op_tasks], t0, t1))
        # Partition the operator window: engine categories first, then CPU
        # where a subtask ran, scheduling wait where none did.
        remaining = [(t0, t1)]
        shares: Dict[str, float] = {}
        for cat in ("kernel", "h2d", "d2h", "shuffle", "hdfs"):
            cover = _union(_clip(fine[cat], t0, t1))
            claimed = _intersect(remaining, cover)
            if claimed:
                shares[cat] = _length(claimed)
                remaining = _subtract(remaining, _union(claimed))
        cpu = _intersect(remaining, busy)
        if cpu:
            shares["cpu"] = _length(cpu)
            remaining = _subtract(remaining, _union(cpu))
        sched = _length(remaining)
        if sched > 0.0:
            shares["sched"] = sched
        grouped = {
            "pcie": shares.get("h2d", 0.0) + shares.get("d2h", 0.0),
            "kernel": shares.get("kernel", 0.0),
            "cpu": shares.get("cpu", 0.0),
            "sched": shares.get("sched", 0.0),
            "shuffle": shares.get("shuffle", 0.0),
            "hdfs": shares.get("hdfs", 0.0),
        }
        dominant = max(sorted(grouped), key=lambda k: grouped[k])
        # Per-subtask latency distribution: the task spans of this operator
        # fed through a Histogram so the text report can print percentiles.
        hist = Histogram("op.task_s", ())
        for s in op_tasks:
            hist.observe(s.dur)
        latency: Dict[str, float] = {}
        if op_tasks:
            latency = {
                "count": float(hist.count),
                "min": hist.vmin,
                "max": hist.vmax,
                "stddev": hist.stddev,
                "p50": hist.percentile(0.50),
                "p95": hist.percentile(0.95),
                "p99": hist.percentile(0.99),
            }
        out[op] = {
            "wall_s": wall,
            "parallelism": int(op_span.args.get("parallelism",
                                                len(op_tasks)) or 0),
            "shares": {k: v / wall for k, v in sorted(shares.items())},
            "class": f"{dominant}_bound",
            "dominant_share": grouped[dominant] / wall,
            "task_latency_s": latency,
        }
    return out


# -- utilization -------------------------------------------------------------------
def device_utilization(trace: ProfileTrace) -> Dict[str, Dict[str, Any]]:
    """Per-device engine busy time, copy/compute overlap and PCIe rates.

    Two overlap views per device:

    ``copy_compute_overlap_pct``
        |copies ∩ kernels| / copy time — the device-local view (how much
        PCIe traffic hides under kernels on the *same* device).

    ``copy_pipeline_overlap_pct``
        |copies ∩ (kernels ∪ the owning worker's HDFS reads)| / copy time —
        the whole-pipeline view the streaming executor optimizes for.  On
        I/O-bound workloads kernel time is a sliver of copy time, capping
        the device-local metric low even at perfect pipelining; a copy that
        runs while the host is still streaming the input off disk *is*
        overlapped work, and this metric credits it.
    """
    lo, hi = trace.window()
    makespan = max(hi - lo, TICK_S)
    out: Dict[str, Dict[str, Any]] = {}
    by_device: Dict[str, List[PSpan]] = {}
    for s in trace.by_cat("gpu.device"):
        by_device.setdefault(s.process, []).append(s)
    hdfs_by_worker: Dict[str, List[Interval]] = {}
    for s in trace.by_cat("hdfs"):
        hdfs_by_worker.setdefault(s.process, []).append((s.ts, s.end))
    for name in sorted(by_device):
        spans = by_device[name]
        kernel = _union([(s.ts, s.end) for s in spans
                         if _device_cat(s) == "kernel"])
        copies = _union([(s.ts, s.end) for s in spans
                         if _device_cat(s) in ("h2d", "d2h")])
        overlap = _intersect(kernel, copies)
        # The worker that owns this device (process names are
        # "<worker>-gpu<idx>"); its disk activity counts as pipeline work.
        worker = name.rsplit("-gpu", 1)[0]
        pipeline_cover = _union(list(kernel)
                                + hdfs_by_worker.get(worker, []))
        pipeline_overlap = _intersect(copies, pipeline_cover)
        kernel_busy = _length(kernel)
        copy_busy = _length(copies)
        h2d_bytes = sum(int(s.args.get("nbytes", 0)) for s in spans
                        if _device_cat(s) == "h2d")
        d2h_bytes = sum(int(s.args.get("nbytes", 0)) for s in spans
                        if _device_cat(s) == "d2h")
        out[name] = {
            "kernel_busy_s": kernel_busy,
            "kernel_busy_pct": kernel_busy / makespan,
            "copy_busy_s": copy_busy,
            "copy_busy_pct": copy_busy / makespan,
            "copy_compute_overlap_s": _length(overlap),
            "copy_compute_overlap_pct": (_length(overlap) / copy_busy
                                         if copy_busy > 0 else 0.0),
            "copy_pipeline_overlap_s": _length(pipeline_overlap),
            "copy_pipeline_overlap_pct": (
                _length(pipeline_overlap) / copy_busy
                if copy_busy > 0 else 0.0),
            "h2d_bytes": h2d_bytes,
            "d2h_bytes": d2h_bytes,
            "pcie_bytes_per_s": ((h2d_bytes + d2h_bytes) / copy_busy
                                 if copy_busy > 0 else 0.0),
        }
    return out


def worker_occupancy(trace: ProfileTrace) -> Dict[str, Dict[str, Any]]:
    """Per-worker slot-lane busy fraction over the analysis window."""
    lo, hi = trace.window()
    makespan = max(hi - lo, TICK_S)
    lanes: Dict[Tuple[str, str], List[Interval]] = {}
    for s in trace.by_cat("task"):
        if s.thread.startswith("slot"):
            lanes.setdefault((s.process, s.thread), []).append((s.ts, s.end))
    out: Dict[str, Dict[str, Any]] = {}
    for (worker, slot), intervals in sorted(lanes.items()):
        entry = out.setdefault(worker, {"slots": 0, "slot_busy_s": 0.0})
        entry["slots"] += 1
        entry["slot_busy_s"] += _length(_union(intervals))
    for worker, entry in out.items():
        entry["occupancy_pct"] = (entry["slot_busy_s"]
                                  / (entry["slots"] * makespan))
    return out


# -- summary -----------------------------------------------------------------------
def summarize(trace: ProfileTrace,
              source: str = "tracer") -> Dict[str, Any]:
    """The full machine-readable profile summary (see SUMMARY_SCHEMA)."""
    lo, hi = trace.window()
    makespan = hi - lo
    segments = extract_critical_path(trace)
    categories = {cat: 0.0 for cat in CATEGORIES}
    for seg in segments:
        for cat, seconds in seg.categories.items():
            categories[cat] = categories.get(cat, 0.0) + seconds
    operators = classify_operators(trace)
    devices = device_utilization(trace)
    workers = worker_occupancy(trace)
    jobs = [s.name[len("job:"):] for s in trace.by_cat("job")
            if s.name.startswith("job:")]
    total_overlap = sum(d["copy_compute_overlap_s"] for d in devices.values())
    total_pipeline = sum(d["copy_pipeline_overlap_s"]
                         for d in devices.values())
    total_copy = sum(d["copy_busy_s"] for d in devices.values())
    return {
        "schema": SUMMARY_SCHEMA,
        "source": source,
        "jobs": jobs,
        "makespan_s": makespan,
        "clock_tick_s": TICK_S,
        "span_count": len(trace.spans),
        "critical_path": {
            "length_s": sum(seg.dur for seg in segments),
            "categories": categories,
            "segments": [
                {"t0": seg.t0, "t1": seg.t1, "dur_s": seg.dur,
                 "kind": seg.kind, "name": seg.name,
                 "categories": {k: v for k, v in
                                sorted(seg.categories.items())}}
                for seg in segments],
        },
        "operators": operators,
        "devices": devices,
        "workers": workers,
        "totals": {
            "kernel_busy_s": sum(d["kernel_busy_s"]
                                 for d in devices.values()),
            "copy_busy_s": total_copy,
            "copy_compute_overlap_pct": (total_overlap / total_copy
                                         if total_copy > 0 else 0.0),
            "copy_pipeline_overlap_pct": (total_pipeline / total_copy
                                          if total_copy > 0 else 0.0),
            "pcie_bytes": sum(d["h2d_bytes"] + d["d2h_bytes"]
                              for d in devices.values()),
        },
    }


def summarize_tracer(tracer: Any, source: str = "tracer") -> Dict[str, Any]:
    """Profile a live tracer (convenience wrapper)."""
    return summarize(ProfileTrace.from_tracer(tracer), source=source)


def profile_file(path: Union[str, Path]) -> Dict[str, Any]:
    """Profile a file: a Chrome trace, or an already-computed summary."""
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict) and doc.get("schema") == SUMMARY_SCHEMA:
        return doc
    if isinstance(doc, dict) and "traceEvents" in doc:
        return summarize(ProfileTrace.from_chrome(doc), source=str(path))
    raise ValueError(f"{path}: neither a Chrome trace nor a profile summary")


def load_summary(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a baseline: summary JSON, or a trace (profiled on the fly)."""
    return profile_file(path)


# -- summary schema validation ------------------------------------------------------
def validate_profile_summary(doc: Any) -> List[str]:
    """Structural check of a profile summary document; [] when valid."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["summary root must be an object"]
    if doc.get("schema") != SUMMARY_SCHEMA:
        errors.append(f"schema must be {SUMMARY_SCHEMA!r}, "
                      f"got {doc.get('schema')!r}")
    if not isinstance(doc.get("makespan_s"), (int, float)):
        errors.append("makespan_s must be a number")
    cp = doc.get("critical_path")
    if not isinstance(cp, dict):
        errors.append("critical_path must be an object")
    else:
        cats = cp.get("categories")
        if not isinstance(cats, dict):
            errors.append("critical_path.categories must be an object")
        else:
            for cat in CATEGORIES:
                if not isinstance(cats.get(cat), (int, float)):
                    errors.append(f"critical_path.categories.{cat} missing")
        if not isinstance(cp.get("segments"), list):
            errors.append("critical_path.segments must be an array")
        elif isinstance(cats, dict) and \
                isinstance(doc.get("makespan_s"), (int, float)):
            total = sum(v for v in cats.values()
                        if isinstance(v, (int, float)))
            if abs(total - doc["makespan_s"]) > max(
                    1e-6 * max(abs(doc["makespan_s"]), 1.0), 10 * TICK_S):
                errors.append(
                    f"critical-path categories sum {total!r} != "
                    f"makespan {doc['makespan_s']!r}")
    for section in ("operators", "devices", "workers", "totals"):
        if not isinstance(doc.get(section), dict):
            errors.append(f"{section} must be an object")
    if isinstance(doc.get("operators"), dict):
        for op, entry in doc["operators"].items():
            if not isinstance(entry, dict) or \
                    not str(entry.get("class", "")).endswith("_bound"):
                errors.append(f"operators[{op!r}].class must be *_bound")
    return errors


# -- regression gate ---------------------------------------------------------------
@dataclass
class Delta:
    """One compared metric between a current and a baseline summary."""

    metric: str
    base: float
    current: float
    rel_change: float              # signed; positive = metric went up
    threshold: float
    regressed: bool

    def describe(self) -> str:
        arrow = "worse" if self.regressed else "ok"
        return (f"{self.metric}: {self.base:.6g} -> {self.current:.6g} "
                f"({self.rel_change:+.1%}, threshold "
                f"{self.threshold:.0%}) {arrow}")


def default_thresholds() -> Dict[str, float]:
    """Relative thresholds per metric family (override per full name)."""
    return {
        "makespan_s": 0.10,
        "critical_path": 0.25,     # per-category seconds on the path
        "operator_wall": 0.25,     # per-operator wall seconds
        "overlap_pct": 0.20,       # copy/compute overlap may not *drop*
    }


#: Metrics whose *decrease* is a regression (higher is better).
_HIGHER_IS_BETTER = {"overlap_pct"}

#: Below this many seconds a seconds-metric is noise, never a regression.
_MIN_SECONDS = 1e-6


def _threshold_for(metric: str, family: str,
                   thresholds: Dict[str, float]) -> float:
    if metric in thresholds:
        return thresholds[metric]
    return thresholds.get(family, 0.25)


def compare_summaries(current: Dict[str, Any], baseline: Dict[str, Any],
                      thresholds: Optional[Dict[str, float]] = None
                      ) -> List[Delta]:
    """Diff two summaries; a Delta per compared metric, regressions flagged.

    A metric regresses when its relative change exceeds the configured
    threshold in the bad direction (up for times, down for overlap).
    Metrics below the noise floor or absent from either side are skipped.
    """
    thr = default_thresholds()
    thr.update(thresholds or {})
    deltas: List[Delta] = []

    def scalar(metric: str, family: str, base: Any, cur: Any,
               floor: float = _MIN_SECONDS) -> None:
        if not isinstance(base, (int, float)) or \
                not isinstance(cur, (int, float)):
            return
        if max(abs(base), abs(cur)) < floor:
            return
        rel = (cur - base) / max(abs(base), floor)
        t = _threshold_for(metric, family, thr)
        if family in _HIGHER_IS_BETTER:
            regressed = rel < -t
        else:
            regressed = rel > t
        deltas.append(Delta(metric, float(base), float(cur), rel, t,
                            regressed))

    scalar("makespan_s", "makespan_s",
           baseline.get("makespan_s"), current.get("makespan_s"))
    base_cats = (baseline.get("critical_path") or {}).get("categories", {})
    cur_cats = (current.get("critical_path") or {}).get("categories", {})
    for cat in CATEGORIES:
        scalar(f"critical_path.{cat}", "critical_path",
               base_cats.get(cat, 0.0), cur_cats.get(cat, 0.0))
    base_ops = baseline.get("operators") or {}
    cur_ops = current.get("operators") or {}
    for op in sorted(set(base_ops) | set(cur_ops)):
        if op in base_ops and op in cur_ops:
            scalar(f"operator.{op}.wall_s", "operator_wall",
                   base_ops[op].get("wall_s"), cur_ops[op].get("wall_s"))
            continue
        # An operator present in only one summary is a plan change, not a
        # noisy scalar: a new operator — however hot — must not pass the
        # gate unflagged, and a vanished one is worth a line in the report.
        entry = cur_ops.get(op) if op in cur_ops else base_ops.get(op)
        wall = (entry or {}).get("wall_s")
        if not isinstance(wall, (int, float)) or abs(wall) < _MIN_SECONDS:
            continue
        t = _threshold_for(f"operator.{op}.wall_s", "operator_wall", thr)
        if op in cur_ops:
            deltas.append(Delta(f"operator.{op}.wall_s", 0.0, float(wall),
                                math.inf, t, True))
        else:
            deltas.append(Delta(f"operator.{op}.wall_s", float(wall), 0.0,
                                -1.0, t, False))
    base_tot = baseline.get("totals") or {}
    cur_tot = current.get("totals") or {}
    scalar("totals.copy_compute_overlap_pct", "overlap_pct",
           base_tot.get("copy_compute_overlap_pct"),
           cur_tot.get("copy_compute_overlap_pct"), floor=1e-3)
    scalar("totals.copy_pipeline_overlap_pct", "overlap_pct",
           base_tot.get("copy_pipeline_overlap_pct"),
           cur_tot.get("copy_pipeline_overlap_pct"), floor=1e-3)
    return deltas


# -- text rendering ----------------------------------------------------------------
def _pct(x: float) -> str:
    return f"{x:6.1%}"


def render_text(summary: Dict[str, Any]) -> str:
    """Human-readable profile report."""
    lines = [f"profile: makespan {summary['makespan_s']:.3f} s over "
             f"{len(summary.get('jobs', []))} job(s), "
             f"{summary.get('span_count', 0)} spans"]
    cp = summary.get("critical_path", {})
    cats = cp.get("categories", {})
    total = max(sum(cats.values()), TICK_S)
    lines.append(f"critical path ({cp.get('length_s', 0.0):.3f} s, "
                 f"{len(cp.get('segments', []))} segments):")
    for cat in CATEGORIES:
        seconds = cats.get(cat, 0.0)
        if seconds > 0.0:
            lines.append(f"  {cat:<8} {seconds:10.3f} s "
                         f"{_pct(seconds / total)}")
    operators = summary.get("operators", {})
    if operators:
        width = min(max(len(op) for op in operators), 44)
        lines.append("operator bottlenecks:")
        for op in sorted(operators,
                         key=lambda o: -operators[o]["wall_s"]):
            entry = operators[op]
            line = (
                f"  {op[:width]:<{width}} {entry['wall_s']:9.3f} s  "
                f"{entry['class']:<13} "
                f"({_pct(entry['dominant_share']).strip()} dominant)")
            latency = entry.get("task_latency_s") or {}
            if latency:
                line += (f"  p50 {latency['p50']:7.3f} "
                         f"p95 {latency['p95']:7.3f} "
                         f"p99 {latency['p99']:7.3f}")
            lines.append(line)
    devices = summary.get("devices", {})
    if devices:
        lines.append("device utilization "
                     "(busy% of makespan, overlap% of copy time):")
        for name in sorted(devices):
            d = devices[name]
            lines.append(
                f"  {name:<22} kernel {_pct(d['kernel_busy_pct'])}  "
                f"copy {_pct(d['copy_busy_pct'])}  "
                f"overlap {_pct(d['copy_compute_overlap_pct'])}  "
                f"pipeline {_pct(d.get('copy_pipeline_overlap_pct', 0.0))}  "
                f"pcie {d['pcie_bytes_per_s'] / 1e9:6.2f} GB/s")
    workers = summary.get("workers", {})
    if workers:
        lines.append("worker slot occupancy:")
        for name in sorted(workers):
            w = workers[name]
            lines.append(f"  {name:<22} {w['slots']} slots  "
                         f"busy {_pct(w['occupancy_pct'])}")
    return "\n".join(lines)


def render_comparison(deltas: List[Delta]) -> str:
    """Human-readable regression-gate report."""
    if not deltas:
        return "baseline comparison: no comparable metrics"
    lines = ["baseline comparison:"]
    for d in sorted(deltas, key=lambda d: (not d.regressed, d.metric)):
        marker = "REGRESSION" if d.regressed else "ok"
        lines.append(f"  [{marker:<10}] {d.metric:<42} "
                     f"{d.base:12.6g} -> {d.current:12.6g} "
                     f"({d.rel_change:+.1%}, thr {d.threshold:.0%})")
    n = sum(d.regressed for d in deltas)
    lines.append(f"  {n} regression(s) out of {len(deltas)} metrics"
                 if n else
                 f"  all {len(deltas)} metrics within thresholds")
    return "\n".join(lines)
