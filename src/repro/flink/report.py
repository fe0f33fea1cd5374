"""Human-readable reports from job metrics.

Two views of a :class:`~repro.flink.jobmanager.JobMetrics`:

* :func:`timeline` — a text Gantt of the operator spans (which phase ran
  when, and how parallel it was);
* :func:`breakdown` — the Eq. 1 decomposition (§6.3): per-phase times plus
  the fixed submit/schedule/IO overheads, with the overhead fraction that
  drives Observation 3.
"""

from __future__ import annotations

from typing import List

from repro.flink.jobmanager import JobMetrics


def timeline(metrics: JobMetrics, width: int = 60) -> str:
    """Render the job's operator spans as a text Gantt chart."""
    spans = sorted(metrics.operator_spans.values(), key=lambda s: s.start)
    if not spans:
        return f"{metrics.job_name}: no operator spans recorded"
    t0 = metrics.started_at
    total = max(metrics.makespan, 1e-12)
    label_w = max(len(s.name) for s in spans)
    lines = [f"{metrics.job_name}: {metrics.makespan:.3f} s "
             f"({metrics.subtasks} subtasks)"]
    for span in spans:
        begin = int((span.start - t0) / total * width)
        end = max(int((span.end - t0) / total * width), begin + 1)
        bar = " " * begin + "#" * (end - begin)
        lines.append(f"  {span.name:<{label_w}} |{bar:<{width}}| "
                     f"{span.seconds:8.3f} s  x{span.parallelism}")
    return "\n".join(lines)


def breakdown(metrics: JobMetrics) -> str:
    """Eq. 1's terms for one job, plus derived fractions."""
    io_bytes = metrics.hdfs_read_bytes + metrics.hdfs_write_bytes
    lines = [
        f"{metrics.job_name}: T_total = {metrics.makespan:.3f} s",
        f"  T_submit            {metrics.submit_s:10.3f} s",
        f"  T_schedule          {metrics.schedule_s:10.3f} s",
        f"  compute (cpu-sec)   {metrics.compute_s:10.3f} s",
        f"  gpu kernels         {metrics.gpu_kernel_s:10.3f} s",
    ]
    # Per-kernel stage timings: fused GPU chains report each member kernel
    # separately, so chained launches stay visible in the decomposition.
    for kernel_name in sorted(metrics.gpu_stage_seconds):
        seconds = metrics.gpu_stage_seconds[kernel_name]
        lines.append(f"    gpu stage {kernel_name:<16} {seconds:8.3f} s")
    lines += [
        f"  PCIe traffic        {metrics.pcie_bytes / 1e6:10.1f} MB",
        f"  shuffle traffic     {metrics.shuffle_bytes / 1e6:10.1f} MB",
        f"  HDFS read+write     {io_bytes / 1e6:10.1f} MB",
        f"  task retries        {metrics.retries:10d}",
    ]
    if metrics.shuffle_zero_copy_bytes:
        lines.append(f"  shuffle zero-copy   "
                     f"{metrics.shuffle_zero_copy_bytes / 1e6:10.1f} MB")
    if metrics.shuffle_spill_bytes:
        lines.append(f"  shuffle spilled     "
                     f"{metrics.shuffle_spill_bytes / 1e6:10.1f} MB")
    if metrics.vectorized_blocks:
        lines.append(f"  vectorized blocks   "
                     f"{metrics.vectorized_blocks:10d}")
    if metrics.pipeline_max_queue_depth or \
            metrics.pipeline_backpressure_stalls or \
            metrics.pipeline_h2d_starved:
        lines += [
            f"  pipeline max queue  "
            f"{metrics.pipeline_max_queue_depth:10d} blocks",
            f"  backpressure stalls "
            f"{metrics.pipeline_backpressure_stalls:10d} "
            f"({metrics.pipeline_backpressure_s:.3f} s)",
            f"  H2D starvation      "
            f"{metrics.pipeline_h2d_starved:10d} events",
        ]
    if metrics.makespan > 0:
        # schedule_s sums over subtasks that ran in parallel; the wall-clock
        # overhead is the submit plus one task's worth of scheduling.
        per_task_schedule = metrics.schedule_s / max(metrics.subtasks, 1)
        fixed_wall = metrics.submit_s + per_task_schedule
        fraction = min(fixed_wall / metrics.makespan, 1.0)
        lines.append(f"  fixed-overhead fraction "
                     f"{fraction:8.1%}  (Observation 3)")
    return "\n".join(lines)


def gpu_report(cluster) -> str:
    """Per-device GPU utilization: kernels, PCIe traffic, cache hit rates.

    Accepts a :class:`repro.core.runtime.GFlinkCluster` (workers without a
    GPUManager are skipped).
    """
    lines = [f"{'device':24s} {'kernels':>8} {'kernel s':>9} "
             f"{'H2D MB':>9} {'D2H MB':>9} {'cache hit%':>11}"]
    managers = getattr(cluster, "gpu_managers", lambda: [])()
    if not managers:
        return "no GPUs in this cluster"
    for gm in managers:
        cache = gm.gmm.cache_stats()
        for device in gm.devices:
            stats = cache.get(device.index)
            hit_rate = stats.hit_rate if stats is not None else None
            rate = f"{hit_rate:10.1%}" if hit_rate is not None else \
                "       n/a"
            lines.append(
                f"{device.name:24s} {device.kernels_launched:>8d} "
                f"{device.kernel_seconds:>9.3f} "
                f"{device.h2d_bytes / 1e6:>9.1f} "
                f"{device.d2h_bytes / 1e6:>9.1f} {rate:>11}")
    return "\n".join(lines)


def session_summary(history: List[JobMetrics]) -> str:
    """One line per job of a session, plus totals."""
    if not history:
        return "no jobs run"
    lines = [f"{'job':30s} {'seconds':>9} {'subtasks':>9} "
             f"{'shuffle MB':>11} {'retries':>8}"]
    for m in history:
        lines.append(f"{m.job_name:30s} {m.makespan:>9.3f} "
                     f"{m.subtasks:>9d} {m.shuffle_bytes / 1e6:>11.2f} "
                     f"{m.retries:>8d}")
    total = sum(m.makespan for m in history)
    lines.append(f"{'TOTAL (' + str(len(history)) + ' jobs)':30s} "
                 f"{total:>9.3f}")
    return "\n".join(lines)


def metrics_summary(registry) -> str:
    """Flat text rendering of a :class:`repro.obs.MetricsRegistry`."""
    return registry.render()


def profile_summary(cluster) -> dict:
    """The GProfiler summary for a traced cluster (machine-readable).

    Runs critical-path extraction, bottleneck classification and
    utilization analysis (:mod:`repro.obs.profile`) over the cluster's
    tracer.  With tracing disabled the trace is empty and the summary is
    all zeros — call sites need no enable check.
    """
    from repro.obs.profile import summarize_tracer
    return summarize_tracer(cluster.obs.tracer)


def profile_report(cluster) -> str:
    """Text rendering of :func:`profile_summary` for the same cluster."""
    from repro.obs.profile import render_text
    return render_text(profile_summary(cluster))


#: Counters surfaced by :func:`resilience_report` (name, display label).
_RESILIENCE_COUNTERS = (
    ("chaos.events", "chaos events applied"),
    ("chaos.skipped", "chaos events skipped"),
    ("worker.failures", "worker failures"),
    ("worker.declared_dead", "deaths declared"),
    ("device.blacklisted", "devices blacklisted"),
    ("task.retries", "task retries"),
    ("recovery.recomputed_partitions", "partitions recomputed"),
    ("fallback.cpu_tasks", "CPU-fallback tasks"),
    ("churn.joins", "workers joined"),
    ("churn.drains", "workers drained"),
    ("churn.leaves", "workers left"),
    ("rebalance.partitions", "partitions migrated"),
)


def resilience_report(engine, result, baseline=None, registry=None) -> str:
    """Text summary of a chaos run: faults, detection, recovery, overhead.

    ``engine`` is the run's :class:`~repro.flink.chaos.ChaosEngine`,
    ``result`` (and the optional fault-free ``baseline``) are
    :class:`~repro.workloads.base.WorkloadResult` s, and ``registry`` is the
    chaos cluster's metrics registry (for the failure-domain counters).
    """
    summary = engine.summary()
    lines = ["resilience report",
             f"  faults applied        {summary['events_applied']:>8d}"]
    for kind in sorted(summary["by_kind"]):
        lines.append(f"    {kind:<20} {summary['by_kind'][kind]:>8d}")
    if summary["workers_killed"]:
        lines.append(f"  workers killed        "
                     f"{', '.join(summary['workers_killed'])}")
    for name in sorted(summary["detection_latency_s"]):
        lines.append(f"  detection latency     {name}: "
                     f"{summary['detection_latency_s'][name]:.2f} s")
    recovery = summary.get("recovery_latency_s") or {}
    if recovery.get("count"):
        lines.append(
            f"  recovery latency      p50 {recovery['p50']:.2f} s   "
            f"p95 {recovery['p95']:.2f} s   p99 {recovery['p99']:.2f} s   "
            f"max {recovery['max']:.2f} s "
            f"({recovery['count']:.0f} events)")
    retries = sum(m.retries for m in result.job_metrics)
    recovered = sum(m.recovered_partitions for m in result.job_metrics)
    fallback = sum(m.fallback_tasks for m in result.job_metrics)
    lines += [f"  task retries          {retries:>8d}",
              f"  partitions recovered  {recovered:>8d}",
              f"  CPU-fallback tasks    {fallback:>8d}"]
    if baseline is not None and baseline.total_seconds > 0:
        overhead = result.total_seconds / baseline.total_seconds - 1.0
        lines.append(f"  makespan              {result.total_seconds:8.3f} s "
                     f"(fault-free {baseline.total_seconds:.3f} s, "
                     f"overhead {overhead:+.1%})")
    else:
        lines.append(f"  makespan              "
                     f"{result.total_seconds:8.3f} s")
    if registry is not None:
        lines.append("  counters:")
        for name, label in _RESILIENCE_COUNTERS:
            total = registry.sum_values(name)
            if total:
                lines.append(f"    {label:<22} {total:>8.0f}")
    return "\n".join(lines)
