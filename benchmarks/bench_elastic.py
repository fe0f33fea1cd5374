"""Elastic-membership benchmark: churn bit-identity, recovery overhead and
time-to-steady-state.

Two experiments, consolidated into ``BENCH_PR9.json``:

* **Churn matrix** — WordCount, KMeans and PageRank each run under a
  seeded membership schedule (two joins, one graceful drain, one abrupt
  leave, all mid-job) across staged/pipelined x cpu/gpu.  Every cell must
  produce results bit-identical to the static-membership run: elasticity
  changes placement and timing only, never the answer.
* **Per-event recovery** — the same runs report, per membership event, the
  time back to steady state (recovery latency from the cluster's
  recovery-action log) plus the p50/p95/p99 across events and the makespan
  overhead vs the static run.
"""

from pathlib import Path

from conftest import run_once
from harness import record_bench
from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.chaos import ChurnSchedule, values_equal
from repro.workloads import KMeansWorkload, PageRankWorkload, \
    WordCountWorkload

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR9.json"

N_WORKERS = 3
WORKLOADS = {
    "wordcount": lambda: WordCountWorkload(real_elements=20_000),
    "kmeans": lambda: KMeansWorkload(real_elements=6_000, iterations=3),
    "pagerank": lambda: PageRankWorkload(real_pages=1_200, iterations=3),
}


def _config(executor: str) -> ClusterConfig:
    return ClusterConfig(n_workers=N_WORKERS, cpu=CPUSpec(cores=2),
                         gpus_per_worker=("c2050",),
                         flink=FlinkConfig(executor=executor,
                                           retry_backoff_base_s=0.05))


def _churn_schedule(span_s: float) -> ChurnSchedule:
    """Two joins, one drain, one abrupt leave, all inside the job window."""
    return (ChurnSchedule()
            .join_worker(at=span_s * 0.10)
            .join_worker(at=span_s * 0.25)
            .drain_worker("worker2", at=span_s * 0.45)
            .leave_worker("elastic0", at=span_s * 0.65))


def _run_cell(name: str, executor: str, mode: str) -> dict:
    static = WORKLOADS[name]().run(
        GFlinkSession(GFlinkCluster(_config(executor))), mode)
    span = static.job_metrics[0].started_at + static.total_seconds
    cluster = GFlinkCluster(_config(executor))
    engine = cluster.install_chaos(_churn_schedule(span))
    result = WORKLOADS[name]().run(GFlinkSession(cluster), mode)
    summary = engine.summary()
    return {
        "workload": name, "executor": executor, "mode": mode,
        "identical": values_equal(static.value, result.value),
        "events_applied": summary["events_applied"],
        "by_kind": summary["by_kind"],
        "static_s": round(static.total_seconds, 4),
        "churn_s": round(result.total_seconds, 4),
        "overhead": round(
            result.total_seconds / static.total_seconds - 1.0, 4),
        "recovery_latency_s": {
            k: round(v, 4)
            for k, v in summary["recovery_latency_s"].items()},
        "per_event": [
            {"kind": e["kind"], "worker": e["worker"],
             "at": round(e["at"], 2),
             "time_to_steady_s": round(e["recovery_latency_s"], 4)}
            for e in summary["per_event"]],
    }


def test_churn_bit_identity_matrix(benchmark):
    def measure():
        return [_run_cell(name, executor, mode)
                for name in sorted(WORKLOADS)
                for executor in ("staged", "pipelined")
                for mode in ("cpu", "gpu")]

    cells = run_once(benchmark, measure)

    print("\n== Elastic churn: 2 joins + 1 drain + 1 leave mid-job ==")
    print(f"{'workload':>9} {'executor':>9} {'mode':>4} {'same':>5} "
          f"{'static':>9} {'churn':>9} {'overhead':>9} "
          f"{'recov p95':>9}")
    for c in cells:
        p95 = c["recovery_latency_s"].get("p95", 0.0)
        print(f"{c['workload']:>9} {c['executor']:>9} {c['mode']:>4} "
              f"{'yes' if c['identical'] else 'NO':>5} "
              f"{c['static_s']:>8.3f}s {c['churn_s']:>8.3f}s "
              f"{c['overhead']:>+8.1%} {p95:>8.3f}s")

    summary = {f"{c['workload']}-{c['executor']}-{c['mode']}": c
               for c in cells}
    benchmark.extra_info["table"] = summary
    record_bench("elastic_churn_matrix", summary, path=RESULTS_PATH)
    print(f"consolidated results written to {RESULTS_PATH.name}")

    for c in cells:
        # Bit-identical results in every cell, with all 4 events applied.
        assert c["identical"], c
        assert c["events_applied"] == 4, c
        # Per-event recovery is reported for every membership event.
        assert len(c["per_event"]) == 4, c
