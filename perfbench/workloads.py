"""The benchmark's three workloads, built on the program's public API.

Each workload splits one run into a set-up (cluster build, input
generation, HDFS load, kernel registration) and a timed run, and knows how
to check the run's output against a reference computed outside both.

* ``pagerank-rows`` - the row data path (iterators, per-row shuffle serde,
  network) dominates host time; the GPU cache fits.  The one configuration
  with a paper reference (Fig. 5b, ~3.5x).
* ``spmv-cache-overflow`` - the matrix exceeds each device's cache region,
  so FIFO eviction thrashes and every iteration re-reads HDFS and
  re-uploads: host time goes to the GPU path, the row path is idle.
* ``wordcount-columnar-faults`` - columnar zero-copy shuffle, telemetry on
  (tracing, monitoring, flight recorder) and a fault schedule with
  recovery; the post-run profile, monitor summary and trace export are
  part of the run, because users of ``repro monitor``/``trace`` pay them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.flink.chaos import ChaosSchedule, FaultKind, values_equal
from repro.obs.export import collect_cluster, write_chrome_trace
from repro.obs.profile import CATEGORIES, summarize_tracer
from repro.workloads import PageRankWorkload, SpMVWorkload, WordCountWorkload

GPUS = ("c2050", "c2050")

#: Critical-path categories per mode (a CPU run has no device time).
CP_CATEGORIES = {"gpu": CATEGORIES,
                 "cpu": ("cpu", "shuffle", "hdfs", "sched")}


@dataclass
class Prepared:
    """Clusters with inputs loaded and kernels registered, one per mode."""

    clusters: Dict[str, GFlinkCluster]
    workloads: Dict[str, Any]
    engine: Any = None


@dataclass
class Outcome:
    """What one run produced."""

    values: Dict[str, Any]
    results: Dict[str, Any]
    clusters: Dict[str, GFlinkCluster]
    engine: Any = None
    #: Critical-path profile summary per mode, when tracing was on.
    profiles: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Host seconds of the post-run telemetry calls.
    post_s: Dict[str, float] = field(default_factory=dict)
    obs_spans: int = 0

    @property
    def sim(self) -> Dict[str, float]:
        """Simulated seconds per mode (``sim_cpu_s``/``sim_gpu_s``)."""
        return {f"sim_{mode}_s": r.total_seconds
                for mode, r in self.results.items()}

    def job_metrics(self) -> List[Any]:
        return [jm for r in self.results.values() for jm in r.job_metrics]

    def cache_counts(self) -> Tuple[int, int, int]:
        """GPU cache (hits, misses, evictions) over every device."""
        stats = [s for cluster in self.clusters.values()
                 for gm in cluster.gpu_managers()
                 for s in gm.gmm.cache_stats().values()]
        return (sum(s.hits for s in stats), sum(s.misses for s in stats),
                sum(s.evictions for s in stats))


class BenchWorkload:
    """One benchmark workload: set-up, run, reference and output check."""

    name = ""
    why = ""
    modes: tuple = ("gpu",)
    n_workers = 10
    #: The workload's own telemetry (tracing, monitoring, flight recorder).
    telemetry = False
    #: Paper speedup at this configuration, when the paper reports one.
    paper_speedup: Optional[float] = None

    def __init__(self, seed: int, out_dir: Path, real: int = 12_000,
                 iterations: int = 10):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.real = real
        self.iterations = iterations

    # -- subclass hooks -----------------------------------------------------
    def make_workload(self, mode: str):
        raise NotImplementedError

    def flink_config(self, tracing: bool) -> FlinkConfig:
        return FlinkConfig(enable_tracing=tracing)

    def reference(self, prepared: Prepared) -> Any:
        """Expected output, computed outside the timed section."""
        return None

    def check(self, outcome: Outcome, reference: Any) -> List[str]:
        """Errors in ``outcome``'s output; [] when correct."""
        return []

    def post_run(self, outcome: Outcome) -> None:
        """Post-run work users pay inside the run (none by default)."""

    # -- shared run logic ---------------------------------------------------
    def setup(self, tracing: bool = False) -> Prepared:
        """Fresh clusters with the input loaded; ``tracing`` forces the
        program's tracer on (for the critical-path profile)."""
        clusters, workloads = {}, {}
        for mode in self.modes:
            config = ClusterConfig(
                n_workers=self.n_workers, cpu=CPUSpec(),
                gpus_per_worker=GPUS,
                flink=self.flink_config(tracing or self.telemetry))
            cluster = GFlinkCluster(config)
            workload = self.make_workload(mode)
            workload.prepare(cluster)
            if mode == "gpu":
                workload.register_kernels(cluster.registry)
            clusters[mode], workloads[mode] = cluster, workload
        return Prepared(clusters, workloads)

    def run(self, prepared: Prepared) -> Outcome:
        values, results = {}, {}
        for mode in self.modes:
            result = prepared.workloads[mode].run(
                GFlinkSession(prepared.clusters[mode]), mode)
            values[mode], results[mode] = result.value, result
        outcome = Outcome(values, results, prepared.clusters,
                          engine=prepared.engine)
        self.post_run(outcome)
        return outcome

    def profile(self, outcome: Outcome) -> Dict[str, Dict[str, Any]]:
        """Critical-path summaries of a run made with tracing on."""
        return {mode: summarize_tracer(cluster.obs.tracer)
                for mode, cluster in outcome.clusters.items()}


class PageRankRows(BenchWorkload):
    name = "pagerank-rows"
    why = ("PageRank 15M pages, row layout, CPU then GPU: the row data path "
           "and network dominate host time; the GPU cache fits")
    modes = ("cpu", "gpu")
    paper_speedup = 3.5  # Fig. 5b, mid-size PageRank

    def make_workload(self, mode: str):
        return PageRankWorkload(nominal_pages=15e6, real_pages=self.real,
                                iterations=self.iterations, seed=self.seed)

    def check(self, outcome: Outcome, reference: Any) -> List[str]:
        cpu = np.asarray(outcome.values["cpu"], float)
        gpu = np.asarray(outcome.values["gpu"], float)
        # Tolerance of the tier-1 PageRank CPU/GPU equivalence test.
        if cpu.shape != gpu.shape or not np.allclose(cpu, gpu, atol=1e-8):
            return ["pagerank: CPU and GPU ranks differ"]
        return []


class SpMVCacheOverflow(BenchWorkload):
    name = "spmv-cache-overflow"
    why = ("SpMV 16 GB on 4 workers, GPU: the matrix overflows the device "
           "cache, FIFO thrashes, host time goes to the GPU path")
    n_workers = 4

    def make_workload(self, mode: str):
        # 16 GB nominal matrix at the CLI's 192 nominal bytes per row.
        return SpMVWorkload(nominal_elements=16e9 / 192.0,
                            real_elements=self.real,
                            iterations=self.iterations, seed=self.seed)

    def reference(self, prepared: Prepared) -> Any:
        """Power iteration over the blocks loaded into HDFS, in float64."""
        cluster = prepared.clusters["gpu"]
        path = prepared.workloads["gpu"].path
        rows = np.concatenate([b.payload for b in cluster.hdfs.locate(path)])
        n = len(rows)
        row_of = np.repeat(np.arange(n), rows["cols"].shape[1])
        cols = rows["cols"].ravel()
        vals = rows["vals"].astype(np.float64).ravel()
        x = np.full(n, 1.0 / n)
        for _ in range(self.iterations):
            y = np.bincount(row_of, weights=vals * x[cols], minlength=n)
            x = y / max(np.linalg.norm(y), 1e-30)
        return x

    def check(self, outcome: Outcome, reference: Any) -> List[str]:
        got = np.asarray(outcome.values["gpu"], float)
        # Tolerance of the tier-1 SpMV dense power-iteration test.
        if got.shape != reference.shape or not np.allclose(
                got, reference, atol=1e-4):
            return ["spmv: result differs from the power-iteration reference"]
        return []


class WordCountColumnarFaults(BenchWorkload):
    name = "wordcount-columnar-faults"
    why = ("WordCount 40 GB vectorized, GPU, telemetry on, worker kill and "
           "GPU ECC fault: columnar shuffle, observability and recovery")
    telemetry = True
    #: Faults, in simulated seconds after the job starts (set-up's HDFS load
    #: advances the clock first).  The fault-free job takes ~12 s, most of
    #: it reading HDFS: the ECC fault and then the kill land mid-read.
    KILL = ("worker1", 4.0)
    ECC = ("worker0", 0, 2.0)
    BACKOFF_S = 0.05  # the CLI's ``--backoff`` default

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.iterations = 1  # batch: one pass

    def make_workload(self, mode: str):
        return WordCountWorkload(nominal_elements=4e9,
                                 real_elements=self.real, seed=self.seed,
                                 vectorized=True)

    def schedule(self, start: float) -> ChaosSchedule:
        worker, at = self.KILL
        ecc_worker, device, ecc_at = self.ECC
        return ChaosSchedule().kill_worker(worker, at=start + at).fail_gpu(
            ecc_worker, device, at=start + ecc_at, kind=FaultKind.GPU_ECC)

    def flink_config(self, tracing: bool) -> FlinkConfig:
        return FlinkConfig(
            enable_tracing=tracing, enable_monitoring=self.telemetry,
            enable_flight_recorder=self.telemetry,
            flight_recorder_dir=str(self.out_dir / "postmortems"),
            retry_backoff_base_s=self.BACKOFF_S)

    def setup(self, tracing: bool = False) -> Prepared:
        prepared = super().setup(tracing)
        cluster = prepared.clusters["gpu"]
        prepared.engine = cluster.install_chaos(self.schedule(cluster.env.now))
        return prepared

    def post_run(self, outcome: Outcome) -> None:
        cluster = outcome.clusters["gpu"]
        obs = cluster.obs
        collect_cluster(obs.registry, cluster)
        obs.monitor.finalize()
        obs.monitor.summary()
        t0 = time.perf_counter()
        outcome.profiles["gpu"] = summarize_tracer(obs.tracer)
        t1 = time.perf_counter()
        write_chrome_trace(obs.tracer, self.out_dir / "trace.json")
        t2 = time.perf_counter()
        outcome.post_s = {"summarize_s": t1 - t0, "export_s": t2 - t1}
        outcome.obs_spans = len(obs.tracer.spans())

    def reference(self, prepared: Prepared) -> Any:
        """The same input counted by a fault-free, telemetry-off run."""
        cluster = GFlinkCluster(ClusterConfig(
            n_workers=self.n_workers, cpu=CPUSpec(), gpus_per_worker=GPUS,
            flink=FlinkConfig(retry_backoff_base_s=self.BACKOFF_S)))
        return self.make_workload("gpu").run(GFlinkSession(cluster),
                                             "gpu").value

    def check(self, outcome: Outcome, reference: Any) -> List[str]:
        errors = []
        if not values_equal(reference, outcome.values["gpu"]):
            errors.append("wordcount: faulted result differs from the "
                          "fault-free run")
        applied = outcome.engine.summary()["events_applied"]
        if applied != len(outcome.engine.schedule):
            errors.append(f"wordcount: {applied} of "
                          f"{len(outcome.engine.schedule)} faults applied")
        return errors


WORKLOADS = {cls.name: cls for cls in
             (PageRankRows, SpMVCacheOverflow, WordCountColumnarFaults)}
