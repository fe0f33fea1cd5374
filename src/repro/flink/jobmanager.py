"""JobManager: compiles plans, schedules subtasks, supervises execution.

One JobManager runs on the master ("the coordinator of the GFlink system",
paper §3.3).  For each job it:

1. charges the job-submission overhead (Eq. 1's ``T_submit``),
2. compiles the logical plan into an :class:`~repro.flink.graph.ExecutionGraph`,
3. walks operators in dependency order, skipping any already materialized
   (persisted datasets from earlier jobs — the in-memory iteration path),
4. runs the data exchange for each input edge, then the operator's subtasks
   in task slots with per-task scheduling/deploy overhead and retry-on-failure,
5. extracts sink results and evicts non-persisted intermediates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set, TYPE_CHECKING

from repro.common.errors import JobExecutionError
from repro.common.simclock import Environment, Event, InterruptError
from repro.flink.chaos import backoff_delay
from repro.flink.fault import FailureInjector, TaskFailure
from repro.flink.graph import ExecutionGraph, ExecutionJobVertex, \
    ExecutionVertex
from repro.flink.partition import Partition, split_evenly
from repro.flink.plan import (
    CollectionSource,
    CollectSink,
    CountSink,
    HdfsSink,
    HdfsSource,
    Operator,
)
from repro.flink.scheduler import Scheduler
from repro.flink.shuffle import Exchange

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flink.runtime import Cluster


@dataclass
class OperatorSpan:
    """Wall-clock span of one operator's subtask wave."""

    name: str
    parallelism: int
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class JobMetrics:
    """Accounting for one job execution (drives Eq. 1–4 style analysis)."""

    job_name: str
    started_at: float = 0.0
    finished_at: float = 0.0
    submit_s: float = 0.0
    schedule_s: float = 0.0
    compute_s: float = 0.0          # summed across subtasks (CPU-seconds)
    gpu_kernel_s: float = 0.0       # summed kernel time (GFlink operators)
    #: Kernel seconds per kernel name — fused chains report every stage
    #: separately here (repro.flink.report.breakdown prints them).
    gpu_stage_seconds: Dict[str, float] = field(default_factory=dict)
    pcie_bytes: float = 0.0         # H2D+D2H traffic (GFlink operators)
    shuffle_bytes: float = 0.0
    #: Exchange bytes that took the columnar zero-copy path (no per-row
    #: serde; counted regardless of locality) and bytes spilled through
    #: HDFS because a destination payload exceeded the spill threshold.
    shuffle_zero_copy_bytes: float = 0.0
    shuffle_spill_bytes: float = 0.0
    #: Blocks charged at the vectorized (SIMD block) CPU rate.
    vectorized_blocks: int = 0
    hdfs_read_bytes: float = 0.0
    hdfs_write_bytes: float = 0.0
    retries: int = 0
    subtasks: int = 0
    #: Partitions recomputed by lineage recovery after a worker loss.
    recovered_partitions: int = 0
    #: GPU subtasks that degraded to CPU execution (all devices blacklisted).
    fallback_tasks: int = 0
    #: Streaming-executor counters (zero under the staged executor): the
    #: deepest block-queue occupancy seen, producer stalls on full queues
    #: (count and stalled seconds; the HDFS reader's read-ahead waits
    #: included), and H2D copies that waited for host bytes to stream in
    #: (starvation, never counted as backpressure).  Surfaced by
    #: repro.flink.report.breakdown.
    pipeline_max_queue_depth: int = 0
    pipeline_backpressure_stalls: int = 0
    pipeline_backpressure_s: float = 0.0
    pipeline_h2d_starved: int = 0
    operator_spans: Dict[int, OperatorSpan] = field(default_factory=dict)
    #: Operators materialized by THIS job (cleanup is per-job so concurrent
    #: applications on one cluster do not evict each other's intermediates).
    materialized_uids: Set[int] = field(default_factory=set)

    @property
    def makespan(self) -> float:
        """Simulated wall time of the whole job."""
        return self.finished_at - self.started_at

    def span_of(self, name: str) -> Optional[OperatorSpan]:
        """First operator span with the given name (convenience for tests)."""
        for span in self.operator_spans.values():
            if span.name == name:
                return span
        return None


class TaskContext:
    """Everything a subtask needs at run time.

    GPU operators reach their worker's GPUManager via ``worker.gpumanager``;
    CPU operators use :meth:`charge_compute`, which implements the
    one-element-at-a-time iterator cost model.
    """

    def __init__(self, cluster: "Cluster", vertex: ExecutionVertex,
                 metrics: JobMetrics, n_subtasks: int,
                 preassigned_partition: Optional[Partition] = None,
                 in_stream=None, in_slot: Optional[int] = None,
                 out_stream=None):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.worker = cluster.workers[vertex.worker]
        self.master_name = cluster.master_name
        self.config = cluster.config
        self.network = cluster.network
        self.hdfs = cluster.hdfs
        self.serializer = cluster.serializer
        self.metrics = metrics
        self.subtask_index = vertex.subtask_index
        self.n_subtasks = n_subtasks
        self.assigned_blocks = vertex.assigned_blocks
        self.preassigned_partition = preassigned_partition
        self.op_name = vertex.op.name
        # Pipelined executor wiring (repro.flink.pipeline.BlockStream):
        # ``in_stream`` carries the input partition's block availability
        # (``in_slot`` is this consumer's subscriber cursor), ``out_stream``
        # is where this subtask publishes its own blocks.  All None under
        # the staged executor.  Per-attempt: a retry gets a fresh context,
        # so its charges replay from the start (streams are idempotent).
        self.in_stream = in_stream
        self.in_slot = in_slot
        self.out_stream = out_stream
        self._stream_consumed = False

    def stream_reserve(self, stream, block_index: int
                       ) -> Generator[Event, None, None]:
        """Producer-side credit wait on a bounded block stream.

        Records a backpressure stall span on this worker's "pipeline" lane
        (plus registry counters) whenever the queue is actually full.
        """
        evt = stream.reserve(block_index)
        if evt.triggered:
            yield evt
            return
        stream.stall_count += 1
        self.metrics.pipeline_backpressure_stalls += 1
        obs = self.cluster.obs
        obs.registry.counter("pipeline.backpressure.stalls",
                             op=self.op_name).inc()
        tracer = obs.tracer
        t0 = self.env.now
        with tracer.span("backpressure", "pipeline",
                         tracer.track(self.worker.name, "pipeline"),
                         op=self.op_name, subtask=self.subtask_index,
                         block=block_index):
            yield evt
        stalled = self.env.now - t0
        stream.stall_seconds += stalled
        self.metrics.pipeline_backpressure_s += stalled
        obs.monitor.count("pipeline.backpressure.stall_s", stalled,
                          op=self.op_name)

    def charge_compute(self, nominal_elements: float,
                       flops_per_element: float,
                       element_overhead_s: Optional[float] = None
                       ) -> Generator[Event, None, None]:
        """Charge CPU time for processing ``nominal_elements`` elements.

        ``time = n * (iterator_overhead + flops / per-core-throughput)`` —
        the iterator model of §3.1: each element pays a virtual call before
        its arithmetic.  ``element_overhead_s`` overrides the engine default
        for object-heavy UDFs (see :class:`repro.flink.plan.OpCost`).

        Under the pipelined executor the *first* charge of a streaming
        consumer is interleaved with upstream block arrivals: the per-block
        share of the total waits for that block to be published, then (if
        this operator relays a stream) republishes it downstream.  The cost
        model is linear, so the interleaved charges sum to exactly the
        staged total; only the clock shape differs.
        """
        overhead = (self.config.flink.element_overhead_s
                    if element_overhead_s is None else element_overhead_s)
        per_element = (overhead
                       + flops_per_element / self.config.cpu.flops_per_core)
        yield from self._charge_linear(nominal_elements * per_element)

    def charge_block_compute(self, nominal_elements: float,
                             flops_per_element: float,
                             nominal_nbytes: float
                             ) -> Generator[Event, None, None]:
        """Charge CPU time for a *vectorized block* operator.

        ``time = n_blocks * block_overhead + n * flops / simd-throughput``:
        one dispatch per pipeline-sized block instead of a virtual call per
        element, with arithmetic at the SIMD rate
        (:attr:`repro.flink.config.CPUSpec.simd_flops_per_core`).  Used for
        UDFs marked :func:`repro.flink.iterators.vectorized`; functional
        results are unchanged — only the charge model differs.
        """
        flink = self.config.flink
        n_blocks = max(1, math.ceil(nominal_nbytes
                                    / flink.pipeline_block_nbytes))
        seconds = (n_blocks * flink.block_overhead_s
                   + nominal_elements * flops_per_element
                   / self.config.cpu.simd_flops_per_core)
        self.metrics.vectorized_blocks += n_blocks
        self.cluster.obs.registry.counter(
            "cpu.vectorized.blocks", op=self.op_name).inc(n_blocks)
        yield from self._charge_linear(seconds)

    def _charge_linear(self, seconds: float
                       ) -> Generator[Event, None, None]:
        """Charge ``seconds`` of CPU time, streaming-aware (see above)."""
        self.metrics.compute_s += seconds
        stream = self.in_stream
        if (stream is not None and not self._stream_consumed
                and stream.n_blocks > 0 and stream.total_nbytes > 0):
            self._stream_consumed = True
            out = self.out_stream
            charged = 0.0
            for k in range(stream.n_blocks):
                if out is not None:
                    yield from self.stream_reserve(out, k)
                yield stream.when_blocks(k + 1)
                # Last block absorbs rounding so the sum is exact.
                target = seconds if k == stream.n_blocks - 1 else (
                    seconds * stream.cum_nbytes(k + 1) / stream.total_nbytes)
                if target > charged:
                    yield self.env.timeout(target - charged)
                    charged = target
                stream.ack(self.in_slot, k + 1)
                if out is not None:
                    out.publish(k)
                # Drive the monitor's lazy window clock from the hottest
                # streaming loop (no-op when monitoring is off).
                self.cluster.obs.monitor.tick()
            if out is not None:
                out.close()
            return
        yield self.env.timeout(seconds)

    def hdfs_append(self, path: str, payload: Any,
                    nbytes: int) -> Generator[Event, None, None]:
        """Append one block to ``path`` from this subtask's worker."""
        yield from self.hdfs.append_block(path, payload, nbytes,
                                          writer_node=self.worker.name)


class JobManager:
    """Coordinates job execution on the cluster master."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.env = cluster.env
        self.config = cluster.config
        self.jobs_run = 0

    # -- main entry point ------------------------------------------------------
    def run_job(self, sinks: List[Operator], job_name: str,
                failure_injector: Optional[FailureInjector] = None
                ) -> Generator[Event, None, JobMetrics]:
        """Simulation process executing one job; returns its metrics.

        Sink outputs are left in ``cluster.materialized`` for the session to
        extract before cleanup (see :meth:`cleanup`).
        """
        metrics = JobMetrics(job_name=job_name, started_at=self.env.now)
        hdfs_read0 = self.cluster.hdfs.total_bytes_read()
        hdfs_write0 = self.cluster.hdfs.total_bytes_written()
        obs = self.cluster.obs
        obs.monitor.tick()
        tracer = obs.tracer
        jm_track = tracer.track(self.cluster.master_name, "jobmanager")

        with tracer.span(f"job:{job_name}", "job", jm_track, job=job_name):
            with tracer.span("job.submit", "job", jm_track, job=job_name):
                yield self.env.timeout(self.config.flink.job_submit_s)
            metrics.submit_s = self.config.flink.job_submit_s

            flink = self.config.flink
            if flink.enable_chaining or flink.enable_gpu_chaining:
                from repro.flink.optimizer import apply_chaining
                sinks = apply_chaining(sinks, cpu=flink.enable_chaining,
                                       gpu=flink.enable_gpu_chaining)
            graph = ExecutionGraph(sinks, self.cluster.default_parallelism)
            # Live membership, not the static config list: workers that
            # join mid-job become placement candidates immediately, drained
            # and departed ones stop being considered.
            scheduler = Scheduler(self.cluster.member_names, tracer=tracer,
                                  health=self.cluster.worker_is_schedulable,
                                  monitor=obs.monitor)

            if flink.executor == "pipelined":
                from repro.flink.pipeline import PipelinedExecutor
                executor = PipelinedExecutor(self, graph, scheduler,
                                             metrics, failure_injector)
                yield from executor.run()
            else:
                for op in graph.order:
                    if op.uid in self.cluster.materialized:
                        # Persisted from an earlier job — but a worker loss
                        # may have taken some of its partitions down with
                        # it; lineage recovery recomputes exactly those.
                        yield from self._recover_dataset(
                            op, graph, scheduler, metrics, failure_injector)
                        continue
                    yield from self._run_operator(op, graph, scheduler,
                                                  metrics, failure_injector)
                    metrics.materialized_uids.add(op.uid)

            metrics.finished_at = self.env.now
        metrics.hdfs_read_bytes = (self.cluster.hdfs.total_bytes_read()
                                   - hdfs_read0)
        metrics.hdfs_write_bytes = (self.cluster.hdfs.total_bytes_written()
                                    - hdfs_write0)
        self.jobs_run += 1
        reg = obs.registry
        reg.counter("jobs.completed").inc()
        reg.counter("job.subtasks", job=job_name).inc(metrics.subtasks)
        if metrics.shuffle_bytes:
            reg.counter("shuffle.bytes", job=job_name).inc(
                metrics.shuffle_bytes)
        if metrics.shuffle_zero_copy_bytes:
            reg.counter("shuffle.zero_copy.bytes", job=job_name).inc(
                metrics.shuffle_zero_copy_bytes)
        if metrics.shuffle_spill_bytes:
            reg.counter("shuffle.spill.bytes", job=job_name).inc(
                metrics.shuffle_spill_bytes)
        reg.histogram("job.makespan_s").observe(metrics.makespan)
        obs.monitor.job_completed(job_name, metrics.makespan)
        return metrics

    # -- per-operator execution ----------------------------------------------------
    def _run_operator(self, op: Operator, graph: ExecutionGraph,
                      scheduler: Scheduler, metrics: JobMetrics,
                      injector: Optional[FailureInjector],
                      only: Optional[Set[int]] = None
                      ) -> Generator[Event, None, None]:
        """Run (or partially re-run) one operator's subtask wave.

        When ``only`` is given this is a lineage-recovery pass: a *fresh*
        job vertex is scheduled at the dataset's original parallelism, the
        exchanges ship data only to the lost consumer indices, and only
        those subtasks execute; their outputs replace the lost partitions
        in ``cluster.materialized``.
        """
        recovering = only is not None
        if recovering:
            # A fresh vertex: graph vertices accumulate state (assigned
            # blocks, attempts) that must not double up across recoveries,
            # and the lost dataset's parallelism may differ from this job's.
            jv = ExecutionJobVertex(op, len(self.cluster.materialized[op.uid]))
            jv.expand()
        else:
            jv = graph.job_vertex(op)
        preassigned: List[Optional[Partition]] = [None] * jv.parallelism
        per_subtask_inputs: List[List[Partition]] = [
            [] for _ in range(jv.parallelism)]
        tracer = self.cluster.obs.tracer
        jm_track = tracer.track(self.cluster.master_name, "jobmanager")
        span_name = (f"recover:{op.name}" if recovering else f"op:{op.name}")
        span_cat = "recovery" if recovering else "operator"

        with tracer.span(span_name, span_cat, jm_track, op=op.name,
                         parallelism=jv.parallelism):
            if isinstance(op, HdfsSource):
                scheduler.schedule_source(jv, self.cluster.hdfs)
            elif isinstance(op, CollectionSource):
                parts = split_evenly(op.elements, jv.parallelism,
                                     op.element_nbytes, op.scale)
                scheduler.schedule_collection_source(jv, parts)
                preassigned = list(parts)
            else:
                if not recovering:
                    # Inputs materialized earlier (this job or a previous
                    # one) may have lost partitions to a worker death —
                    # recompute exactly those before consuming them.
                    for inp in op.inputs:
                        yield from self._recover_dataset(
                            inp, graph, scheduler, metrics, injector)
                producer_parts = [self.cluster.materialized[inp.uid]
                                  for inp in op.inputs]
                scheduler.schedule_consumer(jv, graph, producer_parts)
                consumer_workers = [v.worker for v in jv.subtasks]
                ex_track = tracer.track(self.cluster.master_name, "exchange")
                for k, (inp, strat) in enumerate(zip(op.inputs,
                                                     op.strategies)):
                    exchange = Exchange(
                        self.env, self.cluster.network,
                        self.cluster.serializer, strat, producer_parts[k],
                        jv.parallelism, consumer_workers,
                        key_fn=op.key_fn_for_input(k),
                        combiner=op.combiner_for_input(k),
                        only_consumers=only,
                        hdfs=self.cluster.hdfs,
                        flink=self.config.flink)
                    with tracer.span(f"exchange:{op.name}", "shuffle",
                                     ex_track, op=op.name, input=k,
                                     strategy=strat.name) as sp:
                        result = yield self.env.process(
                            exchange.run(), name=f"exchange-{op.name}-{k}")
                        sp.set(bytes=result.bytes_shuffled,
                               zero_copy=result.bytes_zero_copy)
                    metrics.shuffle_bytes += result.bytes_shuffled
                    metrics.shuffle_zero_copy_bytes += result.bytes_zero_copy
                    metrics.shuffle_spill_bytes += result.bytes_spilled
                    for j, part in enumerate(result.inputs):
                        per_subtask_inputs[j].append(part)

            if isinstance(op, HdfsSink) and not recovering:
                self.cluster.hdfs.namenode.create_file(op.path)

            start = self.env.now
            run_indices = (sorted(only) if recovering
                           else range(jv.parallelism))
            subtask_procs = [
                self.env.process(
                    self._run_subtask(jv.subtasks[i], per_subtask_inputs[i],
                                      preassigned[i], jv.parallelism, metrics,
                                      injector, scheduler),
                    name=f"{op.name}[{i}]")
                for i in run_indices
            ]
            results = yield self.env.all_of(subtask_procs)
            outputs = sorted(results.values(), key=lambda p: p.index)

            if not recovering:
                metrics.operator_spans[op.uid] = OperatorSpan(
                    name=op.name, parallelism=jv.parallelism,
                    start=start, end=self.env.now)
            metrics.subtasks += len(subtask_procs)

        if recovering:
            existing = self.cluster.materialized[op.uid]
            pos = {p.index: i for i, p in enumerate(existing)}
            for part in outputs:
                existing[pos[part.index]] = part
            metrics.recovered_partitions += len(outputs)
            self.cluster.obs.registry.counter(
                "recovery.recomputed_partitions", op=op.name).inc(
                    len(outputs))
            self.cluster.note_recovery_action("recompute")
        else:
            self.cluster.materialized[op.uid] = outputs
        for part in outputs:
            worker = self.cluster.workers.get(part.worker)
            if worker is not None:
                worker.taskmanager.put_partition(op.uid, part)
        scheduler.release(jv)

    # -- lineage recovery ------------------------------------------------------
    def _recover_dataset(self, op: Operator, graph: ExecutionGraph,
                         scheduler: Scheduler, metrics: JobMetrics,
                         injector: Optional[FailureInjector]
                         ) -> Generator[Event, None, None]:
        """Recompute the partitions of ``op`` lost to dead workers.

        Healthy partitions are left untouched: recovery re-executes the
        producing operator only for the lost indices (after recursively
        recovering its own inputs).  A dataset missing entirely — evicted
        intermediates an earlier job cleaned up — is re-run in full.
        """
        parts = self.cluster.materialized.get(op.uid)
        if parts is None:
            yield from self._run_operator(op, graph, scheduler, metrics,
                                          injector)
            # Re-materialized by this job: mark for this job's cleanup so a
            # non-persisted input does not linger after recovery.
            metrics.materialized_uids.add(op.uid)
            return
        lost = {p.index for p in parts
                if not self.cluster.worker_is_alive(p.worker)}
        if not lost:
            return
        for inp in op.inputs:
            yield from self._recover_dataset(inp, graph, scheduler, metrics,
                                             injector)
        yield from self._run_operator(op, graph, scheduler, metrics,
                                      injector, only=lost)

    def _run_subtask(self, vertex: ExecutionVertex,
                     inputs: List[Partition],
                     preassigned: Optional[Partition],
                     n_subtasks: int, metrics: JobMetrics,
                     injector: Optional[FailureInjector],
                     scheduler: Scheduler,
                     needs_slot: bool = True,
                     in_stream=None, in_slot: Optional[int] = None,
                     out_stream=None
                     ) -> Generator[Event, None, Partition]:
        op = vertex.op
        flink = self.config.flink
        obs = self.cluster.obs
        tracer = obs.tracer
        proc = self.env.active_process
        while True:
            # Re-resolved each attempt: a retried or displaced subtask may
            # have been re-placed onto a different worker.
            worker = self.cluster.workers[vertex.worker]
            # One lane per task slot: concurrent subtasks on a worker render
            # on separate rows, queued ones stack up in simulated time.
            task_track = tracer.track(
                worker.name,
                f"slot{vertex.subtask_index % self.config.slots}")
            failure: Optional[TaskFailure] = None
            worker_lost = False
            worker.taskmanager.register_running(proc)
            try:
                with worker.taskmanager.claim_slot(
                        shared=not needs_slot) as slot:
                    if slot is not None:
                        yield slot
                    with tracer.span(f"{op.name}[{vertex.subtask_index}]",
                                     "task", task_track, op=op.name,
                                     subtask=vertex.subtask_index,
                                     attempt=vertex.attempts) as sp:
                        overhead = flink.task_schedule_s + flink.task_deploy_s
                        metrics.schedule_s += overhead
                        obs.monitor.observe("sched.place_latency_s",
                                            overhead, op=op.name)
                        yield self.env.timeout(overhead)
                        ctx = TaskContext(self.cluster, vertex, metrics,
                                          n_subtasks,
                                          preassigned_partition=preassigned,
                                          in_stream=in_stream,
                                          in_slot=in_slot,
                                          out_stream=out_stream)
                        try:
                            if injector is not None and injector.check(
                                    op.name, vertex.subtask_index,
                                    vertex.attempts):
                                tracer.instant(
                                    "fault.injected", "fault", task_track,
                                    op=op.name,
                                    subtask=vertex.subtask_index,
                                    attempt=vertex.attempts)
                                obs.registry.counter("faults.injected",
                                                     op=op.name).inc()
                                raise TaskFailure(op.name,
                                                  vertex.subtask_index,
                                                  vertex.attempts)
                            if out_stream is not None \
                                    and isinstance(op, HdfsSource):
                                partition = yield from op.execute_streaming(
                                    ctx, out_stream)
                            else:
                                partition = yield from op.execute_subtask(
                                    ctx, inputs)
                            if in_stream is not None:
                                # A consumer may not outrun its input's
                                # timing plane (e.g. a zero-cost relay).
                                yield in_stream.when_blocks(
                                    in_stream.n_blocks)
                                in_stream.ack_all(in_slot)
                            if out_stream is not None:
                                out_stream.close()
                        except TaskFailure as exc:
                            sp.set(failed=True)
                            failure = exc
                if failure is None:
                    worker.taskmanager.tasks_executed += 1
                    obs.monitor.task_attempt(op.name, ok=True)
                    if vertex.attempts:
                        self.cluster.note_recovery_action("retry-ok")
                    return partition
            except InterruptError as exc:
                # The worker died under us (slot wait included): the attempt
                # is charged, and the retry must escape to another node.
                worker_lost = True
                failure = TaskFailure(
                    op.name, vertex.subtask_index, vertex.attempts,
                    cause=f"worker {worker.name} lost: {exc.cause}")
            finally:
                worker.taskmanager.unregister_running(proc)

            vertex.attempts += 1
            metrics.retries += 1
            tracer.instant(
                "task.retry", "fault", task_track, op=op.name,
                subtask=vertex.subtask_index,
                attempt=vertex.attempts - 1,
                cause="worker-lost" if worker_lost
                else type(failure).__name__)
            obs.registry.counter("task.retries", op=op.name).inc()
            obs.monitor.task_attempt(op.name, ok=False)
            if vertex.attempts > flink.max_task_retries:
                raise JobExecutionError(
                    f"{op.name}[{vertex.subtask_index}] failed "
                    f"after {vertex.attempts} attempts"
                ) from failure
            scheduler.note_fault(worker.name)
            if worker_lost:
                # Wait for the master to *declare* the death (heartbeat
                # timeout), then re-place away from the dead node.  If the
                # avoid set covers every healthy worker (correlated
                # failures), wait a back-off first — the fallback then
                # deterministically picks the least-recently-faulted node.
                yield self.cluster.worker_declared(worker.name)
                avoid = (worker.name,)
                if scheduler.all_avoided(avoid):
                    delay = backoff_delay(flink, vertex.attempts, op.name,
                                          vertex.subtask_index)
                    if delay > 0:
                        yield self.env.timeout(delay)
                scheduler.reschedule(vertex, avoid=avoid,
                                     reason="worker-lost")
                self.cluster.note_recovery_action("replace")
                tracer.instant(
                    "task.displaced", "fault", task_track, op=op.name,
                    subtask=vertex.subtask_index, worker=vertex.worker)
            else:
                delay = backoff_delay(flink, vertex.attempts, op.name,
                                      vertex.subtask_index)
                if delay > 0:
                    yield self.env.timeout(delay)
                scheduler.reschedule(vertex, reason="retry")

    # -- cleanup -------------------------------------------------------------------
    def extract_result(self, sink: Operator) -> Any:
        """Pull a sink's driver-visible value from the materialized store."""
        partitions = self.cluster.materialized.get(sink.uid, [])
        if isinstance(sink, CollectSink):
            return partitions[0].elements if partitions else []
        if isinstance(sink, CountSink):
            return partitions[0].elements[0] if partitions else 0.0
        if isinstance(sink, HdfsSink):
            return sink.path
        return None

    def cleanup(self, graph_order: List[Operator],
                materialized_uids: Set[int]) -> None:
        """Evict this job's non-persisted intermediates and sink outputs."""
        for op in graph_order:
            if op.uid not in materialized_uids:
                continue
            if not op.persisted:
                self.cluster.materialized.pop(op.uid, None)
                for worker in self.cluster.workers.values():
                    worker.taskmanager.drop_dataset(op.uid)
