"""The job driver: a streaming block-pipelined executor.

Every job runs through :class:`PipelinedExecutor`.  Each operator gets a
runner; ``FlinkConfig.executor`` only picks the *ordering policy* over
those runners (docs/STREAMING_EXECUTOR.md):

* ``"pipelined"`` (default) starts every runner at once and replaces the
  barrier between forward-connected operators with per-partition **block
  streams**: every operator becomes a producer/consumer node over a
  bounded queue of blocks, so block *k* can be in a kernel while block
  *k+1* is mid-H2D and block *k+2* is still on disk — all on the
  simulated clock.
* ``"staged"`` runs the same runners one at a time in graph order, and
  every input edge goes through the barrier exchange: one operator wave
  at a time, the paper's JobManager, kept as the A/B reference.

Two planes, one result
    The *data plane* (functional values) is evaluated eagerly: block
    metadata carries its payload, and UDFs are pure, so every partition's
    value is known the moment its inputs' values are.  The *timing plane*
    (disk, serde, CPU, PCIe charges) streams block-by-block.  Because every
    per-block cost in the engine is linear, the block-split charges sum to
    exactly the staged charges — job results are bit-identical between
    the two policies, only the clock differs.

Pipeline regions
    Streaming applies along forward/union edges only
    (:attr:`~repro.flink.plan.ShipStrategy.is_streaming`).  An operator
    with any hash/gather/broadcast/rebalance input is a *barrier* consumer:
    it waits for all its producers' final partitions, then runs the
    :class:`~repro.flink.shuffle.Exchange` — the one place a job ships
    data between operators, lineage recovery included.

Slot sharing
    Streaming consumers ride their producer's task slot
    (:meth:`TaskManager.claim_slot` with ``shared=True``) — otherwise
    sources holding every slot for the duration of the read would deadlock
    the consumers they feed.  Sources, collection sources and barrier
    consumers claim slots normally; barrier consumers only *after* their
    inputs completed, so a queued slot request never waits on work behind
    it in the pipeline.
"""

from __future__ import annotations

import math

from bisect import bisect_right
from typing import Any, Dict, Generator, List, Optional, Set, Tuple, \
    TYPE_CHECKING

from repro.common.simclock import Environment, Event
from repro.flink.graph import ExecutionGraph, ExecutionJobVertex
from repro.flink.jobmanager import OperatorSpan
from repro.flink.partition import Partition, split_evenly
from repro.flink.plan import (
    CollectionSource,
    HdfsSink,
    HdfsSource,
    Operator,
    ShipStrategy,
    _ElementWise,
)
from repro.flink.shuffle import Exchange

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flink.fault import FailureInjector
    from repro.flink.jobmanager import JobManager, JobMetrics
    from repro.flink.scheduler import Scheduler


class BlockStream:
    """A bounded, block-granular availability channel for one partition.

    The producer publishes block indices as their bytes become
    host-resident; consumers wait on byte/block thresholds and acknowledge
    consumption, returning queue credits to the producer.  All transitions
    are monotonic and idempotent, so a retried task attempt can replay its
    publishes/acks without corrupting the channel.

    Backpressure: :meth:`reserve` blocks the producer once it runs
    ``capacity`` blocks ahead of the slowest subscriber's cursor.  One
    exception keeps arbitrary consumption granularities deadlock-free: if a
    consumer is *currently waiting* for bytes beyond the cap (e.g. a GPU
    stream assembling one 8 MB device block out of many small HDFS blocks),
    the producer may run ahead exactly far enough to satisfy that demand.
    """

    def __init__(self, env: Environment, block_nbytes: List[float],
                 capacity: int, n_subscribers: int):
        self.env = env
        self.block_nbytes = [max(0.0, float(b)) for b in block_nbytes]
        self._cum = [0.0]
        for b in self.block_nbytes:
            self._cum.append(self._cum[-1] + b)
        self.total_nbytes = self._cum[-1]
        self.capacity = max(1, int(capacity))
        self.published = 0
        self.closed = False
        self._cursors = [0] * max(0, int(n_subscribers))
        self._avail: List[Tuple[float, Event]] = []
        self._credit: List[Tuple[int, Event]] = []
        # Stats surfaced via trace spans and the metrics registry.
        # Backpressure (producer blocked on a full queue), counted by
        # TaskContext.stream_reserve.
        self.max_depth = 0
        self.stall_count = 0
        self.stall_seconds = 0.0
        # H2D starvation (consumer ready before host bytes): incremented by
        # the GPU pipeline (repro.core.gstream) on its host stream.
        self.starved_count = 0
        self.starved_seconds = 0.0

    # -- state ----------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return len(self.block_nbytes)

    @property
    def published_nbytes(self) -> float:
        return self._cum[self.published]

    def _min_cursor(self) -> int:
        return min(self._cursors) if self._cursors else self.published

    @property
    def depth(self) -> int:
        """Blocks published but not yet consumed by the slowest subscriber."""
        return self.published - self._min_cursor()

    def _eps(self) -> float:
        return 1e-9 * max(1.0, self.total_nbytes)

    def _demand_nbytes(self) -> float:
        return max((t for t, _ in self._avail), default=0.0)

    def _may_publish(self, block_index: int) -> bool:
        if self.closed or block_index < self.published or not self._cursors:
            return True
        if block_index < self._min_cursor() + self.capacity:
            return True
        # Demand override: a waiting consumer needs bytes this block holds.
        return self._cum[block_index] < self._demand_nbytes() - self._eps()

    # -- producer side ---------------------------------------------------------
    def reserve(self, block_index: int) -> Event:
        """Event firing once the bounded queue has room for ``block_index``."""
        evt = Event(self.env)
        if self._may_publish(block_index):
            evt.succeed()
        else:
            self._credit.append((block_index, evt))
        return evt

    def publish(self, block_index: int) -> None:
        """Mark blocks up to ``block_index`` (inclusive) host-resident."""
        if block_index < self.published:
            return  # a retried attempt replaying earlier blocks
        self.published = min(block_index + 1, self.n_blocks)
        self.max_depth = max(self.max_depth, self.depth)
        self._wake()

    def close(self) -> None:
        """Producer finished: resolve every waiter unconditionally."""
        if self.closed:
            return
        self.closed = True
        self._wake()

    # -- consumer side ---------------------------------------------------------
    def subscribe(self) -> int:
        """Register one more consumer; returns its cursor slot."""
        self._cursors.append(0)
        return len(self._cursors) - 1

    def when_nbytes(self, nbytes: float) -> Event:
        """Event firing once ``nbytes`` (clamped to the total) are published."""
        evt = Event(self.env)
        threshold = min(float(nbytes), self.total_nbytes)
        if self.closed or self.published_nbytes >= threshold - self._eps():
            evt.succeed()
        else:
            self._avail.append((threshold, evt))
            self._wake_credits()  # new demand may unblock the producer
        return evt

    def when_fraction(self, fraction: float) -> Event:
        """Event firing once ``fraction`` of the total bytes are published."""
        return self.when_nbytes(min(1.0, max(0.0, fraction))
                                * self.total_nbytes)

    def when_blocks(self, count: int) -> Event:
        """Event firing once the first ``count`` blocks are published."""
        return self.when_nbytes(self._cum[min(max(0, count), self.n_blocks)])

    def cum_nbytes(self, count: int) -> float:
        """Total bytes of the first ``count`` blocks."""
        return self._cum[min(max(0, count), self.n_blocks)]

    def ack(self, slot: Optional[int], blocks_done: int) -> None:
        """Advance subscriber ``slot``'s cursor to ``blocks_done`` blocks."""
        if slot is None or not (0 <= slot < len(self._cursors)):
            return
        done = min(max(0, blocks_done), self.n_blocks)
        if done > self._cursors[slot]:
            self._cursors[slot] = done
            self._wake_credits()

    def ack_nbytes(self, slot: Optional[int], nbytes: float) -> None:
        """Acknowledge every block fully covered by the first ``nbytes``."""
        self.ack(slot, bisect_right(self._cum, float(nbytes) + self._eps())
                 - 1)

    def ack_all(self, slot: Optional[int]) -> None:
        self.ack(slot, self.n_blocks)

    # -- waiter bookkeeping ------------------------------------------------------
    def _wake(self) -> None:
        if self._avail:
            still = []
            for threshold, evt in self._avail:
                if (self.closed
                        or self.published_nbytes >= threshold - self._eps()):
                    evt.succeed()
                else:
                    still.append((threshold, evt))
            self._avail = still
        self._wake_credits()

    def _wake_credits(self) -> None:
        if not self._credit:
            return
        still = []
        for block_index, evt in self._credit:
            if self._may_publish(block_index):
                evt.succeed()
            else:
                still.append((block_index, evt))
        self._credit = still


def _fired(env: Environment, value: Any) -> Event:
    evt = Event(env)
    evt.succeed(value)
    return evt


def _split_chunks(block_nbytes: List[float],
                  chunk_nbytes: float) -> List[float]:
    """Split each block's byte count into equal chunks of at most
    ``chunk_nbytes`` (every block yields at least one chunk, so block
    boundaries always coincide with chunk boundaries)."""
    plan: List[float] = []
    for nbytes in block_nbytes:
        n = max(1, math.ceil(nbytes / max(1.0, chunk_nbytes)))
        prev = 0.0
        for j in range(1, n + 1):
            cum = nbytes * j / n
            plan.append(cum - prev)
            prev = cum
    return plan


class PipelinedExecutor:
    """Runs one job's execution graph: the JobManager's only driver.

    Per operator partition it keeps two events — a *shell* (fires as soon
    as the partition's functional value and home worker are known, possibly
    long before its timing completes) and a *final* (fires when the
    producing subtask returns) — plus an optional :class:`BlockStream`
    carrying block-level availability.  Streaming consumers start at the
    shell and gate their charges on the stream; barrier consumers wait for
    finals and run the exchange.  Under the staged policy no edge streams
    and the runners go one at a time, so every final has fired before its
    consumer looks.
    """

    def __init__(self, jm: "JobManager", graph: ExecutionGraph,
                 scheduler: "Scheduler", metrics: "JobMetrics",
                 injector: Optional["FailureInjector"]):
        self.jm = jm
        self.cluster = jm.cluster
        self.env: Environment = jm.env
        self.config = jm.config
        self.staged = self.config.flink.executor == "staged"
        self.graph = graph
        self.scheduler = scheduler
        self.metrics = metrics
        self.injector = injector
        self.obs = self.cluster.obs
        self.tracer = self.obs.tracer
        self._shells: Dict[int, List[Event]] = {}
        self._finals: Dict[int, List[Event]] = {}
        self._streams: Dict[int, List[Optional[BlockStream]]] = {}
        self._consumer_slot: Dict[Tuple[int, int], int] = {}
        self._n_subs: Dict[int, int] = {}
        self._emits: Dict[int, bool] = {}
        self._op_start: Dict[int, Optional[float]] = {}
        self._region_of: Dict[int, int] = {}
        # Serializes lineage recoveries triggered by concurrent barrier
        # consumers.
        self._recovering: Optional[Event] = None

    # -- static wiring ----------------------------------------------------------
    def _streaming_mode(self, op: Operator) -> bool:
        """True when every input edge of ``op`` streams (and shapes line up).

        Never under the staged policy: every edge is a barrier there.
        """
        if self.staged or not op.inputs or not op.strategies:
            return False
        if not all(s.is_streaming for s in op.strategies):
            return False
        jv = self.graph.job_vertex(op)
        for inp, strat in zip(op.inputs, op.strategies):
            p = len(self._shells[inp.uid])
            if strat is ShipStrategy.FORWARD and p != jv.parallelism:
                return False  # staged would reject this too — same path
        return True

    def _source_index(self, op: Operator, input_idx: int, subtask: int
                      ) -> Optional[int]:
        """Producer partition feeding input ``input_idx`` of subtask ``i``."""
        strat = op.strategies[input_idx]
        if strat is ShipStrategy.FORWARD:
            return subtask
        p = len(self._shells[op.inputs[input_idx].uid])
        if strat is ShipStrategy.UNION_LEFT:
            return subtask if subtask < p else None
        offset = self.graph.job_vertex(op).parallelism - p
        return subtask - offset if subtask >= offset else None

    def _wire(self, fresh: List[Operator]) -> None:
        for op in fresh:
            jv = self.graph.job_vertex(op)
            self._shells[op.uid] = [Event(self.env)
                                    for _ in range(jv.parallelism)]
            self._finals[op.uid] = [Event(self.env)
                                    for _ in range(jv.parallelism)]
            self._streams[op.uid] = [None] * jv.parallelism
            self._op_start[op.uid] = None
        for op in fresh:
            if self._streaming_mode(op):
                for k in range(len(op.inputs)):
                    uid = op.inputs[k].uid
                    slot = self._n_subs.get(uid, 0)
                    self._consumer_slot[(op.uid, k)] = slot
                    self._n_subs[uid] = slot + 1
        # An operator emits a block stream when it can publish progressively
        # (sources generate blocks; element-wise ops relay their input's
        # stream) and someone downstream streams from it.
        for op in fresh:
            emits = False
            if self._n_subs.get(op.uid, 0) > 0:
                if isinstance(op, HdfsSource):
                    emits = True
                elif (isinstance(op, _ElementWise)
                        and self._streaming_mode(op)
                        and self._emits.get(op.inputs[0].uid, False)):
                    emits = True
            self._emits[op.uid] = emits
        for r, region in enumerate(self.graph.pipeline_regions()):
            for op in region:
                self._region_of[op.uid] = r

    # -- entry point -------------------------------------------------------------
    def run(self) -> Generator[Event, None, None]:
        """Simulation process executing the whole graph."""
        fresh: List[Operator] = []
        for op in self.graph.order:
            if op.uid not in self.cluster.materialized:
                fresh.append(op)
            elif not self.staged:
                # Persisted from an earlier job: recover lost partitions
                # serially, before the pipeline starts.
                yield from self._reuse(op)
        self._wire(fresh)
        if self.staged:
            # The staged ordering policy: each runner starts once its
            # predecessor in graph order finished; a persisted dataset
            # recovers in its place in that order.
            fresh_uids = {op.uid for op in fresh}
            for op in self.graph.order:
                if op.uid in fresh_uids:
                    yield from self._run_op(op)
                else:
                    yield from self._reuse(op)
        else:
            procs = [self.env.process(self._run_op(op),
                                      name=f"pipeline:{op.name}")
                     for op in fresh]
            if procs:
                yield self.env.all_of(procs)
        for op in fresh:
            self.metrics.materialized_uids.add(op.uid)

    def _reuse(self, op: Operator) -> Generator[Event, None, None]:
        """Expose a dataset persisted by an earlier job as already final,
        once lineage recovery has recomputed any partitions it lost."""
        yield from self._recover(op)
        parts = self.cluster.materialized[op.uid]
        self._shells[op.uid] = [_fired(self.env, p) for p in parts]
        self._finals[op.uid] = [_fired(self.env, p) for p in parts]
        self._streams[op.uid] = [None] * len(parts)

    # -- per-operator runner -------------------------------------------------------
    def _run_op(self, op: Operator) -> Generator[Event, None, None]:
        uid = op.uid
        jv = self.graph.job_vertex(op)
        if isinstance(op, HdfsSink):
            self.cluster.hdfs.namenode.create_file(op.path)
        if isinstance(op, HdfsSource):
            procs = self._start_source(op, jv)
        elif isinstance(op, CollectionSource):
            procs = self._start_collection(op, jv)
        elif self._streaming_mode(op):
            procs = [self.env.process(self._streaming_slice(op, jv, i),
                                      name=f"{op.name}[{i}]")
                     for i in range(jv.parallelism)]
        else:
            procs = yield from self._start_barrier(op, jv)
        results = yield self.env.all_of(procs)
        outputs = sorted(results.values(), key=lambda p: p.index)

        end = self.env.now
        start = self._op_start[uid] if self._op_start[uid] is not None \
            else end
        self.metrics.operator_spans[uid] = OperatorSpan(
            name=op.name, parallelism=jv.parallelism, start=start, end=end)
        self.metrics.subtasks += len(procs)
        self.tracer.complete(
            f"op:{op.name}", "operator",
            self.tracer.track(self.cluster.master_name, f"op:{op.name}"),
            start=start, end=end, op=op.name, parallelism=jv.parallelism,
            region=self._region_of.get(uid, -1))

        self.cluster.materialized[uid] = outputs
        self._place(uid, outputs, jv)
        self._publish_queue_stats(op)

    def _place(self, uid: int, outputs: List[Partition],
               jv: ExecutionJobVertex) -> None:
        """Register finished partitions with their workers' stores."""
        for part in outputs:
            worker = self.cluster.workers.get(part.worker)
            if worker is not None:
                worker.taskmanager.put_partition(uid, part)
        self.scheduler.release(jv)

    def _publish_queue_stats(self, op: Operator) -> None:
        streams = [s for s in self._streams.get(op.uid, []) if s is not None]
        if not streams:
            return
        max_depth = max(s.max_depth for s in streams)
        self.obs.registry.gauge("pipeline.queue.max_depth",
                                op=op.name).set(max_depth)
        starved = sum(s.starved_count for s in streams)
        self.metrics.pipeline_max_queue_depth = max(
            self.metrics.pipeline_max_queue_depth, max_depth)
        self.metrics.pipeline_h2d_starved += starved

    # -- operator modes ----------------------------------------------------------
    def _start_source(self, op: HdfsSource, jv: ExecutionJobVertex) -> list:
        self.scheduler.schedule_source(jv, self.cluster.hdfs)
        procs = []
        for i in range(jv.parallelism):
            vertex = jv.subtasks[i]
            stream = None
            if self._emits[op.uid]:
                # Sub-block plan: each HDFS block split into pipeline-sized
                # chunks (the streaming read publishes these as the disk
                # transfer progresses — an unsplit 128 MB block would give
                # the pipeline nothing to overlap on small inputs).
                plan = _split_chunks(
                    [b.nbytes for b in vertex.assigned_blocks],
                    self.config.flink.pipeline_block_nbytes)
                stream = BlockStream(
                    self.env, plan,
                    self.config.flink.pipeline_queue_blocks,
                    self._n_subs.get(op.uid, 0))
                self._streams[op.uid][i] = stream
                # Streaming consumers start from the data plane's view.
                self._shells[op.uid][i].succeed(op.peek_output(
                    vertex.assigned_blocks, i, vertex.worker))
            procs.append(self.env.process(
                self._slice(op, jv, i, [], None, needs_slot=True,
                            out_stream=stream),
                name=f"{op.name}[{i}]"))
        return procs

    def _start_collection(self, op: CollectionSource,
                          jv: ExecutionJobVertex) -> list:
        parts = split_evenly(op.elements, jv.parallelism,
                             op.element_nbytes, op.scale)
        self.scheduler.schedule_collection_source(jv, parts)
        return [self.env.process(
                    self._slice(op, jv, i, [], parts[i], needs_slot=True),
                    name=f"{op.name}[{i}]")
                for i in range(jv.parallelism)]

    def _start_barrier(self, op: Operator, jv: ExecutionJobVertex
                       ) -> Generator[Event, None, list]:
        """Wait for all input finals, run the exchanges, spawn subtasks."""
        producer_parts: List[List[Partition]] = []
        for inp in op.inputs:
            parts = []
            for evt in self._finals[inp.uid]:
                parts.append((yield evt))
            producer_parts.append(sorted(parts, key=lambda p: p.index))
        # A worker may have died between an input completing and this
        # barrier consuming it — recover lost partitions first.
        for idx, inp in enumerate(op.inputs):
            if any(not self.cluster.worker_is_alive(p.worker)
                   for p in producer_parts[idx]):
                yield from self._recover_serialized(inp)
                producer_parts[idx] = sorted(
                    self.cluster.materialized[inp.uid],
                    key=lambda p: p.index)
        inputs = yield from self._exchange(op, jv, producer_parts)
        return [self.env.process(
                    self._slice(op, jv, i, inputs[i], None, needs_slot=True),
                    name=f"{op.name}[{i}]")
                for i in range(jv.parallelism)]

    def _exchange(self, op: Operator, jv: ExecutionJobVertex,
                  producer_parts: List[List[Partition]],
                  only: Optional[Set[int]] = None
                  ) -> Generator[Event, None, List[List[Partition]]]:
        """Place ``jv``'s consumers and ship every input of ``op`` to them.

        ``only`` restricts delivery to those consumer indices (a lineage
        recovery wave).  Returns each consumer subtask's input partitions.
        """
        self.scheduler.schedule_consumer(jv, self.graph, producer_parts)
        consumer_workers = [v.worker for v in jv.subtasks]
        inputs: List[List[Partition]] = [[] for _ in range(jv.parallelism)]
        ex_track = self.tracer.track(self.cluster.master_name, "exchange")
        for k, (inp, strat) in enumerate(zip(op.inputs, op.strategies)):
            exchange = Exchange(
                self.env, self.cluster.network, self.cluster.serializer,
                strat, producer_parts[k], jv.parallelism, consumer_workers,
                key_fn=op.key_fn_for_input(k),
                combiner=op.combiner_for_input(k), only_consumers=only,
                hdfs=self.cluster.hdfs, flink=self.config.flink)
            with self.tracer.span(f"exchange:{op.name}", "shuffle", ex_track,
                                  op=op.name, input=k,
                                  strategy=strat.name) as sp:
                result = yield self.env.process(
                    exchange.run(), name=f"exchange-{op.name}-{k}")
                sp.set(bytes=result.bytes_shuffled,
                       zero_copy=result.bytes_zero_copy)
            self.metrics.shuffle_bytes += result.bytes_shuffled
            self.metrics.shuffle_zero_copy_bytes += result.bytes_zero_copy
            self.metrics.shuffle_spill_bytes += result.bytes_spilled
            for j, part in enumerate(result.inputs):
                inputs[j].append(part)
        return inputs

    # -- lineage recovery ----------------------------------------------------------
    def _recover_serialized(self, op: Operator
                            ) -> Generator[Event, None, None]:
        """Run a lineage recovery, one at a time across runner processes."""
        while self._recovering is not None:
            yield self._recovering
        self._recovering = Event(self.env)
        try:
            yield from self._recover(op)
        finally:
            done, self._recovering = self._recovering, None
            done.succeed()

    def _recover(self, op: Operator) -> Generator[Event, None, None]:
        """Recompute the partitions of ``op`` lost to dead workers.

        Healthy partitions are left untouched: recovery re-executes the
        producing operator only for the lost indices (after recursively
        recovering its own inputs).  A dataset missing entirely — an
        intermediate an earlier job evicted, or (pipelined) one whose
        runner has not stored it yet — is re-run in full.
        """
        parts = self.cluster.materialized.get(op.uid)
        if parts is None:
            yield from self._recompute(op, None)
            return
        lost = {p.index for p in parts
                if not self.cluster.worker_is_alive(p.worker)}
        if not lost:
            return
        for inp in op.inputs:
            yield from self._recover(inp)
        yield from self._recompute(op, lost)

    def _recompute(self, op: Operator, lost: Optional[Set[int]]
                   ) -> Generator[Event, None, None]:
        """One recovery wave of ``op``, fed from its materialized inputs.

        ``lost=None`` re-runs an evicted dataset in full on this job's
        vertex, traced as the operator's own run (``op:*``, inputs
        recovered inside it).  Otherwise a *fresh* vertex at the dataset's
        original parallelism runs only the lost indices under a
        ``recover:*`` span, and their outputs replace the lost partitions
        in ``cluster.materialized``.
        """
        store = self.cluster.materialized
        if lost is None:
            jv = self.graph.job_vertex(op)
        else:
            # Graph vertices accumulate state (assigned blocks, attempts)
            # that must not double up across recoveries, and the lost
            # dataset's parallelism may differ from this job's.
            jv = ExecutionJobVertex(op, len(store[op.uid]))
            jv.expand()
        preassigned: List[Optional[Partition]] = [None] * jv.parallelism
        inputs: List[List[Partition]] = [[] for _ in range(jv.parallelism)]
        label, cat = (("op", "operator") if lost is None
                      else ("recover", "recovery"))
        jm_track = self.tracer.track(self.cluster.master_name, "jobmanager")
        with self.tracer.span(f"{label}:{op.name}", cat, jm_track,
                              op=op.name, parallelism=jv.parallelism):
            if lost is None:
                for inp in op.inputs:
                    yield from self._recover(inp)
            if isinstance(op, HdfsSource):
                self.scheduler.schedule_source(jv, self.cluster.hdfs)
            elif isinstance(op, CollectionSource):
                preassigned = split_evenly(op.elements, jv.parallelism,
                                           op.element_nbytes, op.scale)
                self.scheduler.schedule_collection_source(jv, preassigned)
            else:
                inputs = yield from self._exchange(
                    op, jv, [store[inp.uid] for inp in op.inputs], only=lost)
            start = self.env.now
            procs = [
                self.env.process(
                    self.jm._run_subtask(jv.subtasks[i], inputs[i],
                                         preassigned[i], jv.parallelism,
                                         self.metrics, self.injector,
                                         self.scheduler),
                    name=f"{op.name}[{i}]")
                for i in (range(jv.parallelism) if lost is None
                          else sorted(lost))]
            results = yield self.env.all_of(procs)
            outputs = sorted(results.values(), key=lambda p: p.index)
            self.metrics.subtasks += len(procs)

        if lost is None:
            # Recorded and stored as the operator's own run would be.
            self.metrics.operator_spans[op.uid] = OperatorSpan(
                name=op.name, parallelism=jv.parallelism, start=start,
                end=self.env.now)
            store[op.uid] = outputs
            self.metrics.materialized_uids.add(op.uid)
        else:
            existing = store[op.uid]
            pos = {p.index: i for i, p in enumerate(existing)}
            for part in outputs:
                existing[pos[part.index]] = part
            self.metrics.recovered_partitions += len(outputs)
            self.obs.registry.counter(
                "recovery.recomputed_partitions", op=op.name).inc(
                    len(outputs))
            self.cluster.note_recovery_action("recompute")
        self._place(op.uid, outputs, jv)

    def _streaming_slice(self, op: Operator, jv: ExecutionJobVertex,
                         i: int) -> Generator[Event, None, Partition]:
        """One streaming consumer subtask: wait shells, colocate, run."""
        uid = op.uid
        collected: List[Optional[Partition]] = []
        in_stream: Optional[BlockStream] = None
        in_slot: Optional[int] = None
        colocate: Optional[str] = None
        for k in range(len(op.inputs)):
            src = self._source_index(op, k, i)
            if src is None:
                collected.append(None)  # the other side of a union
                continue
            inp_uid = op.inputs[k].uid
            part = yield self._shells[inp_uid][src]
            stream = self._streams[inp_uid][src]
            if stream is not None:
                if in_stream is None:
                    in_stream = stream
                    in_slot = self._consumer_slot[(uid, k)]
            else:
                # No stream: the producer's timing completes all at once —
                # this consumer may only proceed from its final.
                part = yield self._finals[inp_uid][src]
            collected.append(part)
            if colocate is None:
                colocate = part.worker
        vertex = jv.subtasks[i]
        self.scheduler.schedule_subtask(vertex, colocate)

        # Mirror the staged Exchange's forward/union reindexing.  Placement
        # differs from the producer's home only when that worker died
        # (health fallback), in which case the producer's own retry is
        # already re-shipping the data — no extra transfer is charged here.
        inputs: List[Optional[Partition]] = []
        for part in collected:
            if part is None:
                inputs.append(None)
                continue
            moved = part.derive(part.elements)
            moved.index = i
            moved.worker = vertex.worker
            inputs.append(moved)

        out_stream: Optional[BlockStream] = None
        if self._emits[uid] and in_stream is not None:
            primary = next(p for p in inputs if p is not None)
            shell = op.functional_output(primary, i, vertex.worker)
            ratio = (shell.nominal_nbytes / in_stream.total_nbytes
                     if in_stream.total_nbytes > 0 else 0.0)
            out_stream = BlockStream(
                self.env, [b * ratio for b in in_stream.block_nbytes],
                self.config.flink.pipeline_queue_blocks,
                self._n_subs.get(uid, 0))
            self._streams[uid][i] = out_stream
            self._shells[uid][i].succeed(shell)

        # Slot sharing applies only to a consumer that actually rides a
        # producer's stream (the producer holds the slot for the duration).
        # A final-gated consumer (e.g. downstream of a collection source)
        # starts after its producer released its slot, so it must claim
        # one of its own — otherwise slot contention would vanish.
        return (yield from self._slice(
            op, jv, i, inputs, None, needs_slot=in_stream is None,
            in_stream=in_stream, in_slot=in_slot, out_stream=out_stream))

    # -- subtask wrapper -----------------------------------------------------------
    def _slice(self, op: Operator, jv: ExecutionJobVertex, i: int,
               inputs: List[Optional[Partition]],
               preassigned: Optional[Partition], needs_slot: bool,
               in_stream: Optional[BlockStream] = None,
               in_slot: Optional[int] = None,
               out_stream: Optional[BlockStream] = None
               ) -> Generator[Event, None, Partition]:
        if self._op_start[op.uid] is None:
            self._op_start[op.uid] = self.env.now
        part = yield from self.jm._run_subtask(
            jv.subtasks[i], inputs, preassigned, jv.parallelism,
            self.metrics, self.injector, self.scheduler,
            needs_slot=needs_slot, in_stream=in_stream, in_slot=in_slot,
            out_stream=out_stream)
        if not self._shells[op.uid][i].triggered:
            self._shells[op.uid][i].succeed(part)
        self._finals[op.uid][i].succeed(part)
        return part
