"""TaskManager: per-worker task slots, managed memory and partition store."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.resources import Resource
from repro.common.simclock import Environment, Event, Process
from repro.flink.config import ClusterConfig
from repro.flink.memory import MemoryManager
from repro.flink.partition import Partition


class _SharedSlot:
    """A no-op slot claim for pipelined slot-sharing subtasks.

    Streaming consumers ride their upstream producer's slot (Flink's slot
    sharing groups): a source subtask that holds a slot for the whole read
    also covers the map/GPU subtasks it feeds.  Claiming a second slot per
    pipeline stage would deadlock — the sources would hold every slot while
    the consumers they feed queue for one.
    """

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_SHARED_SLOT = _SharedSlot()


class TaskManager:
    """Executes subtasks in task slots on one worker node.

    One slot per CPU core by default (the paper: "the number of task slots
    allocated by Flink is equal to that of CPUs").  The partition store keeps
    materialized dataset partitions in managed memory between operators and —
    for persisted datasets — between jobs.
    """

    def __init__(self, env: Environment, worker_name: str,
                 config: ClusterConfig):
        self.env = env
        self.worker_name = worker_name
        self.config = config
        self.slots = Resource(env, capacity=config.slots)
        self.memory = MemoryManager(
            total_bytes=config.flink.managed_memory_per_worker,
            page_size=config.flink.page_size)
        # dataset uid -> partition index -> Partition
        self._store: Dict[int, Dict[int, Partition]] = {}
        self.tasks_executed = 0
        # Subtask processes currently assigned to this worker (queued for a
        # slot or running).  A worker kill interrupts them all: the
        # JobManager's retry loop catches the InterruptError and re-places
        # the attempt after failure detection.
        self._running: List[Process] = []
        # Events fired when the last tracked subtask leaves (graceful drain).
        self._quiesce_waiters: List[Event] = []

    # -- slots ----------------------------------------------------------------
    def claim_slot(self, shared: bool = False):
        """A slot claim for one subtask attempt.

        ``shared=True`` (pipelined streaming consumers) returns a no-op
        claim: the subtask shares its producer's slot instead of occupying
        one of its own.  Otherwise a normal FIFO slot request.
        """
        return _SHARED_SLOT if shared else self.slots.request()

    # -- process registry (fault tolerance) -------------------------------------
    def register_running(self, process: Process) -> None:
        """Track a subtask process executing on this worker."""
        self._running.append(process)

    def unregister_running(self, process: Process) -> None:
        """Stop tracking a subtask process (attempt finished or displaced)."""
        try:
            self._running.remove(process)
        except ValueError:
            pass
        if not self._running:
            waiters, self._quiesce_waiters = self._quiesce_waiters, []
            for evt in waiters:
                if not evt.triggered:
                    evt.succeed()

    def quiesced(self) -> Event:
        """An event firing once no subtask is queued or running here.

        A draining worker is excluded from new placements first, then waits
        on this before its state is migrated away — in-flight attempts
        finish normally instead of being interrupted like on a kill.
        """
        evt = Event(self.env)
        if not self._running:
            evt.succeed()
        else:
            self._quiesce_waiters.append(evt)
        return evt

    def fail(self, cause: str = "worker failed") -> None:
        """Kill this TaskManager: interrupt its subtasks, drop its state.

        The partition store is cleared — everything materialized here is
        lost and must be recovered by lineage.  Slot bookkeeping needs no
        special handling: interrupted subtasks release their slot requests
        as the interrupt unwinds their ``with`` blocks.
        """
        victims = list(self._running)
        self._running.clear()
        self._store.clear()
        for process in victims:
            if process.is_alive:
                process.interrupt(cause)
        waiters, self._quiesce_waiters = self._quiesce_waiters, []
        for evt in waiters:
            if not evt.triggered:
                evt.succeed()

    # -- partition store ------------------------------------------------------
    def put_partition(self, dataset_uid: int, partition: Partition) -> None:
        """Register a materialized partition of a dataset on this worker."""
        self._store.setdefault(dataset_uid, {})[partition.index] = partition

    def get_partition(self, dataset_uid: int,
                      index: int) -> Optional[Partition]:
        """Look up a resident partition, or None."""
        return self._store.get(dataset_uid, {}).get(index)

    def remove_partition(self, dataset_uid: int, index: int) -> None:
        """Forget one resident partition (it migrated to another worker)."""
        parts = self._store.get(dataset_uid)
        if parts is not None:
            parts.pop(index, None)
            if not parts:
                self._store.pop(dataset_uid, None)

    def drop_dataset(self, dataset_uid: int) -> None:
        """Evict all partitions of a dataset from this worker."""
        self._store.pop(dataset_uid, None)

    def resident_datasets(self) -> list[int]:
        """Dataset uids with at least one partition on this worker."""
        return [uid for uid, parts in self._store.items() if parts]


class Worker:
    """A cluster node: name + TaskManager (+ GPUManager, attached by GFlink)."""

    def __init__(self, env: Environment, name: str, config: ClusterConfig):
        self.env = env
        self.name = name
        self.taskmanager = TaskManager(env, name, config)
        # The GFlink runtime attaches a repro.core.gpumanager.GPUManager here;
        # the plain Flink substrate leaves it None.
        self.gpumanager = None
        # Failure-domain state: a dead worker stops heartbeating, loses its
        # slots and partitions, and is never scheduled onto again.
        self.alive = True
        self.failed_at: Optional[float] = None
        # Elastic-membership state (repro.flink.runtime.Cluster): a
        # draining worker finishes in-flight subtasks but accepts no new
        # placements; a departed one left gracefully — dead for scheduling,
        # but not a *failure* (its state was migrated, not lost).
        self.draining = False
        self.departed = False

    def fail(self, cause: str = "worker killed") -> None:
        """Kill this node (idempotent).  Use Cluster.fail_worker normally —
        it also fails the co-located HDFS datanode and records metrics."""
        if not self.alive:
            return
        self.alive = False
        self.failed_at = self.env.now
        self.taskmanager.fail(cause)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Worker {self.name}>"
