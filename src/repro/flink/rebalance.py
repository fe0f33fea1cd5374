"""Cached-partition rebalancing for elastic membership.

When the cluster's shape changes mid-run, already-materialized partitions
(iteration state, persisted datasets) are sitting on the old members.  The
:class:`Rebalancer` moves them without recomputation:

* :meth:`Rebalancer.rebalance_onto` — a worker joined: migrate a fair share
  of cached partitions onto it so iterative jobs actually use the new
  capacity (colocation-driven placement follows the partitions).
* :meth:`Rebalancer.migrate_off` — a worker is draining: move everything it
  holds to the surviving members before it leaves, so nothing is lost and
  lineage recovery never runs.

Migration uses the PR 8 zero-copy wire format: a partition's columnar byte
regions go on the wire verbatim — the only CPU charged is the per-block
descriptor cost (:meth:`repro.flink.serialization.Serializer.zero_copy_time`),
never per-row serde.  Functionally a migration is pure bookkeeping (payloads
are held by reference), so results stay bit-identical; only placement and
timing change.

GPU-cache residency moves *lazily*: device caches are per-worker, so blocks
a migrated partition left cached on the source device can no longer attract
locality-aware scheduling (consumers now colocate with the partition's new
home) and age out by LRU; the destination warms through the normal
cache-miss path on first access.  An abrupt leave needs none of this —
lineage recovery recomputes lost partitions wherever the scheduler re-places
them (docs/FAULT_TOLERANCE.md, "Elasticity").
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.common.simclock import Event
from repro.flink.partition import Partition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flink.runtime import Cluster

__all__ = ["Rebalancer"]


class Rebalancer:
    """Migrates materialized partitions between cluster members."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        self.env = cluster.env

    # -- inventory ---------------------------------------------------------------
    def resident_counts(self) -> dict:
        """Materialized-partition count per current member."""
        counts = {name: 0 for name in self.cluster.member_names()}
        for _, part in self._inventory():
            if part.worker in counts:
                counts[part.worker] += 1
        return counts

    def _inventory(self) -> List[Tuple[int, Partition]]:
        """(dataset uid, partition) pairs in deterministic order."""
        out = []
        for uid in sorted(self.cluster.materialized):
            for part in self.cluster.materialized[uid]:
                out.append((uid, part))
        return out

    # -- one migration -----------------------------------------------------------
    def migrate_partition(self, uid: int, part: Partition,
                          target: str) -> Generator[Event, None, None]:
        """Simulation process: re-home one partition onto ``target``.

        Charges the zero-copy framing cost plus the wire transfer of the
        partition's nominal bytes, then moves the bookkeeping: the source
        TaskManager forgets the partition, the destination registers it,
        and ``part.worker`` flips — every later consumer colocates with
        (or ships from) the new home.
        """
        cluster = self.cluster
        source = part.worker
        nbytes = part.nominal_nbytes
        tracer = cluster.obs.tracer
        track = tracer.track(cluster.master_name, "rebalance")
        n_blocks = max(1, math.ceil(
            nbytes / cluster.config.flink.pipeline_block_nbytes))
        with tracer.span("rebalance.migrate", "rebalance", track,
                         dataset=uid, partition=part.index, src=source,
                         dst=target, nbytes=nbytes):
            frame_s = cluster.serializer.zero_copy_time(nbytes, n_blocks)
            if frame_s > 0:
                yield self.env.timeout(frame_s)
            if nbytes > 0 and source != target:
                yield from cluster.network.transfer(source, target,
                                                    int(nbytes))
        src_worker = cluster.workers.get(source)
        if src_worker is not None:
            src_worker.taskmanager.remove_partition(uid, part.index)
        part.worker = target
        dst_worker = cluster.workers.get(target)
        if dst_worker is not None:
            dst_worker.taskmanager.put_partition(uid, part)
        reg = cluster.obs.registry
        reg.counter("rebalance.partitions", dst=target).inc()
        reg.counter("rebalance.bytes", dst=target).inc(nbytes)
        cluster.obs.monitor.count("rebalance.partitions", dst=target)

    # -- membership-event flows ----------------------------------------------------
    def rebalance_onto(self, joiner: str) -> Generator[Event, None, int]:
        """Simulation process: even out cached partitions toward ``joiner``.

        Repeatedly takes one partition from the most-loaded member (by
        resident count, ties broken by name) until the joiner is within one
        partition of every donor — the same stop rule a consistent-hash
        ring's expected transfer gives, but deterministic.  Returns the
        number of partitions moved.
        """
        moved = 0
        while True:
            if not self.cluster.worker_is_schedulable(joiner):
                break  # joiner died/drained while we were moving state
            counts = self.resident_counts()
            if joiner not in counts:
                break
            donors = [(n, c) for n, c in counts.items()
                      if n != joiner and c > counts[joiner] + 1
                      and self.cluster.worker_is_alive(n)]
            if not donors:
                break
            donor = max(donors, key=lambda nc: (nc[1], nc[0]))[0]
            choice: Optional[Tuple[int, Partition]] = next(
                ((uid, part) for uid, part in self._inventory()
                 if part.worker == donor), None)
            if choice is None:
                break
            yield from self.migrate_partition(choice[0], choice[1], joiner)
            moved += 1
        if moved:
            self.cluster.note_recovery_action("rebalance")
        return moved

    def migrate_off(self, leaver: str) -> Generator[Event, None, int]:
        """Simulation process: move every partition off a draining worker.

        Destinations are the schedulable members, least-loaded first
        (recomputed after each move so the drained state spreads evenly).
        Returns the number of partitions moved; partitions stay put — and
        fall to lineage recovery — only when no member can take them.
        """
        moved = 0
        for uid, part in self._inventory():
            if part.worker != leaver:
                continue
            worker = self.cluster.workers.get(leaver)
            if worker is not None and not worker.alive:
                break  # killed mid-drain: the failure path owns the rest
            counts = self.resident_counts()
            targets = [n for n in self.cluster.member_names()
                       if n != leaver
                       and self.cluster.worker_is_schedulable(n)]
            if not targets:
                break
            target = min(targets, key=lambda n: (counts.get(n, 0), n))
            yield from self.migrate_partition(uid, part, target)
            moved += 1
        if moved:
            self.cluster.note_recovery_action("rebalance")
        return moved
