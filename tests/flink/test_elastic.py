"""Elastic membership end-to-end: join/drain/leave, rebalancing.

Covers the elasticity contracts:

* mid-job joins/drains/leaves change placement and timing only — job
  results stay bit-identical to a static-membership run;
* a graceful drain migrates every cached partition (zero lineage
  recomputes) and decommissions the co-located datanode;
* an abrupt leave falls back to the PR 4 failure machinery (declaration,
  retry, lineage recovery);
* ``Scheduler.reschedule`` has a deterministic fallback when every healthy
  worker is in the avoid set (the satellite regression);
* empty chaos/churn schedules perturb nothing, even with monitoring and
  tracing enabled under the pipelined executor.
"""

import pytest

from repro.flink import FlinkSession
from repro.flink.chaos import (
    ChaosSchedule,
    ChurnSchedule,
    FaultKind,
    values_equal,
)
from repro.flink.graph import ExecutionVertex
from repro.flink.rebalance import Rebalancer
from repro.flink.scheduler import Scheduler
from tests.flink.conftest import make_cluster


class TestMembership:
    def test_join_registers_everything(self):
        cluster = make_cluster(n_workers=2)
        name = cluster.add_worker()
        assert name == "elastic0"
        assert cluster.is_member(name)
        assert name in cluster.workers
        assert name in cluster.hdfs.datanodes
        assert name in cluster.hdfs.namenode.datanode_names
        assert name in cluster.network.nodes
        # Logical partitioning stays pinned to the configured shape.
        assert cluster.default_parallelism == cluster.config.total_slots

    def test_join_name_collision_rejected(self):
        cluster = make_cluster(n_workers=2)
        with pytest.raises(Exception):
            cluster.add_worker("worker0")

    def test_drain_retires_worker(self):
        cluster = make_cluster(n_workers=3, enable_tracing=True)
        cluster.env.process(cluster.drain_worker("worker2"), name="drain")
        cluster.env.run()
        worker = cluster.workers["worker2"]
        assert not cluster.is_member("worker2")
        assert worker.departed and not worker.alive
        assert not cluster.worker_is_schedulable("worker2")
        # Drains are silent departures, not failures: declared (so nothing
        # ever waits on the heartbeat timeout) without failure counters.
        assert cluster.worker_is_declared_dead("worker2")
        assert cluster.obs.registry.sum_values("worker.failures") == 0
        assert "worker2" not in cluster.hdfs.namenode.datanode_names

    def test_departed_name_cannot_rejoin(self):
        cluster = make_cluster(n_workers=3)
        cluster.env.process(cluster.drain_worker("worker2"), name="drain")
        cluster.env.run()
        with pytest.raises(Exception):
            cluster.add_worker("worker2")

    def test_abrupt_leave_uses_failure_path(self):
        cluster = make_cluster(n_workers=3, enable_tracing=True,
                               heartbeat_interval_s=0.05,
                               heartbeat_timeout_s=0.1)
        cluster.install_chaos(ChaosSchedule())
        cluster.remove_worker("worker1")
        cluster.env.run()
        assert not cluster.is_member("worker1")
        assert not cluster.workers["worker1"].alive
        assert cluster.worker_is_declared_dead("worker1")
        assert cluster.obs.registry.sum_values("worker.failures") == 1


class TestRebalance:
    def _persisted(self, cluster, parallelism=6):
        session = FlinkSession(cluster)
        data = session.from_collection(list(range(12)),
                                       parallelism=parallelism) \
            .map(lambda x: x + 1, name="stage1").persist()
        data.collect()
        return data

    def test_join_rebalances_cached_partitions(self):
        cluster = make_cluster(n_workers=2, enable_tracing=True)
        data = self._persisted(cluster)
        name = cluster.add_worker()
        cluster.env.run()  # let the rebalance process drain
        counts = Rebalancer(cluster).resident_counts()
        assert counts[name] >= 1
        # Migration is bookkeeping, not recomputation: the follow-up job
        # sees every partition where the store says it is.
        result = data.map(lambda x: x * 10, name="stage2").collect()
        assert sorted(result.value) == [(x + 1) * 10 for x in range(12)]
        assert result.metrics.recovered_partitions == 0
        assert cluster.obs.registry.sum_values("rebalance.partitions") \
            == counts[name]

    def test_drain_migrates_everything_no_lineage(self):
        cluster = make_cluster(n_workers=3)
        data = self._persisted(cluster)
        held = [p for p in cluster.materialized[data.op.uid]
                if p.worker == "worker2"]
        assert held  # the drain actually has state to move
        cluster.env.process(cluster.drain_worker("worker2"), name="drain")
        cluster.env.run()
        assert all(p.worker != "worker2"
                   for p in cluster.materialized[data.op.uid])
        result = data.map(lambda x: x * 10, name="stage2").collect()
        assert sorted(result.value) == [(x + 1) * 10 for x in range(12)]
        assert result.metrics.recovered_partitions == 0

    def test_abrupt_leave_recovers_by_lineage(self):
        cluster = make_cluster(n_workers=3, heartbeat_interval_s=0.05,
                               heartbeat_timeout_s=0.1)
        cluster.install_chaos(ChaosSchedule())
        data = self._persisted(cluster)
        lost = {p.index for p in cluster.materialized[data.op.uid]
                if p.worker == "worker2"}
        assert lost
        cluster.remove_worker("worker2")
        result = data.map(lambda x: x * 10, name="stage2").collect()
        assert sorted(result.value) == [(x + 1) * 10 for x in range(12)]
        assert result.metrics.recovered_partitions == len(lost)


class TestChurnBitIdentity:
    def _run_job(self, cluster):
        session = FlinkSession(cluster)
        data = session.from_collection(list(range(60)), parallelism=4)
        return (data.map(lambda x: x * 3, name="triple")
                    .map(lambda x: x + 1, name="inc")
                    .group_by(lambda x: x % 5)
                    .reduce(lambda a, b: a + b, name="sum")
                    .collect())

    @pytest.mark.parametrize("executor", ["staged", "pipelined"])
    def test_churn_matrix_identical(self, executor):
        overrides = dict(executor=executor, enable_chaining=False,
                         heartbeat_interval_s=0.02,
                         heartbeat_timeout_s=0.05,
                         retry_backoff_base_s=0.01)
        baseline = self._run_job(make_cluster(n_workers=3, **overrides))
        span = baseline.seconds
        # >= 2 joins and >= 2 leaves mid-job, one graceful + one abrupt.
        schedule = (ChurnSchedule()
                    .join_worker(at=span * 0.1)
                    .join_worker(at=span * 0.2)
                    .drain_worker("worker2", at=span * 0.4)
                    .leave_worker("elastic0", at=span * 0.6))
        cluster = make_cluster(n_workers=3, **overrides)
        engine = cluster.install_chaos(schedule)
        result = self._run_job(cluster)
        assert engine.summary()["events_applied"] == 4
        assert values_equal(sorted(baseline.value), sorted(result.value))

    def test_random_churn_identical(self):
        overrides = dict(heartbeat_interval_s=0.02,
                         heartbeat_timeout_s=0.05,
                         retry_backoff_base_s=0.01)
        baseline = self._run_job(make_cluster(n_workers=3, **overrides))
        schedule = ChurnSchedule.random(
            seed=10, duration_s=baseline.seconds,
            workers=["worker0", "worker1", "worker2"],
            join_rate=3.0 / baseline.seconds,
            leave_rate=2.0 / baseline.seconds, min_workers=2)
        cluster = make_cluster(n_workers=3, **overrides)
        cluster.install_chaos(schedule)
        result = self._run_job(cluster)
        assert values_equal(sorted(baseline.value), sorted(result.value))

    def test_random_churn_schedule_is_deterministic(self):
        kwargs = dict(seed=13, duration_s=120.0,
                      workers=["w0", "w1", "w2"], join_rate=0.03,
                      leave_rate=0.02, min_workers=1)
        a = ChurnSchedule.random(**kwargs).events
        b = ChurnSchedule.random(**kwargs).events
        assert a == b
        kinds = {e.kind for e in a}
        assert kinds <= {FaultKind.WORKER_JOIN, FaultKind.WORKER_DRAIN,
                         FaultKind.WORKER_LEAVE}


class _DummyOp:
    name = "op"


class TestSchedulerFallback:
    """Satellite regression: reschedule when every healthy worker is in
    the avoid set must fall back deterministically, not arbitrarily."""

    def test_all_avoided_detection(self):
        sched = Scheduler(["w0", "w1"])
        assert sched.all_avoided(["w0", "w1"])
        assert not sched.all_avoided(["w0"])

    def test_fallback_prefers_least_recently_faulted(self):
        sched = Scheduler(["w0", "w1", "w2"])
        sched.note_fault("w0")   # oldest fault
        sched.note_fault("w2")
        sched.note_fault("w1")   # most recent fault
        vertex = ExecutionVertex(_DummyOp(), 0)
        picked = sched.reschedule(vertex, avoid=("w0", "w1", "w2"))
        assert picked == "w0"

    def test_fallback_never_faulted_wins(self):
        sched = Scheduler(["w0", "w1"])
        sched.note_fault("w0")
        vertex = ExecutionVertex(_DummyOp(), 0)
        assert sched.reschedule(vertex, avoid=("w0", "w1")) == "w1"

    def test_normal_path_still_avoids(self):
        sched = Scheduler(["w0", "w1"])
        vertex = ExecutionVertex(_DummyOp(), 0)
        assert sched.reschedule(vertex, avoid=("w0",)) == "w1"

    def test_single_worker_cluster_falls_back_to_it(self):
        sched = Scheduler(["w0"])
        sched.note_fault("w0")
        vertex = ExecutionVertex(_DummyOp(), 0)
        assert sched.reschedule(vertex, avoid=("w0",)) == "w0"


class TestEmptySchedules:
    """Satellite: an installed-but-empty schedule perturbs nothing, even
    with monitoring + tracing on under the pipelined executor."""

    def _run(self, schedule):
        cluster = make_cluster(n_workers=2, executor="pipelined",
                               enable_tracing=True, enable_monitoring=True)
        if schedule is not None:
            cluster.install_chaos(schedule)
        session = FlinkSession(cluster)
        data = session.from_collection(list(range(40)), parallelism=4)
        return data.map(lambda x: x + 7, name="add").collect()

    def test_empty_schedules_bit_identical_clock(self):
        plain = self._run(None)
        chaos = self._run(ChaosSchedule())
        churn = self._run(ChurnSchedule())
        assert plain.seconds == chaos.seconds == churn.seconds
        assert values_equal(plain.value, chaos.value)
        assert values_equal(plain.value, churn.value)


class TestRecoveryLatencyReport:
    def test_summary_has_percentiles_and_report_renders(self):
        from repro.flink.report import resilience_report
        cluster = make_cluster(n_workers=3, heartbeat_interval_s=0.05,
                               heartbeat_timeout_s=0.1,
                               retry_backoff_base_s=0.01)
        engine = cluster.install_chaos(
            ChaosSchedule().kill_worker("worker2", at=0.5))
        session = FlinkSession(cluster)
        data = session.from_collection(list(range(40)), parallelism=6) \
            .map(lambda x: x + 1, name="slow").persist()
        data.collect()
        cluster.env.run()
        summary = engine.summary()
        recovery = summary["recovery_latency_s"]
        assert recovery["count"] == 1.0
        assert recovery["p50"] >= 0.1  # at least the heartbeat timeout
        assert recovery["p99"] >= recovery["p50"]
        assert summary["per_event"][0]["kind"] == "worker-kill"
        assert "declare" in summary["per_event"][0]["actions"]

        class _Result:
            job_metrics = []
            total_seconds = 1.0
        text = resilience_report(engine, _Result())
        assert "recovery latency" in text

    def test_latency_measured_from_applied_time_not_scheduled_time(self):
        cluster = make_cluster(n_workers=3, heartbeat_interval_s=0.05,
                               heartbeat_timeout_s=0.1,
                               retry_backoff_base_s=0.01)
        cluster.env.run(until=30.0)
        # Scheduled in the past: the engine applies it on install, at 30.
        engine = cluster.install_chaos(
            ChaosSchedule().kill_worker("worker2", at=0.5))
        session = FlinkSession(cluster)
        data = session.from_collection(list(range(40)), parallelism=6) \
            .map(lambda x: x + 1, name="slow").persist()
        result = data.collect()
        cluster.env.run()
        assert engine.applied_at == [30.0]
        summary = engine.summary()
        event = summary["per_event"][0]
        assert event["at"] == 0.5 and event["applied_at"] == 30.0
        assert 0.1 <= event["recovery_latency_s"] <= result.seconds
        detection = summary["detection_latency_s"]["worker2"]
        assert 0.1 <= detection < 1.0
