"""Two-clock benchmark of the GFlink simulator: host time and simulated time.

Run from the repository root:

    python3 perfbench/run.py --workload pagerank-rows --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up and run are repeated
on fresh clusters for ``--seconds`` of host time, each timing is scaled to
a reference host speed measured just before it (see ``REFERENCE_S``) and
reported as a median with its sample count, and every run's output is
checked.
``--trace 1`` makes the same untraced runs, then one traced run that
records a span around every call into each layer (see ``layers.py``) and
reports per-layer host self time, the simulated critical path and the
layers' counters.  Workloads run one at a time in this one process, with
no worker threads.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
the ones ``BENCHMARK.json`` lists.  Simulated metrics are compared exactly
across every run in the process; any difference is reported as a
determinism defect naming the metric, and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# One process, no worker threads: keep NumPy's BLAS single-threaded too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: The host's speed drifts with other load by up to 2x for a minute at a
#: time.  ``reference_loop`` is timed REFERENCE_SAMPLES times just before
#: every set-up, and that set-up and the run after it are scaled to the
#: speed where the samples' median takes REFERENCE_S: about the loop's time
#: on the least loaded 2 GHz Xeon vCPU host seen.
REFERENCE_S = 0.033
REFERENCE_SAMPLES = 3


def reference_loop(n: int = 20_000) -> float:
    """Host seconds of fixed work shaped like the simulator's, independent
    of the program: allocate ``n`` small dicts, link each to a scattered
    other one, follow every link once, push and pop a heap of ``n`` entries
    (the event queue), and a few small NumPy operations."""
    import numpy as np
    t0 = perf_counter()
    nodes = [{"id": i, "next": None, "w": 0.0} for i in range(n)]
    for i, node in enumerate(nodes):
        node["next"] = nodes[(i * 7919) % n]
    heap = []
    for i, node in enumerate(nodes):
        node["next"]["w"] += 1.0
        heapq.heappush(heap, ((i * 31) % 10007, i))
    while heap:
        heapq.heappop(heap)
    a = np.arange(1000.0)
    for _ in range(60):
        a = a * 1.0001 + 1.0
    return perf_counter() - t0


@dataclass
class Facts:
    """Everything kept from one run: its outputs and simulated counters."""

    values: Dict[str, Any]
    #: Simulated quantities: compared exactly across runs.
    sim: Dict[str, float]
    profiles: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    post_s: Dict[str, float] = field(default_factory=dict)


def facts_of(outcome) -> Facts:
    """Extract the run's outputs and counters, so its clusters can go."""
    jms = outcome.job_metrics()

    def total(attr: str) -> float:
        return float(sum(getattr(jm, attr) for jm in jms))

    hits, misses, evictions = outcome.cache_counts()
    sim = dict(outcome.sim)
    sim.update({
        "shuffle.bytes": total("shuffle_bytes"),
        "shuffle.zero_copy_bytes": total("shuffle_zero_copy_bytes"),
        "shuffle.spill_bytes": total("shuffle_spill_bytes"),
        "hdfs.read_bytes": total("hdfs_read_bytes"),
        "hdfs.write_bytes": total("hdfs_write_bytes"),
        "executor.subtasks": total("subtasks"),
        "pipeline.h2d_starved": total("pipeline_h2d_starved"),
        "pipeline.backpressure_stalls": total("pipeline_backpressure_stalls"),
        "gpu.pcie_bytes": float(sum(c.total_pcie_bytes()
                                    for c in outcome.clusters.values())),
        "gcache.hits": float(hits),
        "gcache.misses": float(misses),
        "gcache.evictions": float(evictions),
        # -1 marks a cache that was never probed.
        "gcache.hit_rate": hits / (hits + misses) if hits + misses else -1.0,
        "recovery.retries": total("retries"),
        "recovery.partitions": total("recovered_partitions"),
        "recovery.fallback_tasks": total("fallback_tasks"),
        "obs.spans": float(outcome.obs_spans),
    })
    summary = outcome.engine.summary() if outcome.engine else {}
    sim["recovery.faults_applied"] = float(summary.get("events_applied", 0))
    sim["recovery.latency_max_s"] = float(
        summary.get("recovery_latency_s", {}).get("max", 0.0))
    return Facts(outcome.values, sim, dict(outcome.profiles),
                 dict(outcome.post_s))


def differences(ref: Facts, got: Facts, label: str) -> List[str]:
    """Determinism defects of ``got`` against the first run ``ref``."""
    from repro.flink.chaos import values_equal
    out = [f"determinism defect: {name} read {got.sim.get(name)!r} in the "
           f"{label}, {value!r} in the first run"
           for name, value in ref.sim.items() if got.sim.get(name) != value]
    for mode, value in ref.values.items():
        if not values_equal(value, got.values.get(mode)):
            out.append(f"determinism defect: {mode} result of the {label} "
                       f"differs from the first run")
    return out


@dataclass
class Measurement:
    """A workload's runs in this process."""

    host_s: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    reference_s: List[float] = field(default_factory=list)
    #: REFERENCE_S over the reference median measured before each set-up,
    #: and before each timed run.
    setup_speed: List[float] = field(default_factory=list)
    host_speed: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    first: Optional[Facts] = None
    post_s: Dict[str, List[float]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(problems)


def timed_setup(wl, m: Measurement):
    gc.collect()
    samples = [reference_loop() for _ in range(REFERENCE_SAMPLES)]
    m.reference_s.extend(samples)
    m.setup_speed.append(REFERENCE_S / median(samples))
    gc.collect()  # the loop's node cycles
    t0 = perf_counter()
    prepared = wl.setup()
    m.setup_s.append(perf_counter() - t0)
    return prepared


def attempt(wl, prepared, m: Measurement, label: str):
    """``wl.run(prepared)``; a raise is counted as a failed run (None)."""
    try:
        return wl.run(prepared)
    except Exception:  # a failed run is a measured outcome
        traceback.print_exc(file=sys.stderr)
        m.record([f"{label} raised"])
        return None


def checked(wl, outcome, reference, m: Measurement, label: str) -> Facts:
    """Check a run's output and its determinism against the first run."""
    facts = facts_of(outcome)
    problems = [f"{label}: {e}" for e in wl.check(outcome, reference)]
    if m.first is None:
        m.first = facts
    else:
        problems += differences(m.first, facts, label)
    m.record(problems)
    return facts


def measure(wl, seconds: float, trace: bool, min_setups: int = 15
            ) -> Measurement:
    """Timed runs for ``seconds``, then (with ``trace``) the traced run."""
    m = Measurement()
    prepared = timed_setup(wl, m)
    reference = wl.reference(prepared)
    deadline = perf_counter() + seconds
    rep = 0
    while True:
        if prepared is None:
            prepared = timed_setup(wl, m)
        gc.collect()
        t0 = perf_counter()
        outcome = attempt(wl, prepared, m, f"run {rep}")
        elapsed = perf_counter() - t0
        prepared = None
        if outcome is not None:
            m.host_s.append(elapsed)
            m.host_speed.append(m.setup_speed[-1])
            facts = checked(wl, outcome, reference, m, f"run {rep}")
            for key, value in facts.post_s.items():
                m.post_s.setdefault(key, []).append(value)
        outcome = None
        rep += 1
        if perf_counter() >= deadline:
            break
    while len(m.setup_s) < min_setups:
        timed_setup(wl, m)
    if trace and m.first is not None:
        traced_run(wl, reference, m)
    return m


def traced_run(wl, reference, m: Measurement) -> None:
    """Per-layer self times from one run with every layer wrapped."""
    from layers import OTHER, LAYERS, LayerPatch, SpanRecorder, self_times

    names = list(LAYERS) + [OTHER]
    rec = SpanRecorder(names)
    wrapped = [n for n in LAYERS if n != "obs" or wl.telemetry]
    with LayerPatch(rec, wrapped):
        prepared = wl.setup()
        gc.collect()
        rec.reset()
        root = rec.open(names.index(OTHER))
        try:
            outcome = attempt(wl, prepared, m, "traced run")
        finally:
            rec.close(root)
    if outcome is None:
        return
    facts = checked(wl, outcome, reference, m, "traced run")
    del outcome, prepared

    arrays = rec.arrays()
    selfs = self_times(arrays["layer"], arrays["parent"], arrays["start"],
                       arrays["end"], len(names))
    traced_s = float(arrays["end"][root] - arrays["start"][root])
    if abs(float(selfs.sum()) - traced_s) > 1e-6 * max(traced_s, 1.0):
        m.errors.append(f"span accounting: self times sum to "
                        f"{float(selfs.sum())!r}, traced run took "
                        f"{traced_s!r}")
    OUT.mkdir(parents=True, exist_ok=True)
    rec.dump(OUT / f"spans-{wl.name}.npz")

    calls = rec.calls_by_entry()
    layer_calls = {n: 0 for n in names}
    for lid, n in zip(rec.entry_layer, rec.calls):
        layer_calls[names[lid]] += n
    layers = {f"{n}.self_s": float(selfs[i]) for i, n in enumerate(names)}
    events = calls.get("Environment.step", 0)
    layers.update({
        "trace.host_s": traced_s,
        "trace.spans": float(len(arrays["start"])),
        "simclock.events": float(events),
        "simclock.us_per_event": (1e6 * layers["simclock.self_s"] / events
                                  if events else 0.0),
        "iterators.calls": float(layer_calls["iterators"]),
        "columnar.calls": float(layer_calls["columnar"]),
        "resources.calls": float(layer_calls["resources"]),
        "network.transfers": float(calls.get("Network.transfer", 0)),
        "gpu.transfers": float(sum(n for e, n in calls.items()
                                   if e.startswith("CUDAWrapper.transfer_"))),
        "gpu.kernel_launches": float(
            sum(n for e, n in calls.items()
                if e.startswith("CUDAWrapper.launch_kernel"))),
    })
    m.layers = layers

    # The critical path needs the program's tracer.  A workload whose own
    # telemetry is on already has it; the others get one more run with
    # tracing forced on, so the spans above and obs.* reflect the
    # workload's own configuration.
    if wl.telemetry:
        m.first.profiles = facts.profiles
        return
    label = "profiled run (tracing on)"
    outcome = attempt(wl, wl.setup(tracing=True), m, label)
    if outcome is not None:
        checked(wl, outcome, reference, m, label)
        m.first.profiles = wl.profile(outcome)


# -- metrics -------------------------------------------------------------------
def median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def scaled(xs: List[float], speeds: List[float]) -> List[float]:
    """Wall times at the reference speed."""
    return [x * f for x, f in zip(xs, speeds)]


def end_to_end(m: Measurement) -> Dict[str, float]:
    return {"host_s": median(scaled(m.host_s, m.host_speed)),
            "setup_s": median(scaled(m.setup_s, m.setup_speed)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(wl, m: Measurement) -> Dict[str, float]:
    from workloads import CP_CATEGORIES
    out = dict(m.first.sim)
    out.setdefault("sim_cpu_s", 0.0)
    out.update(m.layers)
    out["trace.overhead_ratio"] = (m.layers["trace.host_s"]
                                   / median(m.host_s))
    out["host.wall_s"] = median(m.host_s)
    out["host.reference_s"] = median(m.reference_s)
    out["obs.summarize_s"] = median(m.post_s.get("summarize_s", []))
    out["obs.export_s"] = median(m.post_s.get("export_s", []))
    out["fail_ratio"] = m.failed / m.attempted
    for mode, cats in CP_CATEGORIES.items():
        prof = m.first.profiles.get(mode)
        for cat in cats:
            out[f"cp.{mode}.{cat}_s"] = (
                prof["critical_path"]["categories"][cat] if prof else 0.0)
    gpu_prof = m.first.profiles.get("gpu")
    out["gpu.copy_compute_overlap_pct"] = (
        100.0 * gpu_prof["totals"]["copy_compute_overlap_pct"]
        if gpu_prof else 0.0)
    speedup, err = model_fidelity(wl, m.first)
    out["model.speedup"], out["model.paper_err_pct"] = speedup, err
    return out


def model_fidelity(wl, facts: Facts):
    """(speedup, % error vs the paper); -1 where there is no reference."""
    if "sim_cpu_s" not in facts.sim:
        return -1.0, -1.0
    speedup = facts.sim["sim_cpu_s"] / facts.sim["sim_gpu_s"]
    if wl.paper_speedup is None:
        return speedup, -1.0
    return speedup, 100.0 * abs(speedup - wl.paper_speedup) / wl.paper_speedup


# -- report --------------------------------------------------------------------
def spread(xs: List[float]) -> str:
    return f"[{min(xs):.4f} .. {max(xs):.4f}]" if xs else ""


def report(wl, m: Measurement, e2e: Dict[str, float],
           layers: Optional[Dict[str, float]], units: Dict[str, str],
           out=sys.stdout) -> None:
    p = lambda *a: print(*a, file=out)  # noqa: E731
    p(f"workload={wl.name} seed={wl.seed} real={wl.real} "
      f"iterations={wl.iterations}")
    p(f"  why: {wl.why}")
    p("end-to-end (host: median at the reference speed [min .. max], then "
      "the same in wall time, over n; sim: exact)")
    for name, xs, speeds in (("host_s", m.host_s, m.host_speed),
                             ("setup_s", m.setup_s, m.setup_speed)):
        p(f"  {name:<14} {e2e[name]:.6f} s      n={len(xs)} "
          f"{spread(scaled(xs, speeds))} wall {median(xs):.6f} {spread(xs)}")
    p(f"  {'reference':<14} {median(m.reference_s):.6f} s      "
      f"n={len(m.reference_s)} {spread(m.reference_s)} "
      f"(REFERENCE_S {REFERENCE_S})")
    p(f"  {'peak_rss_mb':<14} {e2e['peak_rss_mb']:.3f} MB    n=1")
    if m.first is not None:
        for name in ("sim_gpu_s", "sim_cpu_s"):
            if name in m.first.sim:
                p(f"  {name:<14} {m.first.sim[name]!r} sim s  "
                  f"n={len(m.host_s)}")
    p(f"  {'fail_ratio':<14} {m.failed / max(m.attempted, 1):.4f}           "
      f"n={m.attempted} ({m.failed} failed)")
    if m.first is not None:
        speedup, err = model_fidelity(wl, m.first)
        if err >= 0:
            p(f"model: speedup {speedup:.4f}x vs paper "
              f"{wl.paper_speedup}x, error {err:.2f}%")
        else:
            p("model: unvalidated (no paper reference at this "
              "configuration)")
    for error in m.errors:
        p(f"DEFECT: {error}")
    if layers:
        p("per-layer (traced run host self time; counters; cp = simulated "
          "critical path)")
        for name in sorted(layers):
            p(f"  {name:<34} {layers[name]!r} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot load the program from {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported {repro.__file__}, not the program "
              f"under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")

    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    wl = WORKLOADS[args.workload](seed=args.seed, out_dir=OUT / args.workload)
    m = measure(wl, args.seconds, bool(args.trace))
    e2e = end_to_end(m)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {d["name"]: d["unit"] for d in
             spec["end_to_end"] + spec["per_layer"]}
    layers = per_layer(wl, m) if args.trace and m.layers else None
    report(wl, m, e2e, layers, units)
    values = layers if args.trace else e2e
    if values is None:
        print("perfbench: no successful run to trace", file=sys.stderr)
        return 1
    correct = m.failed == 0 and not m.errors
    print(json.dumps({
        "correct": correct, "attempted": m.attempted, "failed": m.failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
                    for d in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
