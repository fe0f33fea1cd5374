"""Smoke tests of the benchmark's own code, at tiny sizes.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from layers import LayerPatch, SpanRecorder, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"pagerank-rows": dict(real=300, iterations=2),
        "spmv-cache-overflow": dict(real=400, iterations=2),
        "wordcount-columnar-faults": dict(real=2000)}


def test_self_times_on_a_synthetic_tree():
    # other [0, 10] > a [1, 4] > b [2, 3];  other > b [5, 9]
    layer = np.array([2, 0, 1, 1])
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    selfs = self_times(layer, parent, start, end, 3)
    assert selfs.tolist() == [2.0, 5.0, 3.0]
    assert selfs.sum() == end[0] - start[0]


def test_recorder_nests_spans_and_skips_same_layer_calls():
    rec = SpanRecorder(["a", "b", "other"])
    inner = layers._wrap_call(lambda: 7, 1, rec.entry("f", "b"), rec)
    same = layers._wrap_call(lambda: inner(), 1, rec.entry("g", "b"), rec)
    outer = layers._wrap_call(lambda: same() + inner(), 0,
                              rec.entry("h", "a"), rec)
    root = rec.open(2)
    assert outer() == 14
    rec.close(root)
    arrays = rec.arrays()
    # root, h (a), g (b); f inside g is a same-layer call: no span.
    assert arrays["layer"].tolist() == [2, 0, 1, 1]
    assert arrays["parent"].tolist() == [-1, 0, 1, 1]
    assert rec.calls_by_entry() == {"f": 1, "g": 1, "h": 1}


def test_generator_wrapper_keeps_yield_from_semantics():
    def worker():
        got = []
        try:
            got.append((yield 1))
            got.append((yield 2))
        except KeyError as exc:
            got.append(("thrown", exc.args[0]))
            got.append((yield 3))
        return got

    def drive(gen):
        out = [gen.send(None), gen.send("x"), gen.throw(KeyError("k"))]
        try:
            gen.send("y")
        except StopIteration as stop:
            out.append(stop.value)
        return out

    rec = SpanRecorder(["g", "other"])
    wrapped = layers._wrap_generator(worker, 0, rec.entry("worker", "g"),
                                     rec)
    assert drive(wrapped()) == drive(worker())
    assert rec.calls_by_entry() == {"worker": 1}
    assert len(rec.arrays()["start"]) == 4  # one span per resume


def test_patch_covers_by_name_imports_and_is_undone():
    import repro.flink.iterators as iterators
    import repro.flink.plan as plan
    import repro.flink.shuffle as shuffle
    original = (iterators.apply_map, plan.apply_map,
                shuffle.Exchange.__dict__["run"])
    with LayerPatch(SpanRecorder(list(layers.LAYERS)),
                    ["iterators", "shuffle"]):
        assert plan.apply_map is iterators.apply_map
        assert plan.apply_map is not original[0]
        assert shuffle.Exchange.__dict__["run"] is not original[2]
    assert (iterators.apply_map, plan.apply_map,
            shuffle.Exchange.__dict__["run"]) == original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_measures_traces_and_checks(name, tmp_path,
                                                  monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = WORKLOADS[name](seed=3, out_dir=tmp_path, **TINY[name])
    m = run.measure(wl, seconds=0.0, trace=True, min_setups=2)
    assert m.errors == [] and m.failed == 0
    assert m.attempted >= 2  # a timed run and the traced run
    metrics = run.per_layer(wl, m)
    assert {d["name"] for d in SPEC["per_layer"]} <= set(metrics)
    selfs = sum(v for k, v in metrics.items()
                if k.endswith(".self_s"))
    assert selfs == pytest.approx(metrics["trace.host_s"], rel=1e-6)
    assert (metrics["obs.self_s"] > 0) == wl.telemetry
    assert metrics["simclock.events"] > 0
    assert (tmp_path / f"spans-{name}.npz").exists()
    assert set(run.end_to_end(m)) == {d["name"] for d in SPEC["end_to_end"]}


def test_exits_nonzero_without_the_program(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pagerank-rows",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_drift_is_a_determinism_defect_naming_the_metric():
    first = run.Facts({"gpu": np.ones(3)}, {"sim_gpu_s": 9.5, "gcache.hits": 4})
    same = run.Facts({"gpu": np.ones(3)}, {"sim_gpu_s": 9.5, "gcache.hits": 4})
    drift = run.Facts({"gpu": np.ones(3)},
                      {"sim_gpu_s": 9.5000001, "gcache.hits": 4})
    assert run.differences(first, same, "run 1") == []
    (defect,) = run.differences(first, drift, "run 2")
    assert "determinism defect: sim_gpu_s" in defect


def test_each_time_is_scaled_by_the_speed_measured_before_it():
    m = run.Measurement(host_s=[1.0, 4.0, 3.0], host_speed=[1.0, 0.25, 1.0],
                        setup_s=[0.2, 0.1], setup_speed=[0.5, 1.0],
                        reference_s=[run.REFERENCE_S])
    e2e = run.end_to_end(m)
    assert e2e["host_s"] == 1.0  # median of 1.0, 1.0 and 3.0
    assert e2e["setup_s"] == 0.1
    assert run.reference_loop(n=100) > 0
