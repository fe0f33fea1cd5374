#!/usr/bin/env bash
# CI entry point: tier-1 tests plus a benchmark smoke run.
#
#   scripts/ci.sh          # tests + bench smoke (writes BENCH_PR1.json)
#   scripts/ci.sh --fast   # tests only
#
# The bench smoke runs the suites this PR's feature work rides on (GPU
# operator chaining, cache GC policies); the full paper-figure suite is
# `python -m pytest benchmarks/`.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

echo "== tier-1: unit + integration tests =="
python -m pytest -q

echo "== perfbench smoke tests (outside tier-1's testpaths) =="
python -m pytest -q perfbench/tests

echo "== lint: cache-region table is private to gmemory.py/repro.obs =="
if grep -rnE '(^|[^a-zA-Z0-9_])_regions\b' src/repro --include='*.py' \
        | grep -v 'repro/core/gmemory\.py' \
        | grep -v 'repro/obs/'; then
    echo "FAIL: _regions accessed outside core/gmemory.py and repro/obs" >&2
    exit 1
fi
echo "ok"

if [[ "${1:-}" != "--fast" ]]; then
    echo "== traced bench smoke: wordcount (pipelined) + schema validation =="
    python -m repro trace wordcount --workers 2 --real 4000 --nominal 1e6 \
        --executor pipelined \
        --out traces/ci_wordcount.json \
        --metrics-out traces/ci_wordcount_metrics.json
    python -m repro.obs.validate traces/ci_wordcount.json

    echo "== traced bench smoke: wordcount (staged) + schema validation =="
    # The barriered executor stays supported (FlinkConfig.executor);
    # its trace must keep validating too.
    python -m repro trace wordcount --workers 2 --real 4000 --nominal 1e6 \
        --executor staged \
        --out traces/ci_wordcount_staged.json
    python -m repro.obs.validate traces/ci_wordcount_staged.json

    echo "== profile gate: critical path + regression vs committed baseline =="
    # Profiles the traced smoke (the summary schema is validated by the
    # profile command itself) and compares against the committed baseline.
    # Generous thresholds: the simulated clock is deterministic, so any
    # drift at all means the model changed — but the gate only *fails* on
    # substantial slowdowns.  Refresh the baseline deliberately with:
    #   python -m repro profile traces/ci_wordcount.json --quiet \
    #       --json traces/ci_wordcount_profile_baseline.json
    # --explain attributes any makespan drift to a ranked cause list so a
    # tripped gate names its culprit in the CI log.
    python -m repro profile traces/ci_wordcount.json \
        --json traces/ci_profile_summary.json \
        --baseline traces/ci_wordcount_profile_baseline.json \
        --threshold makespan_s=0.25 --threshold critical_path=0.60 \
        --threshold operator_wall=0.60 --threshold overlap_pct=0.50 \
        --explain

    echo "== explain self-diff smoke: a summary vs itself has no causes =="
    explain_out=$(python -m repro profile traces/ci_wordcount.json --quiet \
        --baseline traces/ci_wordcount.json --explain)
    echo "$explain_out" | grep -q 'no causes above the noise floor'

    echo "== traced bench smoke: wordcount (vectorized columnar) + profile gate =="
    # Block-vectorized operators + zero-copy columnar shuffle: same counts,
    # different charge model — gated against its own committed baseline.
    # Refresh deliberately with:
    #   python -m repro profile traces/ci_wordcount_vectorized.json --quiet \
    #       --json traces/ci_wordcount_vectorized_profile_baseline.json
    python -m repro trace wordcount --workers 2 --real 4000 --nominal 1e6 \
        --executor pipelined --vectorized \
        --out traces/ci_wordcount_vectorized.json
    python -m repro.obs.validate traces/ci_wordcount_vectorized.json
    python -m repro profile traces/ci_wordcount_vectorized.json \
        --json traces/ci_vectorized_profile_summary.json \
        --baseline traces/ci_wordcount_vectorized_profile_baseline.json \
        --threshold makespan_s=0.25 --threshold critical_path=0.60 \
        --threshold operator_wall=0.60 --threshold overlap_pct=0.50 \
        --explain

    echo "== chaos smoke: wordcount survives worker kill + GPU fault =="
    # Exits non-zero unless the faulted run's result is identical to the
    # fault-free run's; the trace must also pass schema validation.
    python -m repro chaos wordcount --mode gpu --workers 4 --real 4000 \
        --kill worker1@150 --gpu-fail worker0:0@10 --backoff 0.05 \
        --out traces/ci_chaos_wordcount.json
    python -m repro.obs.validate traces/ci_chaos_wordcount.json

    echo "== monitored chaos smoke: alerts fire+resolve, summary + dashboard =="
    # Runs wordcount under a worker kill with the online monitor: the
    # command exits non-zero unless worker_unhealthy fired AND resolved
    # (and on any unresolved critical alert); availability=0.5 is a
    # deliberately forgiving gate so retry burn is reported, not fatal.
    rm -rf traces/ci_postmortems
    python -m repro monitor wordcount --mode gpu --workers 4 --real 4000 \
        --kill worker1@150 --gpu-fail worker0:0@10 --backoff 0.05 \
        --expect-alert worker_unhealthy --slo availability=0.5 \
        --postmortem-dir traces/ci_postmortems \
        --summary-out traces/ci_monitor_summary.json \
        --dashboard-out traces/ci_monitor_dashboard.html
    python -m repro.obs.validate traces/ci_monitor_summary.json
    test -s traces/ci_monitor_dashboard.html
    grep -q '<svg' traces/ci_monitor_dashboard.html

    echo "== flight recorder smoke: bundles validate and render =="
    # The fault injections and alert firings above must each have dumped
    # a post-mortem bundle; every bundle is schema-checked, then rendered.
    python -m repro.obs.validate traces/ci_postmortems/postmortem-*.json
    python -m repro postmortem traces/ci_postmortems > /dev/null

    echo "== churn smoke: wordcount with a mid-job join + drain, bit-identical =="
    # Elastic membership must change placement/timing only, never the
    # answer: the command exits non-zero unless the churned run's result
    # is identical to the static run's.  The trace (join/drain/rebalance
    # instants included) must keep validating against the schema.
    python -m repro chaos wordcount --mode gpu --workers 4 --real 4000 \
        --churn join@150 --churn drain:worker1@175 --backoff 0.05 \
        --out traces/ci_churn_wordcount.json
    python -m repro.obs.validate traces/ci_churn_wordcount.json

    echo "== churn profile gate: regression vs committed baseline =="
    # Same deterministic-clock contract as the fault-free gate: refresh
    # the baseline deliberately with:
    #   python -m repro profile traces/ci_churn_wordcount.json --quiet \
    #       --json traces/ci_churn_wordcount_profile_baseline.json
    python -m repro profile traces/ci_churn_wordcount.json \
        --json traces/ci_churn_profile_summary.json \
        --baseline traces/ci_churn_wordcount_profile_baseline.json \
        --threshold makespan_s=0.25 --threshold critical_path=0.60 \
        --threshold operator_wall=0.60 --threshold overlap_pct=0.50 \
        --explain

    echo "== bench smoke: GPU chaining ablation + cache policies + zero-copy shuffle + elasticity + explainer =="
    python -m pytest -q \
        benchmarks/bench_ablation_gpu_chaining.py \
        benchmarks/bench_fig8_cache.py \
        benchmarks/bench_shuffle.py \
        benchmarks/bench_elastic.py \
        benchmarks/bench_explain.py
    echo "consolidated results written to BENCH_PR1.json, BENCH_PR8.json, BENCH_PR9.json and BENCH_PR10.json"
fi

echo "CI OK"
