#!/usr/bin/env bash
# The full CI gate:
#   1. tier-1: default build with warnings as errors (-DHIA_WERROR=ON) +
#      full ctest suite, its output logged to ci/artifacts/ctest.log
#   2. traced smoke: hia_campaign with --trace/--summary, gated by
#      trace_lint (trace pairing, RunSummary schema with >=1 histogram and
#      >=1 gauge series); the summary must carry a staging_tasks_completed
#      counter above 0 and the recorder's trace_dropped_events counter
#   3. events gate: a recorded multi-tenant campaign (--events +
#      --status-interval + --attrib) must produce an hia-events-v1 file
#      that events_lint validates (framing, schema, timestamp
#      monotonicity, per-tenant conservation, zero drops) and whose
#      per-tenant partition exactly matches the service report
#      (hia_campaign exits nonzero otherwise); the same spill must then
#      attribute causally — tools/critical_path rebuilds every task's
#      timeline, requires the exact additive phase partition
#      (admit+queue+backoff+transfer+compute+drain == turnaround per
#      task), and enforces critical-path <= makespan; its RunSummary and
#      Chrome-trace waterfall are archived under ci/artifacts/
#   3b. one-recorder leg: one campaign traced (--trace) and recorded
#      (--events --attrib) at once, so spans and lifecycle records share
#      every thread's ring; trace_lint must pass, events_lint must report
#      0 dropped (exit 3 otherwise), --attrib must report "all partitions
#      exact", and the trace must report 0 dropped span records
#   3c. scripted-fault leg: one recorded two-tenant campaign fires every
#      step-triggered --faults directive (kill-bucket, crash-bucket,
#      crash-server, overload, credit-starve, tenant-hog) and injects
#      task-attempt timeouts (task-fail) on top; events_lint
#      must report 0 dropped, --attrib "all partitions exact", the report
#      "per-tenant conservation OK", the RunSummary one killed bucket, one
#      crashed bucket and one crashed server, and the resilience block
#      all three injected pressure rows
#   3d. crash-drill leg: EXPERIMENTS.md's ungraceful-crash drill (bucket
#      0 slowed 50x, crashed at step 2; server 0 crashed at step 4 under
#      --replicas 2) on fault seeds 1-8; each run's RunSummary must read
#      exactly one expired lease, one re-executed task and one fenced
#      zombie, events_lint 0 dropped, and --attrib "all partitions exact"
#   3e. resilience leg: one seeded frame- and task-fault plan run at
#      --buckets 1 and at --buckets 4; both RunSummaries must read the same
#      crc_failures, frame_retransmits, recovered_bytes, task_retries and
#      tasks_completed (fault draws are keyed on data identity, not on
#      bucket count or thread timing)
#   4. replay gate: tools/hia_plan replays the same spill under its own
#      recorded configuration (--calibrate) and must reproduce the
#      measured makespan within tolerance, then sweeps buckets=1..8;
#      the resulting RunSummary is diffed against
#      bench/baselines/BENCH_replay.json, which gates
#      replay_calibrated_ok and replay_sweep_ok as booleans
#      (tolerance 0.0 — gate booleans, not near-zero values)
#   5. doc hygiene: ci/check_headers.sh — every header under src/ has an
#      includer outside tests/ other than its own .cpp — then
#      ci/check_docs.sh — markdown relative links resolve,
#      every --flag the docs mention exists in hia_campaign or hia_plan
#      --help (or is allowlisted as another tool's flag), every hia_plan
#      flag is documented, the --faults and --overload directives in
#      docs/FAILURE_MODEL.md's tables match the ones --help lists, and
#      every tool in tools/ has a docs section
#   6. perf baselines: bench_fig5_scheduler's, bench_ablate_overload's,
#      and bench_ablate_tenants's RunSummaries diffed against
#      bench/baselines/ by tools/bench_diff — nonzero exit on drift past
#      the baseline's per-metric tolerances (the overload bench also
#      proves zero-overhead-when-off: its makespan_off_s point runs with
#      no control passed, so Dart keeps an idle ledger the service reads; the
#      tenants bench gates fair-share
#      conservation and hog isolation; the overload bench also A/Bs the
#      flight recorder and gates recorder_overhead_ok as a boolean)
#   7. soak: ci/soak.sh drives randomized bucket kills, phantom bytes,
#      credit starvation, and a multi-tenant hog through the adaptive
#      steering and fair-share paths; failures print the seed and an
#      exact replay command
#   8. benchmark: perfbench/run.py --self-test, then short sim-stats and
#      hybrid-topo-viz runs whose last lines must report "correct": true —
#      this re-runs perfbench's output checks (hybrid == in-situ
#      statistics, counts exact and moments 1e-9; the merge-tree and
#      ray-cast results of hybrid-topo-viz) so the gated benchmark cannot
#      rot unseen
#   9. shape checks: bench_table2, bench_ablate_spectrum and
#      bench_fig2_viz run from a temp dir and fail the gate on any
#      "[shape FAIL]" line; between them they run every statistics and
#      visualization placement, and bench_fig2_viz renders both placements
#      on the Fig. 2 frames (bench_fig6 stays out: its known FAIL is
#      ROADMAP item 6)
#  10. sanitizers: ASan+UBSan (with float-cast-overflow) over everything,
#      TSan over the concurrent paths (see ci/sanitize.sh; sanitizer runs
#      skip the perf gate — their timings are not comparable to baseline)
#
# Artifacts (RunSummary JSONs, Chrome trace) are archived
# under ci/artifacts/ for post-mortem reading.
#
#   ci/check.sh              # everything
#   ci/check.sh --fast       # tier-1 + smokes + perf gate (skip benchmark,
#                            # shape checks and sanitizers)
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

artifact_dir="ci/artifacts"
rm -rf "$artifact_dir"
mkdir -p "$artifact_dir"

echo "==> tier-1: build + ctest"
cmake --preset default -DHIA_WERROR=ON
cmake --build --preset default -j "$(nproc)"
# The log keeps every test's output, so a one-off failure can be read
# after the run.
ctest --preset default -j "$(nproc)" --output-log "$artifact_dir/ctest.log"

echo "==> traced smoke: hia_campaign --trace/--summary + trace_lint"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./build/examples/hia_campaign --steps 2 --analyses stats,viz,topo \
  --obs-sample-hz 20 \
  --trace "$smoke_dir/trace.json" \
  --summary "$smoke_dir/campaign_summary.json" \
  > "$smoke_dir/stdout.txt"
./build/examples/trace_lint "$smoke_dir/trace.json"
./build/examples/trace_lint --summary "$smoke_dir/campaign_summary.json"
python3 - "$smoke_dir/campaign_summary.json" <<'PY' || exit 1
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
if counters.get("staging_tasks_completed", {}).get("value", 0) <= 0:
    sys.exit("traced smoke: summary lacks staging_tasks_completed > 0")
if "trace_dropped_events" not in counters:
    sys.exit("traced smoke: summary lacks the trace_dropped_events counter")
PY
cp "$smoke_dir/trace.json" "$smoke_dir/campaign_summary.json" "$artifact_dir/"
echo "traced smoke OK"

echo "==> events gate: recorded multi-tenant campaign + events_lint"
./build/examples/hia_campaign --tenants 3 --steps 3 \
  --weights 2,1,1 --overload "queue-depth=16,credits=8" \
  --events "$smoke_dir/events.bin" --status-interval 1 --attrib \
  > "$smoke_dir/events_stdout.txt"
./build/tools/events_lint "$smoke_dir/events.bin"
grep -q 'all partitions exact' "$smoke_dir/events_stdout.txt" || {
  echo "events gate: --attrib did not report an exact phase partition" >&2
  exit 1
}
./build/tools/critical_path "$smoke_dir/events.bin" \
  --summary "$smoke_dir/attrib_summary.json" \
  --trace "$smoke_dir/attrib_waterfall.json" \
  > "$smoke_dir/critical_path_stdout.txt"
./build/examples/trace_lint --summary "$smoke_dir/attrib_summary.json"
cp "$smoke_dir/events.bin" "$smoke_dir/events_stdout.txt" \
  "$smoke_dir/attrib_summary.json" "$smoke_dir/attrib_waterfall.json" \
  "$smoke_dir/critical_path_stdout.txt" "$artifact_dir/"
echo "events gate OK (partition cross-checked, attribution exact," \
  "critical path within makespan)"

echo "==> one-recorder leg: --trace and --events --attrib in one campaign"
./build/examples/hia_campaign --tenants 2 --steps 3 --analyses stats,topo \
  --overload "queue-depth=16,credits=8" \
  --trace "$smoke_dir/both_trace.json" --events "$smoke_dir/both_events.bin" \
  --attrib > "$smoke_dir/both_stdout.txt"
./build/examples/trace_lint "$smoke_dir/both_trace.json"
./build/tools/events_lint "$smoke_dir/both_events.bin" |
  grep -q ', 0 dropped,' || {
  echo "one-recorder leg: the recorded stream dropped records" >&2
  exit 1
}
grep -q 'all partitions exact' "$smoke_dir/both_stdout.txt" || {
  echo "one-recorder leg: --attrib did not report an exact partition" >&2
  exit 1
}
grep -q '"dropped_events": 0,' "$smoke_dir/both_trace.json" || {
  echo "one-recorder leg: the trace dropped span records" >&2
  exit 1
}
echo "one-recorder leg OK (trace paired, 0 dropped, attribution exact)"

echo "==> scripted-fault leg: every step-triggered --faults directive fires"
./build/examples/hia_campaign --tenants 2 --steps 4 --analyses stats,topo \
  --replicas 2 --overload "queue-depth=16,credits=8" \
  --faults "task-fail=0.3:0.002,kill-bucket=1@1,crash-bucket=2@2,crash-server=1@2,overload=64k@1,credit-starve=2@2,tenant-hog=1:64k@3" \
  --events "$smoke_dir/fault_events.bin" --attrib \
  --summary "$smoke_dir/fault_summary.json" > "$smoke_dir/fault_stdout.txt"
./build/tools/events_lint "$smoke_dir/fault_events.bin" |
  grep -q ', 0 dropped,' || {
  echo "scripted-fault leg: the recorded stream dropped records" >&2
  exit 1
}
for want in 'all partitions exact' 'per-tenant conservation OK' \
  '| injected phantom bytes  *| 64.00 KB' \
  '| credits starved (injected)  *| 2 ' \
  '| tenant-hog bytes (injected)  *| 64.00 KB'; do
  grep -q -- "$want" "$smoke_dir/fault_stdout.txt" || {
    echo "scripted-fault leg: the report lacks '$want'" >&2
    exit 1
  }
done
python3 - "$smoke_dir/fault_summary.json" <<'PY' || exit 1
import json, sys
metrics = json.load(open(sys.argv[1]))["metrics"]
for key in ("buckets_killed", "buckets_crashed", "servers_crashed"):
    if metrics.get(key) != 1:
        sys.exit(f"scripted-fault leg: {key} = {metrics.get(key)}, want 1")
PY
cp "$smoke_dir/fault_summary.json" "$smoke_dir/fault_stdout.txt" "$artifact_dir/"
echo "scripted-fault leg OK (one of each verdict, conserved, attribution exact)"

echo "==> crash-drill leg: lease reclaim and zombie fencing, fault seeds 1-8"
for seed in 1 2 3 4 5 6 7 8; do
  ./build/examples/hia_campaign --steps 8 --analyses all \
    --buckets 2 --servers 4 --replicas 2 \
    --faults "slow-bucket=0:50,crash-bucket=0@2,crash-server=0@4" \
    --fault-seed "$seed" --events "$smoke_dir/crash_events.bin" --attrib \
    --summary "$smoke_dir/crash_summary.json" > "$smoke_dir/crash_stdout.txt"
  ./build/tools/events_lint "$smoke_dir/crash_events.bin" |
    grep -q ', 0 dropped,' || {
    echo "crash-drill leg (seed $seed): the recorded stream dropped records" >&2
    exit 1
  }
  grep -q 'all partitions exact' "$smoke_dir/crash_stdout.txt" || {
    echo "crash-drill leg (seed $seed): --attrib did not report an exact" \
      "partition" >&2
    exit 1
  }
  python3 - "$smoke_dir/crash_summary.json" "$seed" <<'PY' || exit 1
import json, sys
metrics = json.load(open(sys.argv[1]))["metrics"]
for key in ("leases_expired", "tasks_reexecuted", "zombies_fenced"):
    if metrics.get(key) != 1:
        sys.exit(f"crash-drill leg (seed {sys.argv[2]}): {key} = "
                 f"{metrics.get(key)}, want 1")
PY
done
cp "$smoke_dir/crash_summary.json" "$smoke_dir/crash_stdout.txt" "$artifact_dir/"
echo "crash-drill leg OK (one reclaim, one re-execution, one fenced zombie" \
  "per seed)"

echo "==> resilience leg: one seeded fault plan, one resilience block"
for buckets in 1 4; do
  ./build/examples/hia_campaign --steps 3 --analyses stats,topo,viz \
    --buckets "$buckets" \
    --faults "drop=0.1,corrupt=0.1,task-fail=0.2,attempts=3" --fault-seed 4 \
    --summary "$smoke_dir/resilience_b$buckets.json" \
    > "$smoke_dir/resilience_b${buckets}_stdout.txt"
done
python3 - "$smoke_dir/resilience_b1.json" "$smoke_dir/resilience_b4.json" \
  <<'PY' || exit 1
import json, sys
keys = ("crc_failures", "frame_retransmits", "recovered_bytes",
        "task_retries", "tasks_completed")
runs = [json.load(open(path))["metrics"] for path in sys.argv[1:]]
for key in keys:
    values = [run.get(key) for run in runs]
    if values[0] is None or values.count(values[0]) != len(values):
        sys.exit(f"resilience leg: {key} = {values} at --buckets 1 and 4")
print("resilience block:",
      ", ".join(f"{key} {runs[0][key]:g}" for key in keys))
PY
cp "$smoke_dir/resilience_b1.json" "$smoke_dir/resilience_b4.json" \
  "$artifact_dir/"
echo "resilience leg OK (same resilience block at --buckets 1 and 4)"

echo "==> replay gate: hia_plan calibration + bucket sweep vs bench/baselines"
./build/tools/events_lint --stats "$smoke_dir/events.bin" \
  > "$smoke_dir/events_stats.txt"
./build/tools/hia_plan "$smoke_dir/events.bin" --calibrate \
  --sweep buckets=1..8 --summary "$smoke_dir/BENCH_replay.json" \
  > "$smoke_dir/hia_plan_stdout.txt"
./build/examples/trace_lint --summary "$smoke_dir/BENCH_replay.json"
cp "$smoke_dir/BENCH_replay.json" "$smoke_dir/hia_plan_stdout.txt" \
  "$smoke_dir/events_stats.txt" "$artifact_dir/"
./build/tools/bench_diff "$smoke_dir/BENCH_replay.json" \
  bench/baselines/BENCH_replay.json
echo "replay gate OK (calibrated within tolerance, sweep grid complete)"

echo "==> header includers: no header only tests include (check_headers.sh)"
ci/check_headers.sh

echo "==> doc hygiene: links + documented flags (check_docs.sh)"
ci/check_docs.sh ./build/examples/hia_campaign ./build/tools/hia_plan

echo "==> perf baseline: bench_fig5_scheduler vs bench/baselines (bench_diff)"
(cd "$smoke_dir" && "$OLDPWD/build/bench/bench_fig5_scheduler" \
  --obs-sample-hz 50 > bench_stdout.txt)
./build/examples/trace_lint --summary "$smoke_dir/BENCH_fig5_scheduler.json"
cp "$smoke_dir/BENCH_fig5_scheduler.json" "$artifact_dir/"
./build/tools/bench_diff "$smoke_dir/BENCH_fig5_scheduler.json" \
  bench/baselines/BENCH_fig5_scheduler.json
echo "perf baseline OK (artifacts in $artifact_dir/)"

echo "==> overload baseline: bench_ablate_overload vs bench/baselines"
(cd "$smoke_dir" && "$OLDPWD/build/bench/bench_ablate_overload" \
  --obs-sample-hz 50 > overload_stdout.txt)
./build/examples/trace_lint --summary "$smoke_dir/BENCH_ablate_overload.json"
cp "$smoke_dir/BENCH_ablate_overload.json" "$artifact_dir/"
./build/tools/bench_diff "$smoke_dir/BENCH_ablate_overload.json" \
  bench/baselines/BENCH_ablate_overload.json
echo "overload baseline OK"

echo "==> tenants baseline: bench_ablate_tenants vs bench/baselines"
(cd "$smoke_dir" && "$OLDPWD/build/bench/bench_ablate_tenants" \
  --obs-sample-hz 50 > tenants_stdout.txt)
./build/examples/trace_lint --summary "$smoke_dir/BENCH_ablate_tenants.json"
cp "$smoke_dir/BENCH_ablate_tenants.json" "$artifact_dir/"
./build/tools/bench_diff "$smoke_dir/BENCH_ablate_tenants.json" \
  bench/baselines/BENCH_ablate_tenants.json
echo "tenants baseline OK"

echo "==> crash-recovery baseline: bench_ablate_faults vs bench/baselines"
(cd "$smoke_dir" && "$OLDPWD/build/bench/bench_ablate_faults" \
  --obs-sample-hz 50 > faults_stdout.txt)
./build/examples/trace_lint --summary "$smoke_dir/BENCH_ablate_faults.json"
cp "$smoke_dir/BENCH_ablate_faults.json" "$artifact_dir/"
./build/tools/bench_diff "$smoke_dir/BENCH_ablate_faults.json" \
  bench/baselines/BENCH_ablate_faults.json
echo "crash-recovery baseline OK (exactly-once conservation under" \
  "ungraceful bucket + server loss)"

echo "==> soak: randomized faults, backpressure, multi-tenant (ci/soak.sh)"
ci/soak.sh

if [[ "$fast" -eq 0 ]]; then
  echo "==> benchmark: perfbench self-test + short sim-stats and hybrid-topo-viz runs"
  python3 perfbench/run.py --self-test
  for workload in sim-stats hybrid-topo-viz; do
    out="$smoke_dir/perfbench_${workload//-/_}.txt"
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 5 \
      --trace 0 > "$out" || true
    cp "$out" "$artifact_dir/"
    tail -n 1 "$out" | python3 -c '
import json, sys
sys.exit(0 if json.loads(sys.stdin.read()).get("correct") is True else 1)
' || {
      echo "benchmark: $workload did not report \"correct\": true" >&2
      tail -n 5 "$out" >&2
      exit 1
    }
  done
  echo "benchmark OK (sim-stats and hybrid-topo-viz correct)"

  echo "==> shape checks: bench_table2 + bench_ablate_spectrum + bench_fig2_viz"
  for bench in bench_table2 bench_ablate_spectrum bench_fig2_viz; do
    (cd "$smoke_dir" && "$OLDPWD/build/bench/$bench" > "${bench}_stdout.txt")
    cp "$smoke_dir/${bench}_stdout.txt" "$artifact_dir/"
    if grep -F '[shape FAIL]' "$smoke_dir/${bench}_stdout.txt" >&2; then
      echo "shape checks: $bench printed a FAIL (above)" >&2
      exit 1
    fi
  done
  echo "shape checks OK (every stats and viz placement)"

  echo "==> sanitizers: asan"
  ci/sanitize.sh asan
  echo "==> sanitizers: tsan (tracer + runtime concurrency)"
  ci/sanitize.sh tsan
fi

echo "ci/check.sh: all gates passed"
