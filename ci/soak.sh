#!/usr/bin/env bash
# Randomized fault + overload soak, run by ci/check.sh after the perf
# baseline. Each iteration drives hia_campaign through the adaptive
# steering path with bucket kills, phantom-byte injection, and credit
# starvation under a tight queue budget, then checks the two invariants
# the overload subsystem promises:
#
#   1. the run exits 0 (admission overdrafts keep producers live, the
#      steering table keeps every task terminal), and
#   2. the RunSummary validates (trace_lint --summary), so the ledger
#      conserved every task: completed + degraded + deferred + shed ==
#      submitted is asserted inside the binary and surfaced here.
#
# A second leg soaks the multi-tenant service (--tenants/--weights): a
# seed-chosen tenant fires a tenant-hog phantom-byte burst against a
# tight shared queue budget while an elastic pool (--pool-max) breathes;
# the same two invariants must hold, plus the per-tenant conservation
# check the binary exits nonzero on.
#
# A third (chaos) leg crashes a seed-chosen object-store server
# *ungracefully* mid-campaign under --replicas 2: committed objects must
# survive on the replica chain (events_lint + trace_lint both exit 0, so
# accounting stayed exactly-once), and the attributed makespan must stay
# within 2x the median of three crash-free reference runs — recovery is
# allowed to cost, not to stall.
#
# Every iteration's seed is printed up front and echoed on failure with
# the exact replay command — same seed + same config => same fault
# decisions (--fault-seed), so a red soak is a deterministic repro, not
# a shrug.
#
#   ci/soak.sh                 # SOAK_RUNS iterations (default 5)
#   SOAK_RUNS=20 ci/soak.sh    # longer soak
#   SOAK_SEED=1234 ci/soak.sh  # fixed base seed (replay a whole soak)
set -euo pipefail
cd "$(dirname "$0")/.."

campaign="${CAMPAIGN:-./build/examples/hia_campaign}"
lint="${TRACE_LINT:-./build/examples/trace_lint}"
runs="${SOAK_RUNS:-5}"
base_seed="${SOAK_SEED:-$RANDOM}"

if [[ ! -x "$campaign" ]]; then
  echo "ci/soak.sh: campaign binary not found: $campaign (build first)" >&2
  exit 1
fi

soak_dir="$(mktemp -d)"
trap 'rm -rf "$soak_dir"' EXIT

echo "soak: $runs runs, base seed $base_seed"
for ((i = 0; i < runs; i++)); do
  seed=$((base_seed + i))
  # Vary the kill/injection step with the seed so different iterations
  # stress different phases of the run.
  kill_step=$((seed % 3 + 1))
  inject_step=$((seed % 4 + 1))
  args=(
    --grid 24x16x12 --ranks 1x1x1 --steps 6 --buckets 3
    --analyses stats,hist
    --steer adaptive
    --overload "queue-bytes=131072,credits=8,admit-wait=0.002,defer-max=2"
    --faults "kill-bucket=1@${kill_step},kill-bucket=2@${kill_step},overload=262144@${inject_step},credit-starve=4@${inject_step},seed=${seed}"
    --fault-seed "$seed"
    --obs-sample-hz 20
    --summary "$soak_dir/soak_${i}.json"
  )
  if ! "$campaign" "${args[@]}" > "$soak_dir/soak_${i}.txt" 2>&1 ||
     ! "$lint" --summary "$soak_dir/soak_${i}.json" >> "$soak_dir/soak_${i}.txt" 2>&1; then
    echo "soak FAILED at iteration $i (seed $seed); output:" >&2
    cat "$soak_dir/soak_${i}.txt" >&2
    echo >&2
    echo "replay with:" >&2
    echo "  $campaign ${args[*]}" >&2
    exit 1
  fi
done

echo "soak: $runs multi-tenant runs, base seed $base_seed"
for ((i = 0; i < runs; i++)); do
  seed=$((base_seed + i))
  # A different tenant hogs at a different step each iteration; the hog's
  # phantom bytes equal the whole shared queue budget, so fair share and
  # the per-tenant ledgers are exercised under real displacement.
  hog_tenant=$((seed % 3 + 1))
  hog_step=$((seed % 4 + 1))
  args=(
    --grid 24x16x12 --ranks 1x1x1 --steps 6 --buckets 3
    --analyses stats,hist
    --tenants 3 --weights 4,1,1
    --pool-max 4
    --overload "queue-bytes=131072,credits=8,admit-wait=0.002"
    --faults "tenant-hog=${hog_tenant}:131072@${hog_step},seed=${seed}"
    --fault-seed "$seed"
    --obs-sample-hz 20
    --summary "$soak_dir/tenants_${i}.json"
  )
  if ! "$campaign" "${args[@]}" > "$soak_dir/tenants_${i}.txt" 2>&1 ||
     ! "$lint" --summary "$soak_dir/tenants_${i}.json" >> "$soak_dir/tenants_${i}.txt" 2>&1; then
    echo "multi-tenant soak FAILED at iteration $i (seed $seed); output:" >&2
    cat "$soak_dir/tenants_${i}.txt" >&2
    echo >&2
    echo "replay with:" >&2
    echo "  $campaign ${args[*]}" >&2
    exit 1
  fi
done
events_lint="${EVENTS_LINT:-./build/tools/events_lint}"

echo "soak: chaos leg — 3 crash-free reference runs"
ref_args=(
  --grid 24x16x12 --ranks 1x1x1 --steps 6 --buckets 3
  --servers 3 --replicas 2
  --analyses stats,hist
  --attrib
  --obs-sample-hz 20
)
# A reference makespan is ~10 ms of wall time, so one scheduling outlier
# can double it either way; the median of three keeps a single outlier from
# setting the bar.
ref_makespans=()
for ((r = 0; r < 3; r++)); do
  if ! "$campaign" "${ref_args[@]}" > "$soak_dir/chaos_ref_${r}.txt" 2>&1; then
    echo "chaos reference run $r FAILED; output:" >&2
    cat "$soak_dir/chaos_ref_${r}.txt" >&2
    exit 1
  fi
  m="$(sed -n 's/.*makespan attribution: .*makespan \([0-9.]*\) s.*/\1/p' "$soak_dir/chaos_ref_${r}.txt" | head -n1)"
  if [[ -z "$m" ]]; then
    echo "chaos reference run $r printed no makespan attribution" >&2
    cat "$soak_dir/chaos_ref_${r}.txt" >&2
    exit 1
  fi
  ref_makespans+=("$m")
done
ref_makespan="$(printf '%s\n' "${ref_makespans[@]}" | sort -g | sed -n 2p)"
echo "soak: crash-free makespans ${ref_makespans[*]} s, median ${ref_makespan} s"

echo "soak: $runs chaos runs (ungraceful server crash, replicas=2), base seed $base_seed"
for ((i = 0; i < runs; i++)); do
  seed=$((base_seed + i))
  # A different server dies at a different step each iteration; every
  # committed object must survive on the replica chain.
  crash_server=$((seed % 3))
  crash_step=$((seed % 4 + 1))
  args=(
    "${ref_args[@]}"
    --faults "crash-server=${crash_server}@${crash_step},seed=${seed}"
    --fault-seed "$seed"
    --events "$soak_dir/chaos_${i}.events"
    --summary "$soak_dir/chaos_${i}.json"
  )
  replay="  $campaign ${args[*]}"
  if ! "$campaign" "${args[@]}" > "$soak_dir/chaos_${i}.txt" 2>&1 ||
     ! "$events_lint" "$soak_dir/chaos_${i}.events" >> "$soak_dir/chaos_${i}.txt" 2>&1 ||
     ! "$lint" --summary "$soak_dir/chaos_${i}.json" >> "$soak_dir/chaos_${i}.txt" 2>&1; then
    echo "chaos soak FAILED at iteration $i (seed $seed); output:" >&2
    cat "$soak_dir/chaos_${i}.txt" >&2
    echo >&2
    echo "replay with:" >&2
    echo "$replay" >&2
    exit 1
  fi
  makespan="$(sed -n 's/.*makespan attribution: .*makespan \([0-9.]*\) s.*/\1/p' "$soak_dir/chaos_${i}.txt" | head -n1)"
  if [[ -z "$makespan" ]] ||
     ! awk -v m="$makespan" -v r="$ref_makespan" 'BEGIN { exit !(m <= 2 * r) }'; then
    echo "chaos soak FAILED at iteration $i (seed $seed):" \
      "makespan ${makespan:-?} s > 2x crash-free median ${ref_makespan} s" >&2
    cat "$soak_dir/chaos_${i}.txt" >&2
    echo >&2
    echo "replay with:" >&2
    echo "$replay" >&2
    exit 1
  fi
done
echo "ci/soak.sh: $((runs * 3)) soak runs OK (seeds $base_seed..$((base_seed + runs - 1)), single + multi-tenant + chaos)"
