#!/usr/bin/env bash
# Sanitized build + test.
#
#   ci/sanitize.sh           # ASan + UBSan over the full test suite
#   ci/sanitize.sh asan      # same
#   ci/sanitize.sh tsan      # ThreadSanitizer over the concurrency-heavy
#                            # tests (tracer, comm, dart, staging,
#                            # the runner's rank loop)
#
# Any sanitizer report fails the run: -fno-sanitize-recover=all turns
# UBSan diagnostics into aborts, halt_on_error makes ASan exit on the
# first error, and TSan exits non-zero on any race report.
#
# bench-baseline note: sanitizer presets deliberately do NOT run the
# tools/bench_diff perf gate — ASan/TSan inflate wall times 2-20x, so
# their timings are never comparable to bench/baselines/. The perf gate
# runs only on the default preset (see ci/check.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-asan}"

case "$mode" in
  asan)
    cmake --preset sanitize
    cmake --build --preset sanitize -j "$(nproc)"
    export ASAN_OPTIONS="halt_on_error=1:strict_string_checks=1:detect_stack_use_after_return=1"
    export UBSAN_OPTIONS="print_stacktrace=1"
    ctest --preset sanitize -j "$(nproc)"
    ;;
  tsan)
    cmake --preset tsan
    cmake --build --preset tsan -j "$(nproc)" --target \
      test_obs test_events test_util test_comm test_dart test_staging \
      test_network test_fault test_overload test_service test_pipeline
    export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
    # Scope to the tests that exercise the tracer's and the runtime's
    # concurrent paths; TSan slows everything ~10x, so most end-to-end
    # tests stay on the ASan leg. test_pipeline rides here for the
    # runner's rank loop: per-rank report rows written by every rank
    # thread and folded after the join, rank 0 submitting past each
    # stage's barrier while buckets pull. test_fault rides here for the
    # concurrent-injection and faulted-scheduler races; test_overload for
    # the admission-gate and pressure-accounting races; test_service for
    # the fair-share matcher, concurrent campaign threads, and the
    # elastic pool's add/retire-under-load races; test_events for the
    # flight recorder's thread-sharded rings under a concurrent
    # multi-tenant campaign.
    ctest --preset tsan -j "$(nproc)" \
      -R 'test_(obs|events|util|comm|dart|staging|network|fault|overload|service|pipeline)'
    ;;
  *)
    echo "usage: ci/sanitize.sh [asan|tsan]" >&2
    exit 2
    ;;
esac
