// Timing and data-volume ledger for a hybrid run: the numbers behind the
// paper's Table II and Fig. 6.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "staging/descriptor.hpp"

namespace hia {

/// End-of-run resilience ledger (all zeros on a fault-free run). The task
/// counts partition the submitted tasks: completed + degraded + deferred +
/// shed == everything that was ever submitted — no task is lost silently
/// (a deferred record is terminal; its payload re-enters as a new task).
struct ResilienceSummary {
  // Reaction side (what the pipeline did about the faults).
  uint64_t tasks_completed = 0;  // finished on a staging bucket
  uint64_t tasks_degraded = 0;   // fell back to the in-situ executor
  uint64_t tasks_shed = 0;       // dropped after K attempts (counted, loud)
  uint64_t tasks_deferred = 0;   // parked one step by the steering policy
  uint64_t task_retries = 0;     // extra task attempts across the run
  double backoff_seconds = 0.0;  // total retry backoff injected
  uint64_t frame_retransmits = 0;  // DART frames re-pulled (drop or CRC)
  uint64_t crc_failures = 0;       // corrupted frames caught by the CRC
  uint64_t recovered_bytes = 0;    // payload delivered after a retransmit
  // Injection side (what the fault plan actually did).
  uint64_t frames_dropped = 0;
  uint64_t frames_corrupted = 0;
  uint64_t frames_delayed = 0;
  double injected_delay_s = 0.0;  // modeled seconds of injected frame delay
  uint64_t tasks_failed = 0;      // injected task-attempt timeouts
  uint64_t buckets_killed = 0;
  // Crash recovery (ungraceful loss: leases, fencing, replication).
  uint64_t buckets_crashed = 0;    // scripted ungraceful bucket deaths
  uint64_t servers_crashed = 0;    // scripted object-store server deaths
  uint64_t leases_expired = 0;     // reclaimed in-flight assignments
  uint64_t tasks_reexecuted = 0;   // reclaimed tasks requeued
  uint64_t zombies_fenced = 0;     // completions of reclaimed attempts dropped
  uint64_t replicas_repaired = 0;  // copies re-inserted by read-repair
  uint64_t objects_lost = 0;       // objects whose last live copy died

  // ---- Overload control: steer_in_transit counts every in-transit
  // verdict (steering off is the table's in-transit row) and
  // peak_queue_bytes is measured by the ledger on every run; the other
  // verdicts, diversions and admission are nonzero only when --steer /
  // --overload is on ----
  uint64_t steer_in_transit = 0;      // steering verdicts, per submit point
  uint64_t steer_in_situ = 0;
  uint64_t steer_deferred = 0;
  uint64_t steer_shed = 0;
  uint64_t overload_diversions = 0;   // hard queue-budget diversions
  uint64_t admission_overdrafts = 0;  // waits that hit admit_max_wait_s
  double admission_wait_s = 0.0;      // producer seconds blocked at the gate
  size_t peak_queue_bytes = 0;        // high-water queued bytes (+ phantom)
  uint64_t overload_bytes_injected = 0;  // scripted phantom bytes
  uint64_t credits_starved = 0;          // scripted confiscated credits
  uint64_t tenant_hog_bytes = 0;         // scripted tenant-attributed bytes

  /// True when any fault fired or any recovery action ran.
  [[nodiscard]] bool any() const {
    return tasks_degraded || tasks_shed || tasks_deferred || task_retries ||
           frame_retransmits || crc_failures || frames_dropped ||
           frames_corrupted || frames_delayed || tasks_failed ||
           buckets_killed || buckets_crashed ||
           servers_crashed || leases_expired || tasks_reexecuted ||
           zombies_fenced || replicas_repaired || objects_lost ||
           steer_in_situ || steer_deferred || steer_shed ||
           overload_diversions || admission_overdrafts ||
           overload_bytes_injected || credits_starved || tenant_hog_bytes;
  }
};

/// Per-tenant roll-up of a multi-tenant service run: the conservation,
/// fair-share, and isolation numbers the campaign service reports (one row
/// per tenant; see format_tenant_table).
struct TenantRunRow {
  int tenant = 0;
  std::string name;
  double weight = 1.0;
  // Conservation: completed + degraded + deferred + shed == submitted,
  // checked *per tenant* (the acceptance invariant of the service drill).
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t degraded = 0;
  uint64_t deferred = 0;
  uint64_t shed = 0;
  // Fair share: settled bucket occupancy and the observed vs. target
  // fraction of total bucket time.
  double bucket_seconds = 0.0;
  double share_observed = 0.0;  // bucket_seconds / sum over tenants
  double share_target = 0.0;    // weight / sum of weights
  // Isolation.
  double p99_turnaround_s = 0.0;  // over this tenant's terminal records
  uint64_t cap_diversions = 0;    // per-tenant queue-cap diversions
  uint64_t admission_overdrafts = 0;
  double admission_wait_s = 0.0;  // seconds this tenant blocked at the gate
  size_t store_peak_bytes = 0;    // high-water object-store residency
  uint64_t hog_bytes = 0;         // scripted tenant-hog bytes charged here
};

/// Per-(analysis, step) in-situ aggregates across ranks.
struct InSituMetric {
  std::string analysis;
  long step = 0;
  double max_rank_seconds = 0.0;  // slowest rank (the simulation waits on it)
  size_t published_bytes = 0;     // intermediate data shipped to staging
};

/// Full record of one hybrid run.
struct RunReport {
  long steps = 0;
  int sim_ranks = 0;
  std::string staging_codec;  // codec spec the run published through ("" = raw)

  std::vector<double> sim_step_seconds;      // max over ranks, per step
  std::vector<InSituMetric> in_situ;         // one per (analysis, step)
  std::vector<TaskRecord> in_transit;        // from the staging service
  ResilienceSummary resilience;              // all zeros on fault-free runs

  size_t solution_bytes_per_step = 0;        // 14 vars x 8 B x grid points

  [[nodiscard]] double total_sim_seconds() const {
    double t = 0.0;
    for (const double s : sim_step_seconds) t += s;
    return t;
  }
  [[nodiscard]] double mean_sim_step_seconds() const {
    return sim_step_seconds.empty()
               ? 0.0
               : total_sim_seconds() /
                     static_cast<double>(sim_step_seconds.size());
  }

  /// Mean per-invocation in-situ seconds for one analysis (max-over-ranks,
  /// averaged over steps).
  [[nodiscard]] double mean_in_situ_seconds(const std::string& analysis) const;

  /// Mean in-transit compute / data-movement seconds per task.
  [[nodiscard]] double mean_in_transit_seconds(
      const std::string& analysis) const;
  [[nodiscard]] double mean_movement_seconds(
      const std::string& analysis) const;
  /// Mean wire bytes pulled per task (post-codec).
  [[nodiscard]] double mean_movement_bytes(const std::string& analysis) const;
  /// Mean logical bytes pulled per task (pre-codec).
  [[nodiscard]] double mean_movement_raw_bytes(
      const std::string& analysis) const;
  /// Mean bucket-side codec decode seconds per task.
  [[nodiscard]] double mean_decode_seconds(const std::string& analysis) const;
  /// raw / wire over this analysis's pulls (1.0 when publishing raw or when
  /// nothing moved).
  [[nodiscard]] double compression_ratio(const std::string& analysis) const;
};

}  // namespace hia
