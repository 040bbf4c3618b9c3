// ElasticBucketPool — pressure-driven elasticity for the staging bucket
// pool (the in-transit cores).
//
// The paper sizes its staging area statically; under a multi-tenant
// campaign the right size moves with the offered load. This policy watches
// the shared pressure ledger and resizes one bucket at a time:
//   * grow  — pressure Saturated and the pool is below max: a new bucket
//             joins the live census (StagingService::add_bucket);
//   * shrink — pressure Nominal, the queue is empty, every bucket idle,
//             and the pool is above min: one bucket retires gracefully
//             (StagingService::retire_bucket reuses the scripted-kill
//             drain — the victim finishes its current task first). The
//             min_buckets floor travels with the call and is re-checked
//             under the scheduler lock, so a bucket crash racing the
//             shrink makes the retire back off instead of leaving the
//             pool below its floor.
// A cooldown between actions keeps the pool from flapping on a pressure
// signal that oscillates around a watermark.
//
// The pressure signal is the service's (StagingService::pressure()). An
// idle ledger never leaves Nominal, so without overload control the pool
// could only ever shrink; CampaignService therefore refuses an elastic
// pool unless its overload spec is enabled.
#pragma once

#include <cstdint>

#include "staging/scheduler.hpp"

namespace hia {

class ElasticBucketPool {
 public:
  struct Options {
    int min_buckets = 1;
    int max_buckets = 8;
    double cooldown_s = 0.25;  // min seconds between resize actions
  };

  ElasticBucketPool(StagingService& staging, Options options);

  /// Polls pressure and performs at most one resize. Call from the
  /// service's supervision loop; cheap when nothing needs to change.
  void step();

  struct Stats {
    uint64_t grows = 0;
    uint64_t shrinks = 0;
  };
  [[nodiscard]] Stats stats() const { return stats_; }
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  StagingService& staging_;
  Options options_;
  Stats stats_;
  double last_action_ = -1.0;  // staging clock seconds of the last resize
};

}  // namespace hia
