#include "service/bucket_pool.hpp"

#include "util/error.hpp"

namespace hia {

ElasticBucketPool::ElasticBucketPool(StagingService& staging, Options options)
    : staging_(staging), options_(options) {
  HIA_REQUIRE(options_.min_buckets >= 1, "elastic pool: min_buckets >= 1");
  HIA_REQUIRE(options_.max_buckets >= options_.min_buckets,
              "elastic pool: max_buckets >= min_buckets");
  HIA_REQUIRE(options_.cooldown_s >= 0.0, "elastic pool: negative cooldown");
}

void ElasticBucketPool::step() {
  const double now = staging_.now();
  if (last_action_ >= 0.0 && now - last_action_ < options_.cooldown_s) return;

  const PressureSignal pressure = staging_.pressure();
  const int live = pressure.live_buckets;
  if (pressure.state == PressureState::kSaturated &&
      live < options_.max_buckets) {
    staging_.add_bucket();
    ++stats_.grows;
    last_action_ = now;
    return;
  }
  if (pressure.state == PressureState::kNominal && live > options_.min_buckets &&
      staging_.pending_tasks() == 0 &&
      staging_.free_bucket_count() >= live) {
    // Fully idle above the floor: give a core back. The floor is passed
    // down and re-checked under the scheduler lock: `live` here is a
    // snapshot, and a scripted bucket crash landing between it and the
    // retire would otherwise let this shrink drop the live pool below
    // min_buckets. When that race loses, retire_bucket returns -1 and no
    // shrink is counted (the pool retries after the cooldown).
    if (staging_.retire_bucket(options_.min_buckets) >= 0) {
      ++stats_.shrinks;
      last_action_ = now;
    }
  }
}

}  // namespace hia
