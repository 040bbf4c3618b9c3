#include "runtime/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace hia {

const char* to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kFrameDrop: return "frame-drop";
    case FaultSite::kFrameDelay: return "frame-delay";
    case FaultSite::kFrameCorrupt: return "frame-corrupt";
    case FaultSite::kFrameCorruptByte: return "frame-corrupt-byte";
    case FaultSite::kTaskFail: return "task-fail";
    case FaultSite::kWorkerStall: return "worker-stall";
    case FaultSite::kBackoff: return "backoff";
    case FaultSite::kOverload: return "overload";
    case FaultSite::kCreditStarve: return "credit-starve";
    case FaultSite::kTenantHog: return "tenant-hog";
    case FaultSite::kBucketCrash: return "crash-bucket";
    case FaultSite::kServerCrash: return "crash-server";
  }
  return "?";
}

namespace {

/// One decorrelated draw: SplitMix64 over the (seed, site, key) triple.
/// Three rounds of the SplitMix64 finalizer decorrelate adjacent keys.
double keyed_uniform(uint64_t seed, FaultSite site, uint64_t key) {
  SplitMix64 sm(seed ^ (static_cast<uint64_t>(site) * 0x9e3779b97f4a7c15ULL) ^
                (key * 0xbf58476d1ce4e5b9ULL));
  sm.next();
  sm.next();
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

/// Mixes a (major, minor) pair into one key (id + attempt, bucket + step).
uint64_t pair_key(uint64_t major, uint64_t minor) {
  return major * 0x100000001b3ULL + minor;
}

double parse_double(const std::string& token, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  HIA_REQUIRE(end != nullptr && *end == '\0' && !text.empty(),
              "--faults " + token + ": bad number '" + text + "'");
  return v;
}

template <typename T>
T parse_count_field(const std::string& token, const std::string& text) {
  T v{};
  HIA_REQUIRE(parse_count(text, &v),
              "--faults " + token + ": bad count '" + text + "'");
  return v;
}

double parse_prob(const std::string& token, const std::string& text) {
  const double p = parse_double(token, text);
  HIA_REQUIRE(p >= 0.0 && p <= 1.0,
              "--faults " + token + ": probability out of [0,1]");
  return p;
}

}  // namespace

FaultPlanConfig FaultPlan::parse_spec(const std::string& spec) {
  FaultPlanConfig cfg;
  size_t begin = 0;
  while (begin <= spec.size()) {
    const size_t comma = spec.find(',', begin);
    const size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string token = spec.substr(begin, end - begin);
    begin = (comma == std::string::npos) ? spec.size() + 1 : comma + 1;
    if (token.empty()) continue;

    const size_t eq = token.find('=');
    const std::string name = token.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : token.substr(eq + 1);
    // value "A:B" subfields.
    const size_t colon = value.find(':');
    const std::string v0 = value.substr(0, colon);
    const std::string v1 =
        colon == std::string::npos ? "" : value.substr(colon + 1);

    if (name == "drop") {
      cfg.frame_drop_prob = parse_prob(name, value);
    } else if (name == "corrupt") {
      cfg.frame_corrupt_prob = parse_prob(name, value);
    } else if (name == "delay") {
      cfg.frame_delay_prob = parse_prob(name, v0);
      if (!v1.empty()) cfg.frame_delay_s = parse_double(name, v1);
      HIA_REQUIRE(cfg.frame_delay_s >= 0.0, "--faults delay: negative delay");
    } else if (name == "task-fail") {
      cfg.task_fail_prob = parse_prob(name, v0);
      if (!v1.empty()) cfg.retry.task_timeout_s = parse_double(name, v1);
      HIA_REQUIRE(cfg.retry.task_timeout_s >= 0.0,
                  "--faults task-fail: negative timeout");
    } else if (name == "stall") {
      cfg.worker_stall_prob = parse_prob(name, v0);
      if (!v1.empty()) cfg.worker_stall_s = parse_double(name, v1);
      HIA_REQUIRE(cfg.worker_stall_s >= 0.0, "--faults stall: negative stall");
    } else if (name == "kill-bucket") {
      const size_t at = value.find('@');
      HIA_REQUIRE(at != std::string::npos,
                  "--faults kill-bucket needs B@N (bucket@step)");
      FaultPlanConfig::BucketKill kill;
      kill.bucket = parse_count_field<int>(name, value.substr(0, at));
      kill.step = parse_count_field<long>(name, value.substr(at + 1));
      cfg.bucket_kills.push_back(kill);
    } else if (name == "crash-bucket") {
      const size_t at = value.find('@');
      HIA_REQUIRE(at != std::string::npos,
                  "--faults crash-bucket needs B@N (bucket@step)");
      FaultPlanConfig::BucketCrash crash;
      crash.bucket = parse_count_field<int>(name, value.substr(0, at));
      crash.step = parse_count_field<long>(name, value.substr(at + 1));
      cfg.bucket_crashes.push_back(crash);
    } else if (name == "crash-server") {
      const size_t at = value.find('@');
      HIA_REQUIRE(at != std::string::npos,
                  "--faults crash-server needs S@N (server@step)");
      FaultPlanConfig::ServerCrash crash;
      crash.server = parse_count_field<int>(name, value.substr(0, at));
      crash.step = parse_count_field<long>(name, value.substr(at + 1));
      cfg.server_crashes.push_back(crash);
    } else if (name == "slow-bucket") {
      HIA_REQUIRE(!v1.empty(), "--faults slow-bucket needs B:F (bucket:factor)");
      FaultPlanConfig::BucketSlow slow;
      slow.bucket = parse_count_field<int>(name, v0);
      slow.factor = parse_double(name, v1);
      HIA_REQUIRE(slow.factor >= 1.0, "--faults slow-bucket: need factor >= 1");
      cfg.bucket_slowdowns.push_back(slow);
    } else if (name == "overload") {
      const size_t at = value.find('@');
      HIA_REQUIRE(at != std::string::npos,
                  "--faults overload needs B@N (bytes@step)");
      FaultPlanConfig::OverloadInject inject;
      inject.bytes = parse_count_field<size_t>(name, value.substr(0, at));
      inject.step = parse_count_field<long>(name, value.substr(at + 1));
      HIA_REQUIRE(inject.bytes > 0, "--faults overload: need bytes > 0");
      cfg.overload_injects.push_back(inject);
    } else if (name == "credit-starve") {
      const size_t at = value.find('@');
      HIA_REQUIRE(at != std::string::npos,
                  "--faults credit-starve needs C@N (credits@step)");
      FaultPlanConfig::CreditStarve starve;
      starve.credits = parse_count_field<int>(name, value.substr(0, at));
      starve.step = parse_count_field<long>(name, value.substr(at + 1));
      HIA_REQUIRE(starve.credits > 0,
                  "--faults credit-starve: need credits > 0");
      cfg.credit_starves.push_back(starve);
    } else if (name == "tenant-hog") {
      // tenant-hog=T:B@N — v0 is the tenant, v1 is "bytes@step".
      const size_t at = v1.find('@');
      HIA_REQUIRE(colon != std::string::npos && at != std::string::npos,
                  "--faults tenant-hog needs T:B@N (tenant:bytes@step)");
      FaultPlanConfig::TenantHog hog;
      hog.tenant = parse_count_field<int>(name, v0);
      hog.bytes = parse_count_field<size_t>(name, v1.substr(0, at));
      hog.step = parse_count_field<long>(name, v1.substr(at + 1));
      HIA_REQUIRE(hog.bytes > 0, "--faults tenant-hog: need bytes > 0");
      cfg.tenant_hogs.push_back(hog);
    } else if (name == "attempts") {
      cfg.retry.max_task_attempts = parse_count_field<int>(name, value);
      HIA_REQUIRE(cfg.retry.max_task_attempts >= 1,
                  "--faults attempts: need >= 1");
    } else if (name == "backoff") {
      HIA_REQUIRE(!v1.empty(), "--faults backoff needs BASE:CAP seconds");
      cfg.retry.backoff_base_s = parse_double(name, v0);
      cfg.retry.backoff_cap_s = parse_double(name, v1);
      HIA_REQUIRE(cfg.retry.backoff_base_s > 0.0 &&
                      cfg.retry.backoff_cap_s >= cfg.retry.backoff_base_s,
                  "--faults backoff: need 0 < BASE <= CAP");
    } else if (name == "shed") {
      HIA_REQUIRE(eq == std::string::npos, "--faults shed takes no value");
      cfg.retry.degrade_to_insitu = false;
    } else if (name == "seed") {
      cfg.seed = parse_count_field<uint64_t>(name, value);
    } else {
      HIA_REQUIRE(false, "--faults: unknown directive '" + name + "'");
    }
  }
  return cfg;
}

FaultPlan::FaultPlan(FaultPlanConfig config) : config_(std::move(config)) {}

double FaultPlan::roll(FaultSite site, uint64_t key) const {
  return keyed_uniform(config_.seed, site, key);
}

FaultPlan::FrameFault FaultPlan::frame_fault(uint64_t handle_id,
                                             int attempt) const {
  FrameFault fault;
  const uint64_t key = pair_key(handle_id, static_cast<uint64_t>(attempt));
  if (config_.frame_drop_prob > 0.0 &&
      roll(FaultSite::kFrameDrop, key) < config_.frame_drop_prob) {
    fault.drop = true;
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return fault;  // a dropped frame can be neither corrupted nor delayed
  }
  if (config_.frame_corrupt_prob > 0.0 &&
      roll(FaultSite::kFrameCorrupt, key) < config_.frame_corrupt_prob) {
    fault.corrupt = true;
    fault.corrupt_byte = static_cast<size_t>(
        roll(FaultSite::kFrameCorruptByte, key) * 1e9);
    frames_corrupted_.fetch_add(1, std::memory_order_relaxed);
  }
  if (config_.frame_delay_prob > 0.0 &&
      roll(FaultSite::kFrameDelay, key) < config_.frame_delay_prob) {
    fault.delay_s = config_.frame_delay_s;
    frames_delayed_.fetch_add(1, std::memory_order_relaxed);
    injected_delay_ns_.fetch_add(
        static_cast<uint64_t>(fault.delay_s * 1e9),
        std::memory_order_relaxed);
  }
  return fault;
}

bool FaultPlan::task_fails(uint64_t task_id, int attempt) const {
  if (config_.task_fail_prob <= 0.0) return false;
  const uint64_t key = pair_key(task_id, static_cast<uint64_t>(attempt));
  const bool fails = roll(FaultSite::kTaskFail, key) < config_.task_fail_prob;
  if (fails) tasks_failed_.fetch_add(1, std::memory_order_relaxed);
  return fails;
}

double FaultPlan::backoff_seconds(uint64_t task_id, int attempt) const {
  const RetryPolicy& r = config_.retry;
  // Decorrelated jitter, replayed from attempt 1 so the value is a pure
  // function of (seed, task_id, attempt) with no per-task mutable state.
  double sleep = r.backoff_base_s;
  for (int a = 1; a <= attempt; ++a) {
    const double u =
        roll(FaultSite::kBackoff, pair_key(task_id, static_cast<uint64_t>(a)));
    const double hi = std::max(r.backoff_base_s, 3.0 * sleep);
    sleep = std::min(r.backoff_cap_s,
                     r.backoff_base_s + u * (hi - r.backoff_base_s));
  }
  return std::clamp(sleep, r.backoff_base_s, r.backoff_cap_s);
}

bool FaultPlan::bucket_killed(int bucket, long step) const {
  for (const auto& kill : config_.bucket_kills) {
    if (kill.bucket == bucket && step >= kill.step) return true;
  }
  return false;
}

void FaultPlan::count_bucket_kill() const {
  buckets_killed_.fetch_add(1, std::memory_order_relaxed);
}

bool FaultPlan::bucket_crashed(int bucket, long step) const {
  for (const auto& crash : config_.bucket_crashes) {
    if (crash.bucket == bucket && step >= crash.step) return true;
  }
  return false;
}

void FaultPlan::count_bucket_crash() const {
  buckets_crashed_.fetch_add(1, std::memory_order_relaxed);
}

bool FaultPlan::server_crashed(int server, long step) const {
  for (const auto& crash : config_.server_crashes) {
    if (crash.server == server && step >= crash.step) return true;
  }
  return false;
}

void FaultPlan::count_server_crash() const {
  servers_crashed_.fetch_add(1, std::memory_order_relaxed);
}

void FaultPlan::count_overload_inject(size_t bytes) const {
  overload_bytes_injected_.fetch_add(bytes, std::memory_order_relaxed);
}

void FaultPlan::count_credit_starve(int credits) const {
  credits_starved_.fetch_add(static_cast<uint64_t>(credits),
                             std::memory_order_relaxed);
}

void FaultPlan::count_tenant_hog(size_t bytes) const {
  tenant_hog_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

double FaultPlan::bucket_slow_factor(int bucket) const {
  double factor = 1.0;
  for (const auto& slow : config_.bucket_slowdowns) {
    if (slow.bucket == bucket) factor = std::max(factor, slow.factor);
  }
  return factor;
}

double FaultPlan::worker_stall_seconds(uint64_t seq) const {
  if (config_.worker_stall_prob <= 0.0) return 0.0;
  if (roll(FaultSite::kWorkerStall, seq) >= config_.worker_stall_prob) {
    return 0.0;
  }
  worker_stalls_.fetch_add(1, std::memory_order_relaxed);
  return config_.worker_stall_s;
}

FaultStats FaultPlan::stats() const {
  FaultStats s;
  s.frames_dropped = frames_dropped_.load(std::memory_order_relaxed);
  s.frames_corrupted = frames_corrupted_.load(std::memory_order_relaxed);
  s.frames_delayed = frames_delayed_.load(std::memory_order_relaxed);
  s.injected_delay_s =
      static_cast<double>(injected_delay_ns_.load(std::memory_order_relaxed)) *
      1e-9;
  s.tasks_failed = tasks_failed_.load(std::memory_order_relaxed);
  s.worker_stalls = worker_stalls_.load(std::memory_order_relaxed);
  s.buckets_killed = buckets_killed_.load(std::memory_order_relaxed);
  s.buckets_crashed = buckets_crashed_.load(std::memory_order_relaxed);
  s.servers_crashed = servers_crashed_.load(std::memory_order_relaxed);
  s.overload_bytes_injected =
      overload_bytes_injected_.load(std::memory_order_relaxed);
  s.credits_starved = credits_starved_.load(std::memory_order_relaxed);
  s.tenant_hog_bytes = tenant_hog_bytes_.load(std::memory_order_relaxed);
  return s;
}

namespace {
std::atomic<const FaultPlan*> g_worker_faults{nullptr};
}  // namespace

void install_worker_faults(const FaultPlan* plan) {
  g_worker_faults.store(plan, std::memory_order_release);
}

const FaultPlan* worker_faults() {
  return g_worker_faults.load(std::memory_order_acquire);
}

}  // namespace hia
