#include "runtime/fault.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/error.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace hia {

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

double seconds_field(const std::string& token, const std::string& text) {
  double v = 0.0;
  HIA_REQUIRE(parse_seconds(text, &v),
              "--faults " + token + ": bad value '" + text +
                  "' (need a finite number in [0, 1e6])");
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
  double p = 0.0;  // [0, 1] lies inside parse_seconds' range
  HIA_REQUIRE(parse_seconds(text, &p) && p <= 1.0,
              "--faults " + token + ": bad probability '" + text +
                  "' (need [0, 1])");
  return p;
}

/// The step-triggered directives and the event kind each one scripts.
constexpr std::pair<const char*, ScriptedEvent::Kind> kScriptedDirectives[] = {
    {"kill-bucket", ScriptedEvent::Kind::kKillBucket},
    {"crash-bucket", ScriptedEvent::Kind::kCrashBucket},
    {"crash-server", ScriptedEvent::Kind::kCrashServer},
    {"overload", ScriptedEvent::Kind::kOverload},
    {"credit-starve", ScriptedEvent::Kind::kCreditStarve},
    {"tenant-hog", ScriptedEvent::Kind::kTenantHog},
};

/// Parses one step-triggered directive: B@N, S@N, C@N or T:B@N.
ScriptedEvent parse_scripted(ScriptedEvent::Kind kind, const std::string& name,
                             const std::string& value) {
  using Kind = ScriptedEvent::Kind;
  const size_t at = value.find('@');
  HIA_REQUIRE(at != std::string::npos,
              "--faults " + name + " needs VALUE@STEP");
  ScriptedEvent event{
      .kind = kind, .step = parse_count_field<long>(name, value.substr(at + 1))};
  std::string what = value.substr(0, at);
  if (kind == Kind::kTenantHog) {
    const size_t colon = what.find(':');
    HIA_REQUIRE(colon != std::string::npos,
                "--faults tenant-hog needs T:B@N (tenant:bytes@step)");
    event.target = parse_count_field<int>(name, what.substr(0, colon));
    what = what.substr(colon + 1);
  }
  switch (kind) {
    case Kind::kKillBucket:
    case Kind::kCrashBucket:
    case Kind::kCrashServer:
      event.target = parse_count_field<int>(name, what);
      return event;
    case Kind::kCreditStarve:  // the credit ledger counts in int
      event.amount = static_cast<uint64_t>(parse_count_field<int>(name, what));
      break;
    case Kind::kOverload:
    case Kind::kTenantHog:
      event.amount = parse_count_field<size_t>(name, what);
      break;
  }
  HIA_REQUIRE(event.amount > 0, "--faults " + name + ": need an amount > 0");
  return event;
}

}  // namespace

FaultPlanConfig no_faults() {
  FaultPlanConfig config;
  config.retry.max_task_attempts = 1;
  return config;
}

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

    const auto* scripted = std::find_if(
        std::begin(kScriptedDirectives), std::end(kScriptedDirectives),
        [&](const auto& d) { return name == d.first; });
    if (scripted != std::end(kScriptedDirectives)) {
      cfg.scripted.push_back(parse_scripted(scripted->second, name, value));
    } else if (name == "drop") {
      cfg.frame_drop_prob = parse_prob(name, value);
    } else if (name == "corrupt") {
      cfg.frame_corrupt_prob = parse_prob(name, value);
    } else if (name == "delay") {
      cfg.frame_delay_prob = parse_prob(name, v0);
      if (!v1.empty()) cfg.frame_delay_s = seconds_field(name, v1);
    } else if (name == "task-fail") {
      cfg.task_fail_prob = parse_prob(name, v0);
      if (!v1.empty()) cfg.retry.task_timeout_s = seconds_field(name, v1);
    } else if (name == "slow-bucket") {
      HIA_REQUIRE(!v1.empty(), "--faults slow-bucket needs B:F (bucket:factor)");
      FaultPlanConfig::BucketSlow slow;
      slow.bucket = parse_count_field<int>(name, v0);
      // The factor scales a sleep, so it takes the seconds bound.
      slow.factor = seconds_field(name, v1);
      HIA_REQUIRE(slow.factor >= 1.0, "--faults slow-bucket: need factor >= 1");
      cfg.bucket_slowdowns.push_back(slow);
    } else if (name == "attempts") {
      cfg.retry.max_task_attempts = parse_count_field<int>(name, value);
      HIA_REQUIRE(cfg.retry.max_task_attempts >= 1,
                  "--faults attempts: need >= 1");
    } else if (name == "backoff") {
      HIA_REQUIRE(!v1.empty(), "--faults backoff needs BASE:CAP seconds");
      cfg.retry.backoff_base_s = seconds_field(name, v0);
      cfg.retry.backoff_cap_s = seconds_field(name, v1);
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

FaultPlan::FaultPlan(FaultPlanConfig config) : config_(std::move(config)) {
  std::stable_sort(config_.scripted.begin(), config_.scripted.end(),
                   [](const ScriptedEvent& a, const ScriptedEvent& b) {
                     return a.step < b.step;
                   });
}

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

bool FaultPlan::scripts(ScriptedEvent::Kind kind) const {
  return std::any_of(config_.scripted.begin(), config_.scripted.end(),
                     [kind](const ScriptedEvent& e) { return e.kind == kind; });
}

void FaultPlan::count_scripted(const ScriptedEvent& event) const {
  using Kind = ScriptedEvent::Kind;
  std::atomic<uint64_t>* tally = nullptr;
  uint64_t by = event.amount;
  switch (event.kind) {
    case Kind::kKillBucket: tally = &buckets_killed_; by = 1; break;
    case Kind::kCrashBucket: tally = &buckets_crashed_; by = 1; break;
    case Kind::kCrashServer: tally = &servers_crashed_; by = 1; break;
    case Kind::kOverload: tally = &overload_bytes_injected_; break;
    case Kind::kCreditStarve: tally = &credits_starved_; break;
    case Kind::kTenantHog: tally = &tenant_hog_bytes_; break;
  }
  tally->fetch_add(by, std::memory_order_relaxed);
}

double FaultPlan::bucket_slow_factor(int bucket) const {
  double factor = 1.0;
  for (const auto& slow : config_.bucket_slowdowns) {
    if (slow.bucket == bucket) factor = std::max(factor, slow.factor);
  }
  return factor;
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
  s.buckets_killed = buckets_killed_.load(std::memory_order_relaxed);
  s.buckets_crashed = buckets_crashed_.load(std::memory_order_relaxed);
  s.servers_crashed = servers_crashed_.load(std::memory_order_relaxed);
  s.overload_bytes_injected =
      overload_bytes_injected_.load(std::memory_order_relaxed);
  s.credits_starved = credits_starved_.load(std::memory_order_relaxed);
  s.tenant_hog_bytes = tenant_hog_bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace hia
