#include "runtime/overload.hpp"

#include <algorithm>
#include <chrono>

#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "obs/histogram.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"
#include "util/stopwatch.hpp"

namespace hia {

const char* to_string(PressureState state) {
  switch (state) {
    case PressureState::kNominal: return "nominal";
    case PressureState::kElevated: return "elevated";
    case PressureState::kSaturated: return "saturated";
  }
  return "?";
}

namespace {
// Admission waits accumulated on the calling (producer) thread since the
// last take_thread_admission_wait(). Publish blocks in admit() before the
// consuming task exists, so the wait is parked here and the scheduler
// charges it to the next task submitted from the same thread — that is
// what the kCreditGrant attribution event carries.
thread_local double t_admission_wait_s = 0.0;
}  // namespace

double OverloadControl::take_thread_admission_wait() {
  const double s = t_admission_wait_s;
  t_admission_wait_s = 0.0;
  return s;
}

// ----------------------------------------------------------- spec parsing --

namespace {

template <typename T>
T parse_count_field(const std::string& token, const std::string& text) {
  T v{};
  HIA_REQUIRE(parse_count(text, &v),
              "--overload " + token + ": bad count '" + text + "'");
  return v;
}

double seconds_field(const std::string& token, const std::string& text) {
  double v = 0.0;
  HIA_REQUIRE(parse_seconds(text, &v),
              "--overload " + token + ": bad value '" + text + "'");
  return v;
}

}  // namespace

OverloadConfig OverloadConfig::parse_spec(const std::string& spec) {
  OverloadConfig cfg;
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

    if (name == "queue-bytes") {
      cfg.queue_bytes_budget = parse_count_field<size_t>(name, value);
    } else if (name == "queue-depth") {
      cfg.queue_depth_budget = parse_count_field<size_t>(name, value);
    } else if (name == "store-bytes") {
      cfg.store_bytes_budget = parse_count_field<size_t>(name, value);
    } else if (name == "low") {
      cfg.low_watermark = seconds_field(name, value);
    } else if (name == "high") {
      cfg.high_watermark = seconds_field(name, value);
    } else if (name == "credits") {
      cfg.credits = parse_count_field<int>(name, value);
    } else if (name == "admit-wait") {
      cfg.admit_max_wait_s = seconds_field(name, value);
    } else if (name == "defer-max") {
      cfg.max_defers = parse_count_field<int>(name, value);
    } else {
      HIA_REQUIRE(false, "--overload: unknown directive '" + name + "'");
    }
  }
  HIA_REQUIRE(cfg.low_watermark > 0.0 && cfg.low_watermark < cfg.high_watermark
                  && cfg.high_watermark <= 1.0,
              "--overload: need 0 < low < high <= 1");
  return cfg;
}

// --------------------------------------------------------- OverloadControl --

namespace {
hia::obs::Counter& credits_gauge() {
  static hia::obs::Counter& c = hia::obs::counter("dart_credits_outstanding");
  return c;
}
hia::obs::Counter& pressure_gauge() {
  static hia::obs::Counter& c = hia::obs::counter("staging_pressure_state");
  return c;
}
// The Fig. 5 timeline gauges: how deep the data-ready queue ran, how many
// bytes it held (phantom bytes excluded), and what the store kept resident.
hia::obs::Counter& queue_depth_gauge() {
  static hia::obs::Counter& c = hia::obs::counter("staging_queue_depth");
  return c;
}
hia::obs::Counter& queue_bytes_gauge() {
  static hia::obs::Counter& c = hia::obs::counter("staging_queue_bytes");
  return c;
}
hia::obs::Counter& store_bytes_gauge() {
  static hia::obs::Counter& c = hia::obs::counter("staging_store_bytes");
  return c;
}
}  // namespace

OverloadControl::OverloadControl(OverloadConfig config)
    : config_(config) {
  // Expose the ledger's gauges to the time-series sampler; the admission
  // and pressure gauges only move when overload control is on.
  obs::register_counter_gauge("staging_queue_depth");
  obs::register_counter_gauge("staging_queue_bytes");
  obs::register_counter_gauge("staging_store_bytes");
  if (config_.enabled()) {
    obs::register_counter_gauge("dart_credits_outstanding");
    obs::register_counter_gauge("staging_pressure_state");
  }
}

int OverloadControl::effective_credits_locked() const {
  // A starved credit is gone for the run, but at least one always remains:
  // admission may crawl, it must never stop.
  return std::max(1, config_.credits - credits_starved_);
}

void OverloadControl::update_state_locked() {
  double util = 0.0;
  const size_t queue_total = queue_bytes_ + phantom_bytes_;
  if (config_.queue_bytes_budget > 0) {
    util = std::max(util, static_cast<double>(queue_total) /
                              static_cast<double>(config_.queue_bytes_budget));
  }
  if (config_.queue_depth_budget > 0) {
    util = std::max(util, static_cast<double>(queue_depth_) /
                              static_cast<double>(config_.queue_depth_budget));
  }
  if (config_.store_bytes_budget > 0) {
    util = std::max(util, static_cast<double>(store_bytes_) /
                              static_cast<double>(config_.store_bytes_budget));
  }
  if (config_.credits > 0) {
    util = std::max(util, static_cast<double>(credits_in_use_) /
                              static_cast<double>(effective_credits_locked()));
  }

  // The hysteresis machine: Saturated holds through the [low, high) band
  // and only releases below the low watermark, so steering does not flap
  // while the queue hovers at the boundary.
  PressureState next = state_;
  switch (state_) {
    case PressureState::kNominal:
      if (util >= config_.high_watermark) next = PressureState::kSaturated;
      else if (util >= config_.low_watermark) next = PressureState::kElevated;
      break;
    case PressureState::kElevated:
      if (util >= config_.high_watermark) next = PressureState::kSaturated;
      else if (util < config_.low_watermark) next = PressureState::kNominal;
      break;
    case PressureState::kSaturated:
      if (util < config_.low_watermark) next = PressureState::kNominal;
      break;
  }
  if (next != state_) {
    const PressureState prev = state_;
    state_ = next;
    pressure_gauge().set(static_cast<int64_t>(next));
    obs::record_event(obs::EventKind::kPressure, -1, -1,
                      static_cast<int64_t>(next),
                      static_cast<int64_t>(prev));
  }
  peak_queue_bytes_ = std::max(peak_queue_bytes_, queue_total);
}

PressureSignal OverloadControl::signal_locked() const {
  PressureSignal s;
  s.state = state_;
  s.queue_bytes = queue_bytes_ + phantom_bytes_;
  s.queue_depth = queue_depth_;
  s.store_bytes = store_bytes_;
  s.credits_free = config_.credits > 0
                       ? std::max(0, effective_credits_locked() -
                                         credits_in_use_)
                       : -1;
  return s;
}

void OverloadControl::admit(size_t bytes, int tenant) {
  // Budgeting is per-region count; bytes only label an overdraft. The
  // config is immutable, so an open gate returns without the lock.
  if (config_.credits <= 0) return;
  std::unique_lock lock(mutex_);
  TenantLedger& ledger = tenants_[tenant];
  // The gate: global pool has slack AND the tenant is under its own cap.
  auto can_admit = [this, &ledger] {
    if (credits_in_use_ >= effective_credits_locked()) return false;
    return ledger.credit_cap <= 0 ||
           ledger.credits_in_use < ledger.credit_cap;
  };
  const bool capped_at_entry =
      ledger.credit_cap > 0 && ledger.credits_in_use >= ledger.credit_cap &&
      credits_in_use_ < effective_credits_locked();
  Stopwatch waited;
  const bool got = credit_cv_.wait_for(
      lock, std::chrono::duration<double>(config_.admit_max_wait_s),
      can_admit);
  const double wait_s = waited.seconds();
  if (capped_at_entry) ++ledger.cap_waits;
  if (!got) {
    // Overdraft: the deadline passed with every credit out. Admit anyway
    // (liveness beats the bound) but count it loudly — overdrafts mean
    // the credit pool is undersized for the producer rate.
    ++overdrafts_;
    ++ledger.overdrafts;
    static obs::Counter& overdraft_c =
        obs::counter("dart_admission_overdrafts");
    overdraft_c.add(1);
    if (tenant > 0) {
      obs::counter("dart_admission_overdrafts", {.tenant = tenant}).add(1);
    }
    obs::instant("overload", "admission_overdraft",
                 {.bytes = static_cast<long long>(bytes)});
  }
  ++credits_in_use_;
  ++ledger.credits_in_use;
  ++admissions_;
  ++ledger.admissions;
  wait_s_total_ += wait_s;
  ledger.wait_s += wait_s;
  t_admission_wait_s += wait_s;
  credits_gauge().add(1);
  static obs::Histogram& wait_h = obs::histogram("dart_admission_wait_s");
  wait_h.record(wait_s);
  if (tenant > 0) {
    obs::histogram("dart_admission_wait_s", {.tenant = tenant})
        .record(wait_s);
  }
  update_state_locked();
}

void OverloadControl::release_credit(int tenant) {
  if (config_.credits <= 0) return;
  {
    std::lock_guard lock(mutex_);
    if (credits_in_use_ > 0) --credits_in_use_;
    TenantLedger& ledger = tenants_[tenant];
    if (ledger.credits_in_use > 0) --ledger.credits_in_use;
    credits_gauge().add(-1);
    update_state_locked();
  }
  // notify_all, not notify_one: the freed credit may be unusable by the
  // longest waiter (a capped tenant) while a later waiter could take it.
  credit_cv_.notify_all();
}

void OverloadControl::set_tenant_credit_cap(int tenant, int credits) {
  {
    std::lock_guard lock(mutex_);
    tenants_[tenant].credit_cap = std::max(0, credits);
  }
  credit_cv_.notify_all();
}

OverloadControl::TenantStats OverloadControl::tenant_stats(int tenant) const {
  std::lock_guard lock(mutex_);
  TenantStats s;
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return s;
  s.admissions = it->second.admissions;
  s.overdrafts = it->second.overdrafts;
  s.wait_s = it->second.wait_s;
  s.cap_waits = it->second.cap_waits;
  s.credits_outstanding = it->second.credits_in_use;
  s.credit_cap = it->second.credit_cap;
  return s;
}

void OverloadControl::on_store_put(size_t bytes) {
  std::lock_guard lock(mutex_);
  store_bytes_ += bytes;
  store_bytes_gauge().add(static_cast<int64_t>(bytes));
  update_state_locked();
}

void OverloadControl::on_store_take(size_t bytes) {
  std::lock_guard lock(mutex_);
  const size_t taken = std::min(store_bytes_, bytes);
  store_bytes_ -= taken;
  store_bytes_gauge().add(-static_cast<int64_t>(taken));
  update_state_locked();
}

void OverloadControl::on_queue_add(size_t bytes) {
  std::lock_guard lock(mutex_);
  queue_bytes_ += bytes;
  ++queue_depth_;
  queue_bytes_gauge().add(static_cast<int64_t>(bytes));
  queue_depth_gauge().add(1);
  update_state_locked();
}

void OverloadControl::on_queue_remove(size_t bytes) {
  std::lock_guard lock(mutex_);
  const size_t removed = std::min(queue_bytes_, bytes);
  queue_bytes_ -= removed;
  queue_bytes_gauge().add(-static_cast<int64_t>(removed));
  if (queue_depth_ > 0) {
    --queue_depth_;
    queue_depth_gauge().add(-1);
  }
  update_state_locked();
}

bool OverloadControl::queue_would_overflow(size_t add_bytes) const {
  std::lock_guard lock(mutex_);
  if (config_.queue_bytes_budget > 0 &&
      queue_bytes_ + phantom_bytes_ + add_bytes > config_.queue_bytes_budget) {
    return true;
  }
  if (config_.queue_depth_budget > 0 &&
      queue_depth_ + 1 > config_.queue_depth_budget) {
    return true;
  }
  return false;
}

void OverloadControl::inject_phantom_bytes(size_t bytes) {
  std::lock_guard lock(mutex_);
  phantom_bytes_ += bytes;
  update_state_locked();
}

void OverloadControl::starve_credits(int credits) {
  {
    std::lock_guard lock(mutex_);
    credits_starved_ += std::max(0, credits);
    update_state_locked();
  }
  // Waiters re-evaluate against the shrunken pool (their deadline still
  // guarantees progress).
  credit_cv_.notify_all();
}

PressureSignal OverloadControl::pressure() const {
  std::lock_guard lock(mutex_);
  return signal_locked();
}

PressureState OverloadControl::state() const {
  std::lock_guard lock(mutex_);
  return state_;
}

OverloadControl::Stats OverloadControl::stats() const {
  std::lock_guard lock(mutex_);
  Stats s;
  s.admissions = admissions_;
  s.admission_overdrafts = overdrafts_;
  s.admission_wait_s = wait_s_total_;
  s.peak_queue_bytes = peak_queue_bytes_;
  s.phantom_bytes = phantom_bytes_;
  s.credits_outstanding = credits_in_use_;
  s.credits_starved = credits_starved_;
  return s;
}

// ----------------------------------------------------------------- steering --

SteerPolicy parse_steer_policy(const std::string& name) {
  if (name.empty() || name == "in-transit") return SteerPolicy::kInTransit;
  if (name == "adaptive") return SteerPolicy::kAdaptive;
  if (name == "in-situ") return SteerPolicy::kInSitu;
  if (name == "shed") return SteerPolicy::kShed;
  HIA_REQUIRE(false, "--steer: unknown policy '" + name +
                         "' (in-transit, adaptive, in-situ, shed)");
  return SteerPolicy::kInTransit;  // unreachable
}

const char* to_string(SteerPolicy policy) {
  switch (policy) {
    case SteerPolicy::kInTransit: return "in-transit";
    case SteerPolicy::kAdaptive: return "adaptive";
    case SteerPolicy::kInSitu: return "in-situ";
    case SteerPolicy::kShed: return "shed";
  }
  return "?";
}

const char* to_string(SteerDecision decision) {
  switch (decision) {
    case SteerDecision::kInTransit: return "in-transit";
    case SteerDecision::kInSitu: return "in-situ";
    case SteerDecision::kDefer: return "defer";
    case SteerDecision::kShed: return "shed";
  }
  return "?";
}

SteerDecision steer_decide(SteerPolicy policy, const PressureSignal& pressure,
                           int defers_used, int max_defers) {
  switch (policy) {
    case SteerPolicy::kInTransit: return SteerDecision::kInTransit;
    case SteerPolicy::kInSitu: return SteerDecision::kInSitu;
    case SteerPolicy::kAdaptive:
    case SteerPolicy::kShed: break;
  }
  if (pressure.state != PressureState::kSaturated) {
    return SteerDecision::kInTransit;
  }
  // Saturated. Defer only if the backlog can actually drain (a live bucket
  // exists) and the task's deadline allows one more step.
  if (pressure.live_buckets != 0 && defers_used < max_defers) {
    return SteerDecision::kDefer;
  }
  return policy == SteerPolicy::kShed ? SteerDecision::kShed
                                      : SteerDecision::kInSitu;
}

}  // namespace hia
