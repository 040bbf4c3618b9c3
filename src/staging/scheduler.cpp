#include "staging/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "obs/histogram.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "runtime/fault.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace {
// Gauge backing the Fig. 5 timeline arguments: how many buckets were busy
// at once (the overload ledger keeps the queue gauges).
hia::obs::Counter& busy_buckets() {
  static hia::obs::Counter& c = hia::obs::counter("staging_busy_buckets");
  return c;
}
}  // namespace

namespace hia {

// ----------------------------------------------------------- TaskContext --

std::vector<double> TaskContext::pull_doubles(const DataDescriptor& desc) {
  TransferStats stats;
  Stopwatch wall;
  auto data = dart_.get_doubles(dart_node_, desc.handle, &stats);
  transfer_wall_seconds_ += wall.seconds();
  movement_seconds_ += stats.modeled_seconds;
  movement_bytes_ += stats.bytes;
  movement_raw_bytes_ += stats.raw_bytes;
  decode_seconds_ += stats.decode_seconds;
  return data;
}

// -------------------------------------------------------- StagingService --

StagingService::StagingService(Dart& dart, Options options)
    : dart_(dart),
      store_(options.num_servers, &dart.overload(), options.replicas),
      queue_([o = &dart.overload()](size_t, size_t bytes) {
        return o->queue_would_overflow(bytes);
      }) {
  HIA_REQUIRE(options.num_buckets > 0, "need at least one staging bucket");
  // Expose the busy-bucket gauge to the time-series sampler and install the
  // task clock as the sampler's virtual time source, so queue-depth series
  // line up with the Fig. 5 timeline's vtime axis.
  obs::register_counter_gauge("staging_busy_buckets");
  obs::set_virtual_clock([this] { return clock_.seconds(); }, this);
  using Kind = ScriptedEvent::Kind;
  const FaultPlan& faults = dart_.faults();
  if (!dart_.overload().config().enabled() &&
      (faults.scripts(Kind::kOverload) ||
       faults.scripts(Kind::kCreditStarve) ||
       faults.scripts(Kind::kTenantHog))) {
    HIA_LOG_WARN("staging",
                 "fault plan scripts overload events but overload control "
                 "is off; they will not fire");
  }
  if (faults.scripts(Kind::kCrashServer) && store_.replicas() < 2) {
    HIA_LOG_WARN("staging",
                 "fault plan scripts server crashes but replicas=%d; "
                 "committed objects on the crashed shard will be lost",
                 store_.replicas());
  }
  buckets_.resize(static_cast<size_t>(options.num_buckets));
  live_buckets_ = options.num_buckets;
  for (int b = 0; b < options.num_buckets; ++b) {
    buckets_[static_cast<size_t>(b)].dart_node =
        dart_.register_node("bucket-" + std::to_string(b));
    buckets_[static_cast<size_t>(b)].thread =
        std::thread([this, b] { bucket_main(b); });
  }
}

StagingService::~StagingService() {
  obs::clear_virtual_clock(this);  // before teardown: the closure reads *this
  drain();
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& b : buckets_) {
    if (b.thread.joinable()) b.thread.join();  // drain() joined crashed ones
  }
}

void StagingService::register_handler(const std::string& analysis,
                                      Handler handler) {
  std::lock_guard lock(mutex_);
  handlers_[analysis] = std::move(handler);
}

DataDescriptor StagingService::publish(int src_node,
                                       const std::string& variable, long step,
                                       const Box3& box,
                                       const std::vector<double>& data,
                                       const Codec* codec, int tenant) {
  DataDescriptor desc;
  desc.variable = variable;
  desc.step = step;
  desc.box = box;
  desc.src_node = src_node;
  desc.tenant = tenant;
  desc.handle =
      codec == nullptr
          ? dart_.put_doubles(src_node, data, tenant)
          : dart_.put_doubles(src_node, data, *codec, nullptr, tenant);
  store_.put(desc);
  return desc;
}

bool StagingService::zombie_fenced(const Assigned& assigned,
                                   int bucket_index) {
  if (bucket_index < 0) return false;
  {
    std::lock_guard lock(mutex_);
    Bucket& bucket = buckets_[static_cast<size_t>(bucket_index)];
    if (!bucket.crashed) {
      // The bucket is live (or retired gracefully): the attempt is current.
      HIA_ASSERT(bucket.running.has_value() &&
                 bucket.running->task.task_id == assigned.task.task_id);
      bucket.running.reset();
      return false;
    }
  }
  // A crashed bucket never delivers; its thread ran on only because a
  // thread cannot be killed. The heartbeat takes the attempt back when its
  // lease expires (or already has) and re-queues the task. A crashed
  // bucket never gets new work, so the zombie stays fenced: no settle, no
  // record, no outstanding_ decrement, no handle release, no terminal
  // event — the re-execution owns all of those.
  zombies_fenced_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& fenced = obs::counter("staging_zombies_fenced");
  fenced.add(1);
  obs::record_event(obs::EventKind::kZombieFence, assigned.task.tenant,
                    bucket_index,
                    static_cast<int64_t>(assigned.task.task_id),
                    assigned.attempt, clock_.seconds());
  HIA_LOG_WARN("staging",
               "fenced zombie completion of task %llu attempt %d from "
               "crashed bucket %d",
               static_cast<unsigned long long>(assigned.task.task_id),
               assigned.attempt, bucket_index);
  return true;
}

void StagingService::heartbeat() {
  // (bucket, reclaimed attempt) pairs whose lease expired: the owner
  // crashed mid-attempt, so these count as failed attempts and go through
  // the ordinary retry machinery (backoff + bucket avoidance).
  std::vector<std::pair<int, Assigned>> reclaimed;
  std::vector<Assigned> orphaned;
  {
    std::lock_guard lock(mutex_);
    const double now = clock_.seconds();
    // Staging capacity is gone: every queued task goes to degrade_or_shed,
    // outside the lock.
    if (live_buckets_ == 0) {
      for (const Ticket& t : queue_.take_all()) {
        orphaned.push_back(dequeue_locked(t));
      }
    }
    for (size_t i = 0; i < buckets_.size(); ++i) {
      Bucket& bucket = buckets_[i];
      // The heartbeat tick: every live owner renews; only a crashed owner
      // stops renewing, so only its lease can expire.
      if (!bucket.crashed) {
        bucket.lease_expires = now + kLeaseS;
        continue;
      }
      const int b = static_cast<int>(i);
      if (bucket.running.has_value() && now >= bucket.lease_expires) {
        Assigned a = std::move(*bucket.running);
        bucket.running.reset();
        leases_expired_.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter& expired = obs::counter("staging_leases_expired");
        expired.add(1);
        obs::record_event(obs::EventKind::kLeaseExpire, a.task.tenant, b,
                          static_cast<int64_t>(a.task.task_id), a.attempt,
                          now);
        HIA_LOG_WARN("staging",
                     "lease on task %llu attempt %d expired: owner bucket %d "
                     "crashed; reclaiming for re-execution",
                     static_cast<unsigned long long>(a.task.task_id),
                     a.attempt, b);
        reclaimed.emplace_back(b, std::move(a));
      }
    }
  }
  for (auto& [b, a] : reclaimed) {
    if (a.attempt < dart_.faults().retry().max_task_attempts) {
      tasks_reexecuted_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& reexecs = obs::counter("staging_task_reexecs");
      reexecs.add(1);
      obs::record_event(obs::EventKind::kTaskReexec, a.task.tenant, b,
                        static_cast<int64_t>(a.task.task_id), a.attempt + 1,
                        clock_.seconds());
    }
    // The crashed attempt's charge is void: it settles no bucket time.
    fail_attempt(b, std::move(a), 0.0);
  }
  for (Assigned& a : orphaned) degrade_or_shed(std::move(a));
}

namespace {
/// Sum of a task's input wire bytes (what the queue budget charges).
size_t task_wire_bytes(const InTransitTask& task) {
  size_t bytes = 0;
  for (const DataDescriptor& d : task.inputs) bytes += d.handle.bytes;
  return bytes;
}

/// The transfer/compute split of one attempt's bucket occupancy, stamped
/// at `vt`. Both are wall durations measured inside the attempt's window,
/// so transfer + compute <= occupancy and the remainder is the drain phase
/// by construction.
void record_phase_split(const InTransitTask& task, int bucket,
                        double pull_wall_s, double wall_s, double vt) {
  const auto id = static_cast<int64_t>(task.task_id);
  obs::record_event(obs::EventKind::kTaskXfer, task.tenant, bucket, id,
                    static_cast<int64_t>(pull_wall_s * 1e6), vt);
  obs::record_event(obs::EventKind::kTaskWork, task.tenant, bucket, id,
                    static_cast<int64_t>(std::max(0.0, wall_s - pull_wall_s) *
                                         1e6),
                    vt);
}

/// Counts one terminal outcome, plus its labeled per-tenant series for a
/// stamped tenant (ids from 1).
void count_terminal(const char* name, int tenant) {
  obs::counter(name).add(1);
  if (tenant > 0) obs::counter(name, {.tenant = tenant}).add(1);
}
}  // namespace

void StagingService::enqueue_locked(Assigned assigned) {
  dart_.overload().on_queue_add(assigned.ticket.bytes);
  queue_.push(assigned.ticket);
  queued_.emplace(assigned.ticket.id, std::move(assigned));
}

StagingService::Assigned StagingService::dequeue_locked(const Ticket& ticket) {
  auto node = queued_.extract(ticket.id);
  HIA_ASSERT(!node.empty());
  Assigned assigned = std::move(node.mapped());
  assigned.ticket = ticket;  // carries the pick's provisional charge
  dart_.overload().on_queue_remove(ticket.bytes);
  return assigned;
}

void StagingService::stop_bucket_locked(int b, bool crash, long step) {
  Bucket& bucket = buckets_[static_cast<size_t>(b)];
  bucket.dead = true;
  bucket.crashed = crash;
  --live_buckets_;
  std::erase(free_buckets_, b);
  obs::counter(crash ? "staging_buckets_crashed" : "staging_buckets_killed")
      .add(1);
  obs::record_event(
      obs::EventKind::kFaultVerdict, -1, b,
      static_cast<int64_t>(crash ? obs::EventFaultSite::kBucketCrash
                                 : obs::EventFaultSite::kBucketKill),
      b, clock_.seconds());
  HIA_LOG_WARN("staging", "bucket %d %s at step %ld", b,
               crash ? "crashed ungracefully (no drain)"
                     : "killed by fault plan",
               step);
}

void StagingService::fire_scripted_locked(long step) {
  using Kind = ScriptedEvent::Kind;
  const std::vector<ScriptedEvent>& timeline = dart_.faults().config().scripted;
  // A `continue` below consumes an event without effect: it is not counted.
  for (; scripted_next_ < timeline.size() &&
         timeline[scripted_next_].step <= step;
       ++scripted_next_) {
    const ScriptedEvent& e = timeline[scripted_next_];
    const double now = clock_.seconds();
    switch (e.kind) {
      case Kind::kKillBucket:
      case Kind::kCrashBucket: {
        // A kill retires the bucket gracefully: it finishes its current
        // task first. A crash yanks it mid-attempt with no drain; the
        // attempt is left to the lease machinery. A bucket holding no
        // attempt is doomed instead: it crashes as it starts its next one.
        const bool crash = e.kind == Kind::kCrashBucket;
        if (e.target >= static_cast<int>(buckets_.size())) {
          HIA_LOG_WARN("staging",
                       "fault plan stops bucket %d but only %zu exist; "
                       "ignored",
                       e.target, buckets_.size());
          continue;
        }
        Bucket& bucket = buckets_[static_cast<size_t>(e.target)];
        // Already killed, crashed, retired or doomed.
        if (bucket.dead || bucket.doomed) continue;
        if (crash && !bucket.running.has_value()) {
          bucket.doomed = true;
        } else {
          stop_bucket_locked(e.target, crash, step);
        }
        break;
      }
      case Kind::kCrashServer: {
        if (e.target >= store_.num_servers()) {
          HIA_LOG_WARN("staging",
                       "fault plan crashes server %d but only %d exist; "
                       "ignored",
                       e.target, store_.num_servers());
          continue;
        }
        const size_t lost = store_.crash_server(e.target);
        obs::counter("staging_servers_crashed").add(1);
        obs::record_event(
            obs::EventKind::kFaultVerdict, -1, e.target,
            static_cast<int64_t>(obs::EventFaultSite::kServerCrash),
            static_cast<int64_t>(lost), now);
        HIA_LOG_WARN("staging",
                     "object-store server %d crashed at step %ld: %zu "
                     "objects lost their last copy (%d servers live, "
                     "replicas=%d)",
                     e.target, step, lost, store_.live_servers(),
                     store_.replicas());
        break;
      }
      case Kind::kOverload:
      case Kind::kTenantHog: {
        if (!dart_.overload().config().enabled()) continue;
        // A hog's burst raises the shared pressure signal like any rogue
        // producer, but its bytes are *attributed* to the hog's ledger.
        const bool hog = e.kind == Kind::kTenantHog;
        dart_.overload().inject_phantom_bytes(e.amount);
        if (hog) tallies_[e.target].hog_bytes += e.amount;
        obs::record_event(
            obs::EventKind::kFaultVerdict, hog ? e.target : -1, -1,
            static_cast<int64_t>(obs::EventFaultSite::kPhantomBytes),
            static_cast<int64_t>(e.amount), now);
        if (hog) {
          HIA_LOG_WARN("staging",
                       "tenant %d hogged %llu phantom queue bytes at step %ld",
                       e.target, static_cast<unsigned long long>(e.amount),
                       step);
        } else {
          HIA_LOG_WARN("staging",
                       "fault plan injected %llu phantom queue bytes at step "
                       "%ld",
                       static_cast<unsigned long long>(e.amount), step);
        }
        break;
      }
      case Kind::kCreditStarve:
        if (!dart_.overload().config().enabled()) continue;
        dart_.overload().starve_credits(static_cast<int>(e.amount));
        obs::record_event(
            obs::EventKind::kFaultVerdict, -1, -1,
            static_cast<int64_t>(obs::EventFaultSite::kCreditStarve),
            static_cast<int64_t>(e.amount), now);
        HIA_LOG_WARN("staging",
                     "fault plan confiscated %llu admission credits at step "
                     "%ld",
                     static_cast<unsigned long long>(e.amount), step);
        break;
    }
    dart_.faults().count_scripted(e);
  }
}

StagingService::Assigned StagingService::admit_locked(InTransitTask task) {
  HIA_REQUIRE(handlers_.count(task.analysis) > 0,
              "submit for unregistered analysis: " + task.analysis);
  Assigned assigned;
  assigned.ticket = {.id = next_task_id_++,
                     .tenant = task.tenant,
                     .bytes = task_wire_bytes(task),
                     .enqueue_time = clock_.seconds()};
  task.task_id = assigned.ticket.id;
  assigned.task = std::move(task);
  ++outstanding_;
  ++tallies_[assigned.task.tenant].outstanding;
  return assigned;
}

void StagingService::finish_locked(Assigned& assigned, TaskRecord& record,
                                   double busy_s) {
  record.task_id = assigned.task.task_id;
  record.analysis = assigned.task.analysis;
  record.step = assigned.task.step;
  record.tenant = assigned.task.tenant;
  record.enqueue_time = assigned.ticket.enqueue_time;
  record.attempts = assigned.attempt;
  record.backoff_seconds = assigned.backoff_total;
  record.last_failed_bucket = assigned.ticket.last_bucket;
  // The record and the tracer's spans share clock reads, so a lifecycle
  // that is not monotone means a ledger drifted. All stamps are task-clock
  // seconds: a wall-epoch enqueue_time (~1.7e9) would poison every
  // queue-wait histogram downstream.
  HIA_ASSERT(record.enqueue_time >= 0.0 &&
             record.enqueue_time <= clock_.seconds());
  HIA_ASSERT(record.assign_time >= record.enqueue_time);
  HIA_ASSERT(record.complete_time >= record.assign_time);
  queue_.settle(assigned.ticket, busy_s);
  records_.push_back(record);
  HIA_ASSERT(outstanding_ > 0);
  --outstanding_;
  TenantTally& t = tallies_[record.tenant];
  HIA_ASSERT(t.outstanding > 0);
  --t.outstanding;
}

uint64_t StagingService::submit(InTransitTask task, SubmitRoute route) {
  const long step = task.step;
  const int tenant = task.tenant;
  // Admission waits parked by this thread's publishes are charged to this
  // task (the credit-grant causal edge); drained even without a gate so a
  // stale accumulation can never leak into a later service's timeline.
  const double admit_wait_s = OverloadControl::take_thread_admission_wait();
  Ticket ticket;
  // Steered or diverted: the task never competes for a bucket. It is
  // still a submission for conservation purposes (outstanding_, records).
  std::optional<Assigned> off_queue;
  auto divert = TaskQueue::Divert::kNone;
  {
    std::lock_guard lock(mutex_);
    Assigned assigned = admit_locked(std::move(task));
    fire_scripted_locked(step);
    ticket = assigned.ticket;
    // A diverted task goes straight to degrade/shed, never the queue:
    // queued bytes/depth never exceed a tenant cap or the hard wall.
    if (route == SubmitRoute::kQueue) {
      divert = queue_.would_divert(tenant, ticket.bytes);
    }
    if (divert == TaskQueue::Divert::kTenantCap) {
      ++tallies_[tenant].cap_diversions;
    }
    if (divert == TaskQueue::Divert::kQueueWall) ++overload_diversions_;
    if (route != SubmitRoute::kQueue || divert != TaskQueue::Divert::kNone) {
      off_queue = std::move(assigned);
    } else {
      enqueue_locked(std::move(assigned));
    }
  }
  // vt = the locked enqueue read, never a fresh clock sample: a bucket can
  // match the task before this line runs, and assign must not precede
  // submit on the virtual timeline.
  obs::record_event(obs::EventKind::kTaskSubmit, tenant,
                    static_cast<int>(step), static_cast<int64_t>(ticket.id),
                    static_cast<int64_t>(ticket.bytes), ticket.enqueue_time);
  if (admit_wait_s > 0.0) {
    obs::record_event(obs::EventKind::kCreditGrant, tenant, -1,
                      static_cast<int64_t>(ticket.id),
                      static_cast<int64_t>(admit_wait_s * 1e6),
                      ticket.enqueue_time);
  }
  work_cv_.notify_all();
  if (divert != TaskQueue::Divert::kNone) {
    const bool tenant_capped = divert == TaskQueue::Divert::kTenantCap;
    static obs::Counter& diversions = obs::counter("staging_overload_diversions");
    static obs::Counter& cap_diversions =
        obs::counter("staging_tenant_cap_diversions");
    (tenant_capped ? cap_diversions : diversions).add(1);
    obs::instant("overload",
                 tenant_capped ? "tenant_cap_diverted" : "queue_diverted",
                 {.step = step,
                  .bytes = static_cast<long long>(ticket.bytes),
                  .vtime = clock_.seconds()});
    HIA_LOG_WARN("staging",
                 "task %llu (%s, step %ld, tenant %d) diverted: %s exhausted",
                 static_cast<unsigned long long>(ticket.id),
                 off_queue->task.analysis.c_str(), step, tenant,
                 tenant_capped ? "tenant queue cap" : "queue budget");
  }
  if (off_queue.has_value()) {
    if (route == SubmitRoute::kFallback) {
      run_task(-1, std::move(*off_queue), clock_.seconds(),
               TaskOutcome::kDegraded);
    } else if (route == SubmitRoute::kShed) {
      shed_task(std::move(*off_queue));
    } else {
      degrade_or_shed(std::move(*off_queue));
    }
  }
  // Submits are one of the heartbeat's tick sources: renew live leases,
  // reclaim any whose owner just crashed, and degrade queued work if the
  // last live bucket just went.
  heartbeat();
  return ticket.id;
}

uint64_t StagingService::submit_for(const std::string& analysis, long step,
                                    const std::vector<std::string>& variables,
                                    SubmitRoute route, int tenant) {
  InTransitTask task;
  task.analysis = analysis;
  task.step = step;
  task.tenant = tenant;
  for (const std::string& var : variables) {
    auto descs = store_.take(var, step);
    task.inputs.insert(task.inputs.end(), descs.begin(), descs.end());
  }
  return submit(std::move(task), route);
}

uint64_t StagingService::record_deferred(const std::string& analysis,
                                         long step, int tenant) {
  TaskRecord record;
  record.analysis = analysis;
  record.step = step;
  record.tenant = tenant;
  record.bucket = -1;
  record.enqueue_time = clock_.seconds();
  record.assign_time = record.enqueue_time;
  record.complete_time = record.enqueue_time;
  record.outcome = TaskOutcome::kDeferred;
  {
    std::lock_guard lock(mutex_);
    record.task_id = next_task_id_++;
    records_.push_back(record);
  }
  count_terminal("staging_tasks_deferred", tenant);
  // A deferral is a submission that terminates immediately: both events
  // are recorded so the per-tenant partition stays conserved.
  obs::record_event(obs::EventKind::kTaskSubmit, tenant,
                    static_cast<int>(step),
                    static_cast<int64_t>(record.task_id), 0,
                    record.enqueue_time);
  obs::record_event(obs::EventKind::kTaskDefer, tenant, -1,
                    static_cast<int64_t>(record.task_id), 0,
                    record.complete_time);
  return record.task_id;
}

PressureSignal StagingService::pressure() const {
  PressureSignal signal = dart_.overload().pressure();
  signal.live_buckets = live_bucket_count();
  return signal;
}

uint64_t StagingService::overload_diversions() const {
  std::lock_guard lock(mutex_);
  return overload_diversions_;
}

void StagingService::set_tenant_policy(int tenant, double weight,
                                       size_t queue_bytes_cap,
                                       size_t queue_depth_cap) {
  std::lock_guard lock(mutex_);
  queue_.set_tenant(tenant, weight, queue_bytes_cap, queue_depth_cap);
}

bool StagingService::fair_share_enabled() const {
  std::lock_guard lock(mutex_);
  return queue_.fair_share();
}

std::vector<StagingService::TenantShare> StagingService::tenant_shares()
    const {
  std::lock_guard lock(mutex_);
  std::map<int, TenantShare> shares;
  for (const auto& [tenant, t] : queue_.tenants()) {
    TenantShare& share = shares[tenant];
    share.weight = t.weight;
    share.bucket_seconds = t.service_s;
    share.queue_depth = t.queue_depth;
    share.queue_bytes = t.queue_bytes;
  }
  for (const auto& [tenant, t] : tallies_) {
    TenantShare& share = shares[tenant];
    share.cap_diversions = t.cap_diversions;
    share.hog_bytes = t.hog_bytes;
    share.outstanding = t.outstanding;
  }
  std::vector<TenantShare> out;
  out.reserve(shares.size());
  for (auto& [tenant, share] : shares) {
    share.tenant = tenant;
    out.push_back(share);
  }
  return out;
}

void StagingService::drain_tenant(int tenant) {
  wait_drained([this, tenant] {
    auto it = tallies_.find(tenant);
    return it == tallies_.end() || it->second.outstanding == 0;
  });
}

int StagingService::add_bucket() {
  int index = -1;
  int live_after = 0;
  {
    std::lock_guard lock(mutex_);
    index = static_cast<int>(buckets_.size());
    buckets_.emplace_back();
    buckets_.back().dart_node =
        dart_.register_node("bucket-" + std::to_string(index));
    buckets_.back().thread =
        std::thread([this, index] { bucket_main(index); });
    ++live_buckets_;
    live_after = live_buckets_;
  }
  static obs::Counter& grows = obs::counter("staging_pool_grows");
  grows.add(1);
  obs::record_event(obs::EventKind::kPoolGrow, -1, index, index, live_after,
                    clock_.seconds());
  HIA_LOG_INFO("staging", "elastic pool grew: bucket %d joined", index);
  work_cv_.notify_all();
  return index;
}

int StagingService::retire_bucket(int min_live) {
  int victim = -1;
  int live_after = 0;
  const int floor = std::max(min_live, 1);
  {
    std::lock_guard lock(mutex_);
    // The floor is re-checked here, under the same lock that scripted
    // crashes take: a bucket crash between the caller's pressure snapshot
    // and this call shrinks live_buckets_ first, and the retire backs off
    // rather than dropping the live pool below the floor.
    if (live_buckets_ <= floor) return -1;
    // Prefer an idle bucket (no task to finish); otherwise the busy one
    // with the highest index, which drains gracefully like a scripted
    // kill: it completes its current task before exiting.
    if (!free_buckets_.empty()) {
      victim = free_buckets_.front();
    } else {
      for (int b = static_cast<int>(buckets_.size()) - 1; b >= 0; --b) {
        if (!buckets_[static_cast<size_t>(b)].dead) {
          victim = b;
          break;
        }
      }
    }
    HIA_ASSERT(victim >= 0);
    buckets_[static_cast<size_t>(victim)].dead = true;
    --live_buckets_;
    HIA_ASSERT(live_buckets_ >= floor);
    live_after = live_buckets_;
    std::erase(free_buckets_, victim);
  }
  static obs::Counter& shrinks = obs::counter("staging_pool_shrinks");
  shrinks.add(1);
  obs::record_event(obs::EventKind::kPoolShrink, -1, victim, victim,
                    live_after, clock_.seconds());
  HIA_LOG_INFO("staging", "elastic pool shrank: bucket %d retired", victim);
  work_cv_.notify_all();
  return victim;
}

void StagingService::drain() {
  wait_drained([this] { return outstanding_ == 0; });
}

void StagingService::wait_drained(const std::function<bool()>& drained) {
  // The drain loop doubles as the heartbeat driver: a task stranded on a
  // crashed bucket only re-enters the queue once its lease expires, and
  // nothing else may tick the clock after the last submit. Poll with a
  // deadline instead of blocking forever.
  std::vector<std::thread> crashed;
  for (;;) {
    heartbeat();
    std::unique_lock lock(mutex_);
    if (drain_cv_.wait_for(lock, std::chrono::milliseconds(10), drained)) {
      // A crashed bucket gets no new work, so its thread exits after its
      // last attempt; joining it here lets a fenced zombie land in the
      // ledger before the caller reads it.
      for (Bucket& bucket : buckets_) {
        if (bucket.crashed && bucket.thread.joinable()) {
          crashed.push_back(std::move(bucket.thread));
        }
      }
      break;
    }
  }
  for (std::thread& t : crashed) t.join();
}

std::vector<TaskRecord> StagingService::records() const {
  std::lock_guard lock(mutex_);
  return records_;
}

std::optional<std::vector<std::byte>> StagingService::take_result(
    uint64_t task_id) {
  std::lock_guard lock(mutex_);
  auto it = results_.find(task_id);
  if (it == results_.end()) return std::nullopt;
  std::vector<std::byte> out = std::move(it->second);
  results_.erase(it);
  return out;
}

size_t StagingService::pending_tasks() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

int StagingService::free_bucket_count() const {
  std::lock_guard lock(mutex_);
  return static_cast<int>(free_buckets_.size());
}

int StagingService::num_buckets() const {
  std::lock_guard lock(mutex_);
  return static_cast<int>(buckets_.size());
}

int StagingService::live_bucket_count() const {
  std::lock_guard lock(mutex_);
  return live_buckets_;
}

void StagingService::bucket_main(int bucket_index) {
  obs::set_thread_track(obs::bucket_track(bucket_index));
  const size_t b = static_cast<size_t>(bucket_index);
  // Matcher body: hands each free bucket, in bucket-ready order, the task
  // the policy picks for it (queue_.pick charges it). Requires mutex_ held.
  auto match = [this](double now) {
    for (auto fb = free_buckets_.begin();
         fb != free_buckets_.end() && !queue_.empty();) {
      const std::optional<Ticket> picked = queue_.pick(*fb, live_buckets_, now);
      if (!picked) {
        ++fb;
        continue;
      }
      buckets_[static_cast<size_t>(*fb)].slot = dequeue_locked(*picked);
      fb = free_buckets_.erase(fb);
    }
  };
  for (;;) {
    Assigned assigned;
    {
      std::unique_lock lock(mutex_);
      if (!buckets_[b].dead) {
        // Bucket-ready: join the free list, then FCFS-match queued work.
        free_buckets_.push_back(bucket_index);
        // One clock read serves the match and the release that decides
        // how long to sleep: with two, a backoff expiring between them is
        // neither matched nor waited for, and the bucket sleeps for good.
        double now = clock_.seconds();
        match(now);
        while (!stopping_ && !buckets_[b].slot.has_value() &&
               !buckets_[b].dead) {
          const double release = queue_.next_release(now);
          if (release < 0.0) {
            work_cv_.wait(lock);
          } else {
            // A retried task is waiting out its backoff: sleep until the
            // release (or an earlier submit/retry/stop notification).
            const double delta = release - clock_.seconds();
            if (delta > 0.0) {
              work_cv_.wait_for(lock, std::chrono::duration<double>(delta));
            }
          }
          now = clock_.seconds();
          match(now);
        }
        work_cv_.notify_all();
      }
      // The wait above released the lock: index buckets_ afresh.
      Bucket& bucket = buckets_[b];
      if (!bucket.slot.has_value()) {
        // Stopping, or retired with nothing left to finish (the heartbeat
        // drains queued work if capacity hit zero), or crashed (a crash
        // lands only on a bucket that holds no slot). Leave the free list
        // and exit.
        HIA_ASSERT(bucket.dead || stopping_);
        std::erase(free_buckets_, bucket_index);
        return;
      }
      assigned = std::move(*bucket.slot);
      bucket.slot.reset();
      // Take ownership: the lease covers the whole attempt and renews on
      // every heartbeat while this bucket stays alive.
      bucket.running = assigned;
      bucket.lease_expires = clock_.seconds() + kLeaseS;
      if (bucket.doomed && !bucket.dead) {
        stop_bucket_locked(bucket_index, true, assigned.task.step);
      }
    }
    run_task(bucket_index, std::move(assigned), clock_.seconds(),
             TaskOutcome::kCompleted);
  }
}

void StagingService::fail_attempt(int bucket_index, Assigned assigned,
                                  double busy_s) {
  {
    std::lock_guard lock(mutex_);
    queue_.settle(assigned.ticket, busy_s);
  }
  if (assigned.attempt < dart_.faults().retry().max_task_attempts) {
    retry_task(bucket_index, std::move(assigned));
    return;
  }
  obs::record_event(obs::EventKind::kBucketVacate, assigned.task.tenant,
                    bucket_index, static_cast<int64_t>(assigned.task.task_id),
                    assigned.attempt, clock_.seconds());
  assigned.ticket.last_bucket = bucket_index;
  degrade_or_shed(std::move(assigned));
}

void StagingService::retry_task(int failed_bucket, Assigned assigned) {
  const double backoff =
      dart_.faults().backoff_seconds(assigned.task.task_id, assigned.attempt);
  const uint64_t task_id = assigned.task.task_id;
  const int tenant = assigned.task.tenant;
  const int failed_attempt = assigned.attempt;
  static obs::Counter& retries = obs::counter("staging_task_retries");
  static obs::Histogram& backoff_h = obs::histogram("staging_backoff_s");
  retries.add(1);
  backoff_h.record(backoff);
  bool no_capacity = false;
  double retry_vt = 0.0;
  {
    std::lock_guard lock(mutex_);
    assigned.ticket.last_bucket = failed_bucket;
    assigned.attempt += 1;
    assigned.backoff_total += backoff;
    // One clock read feeds both not_before and the retry/release events,
    // so backoff_release.vt - task_retry.vt == backoff exactly and the
    // attribution partition telescopes without a gap.
    retry_vt = clock_.seconds();
    assigned.ticket.not_before = retry_vt + backoff;
    // Same divert rule as submit: a retry may not push its owner over cap,
    // nor breach the hard budget if the queue filled up while this task
    // was executing — the retry budget is then forfeit and the task
    // degrades/sheds like a diverted submission.
    const auto divert = queue_.would_divert(tenant, assigned.ticket.bytes);
    if (divert == TaskQueue::Divert::kTenantCap) {
      ++tallies_[tenant].cap_diversions;
    }
    no_capacity = live_buckets_ == 0 || divert != TaskQueue::Divert::kNone;
    if (!no_capacity) enqueue_locked(std::move(assigned));
  }
  // kTaskRetry ends the failed attempt's occupancy. kBackoffRelease only
  // exists when the task really re-enters the queue race: a no-capacity
  // retry degrades immediately and never waits out its backoff.
  obs::record_event(obs::EventKind::kTaskRetry, tenant, failed_bucket,
                    static_cast<int64_t>(task_id), failed_attempt, retry_vt);
  if (!no_capacity) {
    obs::record_event(obs::EventKind::kBackoffRelease, tenant, -1,
                      static_cast<int64_t>(task_id), failed_attempt + 1,
                      retry_vt + backoff);
  }
  work_cv_.notify_all();
  if (no_capacity) degrade_or_shed(std::move(assigned));
}

void StagingService::degrade_or_shed(Assigned assigned) {
  if (dart_.faults().retry().degrade_to_insitu) {
    // ElasticBroker-style degradation: the analysis still runs, but on the
    // in-situ fallback executor — work is conserved, latency is charged to
    // the primary side. In the virtual cluster the calling thread plays
    // that executor (bucket index -1).
    run_task(-1, std::move(assigned), clock_.seconds(),
             TaskOutcome::kDegraded);
  } else {
    shed_task(std::move(assigned));
  }
}

void StagingService::shed_task(Assigned assigned) {
  // Load shedding, made loud: the task is dropped, but it still produces a
  // record and bumps an explicit counter — nothing disappears silently.
  count_terminal("staging_tasks_dropped", assigned.task.tenant);
  obs::record_event(obs::EventKind::kTaskShed, assigned.task.tenant, -1,
                    static_cast<int64_t>(assigned.task.task_id),
                    assigned.attempt, clock_.seconds());
  HIA_LOG_WARN("staging", "task %llu (%s, step %ld) shed after %d attempts",
               static_cast<unsigned long long>(assigned.task.task_id),
               assigned.task.analysis.c_str(), assigned.task.step,
               assigned.attempt);
  for (const DataDescriptor& d : assigned.task.inputs) {
    dart_.release(d.handle);
  }
  TaskRecord record;
  record.bucket = -1;
  record.assign_time = clock_.seconds();
  record.complete_time = record.assign_time;
  record.outcome = TaskOutcome::kShed;
  {
    std::lock_guard lock(mutex_);
    finish_locked(assigned, record, 0.0);  // no bucket time: drop any charge
  }
  drain_cv_.notify_all();
}

void StagingService::run_task(int bucket_index, Assigned assigned,
                              double assign_time, TaskOutcome outcome) {
  Handler handler;
  int dart_node = -1;
  {
    std::lock_guard lock(mutex_);
    auto it = handlers_.find(assigned.task.analysis);
    HIA_ASSERT(it != handlers_.end());
    handler = it->second;
    if (bucket_index >= 0) {
      dart_node = buckets_[static_cast<size_t>(bucket_index)].dart_node;
    } else {
      // The in-situ fallback executor registers with Dart on first use so
      // fault-free runs keep the baseline node census.
      if (fallback_node_ < 0) {
        fallback_node_ = dart_.register_node("staging-fallback");
      }
      dart_node = fallback_node_;
    }
  }

  // The task span on this bucket's track: assign -> pull -> compute ->
  // complete (the pull/decode sub-spans come from Dart).
  char span_name[obs::Event::kNameCapacity];
  std::snprintf(span_name, sizeof(span_name), "task:%s%s",
                outcome == TaskOutcome::kDegraded ? "degraded:" : "",
                assigned.task.analysis.c_str());
  if (bucket_index >= 0) busy_buckets().add(1);
  obs::record_event(obs::EventKind::kTaskAssign, assigned.task.tenant,
                    bucket_index,
                    static_cast<int64_t>(assigned.task.task_id),
                    assigned.attempt, assign_time);
  obs::Span task_span("sched", span_name,
                      {.bucket = bucket_index,
                       .step = assigned.task.step,
                       .vtime = assign_time});

  TaskContext ctx(*this, dart_, assigned.task, bucket_index, dart_node);

  Stopwatch watch;
  bool failed = false;
  if (bucket_index >= 0 &&
      dart_.faults().task_fails(assigned.task.task_id, assigned.attempt)) {
    // An injected timeout (deterministic per (task, attempt)): the handler
    // never runs, and the attempt holds its bucket like a real hang.
    failed = true;
    obs::instant("fault", "task_timeout",
                 {.bucket = bucket_index,
                  .step = assigned.task.step,
                  .vtime = clock_.seconds()});
    std::this_thread::sleep_for(
        std::chrono::duration<double>(dart_.faults().retry().task_timeout_s));
  } else {
    try {
      obs::Span compute_span("sched", "compute",
                             {.bucket = bucket_index,
                              .step = assigned.task.step});
      handler(ctx);
    } catch (const std::exception& e) {
      failed = true;
      HIA_LOG_ERROR("staging",
                    "task %llu (%s, step %ld) attempt %d failed: %s",
                    static_cast<unsigned long long>(assigned.task.task_id),
                    assigned.task.analysis.c_str(), assigned.task.step,
                    assigned.attempt, e.what());
    }
  }
  double wall = watch.seconds();

  if (failed) {
    // An injected timeout or a thrown handler (e.g. a pull whose frames
    // never survived the wire) is a failed attempt, never a completion.
    if (bucket_index >= 0) busy_buckets().add(-1);
    // The bucket crashed: the heartbeat re-queues the task, so the
    // zombie's retry would double it.
    if (zombie_fenced(assigned, bucket_index)) return;
    // Phase split of the failed attempt's occupancy; the record that ends
    // it (kTaskRetry, kBucketVacate or kTaskShed) comes at a later clock
    // read.
    const double end_vt = clock_.seconds();
    record_phase_split(assigned.task, bucket_index,
                       ctx.transfer_wall_seconds_, wall, end_vt);
    if (bucket_index >= 0) {
      // Settled against the tenant, then retried or degraded/shed.
      fail_attempt(bucket_index, std::move(assigned), end_vt - assign_time);
    } else {
      // The fallback executor is the last resort: nothing runs after it.
      shed_task(std::move(assigned));
    }
    return;
  }

  if (bucket_index >= 0) {
    // Scripted slowdown: this bucket's core is oversubscribed; stretch the
    // compute phase by the configured factor.
    const double factor = dart_.faults().bucket_slow_factor(bucket_index);
    if (factor > 1.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(wall * (factor - 1.0)));
      wall *= factor;
    }
  }

  // Exactly-once gate: if the bucket crashed while the attempt ran, the
  // re-execution owns the terminal record, the outstanding_ decrement, and
  // the input-handle releases. The zombie stops here, before any of those
  // side effects.
  if (zombie_fenced(assigned, bucket_index)) {
    busy_buckets().add(-1);  // only a bucket attempt is ever fenced
    return;
  }

  // The bucket consumed its inputs; free the published regions.
  for (const DataDescriptor& d : assigned.task.inputs) {
    dart_.release(d.handle);
  }

  TaskRecord record;
  record.bucket = bucket_index;
  record.assign_time = assign_time;
  record.complete_time = clock_.seconds();
  record.data_movement_seconds = ctx.movement_seconds_;
  record.data_movement_bytes = ctx.movement_bytes_;
  record.data_movement_raw_bytes = ctx.movement_raw_bytes_;
  record.decode_seconds = ctx.decode_seconds_;
  record.compute_seconds = wall;
  record.outcome = outcome;
  {
    std::lock_guard lock(mutex_);
    // Real bucket occupancy replaces the provisional charge (fallback runs
    // cost no bucket time).
    finish_locked(
        assigned, record,
        bucket_index >= 0 ? record.complete_time - record.assign_time : 0.0);
    if (ctx.result_.has_value()) {
      results_[record.task_id] = std::move(*ctx.result_);
    }
  }
  count_terminal(outcome == TaskOutcome::kDegraded ? "staging_tasks_degraded"
                                                   : "staging_tasks_completed",
                 record.tenant);
  // Transfer/compute split of this final attempt's occupancy, stamped at
  // the terminal instant.
  record_phase_split(assigned.task, bucket_index, ctx.transfer_wall_seconds_,
                     wall, record.complete_time);
  obs::record_event(outcome == TaskOutcome::kDegraded
                        ? obs::EventKind::kTaskDegrade
                        : obs::EventKind::kTaskComplete,
                    record.tenant, record.bucket,
                    static_cast<int64_t>(record.task_id), record.attempts,
                    record.complete_time);
  // The three Fig. 5 latency distributions, on the task (virtual) clock.
  static obs::Histogram& wait_h = obs::histogram("staging_queue_wait_s");
  static obs::Histogram& compute_h = obs::histogram("staging_compute_s");
  static obs::Histogram& turnaround_h = obs::histogram("staging_turnaround_s");
  wait_h.record(record.assign_time - record.enqueue_time);
  compute_h.record(record.compute_seconds);
  turnaround_h.record(record.complete_time - record.enqueue_time);
  if (record.tenant > 0) {
    // Per-tenant turnaround: the isolation metric the service drill and
    // the tenants ablation gate on (p99 per tenant under contention). A
    // labeled series per tenant, not a mangled name: the exporter renders
    // it as hia_staging_turnaround_s{tenant="N"}.
    obs::histogram("staging_turnaround_s", {.tenant = record.tenant})
        .record(record.complete_time - record.enqueue_time);
  }
  if (bucket_index >= 0) busy_buckets().add(-1);
  drain_cv_.notify_all();
}

}  // namespace hia
