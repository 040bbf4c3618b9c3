// The staging-flood workload: no simulation. One producer thread publishes
// seeded blocks through the lossless delta codec and submits one task per
// block, alternating two fair-share tenants weighted 2:1; three buckets
// pull each block and reduce it to a checksum. This is the per-task hot
// path: publish, codec, store, submit, matcher, wakeups, pull, recorder.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "compress/codec.hpp"
#include "obs/events.hpp"
#include "staging/scheduler.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr int kBuckets = 3;
constexpr int kServers = 2;
constexpr size_t kPoolBlocks = 256;
constexpr size_t kTasksPerRep = 80 * kPoolBlocks;
constexpr double kMinDoubles = 64;    // 512 B, the SMSG path
constexpr double kMaxDoubles = 8192;  // 64 KiB, the BTE path
constexpr const char* kAnalysis = "flood";
constexpr const char* kVariable = "flood.block";

struct Block {
  std::vector<double> data;
  BlockSum sum;
  hia::Box3 box;
};

struct Task {
  uint32_t block = 0;
  int tenant = 1;
};

/// The seeded inputs: a pool of blocks with log-uniform sizes holding
/// integer random walks (the payload class the delta codec compresses),
/// and the task sequence of (block, tenant) pairs. Sizes are stratified
/// (block b draws from the b-th of kPoolBlocks equal slices of the log
/// range) and every block is used equally often, so each seed moves the
/// same bytes in a different order with different contents.
struct Inputs {
  std::vector<Block> pool;
  std::vector<Task> tasks;
  std::map<int, uint64_t> per_tenant;
};

Inputs make_inputs(uint64_t seed) {
  hia::Xoshiro256 rng(seed, 0x666c6f6f64ULL);
  Inputs in;
  in.pool.resize(kPoolBlocks);
  const double log_lo = std::log(kMinDoubles);
  const double log_span = std::log(kMaxDoubles) - log_lo;
  for (size_t i = 0; i < kPoolBlocks; ++i) {
    Block& b = in.pool[i];
    const double u = (static_cast<double>(i) + rng.uniform()) / kPoolBlocks;
    const auto n = static_cast<size_t>(std::lround(std::exp(log_lo + u * log_span)));
    double x = static_cast<double>(rng.below(2001)) - 1000.0;
    b.data.resize(n);
    for (double& v : b.data) {
      x += static_cast<double>(rng.below(7)) - 3.0;
      v = x;
    }
    b.sum = block_sum(b.data);
    b.box = hia::Box3{{0, 0, 0}, {static_cast<int64_t>(n), 1, 1}};
  }
  // Each pass over the pool visits every block once, in a fresh order.
  std::vector<uint32_t> order(kPoolBlocks);
  for (size_t i = 0; i < kPoolBlocks; ++i) order[i] = static_cast<uint32_t>(i);
  in.tasks.resize(kTasksPerRep);
  for (size_t i = 0; i < kTasksPerRep; ++i) {
    const size_t k = i % kPoolBlocks;
    if (k == 0) {
      for (size_t j = kPoolBlocks - 1; j > 0; --j) {
        std::swap(order[j], order[rng.below(j + 1)]);
      }
    }
    in.tasks[i].block = order[k];
    in.tasks[i].tenant = 1 + static_cast<int>(rng.below(2));
    ++in.per_tenant[in.tasks[i].tenant];
  }
  return in;
}

void handle(hia::TaskContext& ctx) {
  ScopedSpan span("flood.handler", ctx.task().task_id);
  const double t0 = tracer().on() ? now_s() : 0.0;
  const std::vector<double> values = ctx.pull_doubles(ctx.task().inputs.front());
  if (tracer().on()) {
    tracer().record("transport.pull", ctx.task().task_id, t0, now_s());
  }
  ctx.set_result(encode_block_sum(block_sum(values)));
}

Rep run_rep(const Inputs& in, bool traced, CheckLog& log) {
  Rep rep;
  rep.traced = traced;
  hia::obs::reset_events();
  tracer().clear();
  tracer().set_enabled(traced);
  const std::shared_ptr<const hia::Codec> codec = hia::make_codec("delta");
  const std::vector<std::string> variables{kVariable};
  std::vector<uint64_t> ids(in.tasks.size());
  std::vector<double> starts(in.tasks.size());
  std::map<int, uint64_t> submitted;

  const double cpu0 = process_cpu_s();
  const double t_construct = now_s();
  hia::NetworkModel network;
  hia::Dart dart(network);
  hia::StagingService staging(dart, {.num_servers = kServers,
                                     .num_buckets = kBuckets});
  staging.set_tenant_policy(1, 2.0);
  staging.set_tenant_policy(2, 1.0);
  staging.register_handler(kAnalysis, handle);
  const int node = dart.register_node("producer");
  // Set-up ends when the service can take blocks; publishing is work.
  const double cpu_ready = process_cpu_s();
  const double t_ready = now_s();
  for (size_t i = 0; i < in.tasks.size(); ++i) {
    const Task& task = in.tasks[i];
    const Block& block = in.pool[task.block];
    const auto step = static_cast<long>(i);
    const double t0 = now_s();
    starts[i] = t0;
    staging.publish(node, kVariable, step, block.box, block.data, codec.get(),
                    task.tenant);
    const double t1 = traced ? now_s() : 0.0;
    ids[i] = staging.submit_for(kAnalysis, step, variables,
                                hia::SubmitRoute::kQueue, task.tenant);
    ++submitted[task.tenant];
    if (traced) {
      const double t2 = now_s();
      tracer().record("staging.publish", ids[i], t0, t1);
      tracer().record("staging.submit", ids[i], t1, t2);
    }
  }
  const double t_last_submit = now_s();
  staging.drain();
  const double t_drain = now_s();
  rep.cpu_s = process_cpu_s() - cpu0;
  tracer().set_enabled(false);

  const std::vector<hia::TaskRecord> records = staging.records();
  size_t completed = 0;
  for (const hia::TaskRecord& r : records) {
    rep.turnarounds.push_back(r.complete_time - r.enqueue_time);
    if (r.outcome == hia::TaskOutcome::kCompleted) {
      ++completed;
    } else {
      log.fail("task " + std::to_string(r.task_id) + ": " +
               hia::to_string(r.outcome));
    }
  }
  // The first period carries first-call costs; the rest are steady.
  for (size_t i = 2; i < starts.size(); ++i) {
    rep.periods.push_back(starts[i] - starts[i - 1]);
  }
  rep.submitted = in.tasks.size();
  rep.setup_s = t_ready - t_construct;
  rep.setup_cpu_s = cpu_ready - cpu0;
  rep.makespan_s = t_drain - t_ready;
  rep.tasks_per_s = static_cast<double>(completed) / rep.makespan_s;

  for (const std::string& f :
       check_conservation(records, submitted, in.per_tenant)) {
    log.fail(f, 0);
  }
  for (size_t i = 0; i < in.tasks.size(); ++i) {
    const auto blob = staging.take_result(ids[i]);
    const std::string why =
        blob.has_value()
            ? check_block_sum(*blob, in.pool[in.tasks[i].block].sum)
            : "no result";
    if (!why.empty()) log.fail("task " + std::to_string(ids[i]) + ": " + why);
  }
  if (!traced) return rep;

  rep.spans = tracer().collect();
  rep.sample("core.drain_s", "s", t_drain - t_last_submit);
  ledger_samples(records, dart.counters(), kBuckets, rep);
  const auto selfs = self_times(rep.spans);
  const struct {
    const char* span;
    const char* metric;
  } per_call[] = {{"staging.publish", "staging.publish_us"},
                  {"staging.submit", "staging.submit_us"},
                  {"transport.pull", "transport.pull_us"},
                  {"flood.handler", "flood.handler_self_us"}};
  for (const auto& pc : per_call) {
    const auto it = selfs.find(pc.span);
    if (it == selfs.end()) continue;
    for (const double v : it->second) rep.sample(pc.metric, "us", v * 1e6);
  }
  return rep;
}

}  // namespace

RunResult run_flood(const Options& options) {
  const Inputs inputs = make_inputs(options.seed);
  return run_reps(options, [&](bool traced, CheckLog& log) {
    return run_rep(inputs, traced, log);
  });
}

}  // namespace perfbench
