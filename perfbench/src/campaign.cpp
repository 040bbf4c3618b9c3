// The two campaign workloads, sim-stats and hybrid-topo-viz: HybridRunner
// campaigns whose analyses are wrapped in a timing decorator. Every layer
// is measured from outside: the decorator times in_situ/in_transit, and the
// rest comes from RunReport, TaskRecord, Dart::counters() and the flight
// recorder.
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "core/framework.hpp"
#include "core/stats_pipeline.hpp"
#include "core/topology_pipeline.hpp"
#include "core/viz_pipeline.hpp"
#include "obs/events.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

enum Slot { kStatsHybrid, kStatsInSitu, kTopo, kViz, kNumSlots };

// Span names: each is the per-layer metric the span feeds, minus "_s".
const char* const kInSituSpan[kNumSlots] = {
    "core.insitu_stats_hybrid", "core.insitu_stats_insitu",
    "core.insitu_topo", "core.insitu_viz"};
const char* const kInTransitSpan[kNumSlots] = {
    "core.intransit_stats", "core.intransit_stats", "core.intransit_topo",
    "core.intransit_viz"};
// Kernel self time per staged analysis (TaskRecord compute minus pulls).
const char* const kKernelMetric[kNumSlots] = {
    "analysis.stats.combine_s", nullptr, "analysis.topology.combine_s",
    "analysis.viz.raycast_s"};

struct CampaignSpec {
  std::array<int64_t, 3> grid{};
  std::array<int, 3> ranks{};
  int buckets = 2;
  long steps = 0;  // per repetition; step 1 is the warm-up
  std::vector<Slot> slots;
  std::string codec;  // RunConfig::staging_codec ("" = publish raw)

  [[nodiscard]] int nranks() const { return ranks[0] * ranks[1] * ranks[2]; }
};

CampaignSpec spec_for(const std::string& workload) {
  if (workload == "sim-stats") {
    return {{96, 64, 48}, {2, 2, 1}, 2, 12, {kStatsHybrid, kStatsInSitu}, ""};
  }
  // The lossless byte-shuffle codec puts real encode/decode work on the
  // publish and pull paths without changing any result.
  return {{96, 64, 48}, {2, 2, 1}, 2, 12, {kStatsHybrid, kTopo, kViz},
          "quantize:0"};
}

hia::RunConfig make_config(const CampaignSpec& spec, uint64_t seed) {
  hia::RunConfig cfg;
  const auto& g = spec.grid;
  cfg.sim.grid = hia::GlobalGrid{
      g, {1.0, static_cast<double>(g[1]) / static_cast<double>(g[0]),
          static_cast<double>(g[2]) / static_cast<double>(g[0])}};
  cfg.sim.ranks_per_axis = spec.ranks;
  hia::SplitMix64 mix(seed);
  cfg.sim.turbulence.seed = mix.next();
  cfg.sim.chemistry.seed = mix.next();
  cfg.staging_buckets = spec.buckets;
  cfg.staging_codec = spec.codec;
  cfg.steps = spec.steps;
  return cfg;
}

/// One trace id per (step, analysis): the in-situ spans of every rank and
/// the in-transit span of the task they feed share it.
uint64_t trace_id(long step, int slot) {
  return static_cast<uint64_t>(step) * kNumSlots + static_cast<uint64_t>(slot);
}

/// Rank 0's in-situ intervals per (step, slot), kept untraced as well: the
/// step period and set-up time are read from them, with the process CPU
/// time at the start of rank 0's first in-situ stage.
class Rank0Clock {
 public:
  explicit Rank0Clock(long steps)
      : cells_(static_cast<size_t>((steps + 1) * kNumSlots)) {}
  /// Written by the rank-0 thread only; read after run() has joined it.
  void record(int slot, long step, Interval iv, double cpu_at_start) {
    const size_t i = static_cast<size_t>(step * kNumSlots + slot);
    if (step >= 1 && i < cells_.size()) cells_[i] = iv;
    if (first_cpu_ < 0.0) first_cpu_ = cpu_at_start;
  }
  [[nodiscard]] Interval at(int slot, long step) const {
    return cells_[static_cast<size_t>(step * kNumSlots + slot)];
  }
  [[nodiscard]] double first_cpu() const { return first_cpu_; }

 private:
  std::vector<Interval> cells_;
  double first_cpu_ = -1.0;
};

/// Forwards to the wrapped analysis and times both stages.
class TimedAnalysis final : public hia::HybridAnalysis {
 public:
  using Hook = std::function<void(hia::InSituContext&)>;

  TimedAnalysis(std::shared_ptr<hia::HybridAnalysis> inner, Slot slot,
                Rank0Clock& clock, Hook after_rank0 = {})
      : inner_(std::move(inner)),
        slot_(slot),
        clock_(clock),
        after_rank0_(std::move(after_rank0)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<std::string> staged_variables() const override {
    return inner_->staged_variables();
  }

  void in_situ(hia::InSituContext& ctx) override {
    const bool rank0 = ctx.comm().rank() == 0;
    const double cpu0 = rank0 ? process_cpu_s() : 0.0;
    const double t0 = now_s();
    inner_->in_situ(ctx);
    const double t1 = now_s();
    tracer().record(kInSituSpan[slot_], trace_id(ctx.step(), slot_), t0, t1);
    if (rank0) {
      clock_.record(slot_, ctx.step(), {t0, t1}, cpu0);
      if (after_rank0_) after_rank0_(ctx);
    }
  }

  void in_transit(hia::TaskContext& ctx) override {
    ScopedSpan span(kInTransitSpan[slot_], trace_id(ctx.task().step, slot_));
    inner_->in_transit(ctx);
  }

 private:
  std::shared_ptr<hia::HybridAnalysis> inner_;
  Slot slot_;
  Rank0Clock& clock_;
  Hook after_rank0_;
};

std::shared_ptr<hia::HybridAnalysis> make_analysis(Slot slot) {
  switch (slot) {
    case kStatsHybrid: return std::make_shared<hia::HybridStatistics>();
    case kStatsInSitu: return std::make_shared<hia::InSituStatistics>();
    case kTopo:
      return std::make_shared<hia::HybridTopology>(hia::TopologyConfig{});
    case kViz: {
      hia::VizConfig viz;
      viz.image_size = 128;
      viz.downsample_stride = 4;
      return std::make_shared<hia::HybridVisualization>(viz);
    }
    case kNumSlots: break;
  }
  return nullptr;
}

Slot slot_of(const std::string& analysis) {
  if (analysis == "topo-hybrid") return kTopo;
  if (analysis == "viz-hybrid") return kViz;
  return kStatsHybrid;
}

using ModelsByStep = std::vector<std::vector<hia::DescriptiveModel>>;

/// Checks every task's result and the per-tenant conservation.
void check_outputs(const CampaignSpec& spec, const hia::RunReport& report,
                   hia::StagingService& staging, const ModelsByStep& in_situ,
                   CheckLog& log) {
  const auto staged = static_cast<uint64_t>(
      std::count_if(spec.slots.begin(), spec.slots.end(),
                    [](Slot s) { return s != kStatsInSitu; }));
  for (const std::string& f :
       check_conservation(report.in_transit, {{0, report.in_transit.size()}},
                          {{0, staged * static_cast<uint64_t>(spec.steps)}})) {
    log.fail(f, 0);
  }
  const bool has_in_situ_stats =
      std::count(spec.slots.begin(), spec.slots.end(), kStatsInSitu) > 0;
  const auto points =
      static_cast<uint64_t>(spec.grid[0] * spec.grid[1] * spec.grid[2]);
  for (const hia::TaskRecord& rec : report.in_transit) {
    const std::string at =
        rec.analysis + " step " + std::to_string(rec.step) + ": ";
    if (rec.outcome != hia::TaskOutcome::kCompleted) {
      log.fail(at + hia::to_string(rec.outcome));
      continue;
    }
    const auto blob = staging.take_result(rec.task_id);
    if (!blob.has_value()) {
      log.fail(at + "no result");
      continue;
    }
    std::string why;
    switch (slot_of(rec.analysis)) {
      case kTopo: why = check_tree(*blob, rec.step); break;
      case kViz: why = check_image(*blob); break;
      default: {
        const auto models = hia::deserialize_models(*blob);
        const auto s = static_cast<size_t>(rec.step);
        why = has_in_situ_stats
                  ? check_stats(models, s < in_situ.size()
                                            ? in_situ[s]
                                            : std::vector<hia::DescriptiveModel>{})
                  : check_stats_count(models, hia::kNumVariables, points);
      }
    }
    if (!why.empty()) log.fail(at + why);
  }
}

/// Per-layer samples of one traced repetition.
void layer_samples(const CampaignSpec& spec, const hia::RunReport& report,
                   hia::Dart& dart, Rep& rep) {
  for (size_t s = 1; s < report.sim_step_seconds.size(); ++s) {
    rep.sample("sim.advance_s", "s", report.sim_step_seconds[s]);
  }
  // In-situ stages: max over ranks per (slot, step), and each rank's total
  // per step for the imbalance; the warm-up step is left out.
  std::map<uint64_t, double> slowest;                  // trace id -> max
  std::map<long, std::map<uint32_t, double>> by_rank;  // step -> thread -> s
  for (const Span& sp : rep.spans) {
    const std::string name = sp.name;
    if (name.rfind("core.insitu_", 0) != 0) continue;
    const long step = static_cast<long>(sp.id / kNumSlots);
    if (step < 2) continue;
    slowest[sp.id] = std::max(slowest[sp.id], sp.t1 - sp.t0);
    by_rank[step][sp.thread] += sp.t1 - sp.t0;
  }
  for (const auto& [id, secs] : slowest) {
    rep.sample(std::string(kInSituSpan[id % kNumSlots]) + "_s", "s", secs);
  }
  for (const auto& [step, ranks] : by_rank) {
    double sum = 0.0, mx = 0.0;
    for (const auto& [thread, secs] : ranks) {
      sum += secs;
      mx = std::max(mx, secs);
    }
    rep.sample("core.insitu_imbalance", "ratio",
               mx * static_cast<double>(ranks.size()) / sum);
  }
  for (const auto& [name, selfs] : self_times(rep.spans)) {
    if (name.rfind("core.intransit_", 0) != 0) continue;
    for (const double v : selfs) rep.sample(name + "_s", "s", v);
  }

  // Kernel self time: TaskRecord.compute_seconds is the handler's whole
  // wall time, pulls included, so the recorder's pull seconds come off it.
  const std::map<uint64_t, double> pull_s = ledger_samples(
      report.in_transit, dart.counters(), spec.buckets, rep);
  for (const hia::TaskRecord& r : report.in_transit) {
    const auto pull = pull_s.find(r.task_id);
    rep.sample(kKernelMetric[slot_of(r.analysis)], "s",
               std::max(0.0, r.compute_seconds -
                                 (pull == pull_s.end() ? 0.0 : pull->second)));
  }
}

Rep run_rep(const CampaignSpec& spec, uint64_t seed, bool traced,
            CheckLog& log) {
  const hia::RunConfig cfg = make_config(spec, seed);
  Rank0Clock clock(spec.steps);
  ModelsByStep in_situ_models(static_cast<size_t>(spec.steps + 1));

  Rep rep;
  rep.traced = traced;
  hia::obs::reset_events();
  tracer().clear();
  tracer().set_enabled(traced);

  const double cpu0 = process_cpu_s();
  const double t_construct = now_s();
  hia::HybridRunner runner(cfg);
  for (const Slot slot : spec.slots) {
    auto inner = make_analysis(slot);
    TimedAnalysis::Hook hook;
    if (slot == kStatsInSitu) {
      auto stats = std::static_pointer_cast<hia::InSituStatistics>(inner);
      hook = [stats, &in_situ_models](hia::InSituContext& ctx) {
        const auto s = static_cast<size_t>(ctx.step());
        if (s < in_situ_models.size()) in_situ_models[s] = stats->latest_models();
      };
    }
    runner.add_analysis(
        std::make_shared<TimedAnalysis>(inner, slot, clock, std::move(hook)));
  }
  const double t_run0 = now_s();
  const hia::RunReport report = runner.run();
  const double t_run1 = now_s();
  rep.cpu_s = process_cpu_s() - cpu0;
  tracer().set_enabled(false);

  // Rank 0's in-situ phase of each step runs from the start of its first
  // stage to the end of its last; step s + 1's starts a period later.
  auto phase = [&](long s) {
    Interval iv{1e300, -1e300};
    for (const Slot slot : spec.slots) {
      iv.t0 = std::min(iv.t0, clock.at(slot, s).t0);
      iv.t1 = std::max(iv.t1, clock.at(slot, s).t1);
    }
    return iv;
  };
  rep.setup_s = phase(1).t0 - t_construct;
  rep.setup_cpu_s = clock.first_cpu() - cpu0;
  for (long s = 2; s <= spec.steps; ++s) {
    rep.periods.push_back(phase(s).t0 - phase(s - 1).t0);
  }
  rep.makespan_s = t_run1 - t_run0;
  size_t completed = 0;
  for (const hia::TaskRecord& r : report.in_transit) {
    rep.turnarounds.push_back(r.complete_time - r.enqueue_time);
    if (r.outcome == hia::TaskOutcome::kCompleted) ++completed;
  }
  rep.submitted = report.in_transit.size();
  rep.tasks_per_s = static_cast<double>(completed) / rep.makespan_s;
  check_outputs(spec, report, runner.staging(), in_situ_models, log);
  if (!traced) return rep;

  tracer().record("core.setup", 0, t_construct, phase(1).t0);
  tracer().record("core.run", 0, t_run0, t_run1);
  rep.spans = tracer().collect();
  rep.sample("core.drain_s", "s", t_run1 - phase(spec.steps).t1);
  layer_samples(spec, report, runner.dart(), rep);
  return rep;
}

/// Median sim seconds per step of the plain single-rank run of `spec`'s
/// problem (no analyses), the warm-up step left out.
double single_rank_advance(const CampaignSpec& spec, uint64_t seed) {
  CampaignSpec one = spec;
  one.ranks = {1, 1, 1};
  one.steps = 4;
  hia::HybridRunner runner(make_config(one, seed));
  const hia::RunReport report = runner.run();
  return median({report.sim_step_seconds.begin() + 1,
                 report.sim_step_seconds.end()});
}

}  // namespace

RunResult run_campaign(const Options& options) {
  const CampaignSpec spec = spec_for(options.workload);
  const double baseline =
      options.trace ? single_rank_advance(spec, options.seed) : 0.0;
  RunResult result = run_reps(options, [&](bool traced, CheckLog& log) {
    return run_rep(spec, options.seed, traced, log);
  });
  if (!options.trace) return result;

  Metrics& l = result.layers;
  const double advance = l["sim.advance_s"].value;
  put(l, "sim.parallel_eff", baseline / (spec.nranks() * advance), "ratio");
  double in_situ = 0.0;
  for (const Slot slot : spec.slots) {
    in_situ += l[std::string(kInSituSpan[slot]) + "_s"].value;
  }
  put(l, "core.step_sync_s",
      result.e2e_traced["step_s"].value - advance - in_situ, "s");
  return result;
}

}  // namespace perfbench
