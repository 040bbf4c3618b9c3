#include "core/framework.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/fault.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace hia {

namespace {

std::shared_ptr<const Codec> staging_codec(const std::string& spec) {
  return spec.empty() ? nullptr : make_codec(spec);
}

/// An empty spec is faults off (no_faults()).
FaultPlanConfig fault_config(const std::string& spec) {
  return spec.empty() ? no_faults() : FaultPlan::parse_spec(spec);
}

/// An empty spec is overload off (an idle ledger); a spec given must set
/// a budget or credits.
OverloadConfig overload_config(const std::string& spec) {
  const OverloadConfig config = OverloadConfig::parse_spec(spec);
  HIA_REQUIRE(spec.empty() || config.enabled(),
              "--overload spec sets no budget and no credits: " + spec);
  return config;
}

}  // namespace

StagingDeployment::StagingDeployment(const RunConfig& config)
    : network_(config.network),
      faults_(fault_config(config.faults)),
      overload_(overload_config(config.overload)) {
  Dart::Options dart = config.dart;
  dart.faults = &faults_;
  dart.overload = &overload_;
  dart_ = std::make_unique<Dart>(network_, dart);
  staging_ = std::make_unique<StagingService>(
      *dart_, StagingService::Options{config.staging_servers,
                                      config.staging_buckets,
                                      config.staging_replicas});
}

void StagingDeployment::add_ledger(ResilienceSummary& res) const {
  const DartCounters dart_counters = dart_->counters();
  res.frame_retransmits = dart_counters.get_retries;
  res.crc_failures = dart_counters.crc_failures;
  res.recovered_bytes = dart_counters.recovered_bytes;
  res.leases_expired = staging_->leases_expired();
  res.tasks_reexecuted = staging_->tasks_reexecuted();
  res.zombies_fenced = staging_->zombies_fenced();
  res.replicas_repaired = staging_->store().replicas_repaired();
  res.objects_lost = staging_->store().objects_lost();
  const FaultStats stats = faults_.stats();
  res.frames_dropped = stats.frames_dropped;
  res.frames_corrupted = stats.frames_corrupted;
  res.frames_delayed = stats.frames_delayed;
  res.injected_delay_s = stats.injected_delay_s;
  res.tasks_failed = stats.tasks_failed;
  res.buckets_killed = stats.buckets_killed;
  res.buckets_crashed = stats.buckets_crashed;
  res.servers_crashed = stats.servers_crashed;
  res.overload_bytes_injected = stats.overload_bytes_injected;
  res.credits_starved = stats.credits_starved;
  res.tenant_hog_bytes = stats.tenant_hog_bytes;
  const OverloadControl::Stats ostats = overload_.stats();
  res.admission_overdrafts = ostats.admission_overdrafts;
  res.admission_wait_s = ostats.admission_wait_s;
  res.peak_queue_bytes = ostats.peak_queue_bytes;
  res.overload_diversions = staging_->overload_diversions();
}

HybridRunner::HybridRunner(RunConfig config)
    : config_(std::move(config)),
      own_deployment_(std::make_unique<StagingDeployment>(config_)),
      deployment_(*own_deployment_),
      steer_(parse_steer_policy(config_.steer)),
      codec_(staging_codec(config_.staging_codec)) {}

HybridRunner::HybridRunner(RunConfig config, StagingDeployment& deployment,
                           int tenant, std::string ns_prefix)
    : config_(std::move(config)),
      deployment_(deployment),
      steer_(parse_steer_policy(config_.steer)),
      tenant_(tenant),
      ns_prefix_(std::move(ns_prefix)),
      codec_(staging_codec(config_.staging_codec)) {
  HIA_REQUIRE(config_.faults.empty() && config_.overload.empty(),
              "a runner on a borrowed deployment: faults/overload belong to "
              "the deployment");
}

void HybridRunner::add_analysis(std::shared_ptr<HybridAnalysis> analysis,
                                int frequency) {
  HIA_REQUIRE(analysis != nullptr, "null analysis");
  HIA_REQUIRE(frequency >= 1, "frequency must be >= 1");
  HIA_REQUIRE(!ran_, "cannot add analyses after run()");

  // Register the in-transit handler if the analysis stages data. The
  // handler key carries the tenant's namespace prefix, so two tenants
  // running the same analysis never collide.
  if (!analysis->staged_variables().empty()) {
    std::shared_ptr<HybridAnalysis> a = analysis;
    staging().register_handler(
        ns_prefix_ + a->name(), [a](TaskContext& ctx) { a->in_transit(ctx); });
  }
  analyses_.push_back(Scheduled{std::move(analysis), frequency});
}

RunReport HybridRunner::run() {
  HIA_REQUIRE(!ran_, "run() may be called once");
  ran_ = true;
  StagingService& staging = deployment_.staging();
  Dart& dart = deployment_.dart();
  const OverloadControl& overload = deployment_.overload();

  const int nranks = config_.sim.ranks_per_axis[0] *
                     config_.sim.ranks_per_axis[1] *
                     config_.sim.ranks_per_axis[2];

  RunReport report;
  report.steps = config_.steps;
  report.sim_ranks = nranks;
  report.staging_codec = config_.staging_codec;
  report.solution_bytes_per_step =
      static_cast<size_t>(config_.sim.grid.num_points()) * kNumVariables *
      sizeof(double);

  // ---- Steering state (touched only by the rank-0 thread inside the
  // world, then read by this thread after the join) ----
  struct Parked {
    std::string analysis;
    long step = 0;  // original step: the staged inputs live under this key
    std::vector<std::string> staged;
    int defers = 0;  // step boundaries already crossed
  };
  std::vector<Parked> parked;
  ResilienceSummary& res = report.resilience;
  const int max_defers = overload.config().max_defers;

  // Routes one in-transit submission through the steering table (steering
  // off is its in-transit row, which queues at every pressure). Deferring
  // writes a terminal kDeferred record and parks the payload (the staged
  // inputs stay in the store) for re-decision at the next step boundary.
  auto steer_submit = [&](const std::string& analysis, long step,
                          const std::vector<std::string>& staged,
                          int defers) {
    // Tallies a verdict in the ledger and, for a stamped tenant, in its
    // tenant-labeled counter (the per-tenant steering mix); each counter
    // appears with its first verdict.
    auto count = [&](uint64_t& tally, const char* name) {
      ++tally;
      if (tenant_ > 0) obs::counter(name, {.tenant = tenant_}).add(1);
    };
    const PressureSignal pressure = staging.pressure();
    switch (steer_decide(steer_, pressure, defers, max_defers)) {
      case SteerDecision::kInTransit:
        count(res.steer_in_transit, "steer_in_transit");
        staging.submit_for(analysis, step, staged, SubmitRoute::kQueue,
                             tenant_);
        break;
      case SteerDecision::kInSitu:
        count(res.steer_in_situ, "steer_in_situ");
        obs::instant("overload", "steer_in_situ", {.step = step});
        staging.submit_for(analysis, step, staged, SubmitRoute::kFallback,
                             tenant_);
        break;
      case SteerDecision::kShed:
        count(res.steer_shed, "steer_shed");
        obs::instant("overload", "steer_shed", {.step = step});
        staging.submit_for(analysis, step, staged, SubmitRoute::kShed,
                             tenant_);
        break;
      case SteerDecision::kDefer:
        count(res.steer_deferred, "steer_deferred");
        staging.record_deferred(analysis, step, tenant_);
        parked.push_back(Parked{analysis, step, staged, defers + 1});
        break;
    }
  };

  // Each rank's own rows, folded into the report after the join.
  struct RankRows {
    std::vector<double> sim_step_seconds;
    std::vector<InSituMetric> in_situ;
  };
  std::vector<RankRows> rows(static_cast<size_t>(nranks));

  World world(nranks);
  world.run([&](Comm& comm) {
    const int r = comm.rank();
    RankRows& mine = rows[static_cast<size_t>(r)];
    obs::set_thread_track(obs::rank_track(r));
    const int dart_node =
        dart.register_node(ns_prefix_ + "sim-" + std::to_string(r));

    S3DRank sim(config_.sim, r);
    sim.initialize();

    for (long step = 0; step < config_.steps; ++step) {
      // 1. Advance the simulation (halo exchanges inside). The barrier
      // keeps a late rank's sim step out of the first in-situ timing.
      sim.advance(comm);
      mine.sim_step_seconds.push_back(sim.last_step_seconds());
      comm.barrier();

      // Step boundary: deferred tasks from earlier steps get a fresh
      // steering verdict against the current pressure (rank 0 only).
      if (r == 0 && !parked.empty()) {
        std::vector<Parked> due;
        due.swap(parked);
        for (const Parked& p : due) {
          steer_submit(p.analysis, p.step, p.staged, p.defers);
        }
      }

      // 2. In-situ stages, in registration order on every rank.
      for (const Scheduled& sched : analyses_) {
        if (sim.step() % sched.frequency != 0) continue;

        InSituContext ctx(sim, comm, staging, steering_, dart_node,
                          sim.step(), codec_.get(), tenant_, ns_prefix_);
        Stopwatch watch;
        {
          char span_name[obs::Event::kNameCapacity];
          std::snprintf(span_name, sizeof(span_name), "insitu:%s",
                        sched.analysis->name().c_str());
          obs::Span insitu_span("insitu", span_name,
                                {.rank = r,
                                 .step = sim.step(),
                                 .vtime = sim.time()});
          sched.analysis->in_situ(ctx);
        }
        mine.in_situ.push_back(InSituMetric{sched.analysis->name(),
                                            sim.step(), watch.seconds(),
                                            ctx.published_bytes()});
        // Every rank has published once it passes the barrier, and the
        // slowest rank of this stage stays out of the next stage's timing.
        comm.barrier();

        // 3. Data-ready: rank 0 creates the in-transit task. Names travel
        // prefixed: the blocks were published under ns_prefix_ and the
        // handler was registered under the prefixed analysis name.
        if (r != 0) continue;
        auto staged = sched.analysis->staged_variables();
        if (staged.empty()) continue;
        for (std::string& v : staged) v = ns_prefix_ + v;
        steer_submit(ns_prefix_ + sched.analysis->name(), sim.step(), staged,
                     0);
      }
    }
    comm.barrier();
    dart.unregister_node(dart_node);
  });

  // Fold the rows: every rank ran the same stages, so rank 0's fix the
  // order; seconds are the max over ranks and bytes the exact sum.
  report.sim_step_seconds = std::move(rows[0].sim_step_seconds);
  report.in_situ = std::move(rows[0].in_situ);
  for (size_t q = 1; q < rows.size(); ++q) {
    for (size_t i = 0; i < report.sim_step_seconds.size(); ++i) {
      report.sim_step_seconds[i] =
          std::max(report.sim_step_seconds[i], rows[q].sim_step_seconds[i]);
    }
    for (size_t i = 0; i < report.in_situ.size(); ++i) {
      InSituMetric& m = report.in_situ[i];
      m.max_rank_seconds =
          std::max(m.max_rank_seconds, rows[q].in_situ[i].max_rank_seconds);
      m.published_bytes += rows[q].in_situ[i].published_bytes;
    }
  }

  // The campaign is over: anything still parked is past every deadline and
  // must execute now. Forcing defers to max_defers makes kDefer impossible
  // in the steering table, so this loop cannot re-park.
  if (!parked.empty()) {
    std::vector<Parked> due;
    due.swap(parked);
    for (const Parked& p : due) {
      steer_submit(p.analysis, p.step, p.staged, max_defers);
    }
    HIA_ASSERT(parked.empty());
  }

  // Wait for this tenant's outstanding analyses and report its records,
  // with the namespace prefix stripped back off. Other tenants sharing the
  // deployment keep going.
  staging.drain_tenant(tenant_);
  for (TaskRecord rec : staging.records()) {
    if (rec.tenant != tenant_) continue;
    if (rec.analysis.compare(0, ns_prefix_.size(), ns_prefix_) == 0) {
      rec.analysis.erase(0, ns_prefix_.size());
    }
    report.in_transit.push_back(std::move(rec));
  }

  // This tenant's slice of the resilience ledger: the reaction side from
  // its task records and steering verdicts, and its admission waits.
  for (const TaskRecord& rec : report.in_transit) {
    switch (rec.outcome) {
      case TaskOutcome::kCompleted: ++res.tasks_completed; break;
      case TaskOutcome::kDegraded: ++res.tasks_degraded; break;
      case TaskOutcome::kShed: ++res.tasks_shed; break;
      case TaskOutcome::kDeferred: ++res.tasks_deferred; break;
    }
    res.task_retries += static_cast<uint64_t>(rec.attempts - 1);
    res.backoff_seconds += rec.backoff_seconds;
  }
  const OverloadControl::TenantStats tstats = overload.tenant_stats(tenant_);
  res.admission_overdrafts = tstats.overdrafts;
  res.admission_wait_s = tstats.wait_s;
  // The deployment's owner adds its global ledger: this runner when it
  // built the deployment, the campaign service otherwise.
  if (own_deployment_ != nullptr) own_deployment_->add_ledger(res);

  HIA_LOG_INFO("framework",
               "run complete: %ld steps, %d ranks, %zu in-transit tasks",
               report.steps, report.sim_ranks, report.in_transit.size());
  return report;
}

}  // namespace hia
