// HybridRunner — the end-to-end orchestration of the paper's Fig. 5:
// primary resources run MiniS3D plus the in-situ analysis stages; the
// secondary resources (Dart + StagingService) schedule and execute the
// in-transit stages asynchronously while the simulation proceeds.
//
// Per timestep, with one barrier closing each stage:
//   1. every simulation rank advances the solver (halo exchanges inside);
//   2. each scheduled analysis whose frequency divides the step runs its
//      in-situ stage on every rank (publishing intermediate blocks);
//   3. past the stage's barrier every block is published: rank 0 submits
//      the in-transit task (data-ready), and the staging buckets pull and
//      process it while the simulation moves on — successive steps land
//      on different buckets (temporal multiplexing).
// Ranks time their own stages; run() folds those rows after the join.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "core/analysis.hpp"
#include "core/metrics.hpp"
#include "runtime/fault.hpp"
#include "runtime/network_model.hpp"
#include "sim/s3d.hpp"
#include "staging/scheduler.hpp"
#include "transport/dart.hpp"

namespace hia {

struct RunConfig {
  S3DParams sim{};
  int staging_servers = 2;
  int staging_buckets = 4;
  /// Object-store replication factor (clamped to [1, staging_servers]).
  /// With R > 1 committed objects survive R-1 crash-server losses.
  int staging_replicas = 1;
  long steps = 5;
  NetworkParams network{};
  Dart::Options dart{};
  /// Data-reduction codec applied to every block published to staging:
  /// a make_codec() spec ("raw", "rle", "delta", "quantize:1e-6").
  /// Empty = publish raw (no frame, no codec overhead).
  std::string staging_codec;
  /// Fault-injection spec (FaultPlan::parse_spec grammar, e.g.
  /// "drop=0.05,task-fail=0.1,kill-bucket=2@3"). Empty = faults off: the
  /// deployment's plan is no_faults(), which injects nothing (Dart stamps
  /// no CRCs) and degrades a failed task after its one attempt.
  std::string faults;
  /// Overrides the plan's seed when nonzero (same seed + same config =>
  /// same fault decisions, same RunSummary resilience block).
  uint64_t fault_seed = 0;
  /// Overload-control spec (OverloadConfig::parse_spec grammar, e.g.
  /// "queue-bytes=4m,credits=16,low=0.5,high=0.9"). Empty = overload
  /// control off: the deployment's ledger is idle (no budgets, no
  /// credits) and only counts the queue and the store.
  std::string overload;
  /// Steering policy for in-transit submissions ("in-transit", "adaptive",
  /// "in-situ", "shed"; empty = in-transit, the PR-4 behavior).
  std::string steer;
};

/// The secondary resources of Fig. 5 as one unit: the fault plan, the
/// overload ledger, the Dart transport and the staging service (object
/// store + bucket scheduler), built together and torn down in reverse
/// order. The deployment lends its plan and ledger to its Dart, and the
/// staging service reads both through that Dart. A single campaign owns
/// one through HybridRunner(RunConfig); the campaign service owns one and
/// lends it to every tenant's runner.
class StagingDeployment {
 public:
  /// Built from the staging fields of `config`: servers, buckets,
  /// replicas, network, dart, faults, fault_seed and overload.
  explicit StagingDeployment(const RunConfig& config);

  StagingDeployment(const StagingDeployment&) = delete;
  StagingDeployment& operator=(const StagingDeployment&) = delete;

  [[nodiscard]] Dart& dart() { return *dart_; }
  [[nodiscard]] StagingService& staging() { return *staging_; }
  /// The overload ledger (idle when overload control is off).
  [[nodiscard]] OverloadControl& overload() { return overload_; }

  /// Writes the deployment-global ledger into `res`: the fault plan's
  /// injection tally, crash recovery, transport retransmits, and the
  /// overload gate's totals. The reaction side (task outcomes, retries,
  /// steering) is left as the caller summed it from the task records.
  void add_ledger(ResilienceSummary& res) const;

 private:
  NetworkModel network_;
  // Declared in dependency order: Dart holds unowned pointers to the plan
  // and the overload ledger, and the staging service reads them through
  // Dart, so both are destroyed first.
  FaultPlan faults_;          // no_faults() = faults off
  OverloadControl overload_;  // idle = overload off
  std::unique_ptr<Dart> dart_;
  std::unique_ptr<StagingService> staging_;
};

/// One campaign over a staging deployment. The runner namespaces its
/// handlers and published variables under its tenant's prefix, charges
/// admission/queue/store accounting to its tenant, and at the end of run()
/// drains and reports only that tenant's tasks.
class HybridRunner {
 public:
  /// A single campaign: builds and owns its deployment from `config` and
  /// runs as the default tenant 0 (empty prefix, FCFS matcher). run()
  /// adds the deployment's global ledger to the report.
  explicit HybridRunner(RunConfig config);

  /// One tenant's campaign on a borrowed deployment, which must outlive
  /// the runner. The config's faults/overload specs must be empty (they
  /// belong to the deployment); the steering policy still applies,
  /// consulting the deployment's shared pressure. Records come back with
  /// `ns_prefix` stripped; the deployment's owner adds the global ledger.
  HybridRunner(RunConfig config, StagingDeployment& deployment, int tenant,
               std::string ns_prefix);

  HybridRunner(const HybridRunner&) = delete;
  HybridRunner& operator=(const HybridRunner&) = delete;

  /// Schedules `analysis` every `frequency` steps (1 = every step).
  void add_analysis(std::shared_ptr<HybridAnalysis> analysis,
                    int frequency = 1);

  /// Runs the full simulation + analysis campaign and returns the report.
  /// May be called once.
  RunReport run();

  [[nodiscard]] StagingService& staging() { return deployment_.staging(); }
  [[nodiscard]] Dart& dart() { return deployment_.dart(); }
  [[nodiscard]] SteeringBoard& steering() { return steering_; }

 private:
  struct Scheduled {
    std::shared_ptr<HybridAnalysis> analysis;
    int frequency = 1;
  };

  RunConfig config_;
  // Set only by HybridRunner(RunConfig); deployment_ then refers to it.
  std::unique_ptr<StagingDeployment> own_deployment_;
  StagingDeployment& deployment_;
  SteerPolicy steer_ = SteerPolicy::kInTransit;
  int tenant_ = 0;
  std::string ns_prefix_;
  std::shared_ptr<const Codec> codec_;  // null = publish raw
  SteeringBoard steering_;
  std::vector<Scheduled> analyses_;
  bool ran_ = false;
};

}  // namespace hia
