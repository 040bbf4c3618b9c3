// The analysis abstraction at the heart of the hybrid framework (paper
// §III): every analysis is decomposed into
//
//   * an in-situ stage — entirely data-parallel, runs on each simulation
//     rank against the native simulation data structures, may use the
//     simulation communicator for collectives (the fully in-situ variants)
//     or publish heavily reduced intermediate data to the staging area
//     (the hybrid variants);
//   * an in-transit stage — small-scale/serial, runs on a staging bucket,
//     pulls the published intermediate data and completes the computation.
//
// Fully in-situ analyses simply leave `staged_variables()` empty and do all
// their work (including communication) in the in-situ stage.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/steering.hpp"
#include "runtime/comm.hpp"
#include "sim/s3d.hpp"
#include "staging/scheduler.hpp"

namespace hia {

/// Everything the in-situ stage of an analysis may touch on one rank.
class InSituContext {
 public:
  /// `tenant`/`ns_prefix` namespace this context inside a shared staging
  /// service (multi-tenant campaigns): every published variable is stored
  /// under `ns_prefix + variable` and charged to `tenant`'s ledgers.
  /// `codec` is the run's staging codec (null = publish raw).
  InSituContext(S3DRank& sim, Comm& comm, StagingService& staging,
                SteeringBoard& steering, int dart_node, long step,
                const Codec* codec, int tenant, std::string ns_prefix)
      : sim_(sim),
        comm_(comm),
        staging_(staging),
        steering_(steering),
        dart_node_(dart_node),
        step_(step),
        codec_(codec),
        tenant_(tenant),
        ns_prefix_(std::move(ns_prefix)) {}

  /// Native simulation data structures, shared with the solver.
  [[nodiscard]] S3DRank& sim() { return sim_; }
  /// The simulation communicator (for the fully in-situ collectives).
  [[nodiscard]] Comm& comm() { return comm_; }
  [[nodiscard]] int dart_node() const { return dart_node_; }
  [[nodiscard]] long step() const { return step_; }

  /// Publishes an intermediate data block to the staging area and counts
  /// its logical (pre-codec) size toward this rank's published volume.
  /// The block is readable once the call returns; the runner creates the
  /// in-transit task (data-ready) after every rank has left the stage.
  DataDescriptor publish(const std::string& variable, const Box3& box,
                         const std::vector<double>& data) {
    published_bytes_ += data.size() * sizeof(double);
    return staging_.publish(dart_node_, ns_prefix_ + variable, step_, box,
                            data, codec_, tenant_);
  }

  /// Bytes published through this context (per rank, per invocation).
  [[nodiscard]] size_t published_bytes() const { return published_bytes_; }
  /// The run's staging codec, or nullptr when publishing raw.
  [[nodiscard]] const Codec* codec() const { return codec_; }

  /// The run's steering board: in-transit stages (or an operator) post
  /// parameter updates; in-situ stages read them at step boundaries.
  [[nodiscard]] SteeringBoard& steering() { return steering_; }

 private:
  S3DRank& sim_;
  Comm& comm_;
  StagingService& staging_;
  SteeringBoard& steering_;
  int dart_node_;
  long step_;
  const Codec* codec_;
  int tenant_;
  std::string ns_prefix_;
  size_t published_bytes_ = 0;
};

class HybridAnalysis {
 public:
  virtual ~HybridAnalysis() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Variables this analysis publishes to the staging area; the runner
  /// builds the in-transit task from every published block of these at the
  /// current step. Empty = fully in-situ (no in-transit stage scheduled).
  [[nodiscard]] virtual std::vector<std::string> staged_variables() const {
    return {};
  }

  /// In-situ stage; called concurrently on every simulation rank.
  virtual void in_situ(InSituContext& ctx) = 0;

  /// In-transit stage; called on a staging bucket with the task holding
  /// all published blocks for one timestep. Default: nothing staged.
  virtual void in_transit(TaskContext& ctx) { (void)ctx; }
};

/// Where the stages of an analysis that can be split run (paper §III,
/// Table II): everything on the simulation ranks with a collective reduce,
/// a reduced partial published for an in-transit combine, or the raw data
/// published for an in-transit learn.
enum class Placement { kInSitu, kHybrid, kInTransit };

/// The newest result of an analysis, shared between the stage that
/// produces it and the callers that read it. Buckets run several steps'
/// in-transit stages at once and finish them in any order, so an offer
/// replaces the held value only if its step is not older.
template <typename T>
class Latest {
 public:
  void offer(long step, T value) {
    std::lock_guard lock(mutex_);
    if (step < step_) return;
    step_ = step;
    value_ = std::move(value);
  }

  [[nodiscard]] T get() const {
    std::lock_guard lock(mutex_);
    return value_;
  }

 private:
  mutable std::mutex mutex_;
  long step_ = -1;
  T value_{};
};

}  // namespace hia
