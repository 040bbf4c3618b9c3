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
// An analysis names itself and its staged variables at construction;
// fully in-situ analyses stage nothing and do all their work (including
// communication) in the in-situ stage.
//
// `Mergeable<P, R>` writes the statistics split of Fig. 4 once: learn a
// mergeable partial `P` per rank, combine (all-reduce in situ, or a fold
// on one in-transit bucket), derive the result `R`.
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/steering.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "sim/s3d.hpp"
#include "staging/scheduler.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

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
  /// `staged` lists the variables this analysis publishes to the staging
  /// area; the runner builds the in-transit task from every published
  /// block of these at the current step. Empty = fully in-situ (no
  /// in-transit stage scheduled).
  HybridAnalysis(std::string name, std::vector<std::string> staged)
      : name_(std::move(name)), staged_(std::move(staged)) {}
  virtual ~HybridAnalysis() = default;

  [[nodiscard]] virtual std::string name() const { return name_; }
  [[nodiscard]] virtual std::vector<std::string> staged_variables() const {
    return staged_;
  }

  /// In-situ stage; called concurrently on every simulation rank.
  virtual void in_situ(InSituContext& ctx) = 0;

  /// In-transit stage; called on a staging bucket with the task holding
  /// all published blocks for one timestep. Default: nothing staged.
  virtual void in_transit(TaskContext& ctx) { (void)ctx; }

 protected:
  /// For wrappers that forward name() and staged_variables() to the
  /// analysis they wrap.
  HybridAnalysis() = default;

 private:
  std::string name_;
  std::vector<std::string> staged_;
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

/// The in-situ all-to-all combine of a mergeable partial (paper Fig. 4's
/// "consistent model"): every rank returns the combination of every
/// rank's `local`. `P::serialize` must give the same length on each rank.
template <class P>
P all_reduce(Comm& comm, const P& local) {
  return P::deserialize(comm.allreduce(
      local.serialize(),
      [](std::span<double> acc, std::span<const double> in) {
        P merged = P::deserialize(acc);
        merged.combine(P::deserialize(in));
        const std::vector<double> out = merged.serialize();
        HIA_ASSERT(out.size() == acc.size());
        std::copy(out.begin(), out.end(), acc.begin());
      }));
}

/// An analysis whose learn yields a partial model `P` that combines
/// pairwise (`combine`) and owns its wire format (`serialize`, and a
/// `static deserialize` of a peer's doubles that fails only with
/// hia::Error). The placement names it "<stem>-insitu" (all_reduce, then
/// every rank derives and rank 0 keeps the result), "<stem>-hybrid" (each
/// rank publishes "<stem>.partial"; one bucket folds and derives) or
/// "<stem>-intransit" (each rank publishes raw() as "<stem>.raw"; one
/// bucket learns every block and derives). Spans: "<stem>.learn",
/// "<stem>.derive" in situ; "<stem>.aggregate" in transit.
template <class P, class R>
class Mergeable : public HybridAnalysis {
 public:
  void in_situ(InSituContext& ctx) final;
  void in_transit(TaskContext& ctx) final;

  /// The result of the newest finished step.
  [[nodiscard]] R latest() const { return latest_.get(); }

 protected:
  Mergeable(const std::string& stem, Placement placement)
      : HybridAnalysis(stem + kSuffix[static_cast<int>(placement)],
                       staged(stem, placement)),
        placement_(placement),
        spans_{stem + ".learn", stem + ".derive", stem + ".aggregate"} {}

  /// This rank's partial model.
  virtual P learn(InSituContext& ctx) = 0;
  /// The result of the global model; fails with hia::Error when a folded
  /// peer partial does not fit this analysis.
  virtual R derive(const P& global) const = 0;
  /// The in-transit task's result blob.
  virtual std::vector<std::byte> row(const R& result) const = 0;
  /// kInTransit only: this rank's raw observations, and the partial model
  /// learnt from one rank's raw block (folded like a pulled partial).
  virtual std::vector<double> raw(InSituContext&) {
    throw Error(name() + " has no raw placement");
  }
  virtual P learn_raw(std::span<const double>) const {
    throw Error(name() + " has no raw placement");
  }

 private:
  static constexpr const char* kSuffix[] = {"-insitu", "-hybrid",
                                            "-intransit"};
  static std::vector<std::string> staged(const std::string& stem,
                                         Placement placement) {
    if (placement == Placement::kInSitu) return {};
    return {stem + (placement == Placement::kHybrid ? ".partial" : ".raw")};
  }

  Placement placement_;
  std::string spans_[3];  // learn, derive, aggregate
  Latest<R> latest_;
};

template <class P, class R>
void Mergeable<P, R>::in_situ(InSituContext& ctx) {
  const Box3 box = ctx.sim().decomp().block(ctx.sim().rank());
  if (placement_ == Placement::kInTransit) {
    ctx.publish(staged_variables().front(), box, raw(ctx));
    return;
  }
  const obs::SpanArgs args{.rank = ctx.comm().rank(), .step = ctx.step()};
  const P local = [&] {
    obs::Span span("insitu", spans_[0].c_str(), args);
    return learn(ctx);
  }();
  if (placement_ == Placement::kHybrid) {
    ctx.publish(staged_variables().front(), box, local.serialize());
    return;
  }
  const P global = all_reduce(ctx.comm(), local);
  obs::Span span("insitu", spans_[1].c_str(), args);
  R result = derive(global);
  if (ctx.comm().rank() == 0) latest_.offer(ctx.step(), std::move(result));
}

template <class P, class R>
void Mergeable<P, R>::in_transit(TaskContext& ctx) {
  obs::Span span("intransit", spans_[2].c_str(),
                 {.bucket = ctx.bucket(), .step = ctx.task().step});
  // Seeding the fold with the first partial equals combining it into an
  // empty one.
  std::optional<P> global;
  for (const DataDescriptor& desc : ctx.task().inputs) {
    const std::vector<double> block = ctx.pull_doubles(desc);
    P part = placement_ == Placement::kInTransit ? learn_raw(block)
                                                 : P::deserialize(block);
    if (global.has_value()) {
      global->combine(part);
    } else {
      global.emplace(std::move(part));
    }
  }
  HIA_REQUIRE(global.has_value(), name() + " task with no inputs");
  R result = derive(*global);
  ctx.set_result(row(result));
  latest_.offer(ctx.task().step, std::move(result));
}

}  // namespace hia
