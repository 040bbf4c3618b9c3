// VirtualComm — an MPI-flavoured message-passing layer for the virtual
// cluster.
//
// The paper's simulation side (S3D + in-situ analyses) is an MPI program;
// here each MPI rank becomes a thread executing the user's rank function,
// and the cooperative two-sided semantics (send/recv with tags, barriers,
// reductions, gathers, all-to-all) are provided by rank-addressed mailboxes.
//
// All parallelism is explicit, mirroring the MPI programming model: the
// caller decides the decomposition and communication pattern.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace hia {

/// Tag space: user tags must be < kCollectiveTagBase; higher tags are
/// reserved for internal collective plumbing.
inline constexpr int kCollectiveTagBase = 1 << 24;
inline constexpr int kAnySource = -1;

class World;

/// Per-rank communication endpoint, valid only inside World::run().
///
/// A Comm is not thread-safe across callers: exactly one thread (the rank's
/// own thread) may use it, matching MPI's default threading model.
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  /// Buffered, non-rendezvous send: copies `data` into the destination
  /// mailbox and returns immediately.
  void send(int dest, int tag, std::span<const std::byte> data);

  /// Blocks until a message with matching (src, tag) arrives.
  /// src may be kAnySource. Returns the payload; out_src receives the
  /// actual sender when non-null.
  std::vector<std::byte> recv(int src, int tag, int* out_src = nullptr);

  /// Typed convenience wrappers for trivially copyable payloads.
  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dest, tag,
         std::span(reinterpret_cast<const std::byte*>(&value), sizeof(T)));
  }

  template <typename T>
  T recv_value(int src, int tag, int* out_src = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto bytes = recv(src, tag, out_src);
    T value;
    HIA_ASSERT(bytes.size() == sizeof(T));
    std::memcpy(&value, bytes.data(), sizeof(T));
    return value;
  }

  template <typename T>
  void send_vector(int dest, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dest, tag,
         std::span(reinterpret_cast<const std::byte*>(v.data()),
                   v.size() * sizeof(T)));
  }

  template <typename T>
  std::vector<T> recv_vector(int src, int tag, int* out_src = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto bytes = recv(src, tag, out_src);
    HIA_ASSERT(bytes.size() % sizeof(T) == 0);
    std::vector<T> v(bytes.size() / sizeof(T));
    std::memcpy(v.data(), bytes.data(), bytes.size());
    return v;
  }

  // ---- Collectives (must be called by every rank of the world) ----

  /// Dissemination barrier over mailboxes.
  void barrier();

  /// Binary-tree reduction to root using `combine(acc, incoming)`.
  /// Every rank passes its local contribution; only root's return value is
  /// the full reduction, other ranks get their partial result.
  std::vector<double> reduce(std::span<const double> local, int root,
                             const std::function<void(std::span<double>,
                                                      std::span<const double>)>&
                                 combine);

  /// reduce + broadcast; all ranks receive the full result.
  std::vector<double> allreduce(
      std::span<const double> local,
      const std::function<void(std::span<double>, std::span<const double>)>&
          combine);

  /// Elementwise-sum allreduce.
  std::vector<double> allreduce_sum(std::span<const double> local);
  double allreduce_sum(double v);
  double allreduce_max(double v);
  double allreduce_min(double v);

  /// Gathers each rank's byte payload to root, indexed by rank.
  /// Non-root ranks get an empty result.
  std::vector<std::vector<std::byte>> gather(int root,
                                             std::span<const std::byte> data);

  /// Broadcasts root's payload to all ranks.
  std::vector<std::byte> broadcast(int root, std::span<const std::byte> data);

  /// Typed broadcast of one trivially copyable value; non-root ranks'
  /// `value` argument is ignored.
  template <typename T>
  T broadcast_value(int root, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::span<const std::byte> payload;
    if (rank_ == root) {
      payload = std::span(reinterpret_cast<const std::byte*>(&value),
                          sizeof(T));
    }
    const auto bytes = broadcast(root, payload);
    HIA_ASSERT(bytes.size() == sizeof(T));
    T out;
    std::memcpy(&out, bytes.data(), sizeof(T));
    return out;
  }

  /// Total bytes this rank has pushed through send() (collective traffic
  /// included) — used by the communication-volume benches.
  [[nodiscard]] size_t bytes_sent() const { return bytes_sent_; }
  void reset_byte_counter() { bytes_sent_ = 0; }

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  World* world_;
  int rank_;
  size_t bytes_sent_ = 0;
  int collective_epoch_ = 0;  // disambiguates back-to-back collectives
};

/// A world of N virtual ranks. run() spawns one thread per rank, executes
/// `rank_main`, and joins. Mailboxes persist across multiple run() calls so
/// a World can host several program phases.
class World {
 public:
  explicit World(int num_ranks);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const { return num_ranks_; }

  /// Executes rank_main(comm) once per rank, concurrently. Rethrows the
  /// first exception raised by any rank after all threads join.
  void run(const std::function<void(Comm&)>& rank_main);

  /// Aggregate bytes sent by all ranks during the last run().
  [[nodiscard]] size_t total_bytes_sent() const { return total_bytes_; }

 private:
  friend class Comm;

  struct Message {
    int src;
    int tag;
    std::vector<std::byte> payload;
  };

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Message> messages;
  };

  void deliver(int dest, Message msg);

  int num_ranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  size_t total_bytes_ = 0;
};

}  // namespace hia
