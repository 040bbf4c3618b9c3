// Versioned shared-space object store, modeled on DataSpaces [12].
//
// Objects live in a (variable, version) index; clients put
// descriptors of RDMA-published blocks and query by name/version.
// Metadata is sharded over `num_servers` virtual servers by hashing, the
// mechanism the paper credits for scheduler scalability ("the hashing used
// to balance the RPC messages over multiple DataSpaces servers"); per-server
// RPC counters feed the server-shard ablation bench.
//
// Crash tolerance: with `replicas` R > 1 every put lands on the first R
// *live* servers of the key's successor chain ((shard + i) % N), so a
// committed object survives R-1 ungraceful server losses. Lookups consult
// the live chain, merge copies by handle id, and *read-repair*: any live
// target that lost its copy to a crash gets it re-inserted (restoring the
// replication factor), emitting a kReplicaRepair event per copy. Byte and
// tenant ledgers count each logical object exactly once, not per copy, so
// put/take stay balanced at every R.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "staging/descriptor.hpp"

namespace hia {

class OverloadControl;

class ObjectStore {
 public:
  /// `overload` (optional, unowned, must outlive the store) receives
  /// store-byte accounting so resident bytes feed the pressure signal.
  /// `replicas` is clamped to [1, num_servers].
  explicit ObjectStore(int num_servers, OverloadControl* overload = nullptr,
                       int replicas = 1);

  /// Inserts a descriptor (one RPC per replica server).
  void put(const DataDescriptor& desc);

  /// All descriptors of `variable` at `step`.
  [[nodiscard]] std::vector<DataDescriptor> query_all(
      const std::string& variable, long step) const;

  /// Removes all descriptors of `variable` at `step` from every live
  /// replica; returns the deduplicated logical set so the caller can
  /// release the underlying Dart regions.
  std::vector<DataDescriptor> take(const std::string& variable, long step);

  // ---- Crash injection (ungraceful server loss) ----

  /// Marks `server` crashed: its descriptor shard is seized (the copies it
  /// held are gone) and it drops out of every replica chain. Idempotent.
  /// Returns the number of logical objects that lost their *last* live
  /// copy — zero whenever replicas > number of crashed servers so far.
  size_t crash_server(int server);

  [[nodiscard]] bool is_server_crashed(int server) const;

  /// Servers still alive (crashed servers never come back).
  [[nodiscard]] int live_servers() const;

  [[nodiscard]] int replicas() const { return replicas_; }

  /// Copies re-inserted by read-repair since construction.
  [[nodiscard]] uint64_t replicas_repaired() const {
    return replicas_repaired_.load(std::memory_order_relaxed);
  }

  /// Logical objects whose last live copy died with a crashed server.
  [[nodiscard]] uint64_t objects_lost() const {
    return objects_lost_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] int num_servers() const {
    return static_cast<int>(servers_.size());
  }

  /// RPCs routed to each server so far.
  [[nodiscard]] std::vector<uint64_t> rpc_counts() const;

  /// Total descriptors currently stored across live servers (copies
  /// included — size() grows with the replication factor).
  [[nodiscard]] size_t size() const;

  /// Total raw payload bytes behind the stored descriptors (each logical
  /// object counted once, independent of its copy count).
  [[nodiscard]] size_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// Bytes currently resident for one tenant (descriptors carry their
  /// owning tenant id), and the high-water mark of that residency — the
  /// per-tenant half of the store-pressure attribution.
  [[nodiscard]] size_t tenant_bytes(int tenant) const;
  [[nodiscard]] size_t tenant_peak_bytes(int tenant) const;

 private:
  struct Server {
    mutable std::mutex mutex;
    // key: variable + '\0' + step
    std::map<std::string, std::vector<DataDescriptor>> objects;
    mutable std::atomic<uint64_t> rpcs{0};
    std::atomic<bool> crashed{false};
  };

  [[nodiscard]] size_t shard(const std::string& key) const;
  static std::string key(const std::string& variable, long step);

  /// The first `replicas_` live servers of the key's successor chain.
  [[nodiscard]] std::vector<size_t> replica_targets(
      const std::string& key) const;

  /// Inserts unless a copy of the same handle is already under the key.
  static bool insert_unique(Server& server, const std::string& key,
                            const DataDescriptor& desc);

  /// Merges copies from every live target (dedup by handle id) and
  /// read-repairs targets that are missing one.
  [[nodiscard]] std::vector<DataDescriptor> fetch_and_repair(
      const std::string& key) const;

  std::vector<std::unique_ptr<Server>> servers_;
  int replicas_ = 1;
  std::atomic<size_t> bytes_{0};
  mutable std::atomic<uint64_t> replicas_repaired_{0};
  std::atomic<uint64_t> objects_lost_{0};
  OverloadControl* overload_ = nullptr;

  struct TenantBytes {
    size_t bytes = 0;
    size_t peak = 0;
  };
  mutable std::mutex tenant_mutex_;
  std::map<int, TenantBytes> tenant_bytes_;  // guarded by tenant_mutex_
};

}  // namespace hia
