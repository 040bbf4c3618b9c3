// Dart — asynchronous data transport substrate modeled on DART [50], the
// RDMA one-sided communication layer the paper's staging framework builds
// on (ported to Gemini/uGNI in the paper, §IV).
//
// Services provided: node registration and unregistration, and one-sided
// data transfer (put to expose, get to pull). Transfers pick the SMSG (FMA)
// path for small payloads and the BTE RDMA path for bulk data.
//
// In the virtual cluster, "RDMA memory" is a registry of published buffers;
// a get() copies out of the registry and charges the modeled Gemini
// transfer time (optionally sleeping for it, so that pipelining and
// congestion behaviour are observable in real time).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/network_model.hpp"
#include "runtime/overload.hpp"
#include "util/error.hpp"

namespace hia {

class Codec;

/// Handle to a published (RDMA-registered) buffer.
struct DartHandle {
  uint64_t id = 0;
  size_t bytes = 0;
  int owner_node = -1;

  [[nodiscard]] bool valid() const { return id != 0; }
};

/// Outcome of a one-sided transfer. `bytes` is what crossed the wire
/// (the encoded frame when the region was published through a codec);
/// `raw_bytes` is the logical payload size before encoding. The modeled
/// network time is always charged on the wire bytes.
struct TransferStats {
  TransferPath path = TransferPath::kSmsg;
  size_t bytes = 0;            // wire bytes (encoded size when compressed)
  size_t raw_bytes = 0;        // logical bytes before encoding
  double modeled_seconds = 0.0;  // all attempts, including injected delay
  double decode_seconds = 0.0;  // bucket-side decode time (get_doubles)
  int concurrent_flows = 1;
  bool encoded = false;  // region was published through a codec
  int retries = 0;       // retransmits (dropped or CRC-failed frames)
  double injected_delay_s = 0.0;  // fault-injected share of modeled_seconds
};

/// Aggregate transport counters (thread-safe snapshot).
struct DartCounters {
  size_t smsg_transfers = 0;
  size_t bte_transfers = 0;
  size_t bytes_moved = 0;      // wire bytes
  size_t raw_bytes_moved = 0;  // logical bytes the wire bytes stood for
  double modeled_seconds_total = 0.0;
  double encode_seconds_total = 0.0;
  double decode_seconds_total = 0.0;
  // ---- Resilience (nonzero only under fault injection) ----
  size_t get_retries = 0;      // retransmitted frames (drop or CRC failure)
  size_t crc_failures = 0;     // corrupted frames caught by the CRC check
  size_t recovered_bytes = 0;  // payload delivered after >= 1 retransmit
};

/// The transport instance shared by all nodes of the virtual cluster.
/// All methods are thread-safe.
class Dart {
 public:
  struct Options {
    /// When true, get() sleeps for modeled_seconds * time_scale so that
    /// asynchronous pipelining shows up in wall-clock measurements.
    bool sleep_transfers = false;
    double time_scale = 1.0;
    /// Fault plan (unowned, must outlive the Dart instance): frame faults
    /// on the wire here, and task faults and the scripted timeline for the
    /// staging service, which reads it through faults(). Null = Dart's own
    /// off plan (no_faults()). CRCs are stamped and checked only while
    /// the plan's frame_faults_enabled().
    const FaultPlan* faults = nullptr;
    /// Overload control (unowned, must outlive the Dart instance). Every
    /// put acquires an admission credit, returned on release; a ledger
    /// without credits admits at once. The staging service and its store
    /// keep their queue and byte accounting in it through overload().
    /// Null = Dart's own idle ledger.
    OverloadControl* overload = nullptr;
  };

  explicit Dart(NetworkModel& network) : Dart(network, Options{}) {}
  Dart(NetworkModel& network, Options options);

  // ---- Node registration ----

  /// Registers a participant; returns its node id.
  int register_node(const std::string& name);
  void unregister_node(int node);
  [[nodiscard]] int num_registered() const;
  [[nodiscard]] std::string node_name(int node) const;

  // ---- One-sided data movement ----

  /// Publishes `data` as an RDMA-readable region owned by `owner_node`.
  /// Cheap: the data stays in the owner's memory (no transfer yet).
  /// `tenant` is the owning tenant of the region: admission is charged to
  /// that tenant's credit ledger and the credit returns to it on release()
  /// (0 = the default single-campaign tenant).
  DartHandle put(int owner_node, std::vector<std::byte> data, int tenant = 0);

  /// Typed convenience: publishes a vector of doubles.
  DartHandle put_doubles(int owner_node, const std::vector<double>& data,
                         int tenant = 0);

  /// Codec-aware publish: encodes `data` into a self-describing frame and
  /// publishes the *encoded* bytes, so every subsequent get() charges the
  /// modeled network time on the compressed size. Encode time is added to
  /// the transport counters (and to *encode_seconds when given) — it is
  /// paid on the publishing rank, not on the wire.
  DartHandle put_doubles(int owner_node, const std::vector<double>& data,
                         const Codec& codec,
                         double* encode_seconds = nullptr, int tenant = 0);

  /// One-sided pull of a published region into `dest_node`'s memory.
  /// Charges the modeled network cost. The region stays published until
  /// release(). Returns the wire
  /// bytes verbatim (still encoded for codec-published regions).
  ///
  /// Under frame faults, dropped or CRC-corrupted frames are
  /// retransmitted transparently (each attempt charges wire time); after
  /// faults().retry().max_frame_attempts the pull throws hia::Error,
  /// which the staging layer turns into a task retry.
  std::vector<std::byte> get(int dest_node, const DartHandle& handle,
                             TransferStats* stats = nullptr);

  /// Typed pull; transparently decodes codec-published regions, charging
  /// the decode time to stats->decode_seconds and the counters.
  std::vector<double> get_doubles(int dest_node, const DartHandle& handle,
                                  TransferStats* stats = nullptr);

  /// Frees a published region.
  void release(const DartHandle& handle);

  /// Number of currently published regions (for leak checks).
  [[nodiscard]] size_t num_published() const;
  /// Total bytes currently held in published regions.
  [[nodiscard]] size_t published_bytes() const;

  [[nodiscard]] DartCounters counters() const;
  void reset_counters();

  [[nodiscard]] NetworkModel& network() { return network_; }
  /// The deployment's fault plan (Dart's own off plan when none was given).
  [[nodiscard]] const FaultPlan& faults() const { return faults_; }
  /// The deployment's overload ledger (Dart's own idle one when none was
  /// given): the admission gate here, the queue and store ledger in the
  /// staging service.
  [[nodiscard]] OverloadControl& overload() { return overload_; }

 private:
  struct Region {
    int owner_node;
    std::vector<std::byte> data;  // wire bytes (encoded frame if `encoded`)
    size_t raw_bytes = 0;         // logical payload size before encoding
    bool encoded = false;
    uint32_t crc = 0;  // frame checksum, stamped under frame faults only
    int tenant = 0;    // whose ledger the credit charge sits on
    uint64_t put = 0;  // ordinal among the owner's puts: the frame-fault key
  };

  struct NodeState {
    std::string name;
    bool registered = false;
    // Puts so far. Each rank puts from its own thread in program order, so
    // a region's ordinal is the same in every run of one configuration.
    uint64_t puts = 0;
  };

  /// The publish body of every put: admission on the wire bytes, the
  /// region (CRC-stamped under frame faults), the kPut record and the
  /// put-size histograms. `raw_bytes` is the logical size before encoding;
  /// `encode_seconds` joins the transport counters.
  DartHandle publish(int owner_node, std::vector<std::byte> wire,
                     size_t raw_bytes, bool encoded, double encode_seconds,
                     int tenant);

  NetworkModel& network_;
  Options options_;
  const FaultPlan off_faults_{no_faults()};          // when none is given
  const FaultPlan& faults_;
  OverloadControl idle_overload_{OverloadConfig{}};  // when none is given
  OverloadControl& overload_;  // the admission gate

  mutable std::mutex mutex_;
  std::map<int, NodeState> nodes_;
  std::map<uint64_t, Region> regions_;
  int next_node_ = 0;
  uint64_t next_handle_ = 1;
  DartCounters counters_;
};

}  // namespace hia
