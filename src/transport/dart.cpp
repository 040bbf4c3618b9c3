#include "transport/dart.hpp"

#include <chrono>
#include <thread>

#include "compress/codec.hpp"
#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "obs/histogram.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/numeric.hpp"
#include "util/stopwatch.hpp"

namespace hia {

Dart::Dart(NetworkModel& network, Options options)
    : network_(network),
      options_(options),
      faults_(options.faults != nullptr ? *options.faults : off_faults_),
      overload_(options.overload != nullptr ? *options.overload
                                            : idle_overload_) {
  // In-flight wire bytes and concurrent flows are the two transport gauges
  // the sampler tracks (Table II: contention is what degrades BTE).
  obs::register_counter_gauge("dart_inflight_wire_bytes");
  obs::register_counter_gauge("net_active_flows");
}

int Dart::register_node(const std::string& name) {
  std::lock_guard lock(mutex_);
  const int id = next_node_++;
  nodes_[id] = NodeState{name, true};
  return id;
}

void Dart::unregister_node(int node) {
  std::lock_guard lock(mutex_);
  auto it = nodes_.find(node);
  HIA_REQUIRE(it != nodes_.end() && it->second.registered,
              "unregister of unknown node");
  it->second.registered = false;
}

int Dart::num_registered() const {
  std::lock_guard lock(mutex_);
  int count = 0;
  for (const auto& [id, st] : nodes_) {
    if (st.registered) ++count;
  }
  return count;
}

std::string Dart::node_name(int node) const {
  std::lock_guard lock(mutex_);
  auto it = nodes_.find(node);
  HIA_REQUIRE(it != nodes_.end(), "unknown node");
  return it->second.name;
}

DartHandle Dart::put(int owner_node, std::vector<std::byte> data,
                     int tenant) {
  HIA_TRACE_SPAN_ARGS("dart", "put",
                      {.bytes = static_cast<long long>(data.size())});
  const size_t bytes = data.size();
  return publish(owner_node, std::move(data), bytes, false, 0.0, tenant);
}

DartHandle Dart::put_doubles(int owner_node, const std::vector<double>& data,
                             int tenant) {
  return put(owner_node, to_bytes(data), tenant);
}

DartHandle Dart::put_doubles(int owner_node, const std::vector<double>& data,
                             const Codec& codec, double* encode_seconds,
                             int tenant) {
  static obs::Counter& saved = obs::counter("compress_bytes_saved");
  const size_t raw = data.size() * sizeof(double);
  HIA_TRACE_SPAN_ARGS("dart", "put",
                      {.bytes = static_cast<long long>(raw)});
  Stopwatch watch;
  std::vector<std::byte> frame;
  {
    HIA_TRACE_SPAN("dart", "codec.encode");
    frame = codec.encode(data);
  }
  const double seconds = watch.seconds();
  if (encode_seconds != nullptr) *encode_seconds = seconds;
  static obs::Histogram& encode_h = obs::histogram("dart_codec_encode_s");
  encode_h.record(seconds);
  if (frame.size() < raw) {
    saved.add(static_cast<int64_t>(raw - frame.size()));
  }
  return publish(owner_node, std::move(frame), raw, true, seconds, tenant);
}

DartHandle Dart::publish(int owner_node, std::vector<std::byte> wire,
                         size_t raw_bytes, bool encoded,
                         double encode_seconds, int tenant) {
  static obs::Histogram& put_bytes = obs::histogram("dart_put_bytes");
  put_bytes.record(static_cast<double>(raw_bytes));
  // Admission charges the *wire* bytes (what the staging area must hold)
  // and happens before the transport lock: the gate may block (up to
  // admit_max_wait_s) and must never do so while holding mutex_.
  overload_.admit(wire.size(), tenant);
  const size_t wire_bytes = wire.size();
  uint64_t id = 0;
  {
    std::lock_guard lock(mutex_);
    auto it = nodes_.find(owner_node);
    HIA_REQUIRE(it != nodes_.end() && it->second.registered,
                "put from unregistered node");
    counters_.encode_seconds_total += encode_seconds;
    id = next_handle_++;
    Region region{owner_node, std::move(wire), raw_bytes, encoded};
    region.tenant = tenant;
    region.put = it->second.puts++;
    // CRC stamping happens only under frame faults, so the fault-free
    // wire path stays byte-identical to the baseline.
    if (faults_.frame_faults_enabled()) {
      region.crc = crc32(region.data.data(), region.data.size());
    }
    regions_.emplace(id, std::move(region));
  }
  // Stamped on the campaign's task clock (via the installed obs virtual
  // clock) so put/get records land on the same timeline the attribution
  // layer rebuilds; -1 when no service clock is installed.
  obs::record_event(obs::EventKind::kPut, tenant, -1,
                    static_cast<int64_t>(id),
                    static_cast<int64_t>(wire_bytes), obs::virtual_now());
  if (tenant > 0) {
    obs::histogram("dart_put_bytes", {.tenant = tenant})
        .record(static_cast<double>(raw_bytes));
  }
  return DartHandle{id, wire_bytes, owner_node};
}

std::vector<std::byte> Dart::get(int dest_node, const DartHandle& handle,
                                 TransferStats* stats) {
  HIA_REQUIRE(handle.valid(), "get with invalid handle");
  HIA_TRACE_SPAN("dart", "get");
  static obs::Counter& inflight = obs::counter("dart_inflight_wire_bytes");
  static obs::Counter& flows_gauge = obs::counter("net_active_flows");
  static obs::Histogram& wire_bytes = obs::histogram("dart_get_wire_bytes");
  static obs::Histogram& smsg_s = obs::histogram("net_smsg_modeled_s");
  static obs::Histogram& bte_s = obs::histogram("net_bte_modeled_s");

  const bool frame_faults = faults_.frame_faults_enabled();
  const int max_attempts =
      frame_faults ? faults_.retry().max_frame_attempts : 1;

  std::vector<std::byte> data;
  uint32_t crc = 0;
  std::string owner;  // the owner node's name, under frame faults only
  uint64_t put = 0;   // the region's ordinal among its owner's puts
  int tenant = -1;
  size_t raw_bytes = 0;
  bool encoded = false;
  TransferPath path = TransferPath::kSmsg;
  int flows = 1;
  double total_seconds = 0.0;
  double injected_delay_s = 0.0;
  int attempt = 0;

  for (;;) {
    ++attempt;
    {
      std::lock_guard lock(mutex_);
      auto nit = nodes_.find(dest_node);
      HIA_REQUIRE(nit != nodes_.end() && nit->second.registered,
                  "get from unregistered node");
      auto rit = regions_.find(handle.id);
      HIA_REQUIRE(rit != regions_.end(), "get of unknown/released region");
      data = rit->second.data;  // RDMA read: copy out, region stays published
      tenant = rit->second.tenant;
      raw_bytes = rit->second.raw_bytes;
      encoded = rit->second.encoded;
      crc = rit->second.crc;
      put = rit->second.put;
      if (frame_faults) owner = nodes_.at(rit->second.owner_node).name;
    }

    // The fault layer's verdict for this transfer attempt (deterministic
    // per (owner name, the owner's put ordinal, attempt); see FaultPlan).
    FaultPlan::FrameFault fault;
    if (frame_faults) fault = faults_.frame_fault(owner, put, attempt);

    // Model the wire cost outside the lock so concurrent gets overlap.
    // Every attempt — including ones that end up dropped or corrupted —
    // charges full wire time: the frame did cross the network.
    NetworkModel::FlowGuard flow(network_);
    flows = network_.active_flows();
    const double seconds =
        network_.transfer_seconds(data.size(), flows) + fault.delay_s;
    path = network_.select_path(data.size());
    wire_bytes.record(static_cast<double>(data.size()));
    (path == TransferPath::kSmsg ? smsg_s : bte_s).record(seconds);
    inflight.add(static_cast<int64_t>(data.size()));
    flows_gauge.add(1);
    {
      // The SMSG-vs-BTE wire phase: wall span when transfers sleep, plus the
      // modeled Gemini seconds on the virtual clock either way.
      obs::Span wire("net", path == TransferPath::kSmsg ? "smsg" : "bte",
                     {.bytes = static_cast<long long>(data.size()),
                      .vtime = seconds});
      if (options_.sleep_transfers) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            seconds * options_.time_scale));
      }
    }
    flows_gauge.add(-1);
    inflight.add(-static_cast<int64_t>(data.size()));
    total_seconds += seconds;
    injected_delay_s += fault.delay_s;

    if (frame_faults) {
      bool damaged = false;
      if (fault.drop) {
        obs::record_event(
            obs::EventKind::kFaultVerdict, tenant, -1,
            static_cast<int64_t>(obs::EventFaultSite::kFrameDrop),
            static_cast<int64_t>(data.size()));
        damaged = true;
      } else {
        if (fault.corrupt && !data.empty()) {
          data[fault.corrupt_byte % data.size()] ^= std::byte{0x40};
        }
        // Transport-level integrity check: re-derive the frame CRC and
        // compare with the checksum stamped at put().
        if (crc32(data.data(), data.size()) != crc) {
          obs::record_event(
              obs::EventKind::kFaultVerdict, tenant, -1,
              static_cast<int64_t>(obs::EventFaultSite::kFrameCrc),
              static_cast<int64_t>(data.size()));
          std::lock_guard lock(mutex_);
          ++counters_.crc_failures;
          damaged = true;
        }
      }
      if (damaged) {
        HIA_REQUIRE(attempt < max_attempts,
                    "dart: frame lost/corrupted on every one of " +
                        std::to_string(max_attempts) +
                        " attempts (handle " + std::to_string(handle.id) +
                        ")");
        std::lock_guard lock(mutex_);
        ++counters_.get_retries;
        continue;
      }
    }
    break;  // clean frame delivered
  }

  if (stats != nullptr) {
    TransferStats s;
    s.path = path;
    s.bytes = data.size();
    s.raw_bytes = raw_bytes;
    s.modeled_seconds = total_seconds;
    s.concurrent_flows = flows;
    s.encoded = encoded;
    s.retries = attempt - 1;
    s.injected_delay_s = injected_delay_s;
    *stats = s;
  }

  {
    std::lock_guard lock(mutex_);
    if (path == TransferPath::kSmsg) {
      ++counters_.smsg_transfers;
    } else {
      ++counters_.bte_transfers;
    }
    counters_.bytes_moved += data.size();
    counters_.raw_bytes_moved += raw_bytes;
    counters_.modeled_seconds_total += total_seconds;  // incl. wasted attempts
    if (attempt > 1) {
      counters_.recovered_bytes += data.size();
    }
  }
  obs::record_event(obs::EventKind::kGet, tenant, -1,
                    static_cast<int64_t>(handle.id),
                    static_cast<int64_t>(data.size()), obs::virtual_now());
  if (tenant > 0) {
    obs::histogram("dart_get_wire_bytes", {.tenant = tenant})
        .record(static_cast<double>(data.size()));
  }
  return data;
}

std::vector<double> Dart::get_doubles(int dest_node, const DartHandle& handle,
                                      TransferStats* stats) {
  TransferStats local;
  auto bytes = get(dest_node, handle, &local);

  std::vector<double> out;
  if (local.encoded) {
    Stopwatch watch;
    {
      HIA_TRACE_SPAN_ARGS("dart", "codec.decode",
                          {.bytes = static_cast<long long>(bytes.size())});
      out = decode_frame(bytes, local.raw_bytes / sizeof(double));
    }
    local.decode_seconds = watch.seconds();
    static obs::Histogram& decode_h = obs::histogram("dart_codec_decode_s");
    decode_h.record(local.decode_seconds);
    std::lock_guard lock(mutex_);
    counters_.decode_seconds_total += local.decode_seconds;
  } else {
    out = to_doubles(bytes);
  }
  if (stats != nullptr) *stats = local;
  return out;
}

void Dart::release(const DartHandle& handle) {
  int tenant = 0;
  {
    std::lock_guard lock(mutex_);
    auto it = regions_.find(handle.id);
    HIA_REQUIRE(it != regions_.end(), "release of unknown region");
    tenant = it->second.tenant;
    regions_.erase(it);
  }
  // Credit return outside the transport lock (innermost-mutex ordering).
  overload_.release_credit(tenant);
}

size_t Dart::num_published() const {
  std::lock_guard lock(mutex_);
  return regions_.size();
}

size_t Dart::published_bytes() const {
  std::lock_guard lock(mutex_);
  size_t total = 0;
  for (const auto& [id, region] : regions_) total += region.data.size();
  return total;
}

DartCounters Dart::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

void Dart::reset_counters() {
  std::lock_guard lock(mutex_);
  counters_ = DartCounters{};
}

}  // namespace hia
