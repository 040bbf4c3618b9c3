#include "staging/object_store.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <tuple>

#include "obs/events.hpp"
#include "util/error.hpp"

namespace hia {

namespace {
// Replica identity: copies of one logical object share their Dart handle
// id. Descriptors without a live handle (id 0 = invalid, used by direct
// store tests) fall back to structural identity so two distinct blocks of
// the same (variable, step) are never merged.
bool same_object(const hia::DataDescriptor& a, const hia::DataDescriptor& b) {
  if (a.handle.valid() || b.handle.valid()) return a.handle.id == b.handle.id;
  return a.src_node == b.src_node && a.handle.bytes == b.handle.bytes &&
         a.box.lo == b.box.lo && a.box.hi == b.box.hi;
}
}  // namespace

ObjectStore::ObjectStore(int num_servers, OverloadControl* overload,
                         int replicas)
    : overload_(overload != nullptr ? *overload : idle_overload_) {
  HIA_REQUIRE(num_servers > 0, "need at least one DataSpaces server");
  replicas_ = std::clamp(replicas, 1, num_servers);
  servers_.reserve(static_cast<size_t>(num_servers));
  for (int i = 0; i < num_servers; ++i) {
    servers_.push_back(std::make_unique<Server>());
  }
}

std::string ObjectStore::key(const std::string& variable, long step) {
  return variable + '\0' + std::to_string(step);
}

size_t ObjectStore::shard(const std::string& key) const {
  return std::hash<std::string>{}(key) % servers_.size();
}

std::vector<size_t> ObjectStore::replica_targets(const std::string& key) const {
  const size_t n = servers_.size();
  const size_t primary = shard(key);
  std::vector<size_t> out;
  for (size_t i = 0; i < n && out.size() < static_cast<size_t>(replicas_);
       ++i) {
    const size_t s = (primary + i) % n;
    if (!servers_[s]->crashed.load(std::memory_order_acquire)) {
      out.push_back(s);
    }
  }
  return out;
}

bool ObjectStore::insert_unique(Server& server, const std::string& key,
                                const DataDescriptor& desc) {
  std::lock_guard lock(server.mutex);
  std::vector<DataDescriptor>& vec = server.objects[key];
  for (const DataDescriptor& d : vec) {
    if (same_object(d, desc)) return false;
  }
  vec.push_back(desc);
  return true;
}

void ObjectStore::put(const DataDescriptor& desc) {
  const std::string k = key(desc.variable, desc.step);
  const std::vector<size_t> targets = replica_targets(k);
  HIA_REQUIRE(!targets.empty(), "object store: every server has crashed");
  for (const size_t s : targets) {
    Server& srv = *servers_[s];
    srv.rpcs.fetch_add(1, std::memory_order_relaxed);
    insert_unique(srv, k, desc);
  }
  // Ledgers count the logical object once, not per copy, so put/take stay
  // balanced at every replication factor.
  overload_.on_store_put(desc.handle.bytes);
  {
    std::lock_guard lock(tenant_mutex_);
    TenantBytes& tb = tenant_bytes_[desc.tenant];
    tb.bytes += desc.handle.bytes;
    tb.peak = std::max(tb.peak, tb.bytes);
  }
}

std::vector<DataDescriptor> ObjectStore::fetch_and_repair(
    const std::string& key) const {
  const std::vector<size_t> targets = replica_targets(key);
  std::vector<std::vector<DataDescriptor>> held(targets.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    Server& srv = *servers_[targets[t]];
    srv.rpcs.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(srv.mutex);
    auto it = srv.objects.find(key);
    if (it != srv.objects.end()) held[t] = it->second;
  }
  std::vector<DataDescriptor> merged;
  for (const auto& copies : held) {
    for (const DataDescriptor& d : copies) {
      const bool known =
          std::any_of(merged.begin(), merged.end(),
                      [&](const auto& m) { return same_object(m, d); });
      if (!known) merged.push_back(d);
    }
  }
  // Read-repair: a live target missing a copy (it joined the chain when a
  // predecessor crashed) gets it back, restoring the replication factor.
  for (size_t t = 0; t < targets.size(); ++t) {
    for (const DataDescriptor& d : merged) {
      const bool has =
          std::any_of(held[t].begin(), held[t].end(),
                      [&](const auto& h) { return same_object(h, d); });
      if (has) continue;
      if (insert_unique(*servers_[targets[t]], key, d)) {
        replicas_repaired_.fetch_add(1, std::memory_order_relaxed);
        obs::record_event(obs::EventKind::kReplicaRepair, d.tenant,
                          static_cast<int>(targets[t]),
                          static_cast<int64_t>(d.handle.id),
                          static_cast<int64_t>(d.handle.bytes));
      }
    }
  }
  return merged;
}

std::vector<DataDescriptor> ObjectStore::query_all(const std::string& variable,
                                                   long step) const {
  return fetch_and_repair(key(variable, step));
}

std::vector<DataDescriptor> ObjectStore::take(const std::string& variable,
                                              long step) {
  const std::string k = key(variable, step);
  const std::vector<size_t> targets = replica_targets(k);
  std::vector<DataDescriptor> out;
  for (const size_t s : targets) {
    Server& srv = *servers_[s];
    srv.rpcs.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(srv.mutex);
    auto it = srv.objects.find(k);
    if (it == srv.objects.end()) continue;
    for (DataDescriptor& d : it->second) {
      const bool known =
          std::any_of(out.begin(), out.end(),
                      [&](const auto& m) { return same_object(m, d); });
      if (!known) out.push_back(std::move(d));
    }
    srv.objects.erase(it);
  }
  // One total order, whatever order the ranks published in: every fold
  // over a task's inputs sees the same sequence, so in-transit results are
  // reproducible bit for bit.
  std::sort(out.begin(), out.end(),
            [](const DataDescriptor& a, const DataDescriptor& b) {
              return std::tie(a.box.lo, a.src_node, a.handle.id) <
                     std::tie(b.box.lo, b.src_node, b.handle.id);
            });
  size_t removed = 0;
  for (const DataDescriptor& d : out) removed += d.handle.bytes;
  if (removed > 0) {
    overload_.on_store_take(removed);
    std::lock_guard lock(tenant_mutex_);
    for (const DataDescriptor& d : out) {
      TenantBytes& tb = tenant_bytes_[d.tenant];
      tb.bytes -= std::min(tb.bytes, d.handle.bytes);
    }
  }
  return out;
}

size_t ObjectStore::crash_server(int server) {
  HIA_REQUIRE(server >= 0 && server < num_servers(),
              "crash_server: no such server");
  Server& s = *servers_[server];
  bool expected = false;
  if (!s.crashed.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return 0;  // already dead; scripted crashes fire once
  }
  // Seize the dead shard: every copy it held is gone.
  std::map<std::string, std::vector<DataDescriptor>> seized;
  {
    std::lock_guard lock(s.mutex);
    seized = std::move(s.objects);
    s.objects.clear();
  }
  // A logical object with no copy on any live server is lost for good:
  // settle its ledger entries and count it loudly (the zero-lost-objects
  // acceptance check reads objects_lost()).
  size_t lost = 0;
  for (const auto& [k, descs] : seized) {
    for (const DataDescriptor& d : descs) {
      bool survives = false;
      for (const auto& srv : servers_) {
        if (srv->crashed.load(std::memory_order_acquire)) continue;
        std::lock_guard lock(srv->mutex);
        auto it = srv->objects.find(k);
        if (it == srv->objects.end()) continue;
        for (const DataDescriptor& copy : it->second) {
          if (same_object(copy, d)) {
            survives = true;
            break;
          }
        }
        if (survives) break;
      }
      if (survives) continue;
      ++lost;
      overload_.on_store_take(d.handle.bytes);
      std::lock_guard lock(tenant_mutex_);
      TenantBytes& tb = tenant_bytes_[d.tenant];
      tb.bytes -= std::min(tb.bytes, d.handle.bytes);
    }
  }
  objects_lost_.fetch_add(lost, std::memory_order_relaxed);
  return lost;
}

bool ObjectStore::is_server_crashed(int server) const {
  if (server < 0 || server >= num_servers()) return false;
  return servers_[static_cast<size_t>(server)]->crashed.load(
      std::memory_order_acquire);
}

int ObjectStore::live_servers() const {
  int live = 0;
  for (const auto& s : servers_) {
    if (!s->crashed.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

size_t ObjectStore::tenant_peak_bytes(int tenant) const {
  std::lock_guard lock(tenant_mutex_);
  auto it = tenant_bytes_.find(tenant);
  return it == tenant_bytes_.end() ? 0 : it->second.peak;
}

std::vector<uint64_t> ObjectStore::rpc_counts() const {
  std::vector<uint64_t> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) {
    out.push_back(s->rpcs.load(std::memory_order_relaxed));
  }
  return out;
}

size_t ObjectStore::size() const {
  size_t total = 0;
  for (const auto& s : servers_) {
    std::lock_guard lock(s->mutex);
    for (const auto& [k, v] : s->objects) total += v.size();
  }
  return total;
}

}  // namespace hia
