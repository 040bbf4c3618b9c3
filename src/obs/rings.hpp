// Per-thread bounded record rings: the storage under both the span tracer
// (obs/trace.cpp) and the flight recorder (obs/events.cpp). Internal to
// hia_obs.
//
// Each writer thread holds one ring through a thread_local shared_ptr and
// writes to it under the ring's own mutex, uncontended in the steady state;
// readers (snapshot, reset, accounting) take the registry mutex and then
// each ring's. A ring reserves its capacity when a thread takes it and
// commits memory as records land: it appends until full, then overwrites
// the oldest record and counts the drop.
//
// A ring outlives its thread, so a trace or spill written after a run still
// holds the thread's records, until the next reset(). The reset empties
// every ring and moves the rings only the registry still holds (their
// threads have exited) to a spare list, which the next threads to record
// draw from before a new ring is made: a process running campaign after
// campaign holds no more rings than it ever had threads at once. Reusing a
// ring, rather than freeing it and reserving anew, also spares the next
// campaign's set-up thousands of page faults (DESIGN.md §7).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace hia::obs::detail {

template <typename Record>
struct Ring {
  explicit Ring(size_t capacity_) : capacity(capacity_) {
    records.reserve(capacity);
  }

  /// Appends `r`; once the ring is full, overwrites the oldest record
  /// instead, copies it to *overwritten when non-null and returns true.
  bool push(const Record& r, Record* overwritten) {
    std::lock_guard lock(mutex);
    if (records.size() < capacity) {
      records.push_back(r);
      return false;
    }
    if (overwritten != nullptr) *overwritten = records[head];
    records[head] = r;
    head = (head + 1) % capacity;
    ++dropped;
    return true;
  }

  std::mutex mutex;
  const size_t capacity;
  std::vector<Record> records;  // oldest at `head` once full
  size_t head = 0;              // next overwrite slot once full
  uint64_t dropped = 0;         // records overwritten since the last reset
  uint32_t tid = 0;             // registration order of its current thread
};

template <typename Record>
class RingSet {
 public:
  using RingPtr = std::shared_ptr<Ring<Record>>;

  /// Gives `slot`, the calling thread's thread_local, a ring of `capacity`
  /// records: a spare one when there is one, else a new one. Spares of
  /// another capacity (made before a capacity change) are freed.
  void take(RingPtr& slot, size_t capacity) {
    std::lock_guard lock(mutex_);
    if (!spare_.empty() && spare_.back()->capacity != capacity) {
      spare_.clear();
    }
    if (spare_.empty()) {
      slot = std::make_shared<Ring<Record>>(capacity);
    } else {
      slot = std::move(spare_.back());
      spare_.pop_back();
    }
    slot->tid = next_tid_++;
    rings_.push_back(slot);
  }

  /// Every registered ring's records, each ring oldest-first, rings in
  /// registration order.
  std::vector<Record> collect() {
    std::vector<Record> out;
    std::lock_guard lock(mutex_);
    for (const RingPtr& ring : rings_) {
      std::lock_guard ring_lock(ring->mutex);
      const auto head = ring->records.begin() +
                        static_cast<std::ptrdiff_t>(ring->head);
      out.insert(out.end(), head, ring->records.end());
      out.insert(out.end(), ring->records.begin(), head);
    }
    return out;
  }

  /// Empties every ring and zeroes its drop count; rings of exited threads
  /// leave the registry for the spare list.
  void reset() {
    std::lock_guard lock(mutex_);
    std::vector<RingPtr> live;
    for (RingPtr& ring : rings_) {
      {
        std::lock_guard ring_lock(ring->mutex);
        ring->records.clear();
        ring->head = 0;
        ring->dropped = 0;
      }
      // Only the registry holds the ring: its thread has exited. Copies are
      // made only under mutex_, so the count cannot grow meanwhile.
      (ring.use_count() == 1 ? spare_ : live).push_back(std::move(ring));
    }
    rings_ = std::move(live);
  }

  /// Records currently held, and records dropped since the last reset,
  /// across the registered rings.
  size_t held() {
    return sum([](const Ring<Record>& r) { return r.records.size(); });
  }
  uint64_t dropped() {
    return sum([](const Ring<Record>& r) { return r.dropped; });
  }

  /// Registered rings: one per live thread that has recorded, plus rings of
  /// exited threads until the next reset().
  size_t count() {
    std::lock_guard lock(mutex_);
    return rings_.size();
  }

 private:
  template <typename F>
  uint64_t sum(F f) {
    std::lock_guard lock(mutex_);
    uint64_t total = 0;
    for (const RingPtr& ring : rings_) {
      std::lock_guard ring_lock(ring->mutex);
      total += f(*ring);
    }
    return total;
  }

  std::mutex mutex_;  // guards rings_, spare_ and next_tid_
  std::vector<RingPtr> rings_;
  std::vector<RingPtr> spare_;
  uint32_t next_tid_ = 0;  // never reused
};

}  // namespace hia::obs::detail
