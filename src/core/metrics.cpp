#include "core/metrics.hpp"

#include <algorithm>

namespace hia {

bool ResilienceSummary::any() const {
  return std::ranges::any_of(kLedgerFields, [this](const LedgerField& f) {
    return f.trigger && f.value(*this) != 0.0;
  });
}

ResilienceSummary& ResilienceSummary::operator+=(
    const ResilienceSummary& slice) {
  for (const LedgerField& f : kLedgerFields) {
    if (f.count != nullptr) this->*f.count += slice.*f.count;
    if (f.seconds != nullptr) this->*f.seconds += slice.*f.seconds;
  }
  return *this;
}

namespace {
template <typename Items, typename Pred, typename Get>
double mean_over(const Items& items, Pred pred, Get get) {
  double sum = 0.0;
  long count = 0;
  for (const auto& item : items) {
    if (!pred(item)) continue;
    sum += get(item);
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}
}  // namespace

double RunReport::mean_in_situ_seconds(const std::string& analysis) const {
  return mean_over(
      in_situ, [&](const InSituMetric& m) { return m.analysis == analysis; },
      [](const InSituMetric& m) { return m.max_rank_seconds; });
}

double RunReport::mean_in_transit_seconds(const std::string& analysis) const {
  return mean_over(
      in_transit, [&](const TaskRecord& r) { return r.analysis == analysis; },
      [](const TaskRecord& r) { return r.compute_seconds; });
}

double RunReport::mean_movement_seconds(const std::string& analysis) const {
  return mean_over(
      in_transit, [&](const TaskRecord& r) { return r.analysis == analysis; },
      [](const TaskRecord& r) { return r.data_movement_seconds; });
}

double RunReport::mean_movement_bytes(const std::string& analysis) const {
  return mean_over(
      in_transit, [&](const TaskRecord& r) { return r.analysis == analysis; },
      [](const TaskRecord& r) { return static_cast<double>(r.data_movement_bytes); });
}

double RunReport::mean_movement_raw_bytes(const std::string& analysis) const {
  return mean_over(
      in_transit, [&](const TaskRecord& r) { return r.analysis == analysis; },
      [](const TaskRecord& r) {
        return static_cast<double>(r.data_movement_raw_bytes);
      });
}

double RunReport::mean_decode_seconds(const std::string& analysis) const {
  return mean_over(
      in_transit, [&](const TaskRecord& r) { return r.analysis == analysis; },
      [](const TaskRecord& r) { return r.decode_seconds; });
}

double RunReport::compression_ratio(const std::string& analysis) const {
  double raw = 0.0, wire = 0.0;
  for (const TaskRecord& r : in_transit) {
    if (r.analysis != analysis) continue;
    raw += static_cast<double>(r.data_movement_raw_bytes);
    wire += static_cast<double>(r.data_movement_bytes);
  }
  return wire == 0.0 ? 1.0 : raw / wire;
}

}  // namespace hia
