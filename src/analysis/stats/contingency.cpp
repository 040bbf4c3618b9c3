#include "analysis/stats/contingency.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include "util/numeric.hpp"

namespace hia {

void ContingencyTable::update(std::span<const double> x,
                              std::span<const double> y,
                              const Categorizer& cx, const Categorizer& cy) {
  HIA_REQUIRE(x.size() == y.size(), "paired observations required");
  HIA_REQUIRE(cx.bins() == x_bins_ && cy.bins() == y_bins_,
              "categorizer does not match table dimensions");
  for (size_t i = 0; i < x.size(); ++i) {
    update(cx.category(x[i]), cy.category(y[i]));
  }
}

void ContingencyTable::combine(const ContingencyTable& other) {
  HIA_REQUIRE(other.x_bins_ == x_bins_ && other.y_bins_ == y_bins_,
              "tables must share dimensions to combine");
  for (const auto& [cell, count] : other.cells_) {
    cells_[cell] += count;
  }
  total_ += other.total_;
}

std::vector<uint64_t> ContingencyTable::x_marginal() const {
  std::vector<uint64_t> out(static_cast<size_t>(x_bins_), 0);
  for (const auto& [cell, count] : cells_) {
    out[static_cast<size_t>(cell.first)] += count;
  }
  return out;
}

std::vector<uint64_t> ContingencyTable::y_marginal() const {
  std::vector<uint64_t> out(static_cast<size_t>(y_bins_), 0);
  for (const auto& [cell, count] : cells_) {
    out[static_cast<size_t>(cell.second)] += count;
  }
  return out;
}

std::vector<double> ContingencyTable::serialize() const {
  std::vector<double> out;
  out.reserve(3 + cells_.size() * 3);
  out.push_back(static_cast<double>(x_bins_));
  out.push_back(static_cast<double>(y_bins_));
  out.push_back(static_cast<double>(cells_.size()));
  for (const auto& [cell, count] : cells_) {
    out.push_back(static_cast<double>(cell.first));
    out.push_back(static_cast<double>(cell.second));
    out.push_back(static_cast<double>(count));
  }
  return out;
}

ContingencyTable ContingencyTable::deserialize(std::span<const double> data) {
  HIA_REQUIRE(data.size() >= 3, "contingency payload too short");
  auto bins = [](double v) {
    constexpr size_t kEnd = size_t{std::numeric_limits<int>::max()} + 1;
    return static_cast<int>(
        rounded_below(v, kEnd, "contingency bin count out of range"));
  };
  ContingencyTable t(bins(data[0]), bins(data[1]));
  const size_t body = data.size() - 3;
  const size_t n = rounded_below(data[2], body / 3 + 1,
                                 "contingency cell count exceeds payload");
  HIA_REQUIRE(body == n * 3, "contingency payload size mismatch");
  for (size_t c = 0; c < n; ++c) {
    const auto x = static_cast<int>(
        rounded_below(data[3 + c * 3], static_cast<size_t>(t.x_bins_),
                      "contingency cell out of range"));
    const auto y = static_cast<int>(
        rounded_below(data[3 + c * 3 + 1], static_cast<size_t>(t.y_bins_),
                      "contingency cell out of range"));
    const size_t count = rounded_below(data[3 + c * 3 + 2], size_t{1} << 53,
                                       "contingency count out of range");
    t.cells_[{x, y}] += count;
    t.total_ += count;
  }
  return t;
}

ContingencyModel derive_contingency(const ContingencyTable& table) {
  ContingencyModel m;
  m.total = table.total();
  if (m.total == 0) return m;

  const auto mx = table.x_marginal();
  const auto my = table.y_marginal();
  const double n = static_cast<double>(m.total);

  // Chi-squared and mutual information over all cells with nonzero
  // expectation; MI terms vanish for empty observed cells.
  for (int x = 0; x < table.x_bins(); ++x) {
    const double px = static_cast<double>(mx[static_cast<size_t>(x)]) / n;
    if (px == 0.0) continue;
    for (int y = 0; y < table.y_bins(); ++y) {
      const double py = static_cast<double>(my[static_cast<size_t>(y)]) / n;
      if (py == 0.0) continue;
      const double expected = n * px * py;
      const double observed =
          static_cast<double>(table.count(x, y));
      const double d = observed - expected;
      m.chi_squared += d * d / expected;
      if (observed > 0.0) {
        const double pxy = observed / n;
        m.mutual_information += pxy * std::log(pxy / (px * py));
      }
    }
  }

  // Cramér's V: sqrt(chi2 / (n * (min(r, c) - 1))).
  int active_x = 0, active_y = 0;
  for (const auto c : mx) {
    if (c > 0) ++active_x;
  }
  for (const auto c : my) {
    if (c > 0) ++active_y;
  }
  const int k = std::min(active_x, active_y);
  if (k > 1) {
    m.cramers_v = std::sqrt(m.chi_squared / (n * static_cast<double>(k - 1)));
  }
  return m;
}

}  // namespace hia
