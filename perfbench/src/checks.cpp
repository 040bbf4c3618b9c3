#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>

#include "analysis/viz/image.hpp"
#include "core/topology_pipeline.hpp"

namespace perfbench {

namespace {

constexpr double kMomentTolerance = 1e-9;

/// |a - b| within kMomentTolerance of max(|a|, |b|, scale). NaNs match
/// only NaNs.
bool close(double a, double b, double scale) {
  if (a == b) return true;
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  const double ref = std::max({std::fabs(a), std::fabs(b), scale});
  return std::fabs(a - b) <= kMomentTolerance * ref;
}

}  // namespace

std::vector<std::string> check_conservation(
    const std::vector<hia::TaskRecord>& records,
    const std::map<int, uint64_t>& submitted,
    const std::map<int, uint64_t>& expected) {
  std::map<int, uint64_t> terminal;
  for (const hia::TaskRecord& r : records) ++terminal[r.tenant];
  std::map<int, bool> tenants;
  for (const auto& [t, n] : submitted) tenants[t] = true;
  for (const auto& [t, n] : expected) tenants[t] = true;
  for (const auto& [t, n] : terminal) tenants[t] = true;
  std::vector<std::string> out;
  auto get = [](const std::map<int, uint64_t>& m, int t) -> uint64_t {
    const auto it = m.find(t);
    return it == m.end() ? 0 : it->second;
  };
  for (const auto& [t, unused] : tenants) {
    const uint64_t term = get(terminal, t);
    const uint64_t sub = get(submitted, t);
    const uint64_t exp = get(expected, t);
    if (term != sub || sub != exp) {
      out.push_back("tenant " + std::to_string(t) + ": " +
                    std::to_string(term) + " terminal records, " +
                    std::to_string(sub) + " submitted, " +
                    std::to_string(exp) + " expected");
    }
  }
  return out;
}

std::string check_stats(const std::vector<hia::DescriptiveModel>& hybrid,
                        const std::vector<hia::DescriptiveModel>& in_situ) {
  if (hybrid.size() != in_situ.size() || hybrid.empty()) {
    return "variable count " + std::to_string(hybrid.size()) + " vs " +
           std::to_string(in_situ.size());
  }
  for (size_t v = 0; v < hybrid.size(); ++v) {
    const hia::DescriptiveModel& h = hybrid[v];
    const hia::DescriptiveModel& s = in_situ[v];
    const std::string at = "variable " + std::to_string(v) + ": ";
    if (h.count != s.count) {
      return at + "count " + std::to_string(h.count) + " vs " +
             std::to_string(s.count);
    }
    // Location moments are compared at the variable's range, spread
    // moments at their own size, shape moments (dimensionless) at 1.
    const double range = std::max(std::fabs(s.min), std::fabs(s.max));
    const struct {
      const char* name;
      double a, b, scale;
    } moments[] = {
        {"mean", h.mean, s.mean, range},
        {"min", h.min, s.min, range},
        {"max", h.max, s.max, range},
        {"variance", h.variance, s.variance, 0.0},
        {"stddev", h.stddev, s.stddev, 0.0},
        {"skewness", h.skewness, s.skewness, 1.0},
        {"kurtosis", h.kurtosis_excess, s.kurtosis_excess, 1.0},
    };
    for (const auto& m : moments) {
      if (!close(m.a, m.b, m.scale)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s %.17g vs %.17g", m.name, m.a,
                      m.b);
        return at + buf;
      }
    }
  }
  return {};
}

std::string check_stats_count(const std::vector<hia::DescriptiveModel>& models,
                              size_t variables, uint64_t points) {
  if (models.size() != variables) {
    return "variable count " + std::to_string(models.size()) + ", expected " +
           std::to_string(variables);
  }
  for (size_t v = 0; v < models.size(); ++v) {
    if (models[v].count != points) {
      return "variable " + std::to_string(v) + ": count " +
             std::to_string(models[v].count) + ", expected " +
             std::to_string(points);
    }
  }
  return {};
}

std::string check_tree(std::span<const std::byte> blob, long step) {
  try {
    const hia::TreeSummary summary = hia::TreeSummary::deserialize(blob);
    if (summary.step != step) {
      return "tree for step " + std::to_string(summary.step) +
             ", task step " + std::to_string(step);
    }
    if (summary.tree_nodes < 1) return "empty merge tree";
  } catch (const std::exception& e) {
    return std::string("tree summary: ") + e.what();
  }
  return {};
}

std::string check_image(std::span<const std::byte> blob) {
  if (blob.empty() || blob.size() % sizeof(double) != 0) {
    return "image blob of " + std::to_string(blob.size()) + " bytes";
  }
  std::vector<double> flat(blob.size() / sizeof(double));
  std::memcpy(flat.data(), blob.data(), blob.size());
  try {
    const hia::Image image = hia::deserialize_image(flat);
    for (const hia::Rgba& p : image.pixels()) {
      if (p.a > 0.0f) return {};
    }
    return "image has no visible pixel";
  } catch (const std::exception& e) {
    return std::string("image: ") + e.what();
  }
}

BlockSum block_sum(std::span<const double> values) {
  BlockSum out;
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double x : values) {
    out.sum += x;
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    hash = (hash ^ bits) * 0x100000001b3ULL;
  }
  out.hash = hash;
  return out;
}

std::vector<std::byte> encode_block_sum(const BlockSum& sum) {
  std::vector<std::byte> out(sizeof(double) + sizeof(uint64_t));
  std::memcpy(out.data(), &sum.sum, sizeof(double));
  std::memcpy(out.data() + sizeof(double), &sum.hash, sizeof(uint64_t));
  return out;
}

std::string check_block_sum(std::span<const std::byte> blob,
                            const BlockSum& expected) {
  if (blob.size() != sizeof(double) + sizeof(uint64_t)) {
    return "checksum blob of " + std::to_string(blob.size()) + " bytes";
  }
  BlockSum got;
  std::memcpy(&got.sum, blob.data(), sizeof(double));
  std::memcpy(&got.hash, blob.data() + sizeof(double), sizeof(uint64_t));
  if (got.hash != expected.hash || got.sum != expected.sum) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "checksum %.17g/%016llx, expected %.17g/%016llx",
                  got.sum, static_cast<unsigned long long>(got.hash),
                  expected.sum,
                  static_cast<unsigned long long>(expected.hash));
    return buf;
  }
  return {};
}

}  // namespace perfbench
