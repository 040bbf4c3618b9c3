// Output checks. Each is a pure function of the program's output and a
// reference, returning an empty string on success and a one-line reason on
// failure, so selftest.cpp can prove each one fails on a wrong reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "analysis/stats/moments.hpp"
#include "staging/descriptor.hpp"

namespace perfbench {

/// Per-tenant conservation over the terminal records: for every tenant,
/// completed + degraded + deferred + shed == submitted == expected. One
/// message per failing tenant.
std::vector<std::string> check_conservation(
    const std::vector<hia::TaskRecord>& records,
    const std::map<int, uint64_t>& submitted,
    const std::map<int, uint64_t>& expected);

/// Hybrid statistics of one step against the fully in-situ ones: counts
/// exact, every moment within 1e-9 of its natural scale (see checks.cpp).
std::string check_stats(const std::vector<hia::DescriptiveModel>& hybrid,
                        const std::vector<hia::DescriptiveModel>& in_situ);

/// Hybrid statistics with no in-situ reference: `variables` models, each
/// over exactly `points` observations.
std::string check_stats_count(const std::vector<hia::DescriptiveModel>& models,
                              size_t variables, uint64_t points);

/// A topology task's result: a TreeSummary for `step` with >= 1 node.
std::string check_tree(std::span<const std::byte> blob, long step);

/// A viz task's result: an image with at least one visible pixel.
std::string check_image(std::span<const std::byte> blob);

/// The flood's per-block checksum: the in-order sum and a hash of the
/// bit patterns, so a lossy or reordered round trip shows.
struct BlockSum {
  double sum = 0.0;
  uint64_t hash = 0;
};
BlockSum block_sum(std::span<const double> values);
std::vector<std::byte> encode_block_sum(const BlockSum& sum);
std::string check_block_sum(std::span<const std::byte> blob,
                            const BlockSum& expected);

}  // namespace perfbench
