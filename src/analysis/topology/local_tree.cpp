#include "analysis/topology/local_tree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

std::vector<double> SubtreeData::serialize() const {
  std::vector<double> out;
  out.reserve(2 + vertex_ids.size() * 3 + edge_child.size() * 2);
  out.push_back(static_cast<double>(vertex_ids.size()));
  out.push_back(static_cast<double>(edge_child.size()));
  for (size_t i = 0; i < vertex_ids.size(); ++i) {
    out.push_back(static_cast<double>(vertex_ids[i]));
    out.push_back(vertex_values[i]);
    out.push_back(i < interior.size() ? interior[i] : 0.0);
  }
  for (size_t e = 0; e < edge_child.size(); ++e) {
    out.push_back(static_cast<double>(edge_child[e]));
    out.push_back(static_cast<double>(edge_parent[e]));
  }
  return out;
}

namespace {

/// Rounds an integral field of a peer's payload, requiring it to round into
/// [0, end). The range is checked on the double, before any conversion or
/// arithmetic: the bytes may hold NaN, infinities or values beyond size_t.
size_t rounded_below(double v, size_t end, const char* what) {
  HIA_REQUIRE(v > -0.5 && v < static_cast<double>(end) - 0.5, what);
  return round_to<size_t>(v);
}

}  // namespace

SubtreeData SubtreeData::deserialize(std::span<const double> data) {
  HIA_REQUIRE(data.size() >= 2, "subtree payload too short");
  const size_t body = data.size() - 2;
  const size_t nv = rounded_below(data[0], body / 3 + 1,
                                  "subtree vertex count exceeds payload");
  const size_t ne = rounded_below(data[1], (body - nv * 3) / 2 + 1,
                                  "subtree edge count exceeds payload");
  HIA_REQUIRE(body == nv * 3 + ne * 2, "subtree payload size mismatch");
  constexpr size_t kIdEnd = size_t{1} << 53;  // ids travel exactly below 2^53
  SubtreeData s;
  s.vertex_ids.reserve(nv);
  s.vertex_values.reserve(nv);
  s.interior.reserve(nv);
  size_t off = 2;
  for (size_t i = 0; i < nv; ++i) {
    s.vertex_ids.push_back(
        rounded_below(data[off++], kIdEnd, "subtree vertex id out of range"));
    // The combiner orders vertices by (value, id); NaN has no place in it.
    HIA_REQUIRE(!std::isnan(data[off]), "subtree vertex value is NaN");
    s.vertex_values.push_back(data[off++]);
    s.interior.push_back(static_cast<uint8_t>(
        rounded_below(data[off++], 2, "subtree interior flag not 0 or 1")));
  }
  s.edge_child.reserve(ne);
  s.edge_parent.reserve(ne);
  for (size_t e = 0; e < ne; ++e) {
    s.edge_child.push_back(static_cast<uint32_t>(
        rounded_below(data[off++], nv, "subtree edge child out of range")));
    s.edge_parent.push_back(static_cast<uint32_t>(
        rounded_below(data[off++], nv, "subtree edge parent out of range")));
  }
  return s;
}

namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

/// Sort key whose ascending order is the descending value order. It is the
/// order-preserving bit image of the value, complemented; -0.0 is folded
/// onto +0.0 because above() sees them as equal and breaks the tie on ids.
uint64_t descending_key(double value) {
  const auto bits = std::bit_cast<uint64_t>(value == 0.0 ? 0.0 : value);
  const uint64_t ascending =
      (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
  return ~ascending;
}

/// Box offsets sorted into descending (value, global id) order, and a
/// spare buffer of the same size the sort used to scatter into.
struct DescendingOrder {
  std::vector<uint32_t> order;
  std::vector<uint32_t> spare;
};

/// Within one box the offset order is the global-id order (both linearise
/// x fastest), so a stable LSD radix sort of 4-byte offsets on their
/// values' keys, fed offsets in descending order, leaves ties in
/// descending id order as above() requires. Each pass recomputes a key
/// from `values` rather than carrying it beside the offset. Digits every
/// key shares are skipped.
DescendingOrder descending_order(std::span<const double> values) {
  constexpr unsigned kDigitBits = 11;
  constexpr unsigned kDigits = (64 + kDigitBits - 1) / kDigitBits;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  const size_t n = values.size();
  DescendingOrder s{std::vector<uint32_t>(n), std::vector<uint32_t>(n)};
  std::vector<std::array<uint32_t, kDigitMask + 1>> counts(kDigits);
  for (size_t i = 0; i < n; ++i) {
    const auto off = static_cast<uint32_t>(n - 1 - i);
    s.order[i] = off;
    const uint64_t key = descending_key(values[off]);
    for (unsigned d = 0; d < kDigits; ++d) {
      ++counts[d][(key >> (kDigitBits * d)) & kDigitMask];
    }
  }
  for (unsigned d = 0; d < kDigits; ++d) {
    auto& slot = counts[d];
    const unsigned shift = kDigitBits * d;
    auto digit = [&](uint32_t off) {
      return (descending_key(values[off]) >> shift) & kDigitMask;
    };
    if (slot[digit(s.order[0])] == n) continue;
    uint32_t start = 0;
    for (uint32_t& c : slot) start += std::exchange(c, start);
    for (const uint32_t off : s.order) s.spare[slot[digit(off)]++] = off;
    s.order.swap(s.spare);
  }
  return s;
}

// Face bits of a box cell: bit 2a is set on the low face of axis a, bit
// 2a+1 on the high face. A set bit means the neighbour across it lies
// outside the box.
constexpr uint8_t face_bit(int axis, bool high) {
  return static_cast<uint8_t>(1u << (2 * axis + (high ? 1 : 0)));
}

std::vector<uint8_t> face_masks(const Box3& box) {
  const int64_t nx = box.extent(0), ny = box.extent(1), nz = box.extent(2);
  std::vector<uint8_t> out(static_cast<size_t>(box.num_cells()));
  size_t off = 0;
  for (int64_t k = 0; k < nz; ++k) {
    const auto fk = static_cast<uint8_t>((k == 0 ? face_bit(2, false) : 0) |
                                         (k == nz - 1 ? face_bit(2, true) : 0));
    for (int64_t j = 0; j < ny; ++j) {
      const auto fj = static_cast<uint8_t>(
          fk | (j == 0 ? face_bit(1, false) : 0) |
          (j == ny - 1 ? face_bit(1, true) : 0));
      for (int64_t i = 0; i < nx; ++i) {
        out[off++] = static_cast<uint8_t>(
            fj | (i == 0 ? face_bit(0, false) : 0) |
            (i == nx - 1 ? face_bit(0, true) : 0));
      }
    }
  }
  return out;
}

/// The join tree of a box, indexed by box offset.
struct JoinSweep {
  std::vector<uint32_t> order;    // offsets, descending (value, global id)
  std::vector<uint32_t> parent;   // next lower vertex on the arc; kNone: root
  std::vector<uint8_t> children;  // number of offsets whose parent this is
  std::vector<uint8_t> faces;     // face_masks(box)
};

/// Carr–Snoeyink–Axen join sweep: visit vertices from the top, and union
/// each with its already-swept 6-neighbours. The arc of every component a
/// vertex joins ends at that vertex: the component's lowest vertex so far
/// gets it as parent. A vertex that joins one component (the common,
/// regular case) links straight to that component's root, so union-find
/// paths stay short.
JoinSweep sweep_join_tree(const Box3& box, std::span<const double> values) {
  const auto n = static_cast<size_t>(box.num_cells());
  HIA_REQUIRE(values.size() == n, "value buffer does not match box");
  HIA_REQUIRE(n > 0, "empty box");
  HIA_REQUIRE(n < kNone, "box too large for 32-bit offsets");

  JoinSweep s;
  DescendingOrder sorted = descending_order(values);
  s.order = std::move(sorted.order);
  s.faces = face_masks(box);
  s.parent.assign(n, kNone);
  s.children.assign(n, 0);

  const int64_t nx = box.extent(0), nxy = nx * box.extent(1);
  // Neighbour offset across each face bit.
  const std::array<int64_t, 6> stride{-1, 1, -nx, nx, -nxy, nxy};
  // Union-find links with path halving, in the sort's spare buffer; kNone
  // marks a vertex not yet swept (one below the current vertex). lowest is
  // valid at roots.
  std::vector<uint32_t> link = std::move(sorted.spare);
  std::fill(link.begin(), link.end(), kNone);
  std::vector<uint32_t> lowest(n);
  auto find = [&link](uint32_t x) {
    while (link[x] != x) {
      link[x] = link[link[x]];
      x = link[x];
    }
    return x;
  };
  for (const uint32_t v : s.order) {
    uint32_t root_v = kNone;
    uint8_t joined = 0;
    for (size_t d = 0; d < stride.size(); ++d) {
      if ((s.faces[v] >> d) & 1u) continue;
      const auto u = static_cast<uint32_t>(v + stride[d]);
      if (link[u] == kNone) continue;
      const uint32_t root = find(u);
      if (root == root_v) continue;
      s.parent[lowest[root]] = v;
      ++joined;
      if (root_v == kNone) {
        root_v = root;
      } else {
        link[root] = root_v;
      }
    }
    if (root_v == kNone) root_v = v;  // a maximum starts a component
    link[v] = root_v;
    lowest[root_v] = v;
    s.children[v] = joined;
  }
  return s;
}

uint64_t offset_vertex_id(const GlobalGrid& grid, const Box3& box,
                          size_t off) {
  int64_t i = 0, j = 0, k = 0;
  box.coords(off, i, j, k);
  return grid_vertex_id(grid, i, j, k);
}

}  // namespace

Box3 extended_block(const GlobalGrid& grid, const Box3& block) {
  Box3 ext = block;
  for (int a = 0; a < 3; ++a) {
    ext.hi[a] = std::min(ext.hi[a] + 1, grid.dims[a]);
  }
  return ext;
}

MergeTree build_local_tree(const GlobalGrid& grid, const Box3& box,
                           std::span<const double> values) {
  const JoinSweep s = sweep_join_tree(box, values);
  const size_t n = s.order.size();
  std::vector<uint32_t> position(n);
  for (size_t pos = 0; pos < n; ++pos) {
    position[s.order[pos]] = static_cast<uint32_t>(pos);
  }
  std::vector<MergeTree::Node> nodes(n);
  for (size_t pos = 0; pos < n; ++pos) {
    const uint32_t v = s.order[pos];
    nodes[pos] = {offset_vertex_id(grid, box, v), values[v],
                  s.parent[v] == kNone ? MergeTree::kNoParent
                                       : int64_t{position[s.parent[v]]}};
  }
  return MergeTree(std::move(nodes));
}

SubtreeData compute_rank_subtree(const GlobalGrid& grid, const Box3& block,
                                 std::span<const double> extended_values,
                                 const Box3& extended_box) {
  HIA_REQUIRE(extended_box == extended_block(grid, block),
              "extended box does not match the rank's block");
  const JoinSweep s = sweep_join_tree(extended_box, extended_values);

  // Faces of the box that are not domain faces: a neighbour's box shares
  // them.
  const Box3 domain = grid.bounds();
  uint8_t shared = 0;
  for (int a = 0; a < 3; ++a) {
    if (extended_box.lo[a] != domain.lo[a]) shared |= face_bit(a, false);
    if (extended_box.hi[a] != domain.hi[a]) shared |= face_bit(a, true);
  }
  auto retained = [&](uint32_t v) {
    return s.children[v] != 1 || s.parent[v] == kNone ||
           (s.faces[v] & shared) != 0;
  };

  // One pass in descending order: emit each retained vertex and an edge to
  // its nearest retained ancestor, held as an offset until every retained
  // vertex has its output index.
  SubtreeData out;
  std::vector<uint32_t> index(s.order.size());
  for (const uint32_t v : s.order) {
    if (!retained(v)) continue;
    index[v] = static_cast<uint32_t>(out.vertex_ids.size());
    out.vertex_ids.push_back(offset_vertex_id(grid, extended_box, v));
    out.vertex_values.push_back(extended_values[v]);
    out.interior.push_back((s.faces[v] & shared) == 0 ? 1 : 0);
    uint32_t p = s.parent[v];
    while (p != kNone && !retained(p)) p = s.parent[p];
    if (p == kNone) continue;
    out.edge_child.push_back(index[v]);
    out.edge_parent.push_back(p);
  }
  for (uint32_t& p : out.edge_parent) p = index[p];
  return out;
}

}  // namespace hia
