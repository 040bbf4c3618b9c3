#include "analysis/topology/feature_stats.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "analysis/topology/local_tree.hpp"  // grid_vertex_id
#include "analysis/topology/merge_tree.hpp"  // above()
#include "analysis/topology/segmentation.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

namespace {

/// Accumulates one voxel into a feature record.
void accumulate(GlobalFeature& f, const GlobalGrid& grid, int64_t i,
                int64_t j, int64_t k, double field_value,
                double measure_value) {
  const uint64_t gid = grid_vertex_id(grid, i, j, k);
  if (f.voxels == 0 || above(field_value, gid, f.max_value, f.id)) {
    f.max_value = field_value;
    f.id = gid;
  }
  ++f.voxels;
  f.centroid[0] += static_cast<double>(i);
  f.centroid[1] += static_cast<double>(j);
  f.centroid[2] += static_cast<double>(k);
  f.measure.update(measure_value);
}

void sort_features(std::vector<GlobalFeature>& features) {
  std::sort(features.begin(), features.end(),
            [](const GlobalFeature& a, const GlobalFeature& b) {
              if (a.voxels != b.voxels) return a.voxels > b.voxels;
              return a.id < b.id;
            });
}

}  // namespace

std::vector<GlobalFeature> feature_statistics(
    const GlobalGrid& grid, const Box3& box, std::span<const double> field,
    std::span<const double> measure, double threshold) {
  HIA_REQUIRE(field.size() == measure.size(),
              "field and measure must be co-located");
  const Segmentation seg = segment_superlevel(box, field, threshold);

  std::vector<GlobalFeature> features(seg.features.size());
  size_t off = 0;
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k) {
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j) {
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i, ++off) {
        const int32_t label = seg.labels[off];
        if (label < 0) continue;
        accumulate(features[static_cast<size_t>(label)], grid, i, j, k,
                   field[off], measure[off]);
      }
    }
  }
  for (GlobalFeature& f : features) {
    for (double& c : f.centroid) c /= static_cast<double>(f.voxels);
  }
  sort_features(features);
  return features;
}

// ------------------------------------------------------ LocalFeatureData --

std::vector<double> LocalFeatureData::serialize() const {
  const size_t n = num_components();
  std::vector<double> out;
  out.reserve(3 + n * (6 + MomentAccumulator::kPackedSize) +
              boundary_gid.size() * 2 + link_comp.size() * 2);
  out.push_back(static_cast<double>(n));
  out.push_back(static_cast<double>(boundary_gid.size()));
  out.push_back(static_cast<double>(link_comp.size()));
  for (size_t c = 0; c < n; ++c) {
    out.push_back(static_cast<double>(comp_max_id[c]));
    out.push_back(comp_max_value[c]);
    out.push_back(static_cast<double>(comp_voxels[c]));
    for (int a = 0; a < 3; ++a) out.push_back(comp_centroid_sum[c * 3 + static_cast<size_t>(a)]);
    for (int m = 0; m < MomentAccumulator::kPackedSize; ++m) {
      out.push_back(
          comp_moments[c * MomentAccumulator::kPackedSize + static_cast<size_t>(m)]);
    }
  }
  for (size_t b = 0; b < boundary_gid.size(); ++b) {
    out.push_back(static_cast<double>(boundary_gid[b]));
    out.push_back(static_cast<double>(boundary_comp[b]));
  }
  for (size_t l = 0; l < link_comp.size(); ++l) {
    out.push_back(static_cast<double>(link_comp[l]));
    out.push_back(static_cast<double>(link_gid[l]));
  }
  return out;
}

LocalFeatureData LocalFeatureData::deserialize(std::span<const double> data) {
  HIA_REQUIRE(data.size() >= 3, "feature payload too short");
  LocalFeatureData d;
  const size_t per_comp = 6 + MomentAccumulator::kPackedSize;
  size_t left = data.size() - 3;
  const size_t n = rounded_below(data[0], left / per_comp + 1,
                                 "feature component count exceeds payload");
  left -= n * per_comp;
  const size_t nb = rounded_below(data[1], left / 2 + 1,
                                  "feature boundary count exceeds payload");
  left -= nb * 2;
  const size_t nl = rounded_below(data[2], left / 2 + 1,
                                  "feature link count exceeds payload");
  HIA_REQUIRE(left == nl * 2, "feature payload size mismatch");
  size_t off = 3;
  for (size_t c = 0; c < n; ++c) {
    d.comp_max_id.push_back(round_to<uint64_t>(data[off++]));
    d.comp_max_value.push_back(data[off++]);
    d.comp_voxels.push_back(round_to<int64_t>(data[off++]));
    for (int a = 0; a < 3; ++a) d.comp_centroid_sum.push_back(data[off++]);
    for (int m = 0; m < MomentAccumulator::kPackedSize; ++m) {
      d.comp_moments.push_back(data[off++]);
    }
  }
  for (size_t b = 0; b < nb; ++b) {
    d.boundary_gid.push_back(round_to<uint64_t>(data[off++]));
    d.boundary_comp.push_back(static_cast<uint32_t>(rounded_below(
        data[off++], n, "feature boundary component out of range")));
  }
  for (size_t l = 0; l < nl; ++l) {
    d.link_comp.push_back(static_cast<uint32_t>(rounded_below(
        data[off++], n, "feature link component out of range")));
    d.link_gid.push_back(round_to<uint64_t>(data[off++]));
  }
  return d;
}

LocalFeatureData compute_local_features(const GlobalGrid& grid,
                                        const Box3& block,
                                        const Box3& extended,
                                        std::span<const double> field,
                                        std::span<const double> measure,
                                        double threshold) {
  HIA_REQUIRE(field.size() == static_cast<size_t>(extended.num_cells()) &&
                  measure.size() == field.size(),
              "value buffers must cover the extended box");
  HIA_REQUIRE(extended.contains(block), "extended box must contain block");

  // Label the components of the *owned* block only.
  std::vector<double> block_field;
  block_field.reserve(static_cast<size_t>(block.num_cells()));
  for (int64_t k = block.lo[2]; k < block.hi[2]; ++k)
    for (int64_t j = block.lo[1]; j < block.hi[1]; ++j)
      for (int64_t i = block.lo[0]; i < block.hi[0]; ++i)
        block_field.push_back(field[extended.offset(i, j, k)]);
  const Segmentation seg =
      segment_superlevel(block, block_field, threshold);

  LocalFeatureData out;
  const size_t n = seg.features.size();
  out.comp_max_id.assign(n, 0);
  out.comp_max_value.assign(n, 0.0);
  out.comp_voxels.assign(n, 0);
  out.comp_centroid_sum.assign(n * 3, 0.0);
  out.comp_moments.assign(n * MomentAccumulator::kPackedSize, 0.0);

  std::vector<MomentAccumulator> moments(n);
  std::vector<bool> started(n, false);

  size_t off = 0;
  for (int64_t k = block.lo[2]; k < block.hi[2]; ++k) {
    for (int64_t j = block.lo[1]; j < block.hi[1]; ++j) {
      for (int64_t i = block.lo[0]; i < block.hi[0]; ++i, ++off) {
        const int32_t label = seg.labels[off];
        if (label < 0) continue;
        const auto c = static_cast<size_t>(label);
        const double fv = block_field[off];
        const uint64_t gid = grid_vertex_id(grid, i, j, k);
        if (!started[c] ||
            above(fv, gid, out.comp_max_value[c], out.comp_max_id[c])) {
          out.comp_max_value[c] = fv;
          out.comp_max_id[c] = gid;
          started[c] = true;
        }
        ++out.comp_voxels[c];
        out.comp_centroid_sum[c * 3 + 0] += static_cast<double>(i);
        out.comp_centroid_sum[c * 3 + 1] += static_cast<double>(j);
        out.comp_centroid_sum[c * 3 + 2] += static_cast<double>(k);
        moments[c].update(measure[extended.offset(i, j, k)]);
      }
    }
  }
  for (size_t c = 0; c < n; ++c) {
    moments[c].pack(&out.comp_moments[c * MomentAccumulator::kPackedSize]);
  }

  const Box3 domain = grid.bounds();

  // Boundary exports on faces adjacent to a lower-coordinate neighbor.
  auto label_at = [&](int64_t i, int64_t j, int64_t k) {
    return seg.labels[block.offset(i, j, k)];
  };
  for (int axis = 0; axis < 3; ++axis) {
    if (block.lo[axis] == domain.lo[axis]) continue;
    Box3 face = block;
    face.hi[axis] = face.lo[axis] + 1;
    for (int64_t k = face.lo[2]; k < face.hi[2]; ++k) {
      for (int64_t j = face.lo[1]; j < face.hi[1]; ++j) {
        for (int64_t i = face.lo[0]; i < face.hi[0]; ++i) {
          const int32_t label = label_at(i, j, k);
          if (label < 0) continue;
          out.boundary_gid.push_back(grid_vertex_id(grid, i, j, k));
          out.boundary_comp.push_back(static_cast<uint32_t>(label));
        }
      }
    }
  }

  // Links across +direction faces (each inter-rank face handled once, by
  // the lower-coordinate rank).
  for (int axis = 0; axis < 3; ++axis) {
    if (block.hi[axis] == domain.hi[axis]) continue;
    Box3 face = block;
    face.lo[axis] = face.hi[axis] - 1;
    for (int64_t k = face.lo[2]; k < face.hi[2]; ++k) {
      for (int64_t j = face.lo[1]; j < face.hi[1]; ++j) {
        for (int64_t i = face.lo[0]; i < face.hi[0]; ++i) {
          const int32_t label = label_at(i, j, k);
          if (label < 0) continue;
          int64_t ni = i, nj = j, nk = k;
          (axis == 0 ? ni : axis == 1 ? nj : nk) += 1;
          if (field[extended.offset(ni, nj, nk)] < threshold) continue;
          out.link_comp.push_back(static_cast<uint32_t>(label));
          out.link_gid.push_back(grid_vertex_id(grid, ni, nj, nk));
        }
      }
    }
  }
  return out;
}

std::vector<GlobalFeature> combine_features(
    const std::vector<LocalFeatureData>& parts) {
  // Union-find over (part, component) pairs encoded as part * 2^32 + comp.
  auto key = [](size_t part, uint32_t comp) {
    return (static_cast<uint64_t>(part) << 32) | comp;
  };
  std::unordered_map<uint64_t, uint64_t> parent;
  std::function<uint64_t(uint64_t)> find = [&](uint64_t x) {
    auto it = parent.find(x);
    HIA_ASSERT(it != parent.end());
    if (it->second == x) return x;
    const uint64_t root = find(it->second);
    it->second = root;
    return root;
  };

  // Boundary voxel gid -> owning (part, comp).
  std::unordered_map<uint64_t, uint64_t> owner_of_gid;
  for (size_t p = 0; p < parts.size(); ++p) {
    for (size_t c = 0; c < parts[p].num_components(); ++c) {
      parent[key(p, static_cast<uint32_t>(c))] =
          key(p, static_cast<uint32_t>(c));
    }
    for (size_t b = 0; b < parts[p].boundary_gid.size(); ++b) {
      owner_of_gid[parts[p].boundary_gid[b]] =
          key(p, parts[p].boundary_comp[b]);
    }
  }

  for (size_t p = 0; p < parts.size(); ++p) {
    for (size_t l = 0; l < parts[p].link_comp.size(); ++l) {
      const auto it = owner_of_gid.find(parts[p].link_gid[l]);
      HIA_REQUIRE(it != owner_of_gid.end(),
                  "link target voxel missing from boundary exports");
      const uint64_t a = find(key(p, parts[p].link_comp[l]));
      const uint64_t b = find(it->second);
      if (a != b) parent[a] = b;
    }
  }

  // Aggregate per root.
  std::unordered_map<uint64_t, GlobalFeature> merged;
  for (size_t p = 0; p < parts.size(); ++p) {
    const LocalFeatureData& part = parts[p];
    for (size_t c = 0; c < part.num_components(); ++c) {
      const uint64_t root = find(key(p, static_cast<uint32_t>(c)));
      GlobalFeature& f = merged[root];
      if (f.voxels == 0 ||
          above(part.comp_max_value[c], part.comp_max_id[c], f.max_value,
                f.id)) {
        f.max_value = part.comp_max_value[c];
        f.id = part.comp_max_id[c];
      }
      f.voxels += part.comp_voxels[c];
      for (int a = 0; a < 3; ++a) {
        f.centroid[a] += part.comp_centroid_sum[c * 3 + static_cast<size_t>(a)];
      }
      f.measure.combine(MomentAccumulator::unpack(
          &part.comp_moments[c * MomentAccumulator::kPackedSize]));
    }
  }

  std::vector<GlobalFeature> out;
  out.reserve(merged.size());
  for (auto& [root, f] : merged) {
    for (double& c : f.centroid) c /= static_cast<double>(f.voxels);
    out.push_back(std::move(f));
  }
  sort_features(out);
  return out;
}

}  // namespace hia
