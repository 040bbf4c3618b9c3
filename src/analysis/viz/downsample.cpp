#include "analysis/viz/downsample.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

std::vector<double> DownsampledBlock::serialize() const {
  std::vector<double> out;
  out.reserve(10 + values.size());
  for (int a = 0; a < 3; ++a) out.push_back(static_cast<double>(bounds.lo[a]));
  for (int a = 0; a < 3; ++a) out.push_back(static_cast<double>(bounds.hi[a]));
  out.push_back(static_cast<double>(stride));
  for (int a = 0; a < 3; ++a) out.push_back(static_cast<double>(samples[a]));
  out.insert(out.end(), values.begin(), values.end());
  return out;
}

DownsampledBlock DownsampledBlock::deserialize(std::span<const double> data) {
  HIA_REQUIRE(data.size() >= 10, "downsampled block payload too short");
  DownsampledBlock b;
  size_t off = 0;
  // Bounds stay well inside int64 (and exact as doubles), so extents and
  // the renderer's index arithmetic cannot overflow.
  auto bound = [](double v) {
    HIA_REQUIRE(v > -0x1p52 && v < 0x1p52,
                "downsampled block bounds out of range");
    return round_to<int64_t>(v);
  };
  for (int a = 0; a < 3; ++a) b.bounds.lo[a] = bound(data[off++]);
  for (int a = 0; a < 3; ++a) b.bounds.hi[a] = bound(data[off++]);
  HIA_REQUIRE(!b.bounds.empty(), "downsampled block bounds are empty");
  HIA_REQUIRE(data[off] > 0.5 && data[off] < 2147483647.5,
              "downsampled block stride out of range");
  b.stride = round_to<int>(data[off++]);
  // Each sample count is at least 1 and bounded by the values left for it,
  // so the running product never exceeds the payload.
  const size_t body = data.size() - 10;
  size_t expected = 1;
  for (int a = 0; a < 3; ++a) {
    const size_t s = rounded_below(data[off++], body / expected + 1,
                                   "downsampled samples exceed payload");
    HIA_REQUIRE(s >= 1, "downsampled block needs a sample per axis");
    b.samples[a] = static_cast<int64_t>(s);
    HIA_REQUIRE(b.samples[a] == (b.bounds.extent(a) - 1) / b.stride + 1,
                "downsampled sample count disagrees with bounds and stride");
    expected *= s;
  }
  HIA_REQUIRE(body == expected, "downsampled block payload size mismatch");
  b.values.assign(data.begin() + 10, data.end());
  for (const double v : b.values) {
    HIA_REQUIRE(std::isfinite(v), "downsampled block value is not finite");
  }
  return b;
}

DownsampledBlock downsample_block(const Box3& box,
                                  std::span<const double> values, int stride) {
  HIA_REQUIRE(stride >= 1, "stride must be >= 1");
  HIA_REQUIRE(values.size() == static_cast<size_t>(box.num_cells()),
              "value buffer does not match box");

  DownsampledBlock b;
  b.bounds = box;
  b.stride = stride;
  for (int a = 0; a < 3; ++a) {
    b.samples[a] = (box.extent(a) - 1) / stride + 1;
  }
  b.values.reserve(static_cast<size_t>(b.samples[0] * b.samples[1] *
                                       b.samples[2]));
  for (int64_t mk = 0; mk < b.samples[2]; ++mk) {
    for (int64_t mj = 0; mj < b.samples[1]; ++mj) {
      for (int64_t mi = 0; mi < b.samples[0]; ++mi) {
        const int64_t i = box.lo[0] + mi * stride;
        const int64_t j = box.lo[1] + mj * stride;
        const int64_t k = box.lo[2] + mk * stride;
        b.values.push_back(values[box.offset(i, j, k)]);
      }
    }
  }
  return b;
}

double downsample_ratio(const DownsampledBlock& block) {
  const double original = static_cast<double>(block.bounds.num_cells());
  const double retained = static_cast<double>(block.values.size());
  return retained == 0.0 ? 0.0 : original / retained;
}

}  // namespace hia
