#include "compress/codecs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/error.hpp"

namespace hia {

namespace {

uint64_t bits_of(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double double_of(uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

void append_u64(std::vector<std::byte>& out, uint64_t v) {
  const size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void append_varint(std::vector<std::byte>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

uint64_t zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t unzigzag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Bounds-checked forward reader over a codec payload; every decoder goes
/// through it so truncation anywhere surfaces as hia::Error, not UB.
struct PayloadReader {
  std::span<const std::byte> data;
  size_t pos = 0;

  [[nodiscard]] size_t remaining() const { return data.size() - pos; }

  uint8_t read_u8() {
    HIA_REQUIRE(remaining() >= 1, "payload truncated");
    return static_cast<uint8_t>(data[pos++]);
  }

  uint64_t read_u64() {
    HIA_REQUIRE(remaining() >= sizeof(uint64_t), "payload truncated");
    uint64_t v;
    std::memcpy(&v, data.data() + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  }

  uint64_t read_varint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      HIA_REQUIRE(remaining() >= 1, "varint truncated");
      const auto b = static_cast<uint8_t>(data[pos++]);
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        HIA_REQUIRE(shift < 63 || (b >> 1) == 0, "varint overflows 64 bits");
        return v;
      }
    }
    throw Error("varint longer than 10 bytes");
  }

  std::span<const std::byte> read_span(size_t n) {
    HIA_REQUIRE(remaining() >= n, "payload truncated");
    auto s = data.subspan(pos, n);
    pos += n;
    return s;
  }

  void expect_consumed() const {
    HIA_REQUIRE(pos == data.size(), "payload has trailing bytes");
  }
};

/// Proves from the payload itself that a header-declared `count` of RLE
/// runs (varint run, then `value_bytes` of value) sums to exactly `count`
/// before the caller allocates for it: a forged count cannot size an
/// allocation the bytes present do not encode.
void check_run_total(PayloadReader in, uint64_t count, size_t value_bytes) {
  uint64_t total = 0;
  while (total < count) {
    const uint64_t run = in.read_varint();
    HIA_REQUIRE(run >= 1 && run <= count - total, "rle run overflows count");
    (void)in.read_span(value_bytes);
    total += run;
  }
}

}  // namespace

// ---------------------------------------------------------------- Raw ----

std::vector<std::byte> RawCodec::encode_payload(
    std::span<const double> values) const {
  std::vector<std::byte> out(values.size() * sizeof(double));
  if (!out.empty()) std::memcpy(out.data(), values.data(), out.size());
  return out;
}

std::vector<double> RawCodec::decode_payload(std::span<const std::byte> payload,
                                             size_t count, double) const {
  HIA_REQUIRE(payload.size() % sizeof(double) == 0 &&
                  payload.size() / sizeof(double) == count,
              "raw payload size mismatch");
  std::vector<double> out(count);
  if (count > 0) std::memcpy(out.data(), payload.data(), payload.size());
  return out;
}

// ---------------------------------------------------------------- Rle ----

std::vector<std::byte> RleCodec::encode_payload(
    std::span<const double> values) const {
  std::vector<std::byte> out;
  size_t i = 0;
  while (i < values.size()) {
    const uint64_t bits = bits_of(values[i]);
    size_t run = 1;
    while (i + run < values.size() && bits_of(values[i + run]) == bits) {
      ++run;
    }
    append_varint(out, run);
    append_u64(out, bits);
    i += run;
  }
  return out;
}

std::vector<double> RleCodec::decode_payload(std::span<const std::byte> payload,
                                             size_t count, double) const {
  PayloadReader in{payload};
  check_run_total(in, count, sizeof(uint64_t));
  std::vector<double> out;
  out.reserve(count);
  while (out.size() < count) {
    const uint64_t run = in.read_varint();
    HIA_REQUIRE(run >= 1 && run <= count - out.size(),
                "rle run overflows value count");
    const double v = double_of(in.read_u64());
    out.insert(out.end(), static_cast<size_t>(run), v);
  }
  in.expect_consumed();
  return out;
}

// -------------------------------------------------------- DeltaVarint ----

namespace {
// Integral-path eligibility: finite integers far enough from the int64
// edge that first differences cannot overflow.
constexpr double kDeltaMax = 2305843009213693952.0;  // 2^61

bool delta_eligible(double v) {
  return std::isfinite(v) && v == std::floor(v) && std::fabs(v) <= kDeltaMax;
}

constexpr uint8_t kDeltaModeRaw = 0;
constexpr uint8_t kDeltaModeVarint = 1;
}  // namespace

std::vector<std::byte> DeltaVarintCodec::encode_payload(
    std::span<const double> values) const {
  bool integral = true;
  for (const double v : values) {
    if (!delta_eligible(v)) {
      integral = false;
      break;
    }
  }

  std::vector<std::byte> out;
  if (!integral) {
    out.push_back(static_cast<std::byte>(kDeltaModeRaw));
    const size_t at = out.size();
    out.resize(at + values.size() * sizeof(double));
    std::memcpy(out.data() + at, values.data(),
                values.size() * sizeof(double));
    return out;
  }

  out.push_back(static_cast<std::byte>(kDeltaModeVarint));
  int64_t prev = 0;
  for (const double v : values) {
    const auto k = static_cast<int64_t>(v);
    append_varint(out, zigzag(k - prev));
    prev = k;
  }
  return out;
}

std::vector<double> DeltaVarintCodec::decode_payload(
    std::span<const std::byte> payload, size_t count, double) const {
  PayloadReader in{payload};
  const uint8_t mode = in.read_u8();
  std::vector<double> out;
  if (mode == kDeltaModeRaw) {
    HIA_REQUIRE(in.remaining() / sizeof(double) >= count,
                "payload truncated");
    const auto raw = in.read_span(count * sizeof(double));
    out.resize(count);
    if (count > 0) std::memcpy(out.data(), raw.data(), raw.size());
  } else if (mode == kDeltaModeVarint) {
    // Every value costs at least one varint byte.
    HIA_REQUIRE(in.remaining() >= count, "payload truncated");
    out.reserve(count);
    int64_t prev = 0;
    for (size_t i = 0; i < count; ++i) {
      prev += unzigzag(in.read_varint());
      out.push_back(static_cast<double>(prev));
    }
  } else {
    throw Error("delta payload has unknown mode byte");
  }
  in.expect_consumed();
  return out;
}

// ---------------------------------------------------- QuantizeShuffle ----

namespace {
constexpr uint8_t kQuantModeShuffle8 = 0;  // lossless byte-shuffle
constexpr uint8_t kQuantModeQuantized = 1;

// |x / step| above this cannot be rounded into an int64 safely.
constexpr double kQuantMax = 4.0e18;

size_t bytes_for_range(uint64_t range) {
  size_t b = 0;
  while (range != 0) {
    ++b;
    range >>= 8;
  }
  return b;
}

constexpr uint8_t kPlaneRaw = 0;
constexpr uint8_t kPlaneRle = 1;

/// Plane-major shuffle with per-plane byte-RLE: each plane b holds byte b
/// of every word, emitted either verbatim or run-length coded, whichever
/// is smaller. Smooth fields quantize to slowly-varying offsets whose
/// high-order planes are near-constant and collapse to a handful of runs;
/// noisy low-order planes stay verbatim, so a plane never inflates.
void append_planes(std::vector<std::byte>& out,
                   const std::vector<uint64_t>& words, size_t width) {
  const size_t n = words.size();
  std::vector<std::byte> plane(n);
  std::vector<std::byte> rle;
  for (size_t b = 0; b < width; ++b) {
    for (size_t i = 0; i < n; ++i) {
      plane[i] = static_cast<std::byte>((words[i] >> (8 * b)) & 0xff);
    }
    rle.clear();
    size_t i = 0;
    while (i < n && rle.size() < n) {
      const std::byte v = plane[i];
      size_t run = 1;
      while (i + run < n && plane[i + run] == v) ++run;
      append_varint(rle, run);
      rle.push_back(v);
      i += run;
    }
    if (i == n && rle.size() < n) {
      out.push_back(static_cast<std::byte>(kPlaneRle));
      append_varint(out, rle.size());
      out.insert(out.end(), rle.begin(), rle.end());
    } else {
      out.push_back(static_cast<std::byte>(kPlaneRaw));
      out.insert(out.end(), plane.begin(), plane.end());
    }
  }
}

std::vector<uint64_t> read_planes(PayloadReader& in, size_t n, size_t width) {
  // Words are allocated only once a plane has proven it encodes n entries.
  std::vector<uint64_t> words;
  std::vector<std::byte> plane;
  for (size_t b = 0; b < width; ++b) {
    const uint8_t flag = in.read_u8();
    if (flag == kPlaneRaw) {
      const auto s = in.read_span(n);
      plane.assign(s.begin(), s.end());
    } else if (flag == kPlaneRle) {
      const uint64_t len = in.read_varint();
      PayloadReader runs{in.read_span(static_cast<size_t>(len))};
      check_run_total(runs, n, 1);
      plane.resize(n);
      size_t i = 0;
      while (i < n) {
        const uint64_t run = runs.read_varint();
        HIA_REQUIRE(run >= 1 && run <= n - i, "plane rle run overflows");
        const auto v = static_cast<std::byte>(runs.read_u8());
        std::fill(plane.begin() + static_cast<long>(i),
                  plane.begin() + static_cast<long>(i + run), v);
        i += static_cast<size_t>(run);
      }
      runs.expect_consumed();
    } else {
      throw Error("quantize plane has unknown flag byte");
    }
    words.resize(n);
    for (size_t i = 0; i < n; ++i) {
      words[i] |= static_cast<uint64_t>(plane[i]) << (8 * b);
    }
  }
  words.resize(n);  // width 0: every offset is zero
  return words;
}
}  // namespace

QuantizeShuffleCodec::QuantizeShuffleCodec(double bound) : bound_(bound) {
  HIA_REQUIRE(std::isfinite(bound) && bound >= 0.0,
              "quantize error bound must be finite and >= 0");
}

std::string QuantizeShuffleCodec::name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "quantize:%g", bound_);
  return buf;
}

std::vector<std::byte> QuantizeShuffleCodec::encode_payload(
    std::span<const double> values) const {
  std::vector<std::byte> out;

  if (bound_ == 0.0) {
    out.push_back(static_cast<std::byte>(kQuantModeShuffle8));
    std::vector<uint64_t> words(values.size());
    for (size_t i = 0; i < values.size(); ++i) words[i] = bits_of(values[i]);
    append_planes(out, words, sizeof(double));
    return out;
  }

  const double step = 2.0 * bound_;
  std::vector<int64_t> ks(values.size(), 0);
  // index -> raw bits of values the quantizer cannot represent within the
  // bound (non-finite, overflow, or reconstruction check failure).
  std::vector<std::pair<uint64_t, uint64_t>> exceptions;
  bool any_quantized = false;
  int64_t k_min = 0, k_max = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double x = values[i];
    bool ok = std::isfinite(x) && std::fabs(x / step) <= kQuantMax;
    int64_t k = 0;
    if (ok) {
      k = std::llround(x / step);
      // Guarantee the stated bound against floating-point rounding in the
      // reconstruction: any value the round-trip would violate is carried
      // verbatim instead.
      ok = std::fabs(static_cast<double>(k) * step - x) <= bound_;
    }
    if (!ok) {
      exceptions.emplace_back(i, bits_of(x));
      continue;
    }
    ks[i] = k;
    if (!any_quantized || k < k_min) k_min = k;
    if (!any_quantized || k > k_max) k_max = k;
    any_quantized = true;
  }
  if (!any_quantized) k_min = k_max = 0;

  out.push_back(static_cast<std::byte>(kQuantModeQuantized));
  append_varint(out, exceptions.size());
  for (const auto& [index, bits] : exceptions) {
    append_varint(out, index);
    append_u64(out, bits);
  }
  append_u64(out, static_cast<uint64_t>(k_min));

  const uint64_t range =
      static_cast<uint64_t>(k_max) - static_cast<uint64_t>(k_min);
  const size_t width = bytes_for_range(range);
  out.push_back(static_cast<std::byte>(width));

  std::vector<uint64_t> offsets(values.size(), 0);
  for (size_t i = 0; i < values.size(); ++i) {
    offsets[i] = static_cast<uint64_t>(ks[i]) - static_cast<uint64_t>(k_min);
  }
  for (const auto& ex : exceptions) {
    offsets[static_cast<size_t>(ex.first)] = 0;  // placeholder plane entries
  }
  append_planes(out, offsets, width);
  return out;
}

std::vector<double> QuantizeShuffleCodec::decode_payload(
    std::span<const std::byte> payload, size_t count, double param) const {
  PayloadReader in{payload};
  const uint8_t mode = in.read_u8();

  if (mode == kQuantModeShuffle8) {
    const auto words = read_planes(in, count, sizeof(double));
    in.expect_consumed();
    std::vector<double> out(count);
    for (size_t i = 0; i < count; ++i) out[i] = double_of(words[i]);
    return out;
  }

  HIA_REQUIRE(mode == kQuantModeQuantized,
              "quantize payload has unknown mode byte");
  HIA_REQUIRE(std::isfinite(param) && param > 0.0,
              "quantized frame requires a positive error bound param");
  const double step = 2.0 * param;

  const uint64_t n_exceptions = in.read_varint();
  // Each exception costs at least a varint index byte and 8 value bytes.
  HIA_REQUIRE(n_exceptions <= count &&
                  n_exceptions <= in.remaining() / (1 + sizeof(uint64_t)),
              "more exceptions than values");
  std::vector<std::pair<uint64_t, uint64_t>> exceptions;
  exceptions.reserve(static_cast<size_t>(n_exceptions));
  uint64_t prev_index = 0;
  for (uint64_t e = 0; e < n_exceptions; ++e) {
    const uint64_t index = in.read_varint();
    HIA_REQUIRE(index < count, "exception index out of range");
    HIA_REQUIRE(e == 0 || index > prev_index,
                "exception indices not strictly increasing");
    prev_index = index;
    exceptions.emplace_back(index, in.read_u64());
  }

  const auto k_min = static_cast<int64_t>(in.read_u64());
  const size_t width = in.read_u8();
  HIA_REQUIRE(width <= sizeof(uint64_t), "quantize plane width out of range");
  const auto offsets = read_planes(in, count, width);
  in.expect_consumed();

  std::vector<double> out(count);
  for (size_t i = 0; i < count; ++i) {
    const auto k = static_cast<int64_t>(static_cast<uint64_t>(k_min) +
                                        offsets[i]);
    out[i] = static_cast<double>(k) * step;
  }
  for (const auto& [index, bits] : exceptions) {
    out[static_cast<size_t>(index)] = double_of(bits);
  }
  return out;
}

}  // namespace hia
