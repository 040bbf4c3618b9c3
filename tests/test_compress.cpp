// Unit tests for the data-reduction codecs: lossless round-trips, the
// quantizer's absolute error bound (including non-finite values), frame
// self-description, rejection of truncated / corrupt buffers, and a seeded
// mutation sweep over frames of every codec.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "compress/codecs.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hia {
namespace {

std::vector<double> roundtrip(const Codec& codec,
                              const std::vector<double>& values) {
  const std::vector<std::byte> frame = codec.encode(values);
  EXPECT_TRUE(is_encoded_frame(frame));
  EXPECT_EQ(frame_value_count(frame), values.size());
  return decode_frame(frame, values.size());
}

/// Bit-exact comparison: distinguishes -0.0 from 0.0 and treats any NaN
/// payload as significant.
void expect_bit_exact(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &a[i], 8);
    std::memcpy(&bb, &b[i], 8);
    EXPECT_EQ(ba, bb) << "index " << i;
  }
}

std::vector<double> awkward_values() {
  return {0.0,
          -0.0,
          1.0,
          -1.0,
          3.141592653589793,
          -2.5e-308,  // subnormal territory
          1.7e308,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::denorm_min(),
          42.0};
}

TEST(RawCodec, RoundTripsBitExact) {
  RawCodec codec;
  expect_bit_exact(awkward_values(), roundtrip(codec, awkward_values()));
  EXPECT_TRUE(roundtrip(codec, {}).empty());
}

TEST(RleCodec, RoundTripsBitExact) {
  RleCodec codec;
  std::vector<double> labels;
  for (int run = 0; run < 7; ++run) {
    for (int i = 0; i < 1 + run * 13; ++i) {
      labels.push_back(static_cast<double>(run % 3));
    }
  }
  expect_bit_exact(labels, roundtrip(codec, labels));
  expect_bit_exact(awkward_values(), roundtrip(codec, awkward_values()));
  EXPECT_TRUE(roundtrip(codec, {}).empty());
}

TEST(RleCodec, CompressesConstantRuns) {
  RleCodec codec;
  const std::vector<double> labels(4096, 7.0);
  const auto frame = codec.encode(labels);
  EXPECT_LT(frame.size(), labels.size() * sizeof(double) / 100);
}

TEST(DeltaVarintCodec, RoundTripsSortedIds) {
  DeltaVarintCodec codec;
  std::vector<double> ids;
  uint64_t v = 5;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(static_cast<double>(v));
    v += static_cast<uint64_t>(1 + (i % 17));
  }
  expect_bit_exact(ids, roundtrip(codec, ids));
  const auto frame = codec.encode(ids);
  EXPECT_LT(frame.size(), ids.size() * sizeof(double) / 2);
}

TEST(DeltaVarintCodec, FallsBackLosslesslyOnNonIntegral) {
  DeltaVarintCodec codec;
  expect_bit_exact(awkward_values(), roundtrip(codec, awkward_values()));
}

TEST(QuantizeShuffleCodec, ZeroBoundIsBitExact) {
  QuantizeShuffleCodec codec(0.0);
  EXPECT_EQ(codec.error_bound(), 0.0);
  expect_bit_exact(awkward_values(), roundtrip(codec, awkward_values()));
}

TEST(QuantizeShuffleCodec, RespectsAbsoluteErrorBound) {
  // Randomized fields spanning several magnitudes, plus non-finite values
  // that must be preserved exactly.
  std::mt19937_64 rng(12345);
  for (const double bound : {1e-2, 1e-6, 1e-12}) {
    QuantizeShuffleCodec codec(bound);
    EXPECT_EQ(codec.error_bound(), bound);
    std::vector<double> values;
    std::uniform_real_distribution<double> unit(-1.0, 1.0);
    for (int i = 0; i < 5000; ++i) {
      const double scale = std::pow(10.0, static_cast<int>(rng() % 7) - 3);
      values.push_back(unit(rng) * scale);
    }
    values.push_back(std::numeric_limits<double>::infinity());
    values.push_back(-std::numeric_limits<double>::infinity());
    values.push_back(std::numeric_limits<double>::quiet_NaN());
    values.push_back(1.9e306);  // overflows the quantizer -> exception list

    const std::vector<double> decoded = roundtrip(codec, values);
    ASSERT_EQ(decoded.size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      if (std::isfinite(values[i])) {
        EXPECT_LE(std::abs(values[i] - decoded[i]), bound) << "index " << i;
      } else {
        uint64_t ba = 0, bb = 0;
        std::memcpy(&ba, &values[i], 8);
        std::memcpy(&bb, &decoded[i], 8);
        EXPECT_EQ(ba, bb) << "non-finite index " << i;
      }
    }
  }
}

TEST(QuantizeShuffleCodec, ReducesSmoothFieldSize) {
  // A smooth field quantized at 1e-6 needs few offset bytes per value.
  QuantizeShuffleCodec codec(1e-6);
  std::vector<double> field;
  for (int i = 0; i < 8192; ++i) {
    field.push_back(std::sin(0.001 * i) + 0.1 * std::cos(0.01 * i));
  }
  const auto frame = codec.encode(field);
  EXPECT_LT(frame.size() * 2, field.size() * sizeof(double));
}

TEST(MakeCodec, ParsesSpecsAndRoundTrips) {
  EXPECT_EQ(make_codec("raw")->kind(), CodecKind::kRaw);
  EXPECT_EQ(make_codec("rle")->kind(), CodecKind::kRle);
  EXPECT_EQ(make_codec("delta")->kind(), CodecKind::kDeltaVarint);
  const auto q = make_codec("quantize:1e-6");
  EXPECT_EQ(q->kind(), CodecKind::kQuantizeShuffle);
  EXPECT_DOUBLE_EQ(q->error_bound(), 1e-6);
  EXPECT_THROW((void)make_codec("zstd"), Error);
  EXPECT_THROW((void)make_codec("quantize:-1"), Error);
  EXPECT_THROW((void)make_codec("quantize:bogus"), Error);
  // Every built-in spec builds a codec whose frames decode_frame reads
  // back exactly.
  const std::vector<double> values = {1.0, 1.0, 1.0, 2.0, -7.0, 0.5, 1e300};
  for (const std::string spec : {"raw", "rle", "delta", "quantize:0"}) {
    const auto codec = make_codec(spec);
    EXPECT_EQ(decode_frame(codec->encode(values), values.size()), values)
        << spec;
  }
}

TEST(Frame, RejectsTruncatedAndCorruptBuffers) {
  QuantizeShuffleCodec codec(1e-6);
  std::vector<double> values;
  for (int i = 0; i < 257; ++i) values.push_back(0.25 * i);
  const std::vector<std::byte> frame = codec.encode(values);

  // Too short to even hold a header.
  std::vector<std::byte> stub(frame.begin(), frame.begin() + 8);
  EXPECT_FALSE(is_encoded_frame(stub));
  EXPECT_THROW((void)decode_frame(stub), Error);

  // Header intact but payload truncated at several depths.
  for (const size_t keep : {frame.size() - 1, frame.size() / 2, size_t{33}}) {
    std::vector<std::byte> cut(frame.begin(),
                               frame.begin() + static_cast<long>(keep));
    EXPECT_THROW((void)decode_frame(cut), Error);
  }

  // Bad magic and unsupported version must be rejected outright.
  std::vector<std::byte> bad_magic = frame;
  bad_magic[0] = std::byte{0xFF};
  EXPECT_FALSE(is_encoded_frame(bad_magic));
  EXPECT_THROW((void)decode_frame(bad_magic), Error);
  std::vector<std::byte> bad_version = frame;
  bad_version[4] = std::byte{99};
  EXPECT_THROW((void)decode_frame(bad_version), Error);

  // Unknown codec kind in an otherwise valid header.
  std::vector<std::byte> bad_kind = frame;
  bad_kind[5] = std::byte{200};
  EXPECT_THROW((void)decode_frame(bad_kind), Error);

  // Corrupt interior payload bytes: decode must throw, never crash or
  // return silently wrong sizes. (Flipping offset bytes may legally decode
  // to different values for a lossy codec, so corrupt the structured
  // leading section where validation applies.)
  for (const size_t at : {size_t{32}, size_t{40}}) {
    std::vector<std::byte> corrupt = frame;
    corrupt[at] = std::byte{0xEE};
    try {
      const auto decoded = decode_frame(corrupt);
      EXPECT_EQ(decoded.size(), values.size());
    } catch (const Error&) {
      // Rejection is the expected outcome.
    }
  }
}

TEST(Frame, DeltaAndRleRejectTruncation) {
  DeltaVarintCodec delta;
  RleCodec rle;
  std::vector<double> ids;
  for (int i = 0; i < 300; ++i) ids.push_back(static_cast<double>(i * 3));
  for (const Codec* codec : {static_cast<const Codec*>(&delta),
                             static_cast<const Codec*>(&rle)}) {
    const auto frame = codec->encode(ids);
    std::vector<std::byte> cut(frame.begin(),
                               frame.begin() + static_cast<long>(40));
    EXPECT_THROW((void)decode_frame(cut), Error);
  }
}

TEST(Frame, MutatedFramesOfEveryCodecFailOnlyAsHiaError) {
  // Header counts are untrusted: every decoder must bound them by the bytes
  // actually present before allocating, so a forged count, a flipped bit,
  // a truncation or trailing junk ends in hia::Error — never length_error,
  // bad_alloc or a crash.
  std::vector<double> smooth;
  std::vector<double> ids;
  std::vector<double> runs;
  for (int i = 0; i < 300; ++i) {
    smooth.push_back(std::sin(0.05 * i) * 100.0 + 0.001 * i);
    ids.push_back(static_cast<double>(i * 3 - 200));
    runs.push_back(static_cast<double>(i / 40));
  }
  std::vector<double> lossy = smooth;
  lossy[17] = std::numeric_limits<double>::quiet_NaN();  // an exception
  const RawCodec raw;
  const RleCodec rle;
  const DeltaVarintCodec delta;
  const QuantizeShuffleCodec lossless(0.0);
  const QuantizeShuffleCodec quantize(1e-3);
  const std::vector<std::vector<std::byte>> frames{
      raw.encode(smooth),      rle.encode(runs),
      delta.encode(ids),       delta.encode(smooth),  // varint and raw modes
      lossless.encode(smooth), quantize.encode(lossy)};

  auto store_u64 = [](std::vector<std::byte>& f, size_t at, uint64_t v) {
    if (f.size() >= at + sizeof(v)) std::memcpy(f.data() + at, &v, sizeof(v));
  };
  const std::array<uint64_t, 8> specials{
      0, 1, 299, 301, uint64_t{1} << 32, uint64_t{1} << 61,
      std::numeric_limits<uint64_t>::max(), 0x8080808080808080ULL};
  constexpr size_t kCountAt = 8;         // header: value count
  constexpr size_t kPayloadSizeAt = 24;  // header: payload bytes
  constexpr size_t kHeader = 32;
  SplitMix64 rng(0xc0dec);
  size_t accepted = 0;
  for (int iter = 0; iter < 30000; ++iter) {
    std::vector<std::byte> m =
        frames[static_cast<size_t>(iter) % frames.size()];
    const uint64_t draw = rng.next();
    const size_t at = (draw >> 8) % m.size();
    const uint64_t special = specials[(draw >> 40) % specials.size()];
    bool fix_size = false;
    switch (draw % 6) {
      case 0:
        m[at] ^= static_cast<std::byte>(1u << ((draw >> 32) % 8));
        break;
      case 1:
        m[at] = static_cast<std::byte>(draw >> 48);
        break;
      case 2:
        store_u64(m, kCountAt, special);
        break;
      case 3:  // an 8-byte window of the payload
        store_u64(m, kHeader + (draw >> 8) % (m.size() - kHeader), special);
        break;
      case 4:
        m.resize(kHeader + (draw >> 8) % (m.size() - kHeader));
        fix_size = true;
        break;
      default:
        m.resize(m.size() + 1 + (draw >> 8) % 8,
                 static_cast<std::byte>(draw >> 48));
        fix_size = true;
        break;
    }
    // Half the resized frames keep a consistent header, so the decoders
    // themselves (not just the frame size check) see the bad payload.
    if (fix_size && ((draw >> 60) & 1) != 0) {
      store_u64(m, kPayloadSizeAt, m.size() - kHeader);
    }
    try {
      const std::vector<double> out = decode_frame(m);
      ++accepted;
      ASSERT_EQ(out.size(), frame_value_count(m));
    } catch (const Error&) {
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iter << " escaped as non-hia::Error: "
             << e.what();
    }
  }
  // Bit flips inside raw values or quantized planes still decode.
  EXPECT_GT(accepted, 1000u);
}

/// A well-formed frame of `count` zeros, built by hand so that `count` can
/// exceed any real buffer: "rle" is one run, "quantize:0" eight byte planes
/// of one run each, "quantize:1e-3" a quantized frame of plane width 0.
std::vector<std::byte> zeros_frame(const std::string& spec, uint64_t count) {
  std::vector<std::byte> payload;
  const auto put_u64 = [&](uint64_t v) {
    const size_t at = payload.size();
    payload.resize(at + sizeof(v));
    std::memcpy(payload.data() + at, &v, sizeof(v));
  };
  const auto put_varint = [&](uint64_t v) {
    for (; v >= 0x80; v >>= 7) {
      payload.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    }
    payload.push_back(static_cast<std::byte>(v));
  };
  const auto codec = make_codec(spec);
  if (codec->kind() == CodecKind::kRle) {
    put_varint(count);
    put_u64(0);
  } else if (codec->param() == 0.0) {
    payload.push_back(std::byte{0});  // byte-shuffle mode
    std::vector<std::byte> runs;
    std::swap(payload, runs);
    put_varint(count);
    payload.push_back(std::byte{0});
    std::swap(payload, runs);
    for (int plane = 0; plane < 8; ++plane) {
      payload.push_back(std::byte{1});  // run-length plane
      put_varint(runs.size());
      payload.insert(payload.end(), runs.begin(), runs.end());
    }
  } else {
    payload.push_back(std::byte{1});  // quantized mode
    put_varint(0);                     // no exceptions
    put_u64(0);                        // k_min
    payload.push_back(std::byte{0});  // plane width 0
  }
  std::vector<std::byte> frame = codec->encode({});
  frame.resize(32);  // keep the header only
  std::memcpy(frame.data() + 8, &count, sizeof(count));
  const uint64_t payload_bytes = payload.size();
  std::memcpy(frame.data() + 24, &payload_bytes, sizeof(payload_bytes));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

TEST(Frame, HugeClaimedCountFailsAgainstTheExpectedCount) {
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  for (const std::string spec : {"rle", "quantize:0", "quantize:1e-3"}) {
    SCOPED_TRACE(spec);
    // The builder makes frames the decoder accepts as they are...
    EXPECT_EQ(decode_frame(zeros_frame(spec, 5), 5),
              std::vector<double>(5, 0.0));
    // ...so only the expected count stands between 2^40 values and the
    // allocator: the mismatch must surface as hia::Error, not bad_alloc
    // or length_error.
    const std::vector<std::byte> huge = zeros_frame(spec, kHuge);
    EXPECT_EQ(frame_value_count(huge), kHuge);
    try {
      (void)decode_frame(huge, 5);
      ADD_FAILURE() << "a frame claiming 2^40 values decoded";
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "escaped as non-hia::Error: " << e.what();
    }
  }
}

}  // namespace
}  // namespace hia
