#include "compress/codec.hpp"

#include <cstdlib>
#include <cstring>

#include "compress/codecs.hpp"
#include "util/error.hpp"

namespace hia {

namespace {

// Frame header layout (little-endian, 32 bytes):
//   u32  magic "HIAC"
//   u8   version
//   u8   codec kind
//   u16  reserved (0)
//   u64  value count
//   f64  codec param (quantize error bound)
//   u64  payload bytes
constexpr uint32_t kMagic = 0x43414948u;  // "HIAC"
constexpr uint8_t kVersion = 1;
constexpr size_t kHeaderBytes = 32;

template <typename T>
void store_le(std::byte* dst, T value) {
  std::memcpy(dst, &value, sizeof(T));
}

template <typename T>
T load_le(const std::byte* src) {
  T value;
  std::memcpy(&value, src, sizeof(T));
  return value;
}

/// Decodes a payload with the built-in codec `kind`. A stack codec, no
/// lock or allocation: every pulled block passes through here.
std::vector<double> decode_with(CodecKind kind,
                                std::span<const std::byte> payload,
                                size_t count, double param) {
  switch (kind) {
    case CodecKind::kRaw:
      return RawCodec().decode_payload(payload, count, param);
    case CodecKind::kRle:
      return RleCodec().decode_payload(payload, count, param);
    case CodecKind::kDeltaVarint:
      return DeltaVarintCodec().decode_payload(payload, count, param);
    case CodecKind::kQuantizeShuffle:
      return QuantizeShuffleCodec(param).decode_payload(payload, count,
                                                        param);
  }
  throw Error("unknown codec kind in frame: " +
              std::to_string(static_cast<int>(kind)));
}

}  // namespace

const char* to_string(CodecKind kind) {
  switch (kind) {
    case CodecKind::kRaw: return "raw";
    case CodecKind::kRle: return "rle";
    case CodecKind::kDeltaVarint: return "delta";
    case CodecKind::kQuantizeShuffle: return "quantize";
  }
  return "?";
}

std::vector<std::byte> Codec::encode(std::span<const double> values) const {
  const std::vector<std::byte> payload = encode_payload(values);
  std::vector<std::byte> frame(kHeaderBytes + payload.size());
  store_le<uint32_t>(frame.data(), kMagic);
  frame[4] = static_cast<std::byte>(kVersion);
  frame[5] = static_cast<std::byte>(kind());
  store_le<uint16_t>(frame.data() + 6, 0);
  store_le<uint64_t>(frame.data() + 8, values.size());
  store_le<double>(frame.data() + 16, param());
  store_le<uint64_t>(frame.data() + 24, payload.size());
  if (!payload.empty()) {
    std::memcpy(frame.data() + kHeaderBytes, payload.data(), payload.size());
  }
  return frame;
}

bool is_encoded_frame(std::span<const std::byte> bytes) {
  return bytes.size() >= kHeaderBytes &&
         load_le<uint32_t>(bytes.data()) == kMagic &&
         static_cast<uint8_t>(bytes[4]) == kVersion;
}

size_t frame_value_count(std::span<const std::byte> bytes) {
  HIA_REQUIRE(is_encoded_frame(bytes), "not an encoded frame");
  return static_cast<size_t>(load_le<uint64_t>(bytes.data() + 8));
}

std::vector<double> decode_frame(std::span<const std::byte> bytes,
                                 std::optional<size_t> expected_count) {
  HIA_REQUIRE(bytes.size() >= kHeaderBytes,
              "encoded frame truncated before header end");
  HIA_REQUIRE(load_le<uint32_t>(bytes.data()) == kMagic,
              "encoded frame magic mismatch");
  HIA_REQUIRE(static_cast<uint8_t>(bytes[4]) == kVersion,
              "unsupported frame version");
  const auto kind = static_cast<CodecKind>(bytes[5]);
  const auto count = static_cast<size_t>(load_le<uint64_t>(bytes.data() + 8));
  HIA_REQUIRE(!expected_count || count == *expected_count,
              "frame value count disagrees with the expected count");
  const double param = load_le<double>(bytes.data() + 16);
  const auto payload_bytes =
      static_cast<size_t>(load_le<uint64_t>(bytes.data() + 24));
  HIA_REQUIRE(bytes.size() - kHeaderBytes == payload_bytes,
              "frame payload size mismatch");

  std::vector<double> out =
      decode_with(kind, bytes.subspan(kHeaderBytes), count, param);
  HIA_REQUIRE(out.size() == count, "decoded value count mismatch");
  return out;
}

std::shared_ptr<const Codec> make_codec(const std::string& spec) {
  std::string name = spec;
  double param = 0.0;
  if (const size_t colon = spec.find(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    const std::string arg = spec.substr(colon + 1);
    char* end = nullptr;
    param = std::strtod(arg.c_str(), &end);
    HIA_REQUIRE(end != nullptr && *end == '\0' && !arg.empty(),
                "bad codec parameter in spec: " + spec);
  }
  if (name == "raw") return std::make_shared<const RawCodec>();
  if (name == "rle") return std::make_shared<const RleCodec>();
  if (name == "delta") return std::make_shared<const DeltaVarintCodec>();
  if (name == "quantize") {
    return std::make_shared<const QuantizeShuffleCodec>(param);
  }
  throw Error("unknown codec spec: " + spec +
              " (try raw, rle, delta, quantize:<bound>)");
}

}  // namespace hia
