// Data-reduction codecs for the staging/transport hot path (paper §V: the
// in-transit economics are gated on the bytes the in-situ ranks push over
// the Gemini network, so reducing wire volume buys modeled transfer time).
//
// A Codec turns a double array — the universal payload currency of this
// framework's publish/pull path — into a self-describing *frame*:
//
//   [ 32-byte header: magic, version, kind, count, param, payload size ]
//   [ codec-specific payload ]
//
// The header makes decode stateless: any consumer holding frame bytes can
// reconstruct the values via decode_frame() without out-of-band metadata,
// which is what lets TaskContext::pull_doubles decode transparently on the
// bucket side. Corrupt or truncated frames are rejected with hia::Error.
//
// Built-in codecs (see codecs.hpp):
//   raw       — identity baseline (memcpy)
//   rle       — run-length over bit-identical values (segmentation labels)
//   delta     — zig-zag delta varint for integral payloads (tree arcs,
//               sorted index lists); bit-exact raw fallback otherwise
//   quantize  — fixed-point quantization under an absolute error bound,
//               byte-shuffled fixed-width planes; bound 0 = lossless
//               byte-shuffle of the raw IEEE doubles
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace hia {

/// Wire identifier of a codec; stored in every frame header.
enum class CodecKind : uint8_t {
  kRaw = 0,
  kRle = 1,
  kDeltaVarint = 2,
  kQuantizeShuffle = 3,
};

const char* to_string(CodecKind kind);

class Codec {
 public:
  virtual ~Codec() = default;

  [[nodiscard]] virtual CodecKind kind() const = 0;
  /// Human-readable name including parameters, e.g. "quantize:1e-06".
  [[nodiscard]] virtual std::string name() const = 0;
  /// Codec parameter carried in the frame header (the absolute error bound
  /// for quantize; 0 for the parameterless codecs).
  [[nodiscard]] virtual double param() const { return 0.0; }
  /// Maximum |x - decode(encode(x))| this codec may introduce (0 =
  /// lossless). Non-finite values are always preserved exactly.
  [[nodiscard]] virtual double error_bound() const { return 0.0; }

  /// Encodes `values` into the codec-specific payload (no frame header).
  [[nodiscard]] virtual std::vector<std::byte> encode_payload(
      std::span<const double> values) const = 0;

  /// Decodes a payload produced by encode_payload. `count` and `param` come
  /// from the frame header. Must validate the payload and throw hia::Error
  /// on any inconsistency.
  [[nodiscard]] virtual std::vector<double> decode_payload(
      std::span<const std::byte> payload, size_t count,
      double param) const = 0;

  /// Encodes `values` into a complete self-describing frame.
  [[nodiscard]] std::vector<std::byte> encode(
      std::span<const double> values) const;
};

/// True if `bytes` starts with a well-formed frame header (magic + version).
[[nodiscard]] bool is_encoded_frame(std::span<const std::byte> bytes);

/// Decodes a frame produced by Codec::encode, dispatching on the header's
/// codec kind. Throws hia::Error on truncated, corrupt, or unknown frames.
/// A consumer that knows how many values the frame must hold passes
/// `expected_count`: a header count that disagrees is rejected before any
/// allocation, so a well-formed run-length frame cannot claim a huge count.
[[nodiscard]] std::vector<double> decode_frame(
    std::span<const std::byte> bytes,
    std::optional<size_t> expected_count = std::nullopt);

/// Number of logical (pre-encode) doubles recorded in a frame header.
[[nodiscard]] size_t frame_value_count(std::span<const std::byte> bytes);

/// Builds a codec from a spec string: "raw", "rle", "delta", or
/// "quantize:<abs error bound>" (e.g. "quantize:1e-6"; "quantize" alone
/// means bound 0 = lossless shuffle). Throws hia::Error on unknown specs.
[[nodiscard]] std::shared_ptr<const Codec> make_codec(const std::string& spec);

}  // namespace hia
