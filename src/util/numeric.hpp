// Numeric conversion helpers shared by the serialized-payload decoders and
// the command-line spec grammars.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace hia {

/// Round-to-nearest conversion for integral fields carried inside double
/// payloads (ids, counts, box bounds). Structured summaries travel the
/// staging path as double arrays, and a lossy staging codec may perturb
/// them by up to its error bound; a truncating static_cast would then be
/// off by one (e.g. 12345 decoded as 12344.9999994). Rounding recovers the
/// exact integer for any perturbation below 0.5 — far above every usable
/// quantization bound.
template <typename T>
[[nodiscard]] T round_to(double v) {
  return static_cast<T>(std::llround(v));
}

/// Reads an integral field of a peer's payload (a count, an index, a
/// flag), requiring it to round into [0, end). The range is checked on
/// the double, before any conversion or arithmetic: the bytes may hold
/// NaN, infinities or values beyond size_t. A header count is bounded by
/// the doubles still present after the header, so that no product of
/// counts can overflow and no allocation exceeds the payload.
[[nodiscard]] inline size_t rounded_below(double v, size_t end,
                                          const char* what) {
  HIA_REQUIRE(v > -0.5 && v < static_cast<double>(end) - 0.5, what);
  return round_to<size_t>(v);
}

/// The bytes of a double array: staged blocks, result blobs and
/// byte-level collectives.
[[nodiscard]] inline std::vector<std::byte> to_bytes(
    std::span<const double> values) {
  std::vector<std::byte> out(values.size_bytes());
  if (!out.empty()) std::memcpy(out.data(), values.data(), out.size());
  return out;
}

/// The doubles of a blob written by to_bytes.
[[nodiscard]] inline std::vector<double> to_doubles(
    std::span<const std::byte> bytes) {
  HIA_REQUIRE(bytes.size() % sizeof(double) == 0,
              "payload is not a whole number of doubles");
  std::vector<double> out(bytes.size() / sizeof(double));
  if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

/// Parses a finite number with an optional k/m/g (1024-based) suffix, the
/// shorthand shared by the `--overload`, `--faults` and `hia_plan --set`
/// grammars ("4k" = 4096). Returns false, leaving `*out` alone, unless
/// the whole text is one number and at most one suffix.
[[nodiscard]] inline bool parse_scaled(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) return false;
  switch (*end) {
    case 'k': case 'K': value *= 1024.0; ++end; break;
    case 'm': case 'M': value *= 1024.0 * 1024.0; ++end; break;
    case 'g': case 'G': value *= 1024.0 * 1024.0 * 1024.0; ++end; break;
    default: break;
  }
  if (*end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Parses a duration in seconds: one plain number, finite and inside
/// [0, 1e6]. Returns false, leaving `*out` alone, otherwise. The bound
/// keeps every accepted value convertible to a std::chrono duration's
/// integer ticks (sleep_for, wait_for), where an infinite or huge double
/// is undefined behaviour.
[[nodiscard]] inline bool parse_seconds(const std::string& text,
                                        double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (*end != '\0' || !(value >= 0.0 && value <= 1e6)) return false;
  *out = value;
  return true;
}

/// Parses a count (a parse_scaled number) into an integer field. Returns
/// false, leaving `*out` alone, unless the value is whole and inside
/// [min, max of T]: the checks a bare static_cast from double skips (an
/// out-of-range conversion is undefined behaviour, and a wrapped one
/// silently turns 2^32 + 1 credits into 1).
template <typename T>
[[nodiscard]] bool parse_count(const std::string& text, T* out,
                               std::type_identity_t<T> min = 0) {
  static_assert(std::is_integral_v<T>);
  double v = 0.0;
  if (!parse_scaled(text, &v) || v != std::floor(v) ||
      v < static_cast<double>(min) ||
      v >= std::ldexp(1.0, std::numeric_limits<T>::digits)) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

}  // namespace hia
