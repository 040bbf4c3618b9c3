// Numeric conversion helpers shared by the serialized-payload decoders and
// the command-line spec grammars.
#pragma once

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

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
