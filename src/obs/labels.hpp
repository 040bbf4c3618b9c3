// A small fixed label set for the obs registries (counters and
// histograms): `tenant`, `bucket`, and `site`. Labels replace the
// name-mangling the multi-tenant service used to do ("metric_t3") with
// proper dimensions, so RunSummary can build per-label breakdown tables
// (`"breakdowns": {"metric": {"tenant=3": ...}}`) without string surgery.
//
// The unlabeled instrument (`Labels{}` everywhere) is a distinct series
// from any labeled one: hot paths keep recording into the unlabeled
// aggregate exactly as before (preserving committed baselines) and
// additionally stamp a labeled record when they carry a tenant id.
#pragma once

#include <string>

namespace hia::obs {

struct Labels {
  int tenant = -1;   // -1 = unset
  int bucket = -1;   // -1 = unset
  std::string site{};  // "" = unset

  [[nodiscard]] bool empty() const {
    return tenant < 0 && bucket < 0 && site.empty();
  }

  friend bool operator==(const Labels& a, const Labels& b) {
    return a.tenant == b.tenant && a.bucket == b.bucket && a.site == b.site;
  }

  friend bool operator<(const Labels& a, const Labels& b) {
    if (a.tenant != b.tenant) return a.tenant < b.tenant;
    if (a.bucket != b.bucket) return a.bucket < b.bucket;
    return a.site < b.site;
  }

  /// Canonical registry key / human-readable form: `tenant=3,bucket=0`.
  /// Empty string for the unlabeled set.
  [[nodiscard]] std::string key() const {
    std::string out;
    auto append = [&out](const std::string& part) {
      if (!out.empty()) out += ',';
      out += part;
    };
    if (tenant >= 0) append("tenant=" + std::to_string(tenant));
    if (bucket >= 0) append("bucket=" + std::to_string(bucket));
    if (!site.empty()) append("site=" + site);
    return out;
  }
};

}  // namespace hia::obs
