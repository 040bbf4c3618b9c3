// trace_lint — validates the obs layer's two exported artifacts:
//
//   trace_lint <trace.json>          Chrome trace-event JSON: every 'B'
//                                    event has a matching, correctly
//                                    nested 'E' on its (pid, tid) track.
//   trace_lint --summary <file>      RunSummary JSON (hia-run-summary-v1):
//                                    schema-valid, with at least one
//                                    histogram (p50/p99) and one gauge
//                                    time series.
//
// Exit status: 0 when the artifact is well-formed, 1 otherwise, 2 on usage
// or I/O errors.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/run_summary.hpp"

namespace {

bool read_file(const char* path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

int lint_trace(const char* path, const std::string& text) {
  const hia::obs::TraceValidation v =
      hia::obs::validate_chrome_trace_json(text);
  if (!v.ok) {
    std::fprintf(stderr, "trace_lint: %s: INVALID: %s\n", path,
                 v.error.c_str());
    return 1;
  }
  std::printf("trace_lint: %s: OK (%zu events, %zu spans)\n", path, v.events,
              v.spans);
  return 0;
}

int lint_summary(const char* path, const std::string& text) {
  const hia::obs::SummaryValidation v =
      hia::obs::validate_run_summary_json(text);
  if (!v.ok) {
    std::fprintf(stderr, "trace_lint: %s: INVALID: %s\n", path,
                 v.error.c_str());
    return 1;
  }
  // A bench summary without a single distribution or series means the
  // harness was bypassed; treat it as lint failure, not just a warning.
  if (v.histograms == 0) {
    std::fprintf(stderr, "trace_lint: %s: INVALID: no histograms recorded\n",
                 path);
    return 1;
  }
  if (v.series == 0) {
    std::fprintf(stderr,
                 "trace_lint: %s: INVALID: no gauge time series recorded\n",
                 path);
    return 1;
  }
  std::printf(
      "trace_lint: %s: OK (bench %s: %zu metrics, %zu counters, "
      "%zu histograms, %zu series)\n",
      path, v.bench.c_str(), v.metrics, v.counters, v.histograms, v.series);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool summary = false;
  const char* path = nullptr;
  if (argc == 2) {
    path = argv[1];
  } else if (argc == 3 && std::strcmp(argv[1], "--summary") == 0) {
    summary = true;
    path = argv[2];
  } else {
    std::fprintf(stderr,
                 "usage: trace_lint <trace.json>\n"
                 "       trace_lint --summary <summary.json>\n");
    return 2;
  }

  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "trace_lint: cannot open %s\n", path);
    return 2;
  }
  return summary ? lint_summary(path, text) : lint_trace(path, text);
}
