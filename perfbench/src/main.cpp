// hia_perfbench: runs one workload of the hybrid-pipeline benchmark and
// prints one JSON line with every metric it measured. perfbench/run.py
// builds this binary, runs it, and turns that line into the report.
//
//   hia_perfbench --workload sim-stats|hybrid-topo-viz|staging-flood
//                 --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   hia_perfbench --self-test
//
// Exit codes: 0 all outputs correct, 1 an output check failed, 2 bad
// arguments, 3 a self-test failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "util/log.hpp"

namespace {

using perfbench::Metrics;

void usage() {
  std::fprintf(stderr,
               "usage: hia_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] | --self-test\n");
  std::exit(2);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ",";
    out += quoted(name) + ":{\"value\":" + number(m.value) +
           ",\"unit\":" + quoted(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool self_test_only = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto value = [&]() -> std::string {
      if (a + 1 >= argc) usage();
      return argv[++a];
    };
    if (arg == "--self-test") {
      self_test_only = true;
    } else if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
      have_seconds = options.seconds > 0.0;
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage();
      options.trace = t == "1";
      have_trace = true;
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else {
      usage();
    }
  }

  // The arithmetic and the output checks vouch for every number below, so
  // they are tested on every invocation (a few milliseconds).
  const int failed_self_tests = perfbench::run_self_tests();
  if (failed_self_tests != 0) {
    std::fprintf(stderr, "%d self-test(s) failed\n", failed_self_tests);
    return 3;
  }
  if (self_test_only) {
    std::printf("self-tests passed\n");
    return 0;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) usage();
  const bool campaign = options.workload == "sim-stats" ||
                        options.workload == "hybrid-topo-viz";
  if (!campaign && options.workload != "staging-flood") usage();

  hia::log::set_level(hia::log::Level::kError);
  perfbench::RunResult result;
  try {
    result = campaign ? perfbench::run_campaign(options)
                      : perfbench::run_flood(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }

  std::string failures = "[";
  for (const std::string& f : result.failures) {
    if (failures.size() > 1) failures += ",";
    failures += quoted(f);
  }
  failures += "]";
  std::string samples = "{";
  for (const auto& [name, n] : result.samples) {
    if (samples.size() > 1) samples += ",";
    samples += quoted(name) + ":" + std::to_string(n);
  }
  samples += "}";
  const bool correct = result.failures.empty() && result.failed == 0;
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"build_type\":%s,"
      "\"reps\":%d,\"traced_reps\":%d,\"correct\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"failures\":%s,\"e2e\":%s,\"e2e_traced\":%s,"
      "\"layers\":%s,\"samples\":%s,\"trace_file\":%s}\n",
      quoted(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      quoted(PERFBENCH_BUILD_TYPE).c_str(), result.reps, result.traced_reps,
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), failures.c_str(),
      metrics_json(result.e2e).c_str(),
      metrics_json(result.e2e_traced).c_str(),
      metrics_json(result.layers).c_str(), samples.c_str(),
      quoted(result.trace_file).c_str());
  return correct ? 0 : 1;
}
