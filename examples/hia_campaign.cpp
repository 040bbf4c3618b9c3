// hia_campaign — the command-line driver for a full hybrid analysis
// campaign: configure the simulation, the staging area, and any subset of
// the analysis pipelines from the command line, run, and get a paper-style
// report.
//
// Examples:
//   hia_campaign --steps 10 --analyses stats,viz,topo
//   hia_campaign --grid 64x48x32 --ranks 2x2x2 --buckets 8
//                --analyses all --frequency 2 --output-dir campaign_out
//   hia_campaign --steps 5 --trace trace.json --summary summary.json
//   hia_campaign --list
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>
#include <sys/stat.h>

#include "core/contingency_pipeline.hpp"
#include "core/correlation_pipeline.hpp"
#include "core/feature_stats_pipeline.hpp"
#include "core/framework.hpp"
#include "core/histogram_pipeline.hpp"
#include "core/isosurface_pipeline.hpp"
#include "core/report.hpp"
#include "core/stats_pipeline.hpp"
#include "core/timeseries_pipeline.hpp"
#include "core/topology_pipeline.hpp"
#include "core/viz_pipeline.hpp"
#include "obs/attrib.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/run_summary.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "runtime/fault.hpp"
#include "service/campaign_service.hpp"
#include "util/table.hpp"

namespace {

using namespace hia;

struct Options {
  std::array<int64_t, 3> grid{48, 32, 24};
  std::array<int, 3> ranks{2, 2, 2};
  long steps = 5;
  int buckets = 4;
  int servers = 2;
  int replicas = 2;
  int frequency = 1;
  std::string analyses = "stats,viz,topo";
  std::string codec;
  std::string faults;
  uint64_t fault_seed = 0;
  std::string overload;
  std::string steer;
  int tenants = 1;
  std::string weights;
  int pool_min = 0;
  int pool_max = 0;
  std::string output_dir;
  std::string trace_path;
  std::string summary_path;
  std::string events_path;
  bool attrib = false;
  double status_interval_s = 0.0;
  double sample_hz = 0.0;
  bool list_only = false;
};

bool parse_triple(const char* arg, int64_t out[3]) {
  long long a, b, c;
  if (std::sscanf(arg, "%lldx%lldx%lld", &a, &b, &c) != 3) return false;
  out[0] = a;
  out[1] = b;
  out[2] = c;
  return true;
}

[[noreturn]] void usage(int code) {
  std::printf(
      "usage: hia_campaign [options]\n"
      "  --grid NXxNYxNZ     global grid (default 48x32x24)\n"
      "  --ranks RXxRYxRZ    simulation decomposition (default 2x2x2)\n"
      "  --steps N           timesteps (default 5)\n"
      "  --buckets N         staging buckets (default 4)\n"
      "  --servers N         DataSpaces servers (default 2)\n"
      "  --replicas R        object-store replication factor, clamped to\n"
      "                      [1, servers]; committed objects survive R-1\n"
      "                      crash-server losses via read-repair (default 2)\n"
      "  --frequency N       run analyses every Nth step (default 1)\n"
      "  --analyses a,b,...  comma list or 'all' (default stats,viz,topo)\n"
      "  --codec SPEC        staging codec: raw, rle, delta, or\n"
      "                      quantize:<abs error bound> (default: none)\n"
      "  --faults SPEC       fault-injection plan, comma-separated, e.g.\n"
      "                      drop=0.05,task-fail=0.1,crash-server=1@3\n"
      "                      (directives: drop/corrupt/delay/task-fail/\n"
      "                      kill-bucket/slow-bucket/crash-bucket/\n"
      "                      crash-server/overload/credit-starve/\n"
      "                      tenant-hog/attempts/backoff/shed/seed;\n"
      "                      crash-bucket=B@N and crash-server=S@N are\n"
      "                      ungraceful: no drain, in-flight work seized;\n"
      "                      see docs/FAILURE_MODEL.md)\n"
      "  --fault-seed N      override the fault plan's seed (same seed =>\n"
      "                      same injected faults, same resilience block)\n"
      "  --overload SPEC     overload-control budgets, comma-separated, e.g.\n"
      "                      queue-bytes=4m,queue-depth=32,credits=16\n"
      "                      (directives: queue-bytes/queue-depth/\n"
      "                      store-bytes/low/high/credits/admit-wait/\n"
      "                      defer-max; see docs/FAILURE_MODEL.md)\n"
      "  --steer POLICY      in-transit steering policy: in-transit\n"
      "                      (default), adaptive, in-situ, or shed\n"
      "  --tenants N         run N concurrent campaigns on one shared\n"
      "                      staging area: weighted fair-share scheduling,\n"
      "                      per-tenant isolation ledgers (default 1)\n"
      "  --weights a,b,...   per-tenant fair-share weights, one per tenant\n"
      "                      (default: all 1.0)\n"
      "  --pool-max N        elastic bucket pool: grow up to N buckets under\n"
      "                      sustained saturation, retire idle ones when\n"
      "                      pressure clears (default: fixed pool; needs\n"
      "                      --overload for the pressure signal)\n"
      "  --pool-min N        elastic pool floor (default 1)\n"
      "  --output-dir DIR    write PPM/OBJ artifacts there\n"
      "  --trace FILE        write a Chrome trace-event JSON (load in\n"
      "                      Perfetto / chrome://tracing)\n"
      "  --events FILE       write the flight recorder's structured event\n"
      "                      log (binary hia-events-v1; validate with\n"
      "                      events_lint, which checks the per-tenant\n"
      "                      conservation partition)\n"
      "  --attrib            after the run, rebuild per-task timelines from\n"
      "                      the flight recorder and print the makespan\n"
      "                      attribution: the exact additive phase partition\n"
      "                      (admit+queue+backoff+transfer+compute+drain ==\n"
      "                      turnaround, checked per task) and the critical\n"
      "                      path (implies event recording; exits nonzero\n"
      "                      if any partition fails)\n"
      "  --status-interval S print a one-line service status digest every\n"
      "                      S seconds while the campaigns run\n"
      "  --summary FILE      write a RunSummary JSON (schema\n"
      "                      hia-run-summary-v1: metrics, counters,\n"
      "                      histograms, gauge time series)\n"
      "  --obs-sample-hz HZ  sample registered gauges at HZ into the\n"
      "                      summary's time series (default: off; two\n"
      "                      samples are always taken, start and end)\n"
      "  --list              list available analyses and exit\n");
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int a = 1; a < argc; ++a) {
    auto need = [&](const char* flag) {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        usage(2);
      }
      return argv[++a];
    };
    if (std::strcmp(argv[a], "--grid") == 0) {
      int64_t g[3];
      if (!parse_triple(need("--grid"), g)) usage(2);
      opt.grid = {g[0], g[1], g[2]};
    } else if (std::strcmp(argv[a], "--ranks") == 0) {
      int64_t r[3];
      if (!parse_triple(need("--ranks"), r)) usage(2);
      opt.ranks = {static_cast<int>(r[0]), static_cast<int>(r[1]),
                   static_cast<int>(r[2])};
    } else if (std::strcmp(argv[a], "--steps") == 0) {
      opt.steps = std::atol(need("--steps"));
    } else if (std::strcmp(argv[a], "--buckets") == 0) {
      opt.buckets = std::atoi(need("--buckets"));
    } else if (std::strcmp(argv[a], "--servers") == 0) {
      opt.servers = std::atoi(need("--servers"));
    } else if (std::strcmp(argv[a], "--replicas") == 0) {
      opt.replicas = std::atoi(need("--replicas"));
    } else if (std::strcmp(argv[a], "--frequency") == 0) {
      opt.frequency = std::atoi(need("--frequency"));
    } else if (std::strcmp(argv[a], "--analyses") == 0) {
      opt.analyses = need("--analyses");
    } else if (std::strcmp(argv[a], "--codec") == 0) {
      opt.codec = need("--codec");
    } else if (std::strcmp(argv[a], "--faults") == 0) {
      opt.faults = need("--faults");
    } else if (std::strcmp(argv[a], "--fault-seed") == 0) {
      opt.fault_seed = std::strtoull(need("--fault-seed"), nullptr, 10);
    } else if (std::strcmp(argv[a], "--overload") == 0) {
      opt.overload = need("--overload");
    } else if (std::strcmp(argv[a], "--steer") == 0) {
      opt.steer = need("--steer");
    } else if (std::strcmp(argv[a], "--tenants") == 0) {
      opt.tenants = std::atoi(need("--tenants"));
    } else if (std::strcmp(argv[a], "--weights") == 0) {
      opt.weights = need("--weights");
    } else if (std::strcmp(argv[a], "--pool-max") == 0) {
      opt.pool_max = std::atoi(need("--pool-max"));
    } else if (std::strcmp(argv[a], "--pool-min") == 0) {
      opt.pool_min = std::atoi(need("--pool-min"));
    } else if (std::strcmp(argv[a], "--output-dir") == 0) {
      opt.output_dir = need("--output-dir");
    } else if (std::strcmp(argv[a], "--trace") == 0) {
      opt.trace_path = need("--trace");
    } else if (std::strcmp(argv[a], "--summary") == 0) {
      opt.summary_path = need("--summary");
    } else if (std::strcmp(argv[a], "--events") == 0) {
      opt.events_path = need("--events");
    } else if (std::strcmp(argv[a], "--attrib") == 0) {
      opt.attrib = true;
    } else if (std::strcmp(argv[a], "--status-interval") == 0) {
      opt.status_interval_s = std::atof(need("--status-interval"));
    } else if (std::strcmp(argv[a], "--obs-sample-hz") == 0) {
      opt.sample_hz = std::atof(need("--obs-sample-hz"));
    } else if (std::strcmp(argv[a], "--list") == 0) {
      opt.list_only = true;
    } else if (std::strcmp(argv[a], "--help") == 0) {
      usage(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[a]);
      usage(2);
    }
  }
  return opt;
}

std::vector<std::string> split(const std::string& csv) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin <= csv.size()) {
    const size_t comma = csv.find(',', begin);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > begin) out.push_back(csv.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

VizConfig viz_config(const Options& opt) {
  VizConfig viz;
  viz.image_size = 128;
  viz.downsample_stride = 4;
  viz.output_dir = opt.output_dir;
  return viz;
}

/// Every analysis the CLI knows, in `--analyses all` order: its name, its
/// `--list` help, and its factory. Each tenant gets fresh instances —
/// analyses carry per-run state.
struct AnalysisEntry {
  const char* name;
  const char* help;
  std::function<std::shared_ptr<HybridAnalysis>(const Options&)> make;
};

const AnalysisEntry kAnalyses[] = {
    {"stats", "hybrid descriptive statistics (all 14 variables)",
     [](const Options&) { return std::make_shared<HybridStatistics>(); }},
    {"stats-insitu", "fully in-situ descriptive statistics",
     [](const Options&) { return std::make_shared<InSituStatistics>(); }},
    {"viz", "hybrid down-sampled volume rendering",
     [](const Options& opt) {
       return std::make_shared<HybridVisualization>(viz_config(opt));
     }},
    {"viz-insitu", "fully in-situ volume rendering",
     [](const Options& opt) {
       return std::make_shared<InSituVisualization>(viz_config(opt));
     }},
    {"topo", "hybrid merge-tree topology",
     [](const Options&) {
       return std::make_shared<HybridTopology>(TopologyConfig{});
     }},
    {"corr", "hybrid T/Y_H2O correlation",
     [](const Options&) {
       return std::make_shared<HybridCorrelation>(Variable::kTemperature,
                                                  Variable::kYH2O);
     }},
    {"hist", "hybrid temperature histogram",
     [](const Options&) {
       return std::make_shared<HybridHistogram>(HistogramConfig{});
     }},
    {"features", "hybrid feature-based statistics",
     [](const Options&) {
       FeatureStatsConfig fcfg;
       fcfg.threshold = 1.5;
       return std::make_shared<HybridFeatureStatistics>(fcfg);
     }},
    {"cont", "hybrid T/Y_H2O contingency table",
     [](const Options&) {
       return std::make_shared<HybridContingency>(ContingencyConfig{});
     }},
    {"iso", "hybrid isosurface extraction",
     [](const Options& opt) {
       IsosurfaceConfig icfg;
       icfg.iso = 1.5;
       icfg.output_dir = opt.output_dir;
       return std::make_shared<HybridIsosurface>(icfg);
     }},
    {"tseries", "temporal autocorrelation of the global T mean",
     [](const Options&) {
       return std::make_shared<TimeSeriesAutocorrelation>(TimeSeriesConfig{});
     }},
};

/// The table entry named `name`, or null for an unknown name.
const AnalysisEntry* find_analysis(const std::string& name) {
  for (const AnalysisEntry& entry : kAnalyses) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

/// Registers the run's configuration with the flight recorder so
/// write_events_file embeds it in the spill header: a replayed spill then
/// carries the tenant weights, overload caps, bucket count, replication
/// factor, and fault spec the run actually used (hia_plan --calibrate
/// reads these back instead of guessing).
void register_run_config(const Options& opt,
                         const std::vector<double>& tenant_weights) {
  obs::EventsRunConfig cfg;
  cfg.buckets = opt.buckets;
  cfg.servers = opt.servers;
  // Record the effective factor (the store clamps to [1, servers]).
  cfg.replicas = std::clamp(opt.replicas, 1, opt.servers);
  cfg.faults = opt.faults;
  cfg.overload = opt.overload;
  cfg.tenant_weights = tenant_weights;
  obs::set_events_run_config(cfg);
}

/// --attrib: rebuild per-task timelines from the in-memory flight
/// recorder and print the makespan attribution. Returns nonzero when any
/// task's phase partition fails to sum to its turnaround (or records were
/// dropped, which makes the partition unverifiable).
int report_attribution() {
  const obs::Attribution attrib = obs::attribute_events(
      obs::events_snapshot(), obs::dropped_event_records());
  if (!attrib.ok || !attrib.conserved) {
    std::fprintf(stderr, "makespan attribution FAILED: %s\n",
                 attrib.error.c_str());
    return 1;
  }
  const obs::CriticalPath cp = obs::extract_critical_path(attrib);
  if (!cp.ok) {
    std::fprintf(stderr, "critical-path extraction FAILED: %s\n",
                 cp.error.c_str());
    return 1;
  }
  std::printf("\nmakespan attribution: %zu tasks, makespan %.4f s, "
              "critical path %.4f s (all partitions exact)\n",
              attrib.tasks.size(), attrib.makespan_s, cp.length_s);
  std::printf("  %-10s  %12s  %6s  %12s\n", "phase", "task-seconds",
              "share", "on-path (s)");
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    std::printf("  %-10s  %12.4f  %5.1f%%  %12.4f\n",
                obs::phase_name(static_cast<obs::TaskPhase>(p)),
                attrib.phase_totals[p],
                attrib.total_turnaround_s > 0.0
                    ? 100.0 * attrib.phase_totals[p] /
                          attrib.total_turnaround_s
                    : 0.0,
                cp.phase_on_path[p]);
  }
  return 0;
}

/// --weights: one fair-share weight per tenant, all 1.0 when the flag is
/// absent. Returns an empty vector (after saying why) on a bad list.
std::vector<double> parse_weights(const Options& opt) {
  std::vector<double> weights(static_cast<size_t>(opt.tenants), 1.0);
  if (opt.weights.empty()) return weights;
  const auto parts = split(opt.weights);
  if (static_cast<int>(parts.size()) != opt.tenants) {
    std::fprintf(stderr, "--weights needs %d comma-separated values\n",
                 opt.tenants);
    return {};
  }
  for (size_t i = 0; i < parts.size(); ++i) {
    weights[i] = std::atof(parts[i].c_str());
    if (weights[i] <= 0.0) {
      std::fprintf(stderr, "--weights: weight %zu must be > 0\n", i + 1);
      return {};
    }
  }
  return weights;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  if (opt.list_only) {
    std::printf("available analyses:\n");
    for (const AnalysisEntry& entry : kAnalyses) {
      std::printf("  %-12s %s\n", entry.name, entry.help);
    }
    return 0;
  }
  if (!opt.output_dir.empty()) ::mkdir(opt.output_dir.c_str(), 0755);

  if (!opt.codec.empty()) {
    try {
      (void)make_codec(opt.codec);
    } catch (const Error& e) {
      std::fprintf(stderr, "bad --codec: %s\n", e.what());
      return 2;
    }
  }
  if (!opt.faults.empty()) {
    try {
      (void)FaultPlan::parse_spec(opt.faults);
    } catch (const Error& e) {
      std::fprintf(stderr, "bad --faults: %s\n", e.what());
      return 2;
    }
  }
  if (!opt.overload.empty()) {
    try {
      const OverloadConfig ocfg = OverloadConfig::parse_spec(opt.overload);
      if (!ocfg.enabled()) {
        std::fprintf(stderr,
                     "bad --overload: spec sets no budget and no credits\n");
        return 2;
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "bad --overload: %s\n", e.what());
      return 2;
    }
  }
  if (!opt.steer.empty()) {
    try {
      (void)parse_steer_policy(opt.steer);
    } catch (const Error& e) {
      std::fprintf(stderr, "bad --steer: %s\n", e.what());
      return 2;
    }
  }
  if (opt.tenants < 1) {
    std::fprintf(stderr, "--tenants must be >= 1\n");
    return 2;
  }
  if (opt.replicas < 1) {
    std::fprintf(stderr, "--replicas must be >= 1\n");
    return 2;
  }
  const std::vector<double> weights = parse_weights(opt);
  if (weights.empty()) return 2;

  std::vector<const AnalysisEntry*> wanted;
  if (opt.analyses == "all") {
    for (const AnalysisEntry& entry : kAnalyses) wanted.push_back(&entry);
  } else {
    for (const std::string& name : split(opt.analyses)) {
      const AnalysisEntry* entry = find_analysis(name);
      if (entry == nullptr) {
        std::fprintf(stderr, "unknown analysis: %s (try --list)\n",
                     name.c_str());
        return 2;
      }
      wanted.push_back(entry);
    }
  }
  std::vector<std::string> report_names;
  for (const AnalysisEntry* entry : wanted) {
    report_names.push_back(entry->make(opt)->name());
  }

  if (!opt.trace_path.empty()) obs::enable();
  obs::sample_now();  // t=0 point for every gauge series
  if (opt.sample_hz > 0.0) obs::start_sampler(opt.sample_hz);

  if (!opt.events_path.empty() || opt.attrib) {
    // Raise the per-thread ring capacity before the bucket and tenant
    // threads spin up (rings are sized at first touch): a recorded
    // campaign that overflows loses submit events, and with them the exact
    // per-tenant conservation partition. Then start from a clean stream.
    obs::set_events_capacity(1 << 16);
    obs::reset_events();
    obs::enable_events();
    register_run_config(opt, weights);
  }

  // One staging deployment, owned by the service, serves every campaign.
  CampaignService::Options sopts;
  sopts.staging_servers = opt.servers;
  sopts.staging_buckets = opt.buckets;
  sopts.staging_replicas = opt.replicas;
  sopts.faults = opt.faults;
  sopts.fault_seed = opt.fault_seed;
  sopts.overload = opt.overload;
  sopts.pool_min = opt.pool_min;
  sopts.pool_max = opt.pool_max;
  std::optional<CampaignService> built;
  try {
    built.emplace(sopts);
  } catch (const Error& e) {
    std::fprintf(stderr, "hia_campaign: %s\n", e.what());
    return 2;
  }
  CampaignService& service = *built;

  RunConfig config;
  config.sim.grid = GlobalGrid{opt.grid,
                               {1.0,
                                static_cast<double>(opt.grid[1]) /
                                    static_cast<double>(opt.grid[0]),
                                static_cast<double>(opt.grid[2]) /
                                    static_cast<double>(opt.grid[0])}};
  config.sim.ranks_per_axis = opt.ranks;
  config.steps = opt.steps;
  config.staging_codec = opt.codec;
  config.steer = opt.steer;
  for (int t = 0; t < opt.tenants; ++t) {
    CampaignService::TenantSpec spec;
    spec.name = "tenant-" + std::to_string(t + 1);
    spec.weight = weights[static_cast<size_t>(t)];
    spec.config = config;
    spec.setup = [&opt, &wanted](HybridRunner& runner) {
      for (const AnalysisEntry* entry : wanted) {
        runner.add_analysis(entry->make(opt), opt.frequency);
      }
    };
    service.add_tenant(std::move(spec));
  }

  std::printf("running %d campaign(s) x %ld steps of %lldx%lldx%lld on "
              "%dx%dx%d ranks, weights %s, %d buckets%s, analyses every %d "
              "step(s): %s\n\n",
              opt.tenants, opt.steps, static_cast<long long>(opt.grid[0]),
              static_cast<long long>(opt.grid[1]),
              static_cast<long long>(opt.grid[2]), opt.ranks[0],
              opt.ranks[1], opt.ranks[2],
              opt.weights.empty() ? "1.0 each" : opt.weights.c_str(),
              opt.buckets, opt.pool_max > 0 ? " (elastic)" : "",
              opt.frequency, opt.analyses.c_str());
  if (!opt.codec.empty()) {
    std::printf("staging codec: %s (wire/ratio columns below show the "
                "published-byte reduction)\n\n",
                opt.codec.c_str());
  }
  if (!opt.faults.empty()) {
    std::printf("fault injection: %s (seed %llu)\n\n", opt.faults.c_str(),
                static_cast<unsigned long long>(
                    opt.fault_seed != 0 ? opt.fault_seed
                                        : FaultPlan::parse_spec(opt.faults)
                                              .seed));
  }
  if (!opt.overload.empty() || !opt.steer.empty()) {
    std::printf("overload control: %s, steering: %s\n\n",
                opt.overload.empty() ? "off" : opt.overload.c_str(),
                opt.steer.empty() ? "in-transit" : opt.steer.c_str());
  }

  // --status-interval: a digest thread polls the service while the
  // campaigns run, one line per interval (the batch-mode sibling of the
  // hia_top dashboard). Poll-with-deadline so it exits promptly when the
  // service drains instead of sleeping through a full interval.
  std::atomic<bool> campaign_done{false};
  std::thread digest;
  if (opt.status_interval_s > 0.0) {
    digest = std::thread([&service, &campaign_done,
                          interval = opt.status_interval_s] {
      const auto step = std::chrono::duration<double>(interval);
      while (!campaign_done.load(std::memory_order_acquire)) {
        const auto deadline = std::chrono::steady_clock::now() + step;
        while (!campaign_done.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (campaign_done.load(std::memory_order_acquire)) break;
        const CampaignService::Status st = service.poll_status();
        std::printf("[status] vt=%.2fs pressure=%s queue=%zut/%zuB "
                    "buckets=%d",
                    st.virtual_time_s, to_string(st.pressure),
                    st.queue_depth, st.queue_bytes, st.live_buckets);
        for (const CampaignService::TenantStatus& t : st.tenants) {
          std::printf(" | t%d q=%zu out=%zu p99=%.3fs burn=%.0f%%",
                      t.tenant, t.queue_depth, t.outstanding,
                      t.p99_turnaround_s, t.slo_burn * 100.0);
        }
        std::printf("\n");
        std::fflush(stdout);
      }
    });
  }

  const CampaignService::ServiceReport report = service.run();
  campaign_done.store(true, std::memory_order_release);
  if (digest.joinable()) digest.join();
  obs::stop_sampler();
  obs::sample_now();  // closing point for every gauge series

  size_t in_transit_tasks = 0;
  double mean_sim_step_s = 0.0;
  for (const CampaignService::TenantReport& tr : report.tenants) {
    std::printf("tenant %d (%s):\n%s\n%s\n", tr.tenant, tr.name.c_str(),
                format_table2(tr.report, report_names).c_str(),
                format_fig6(tr.report, report_names).c_str());
    in_transit_tasks += tr.report.in_transit.size();
    mean_sim_step_s += tr.report.mean_sim_step_seconds() /
                       static_cast<double>(report.tenants.size());
  }
  if (report.resilience.any()) {
    std::printf("%s\n", format_resilience(report.resilience).c_str());
  }
  std::printf("%s\n", format_tenant_table(report.rows).c_str());
  if (opt.pool_max > 0) {
    std::printf("elastic pool: %llu grows, %llu shrinks, %d buckets at "
                "drain\n",
                static_cast<unsigned long long>(report.pool.grows),
                static_cast<unsigned long long>(report.pool.shrinks),
                report.final_buckets);
  }
  uint64_t total_tasks = 0;
  bool conserved = true;
  for (const TenantRunRow& row : report.rows) {
    total_tasks += row.submitted;
    conserved = conserved &&
                row.completed + row.degraded + row.deferred + row.shed ==
                    row.submitted;
  }
  const std::optional<double> share_err = max_share_error(report.rows);
  std::printf("processed %llu tasks (%zu in-transit task records) across %d "
              "tenant(s) over %ld steps; mean simulation step %.4f s; max "
              "|share error| %s; per-tenant conservation %s\n",
              static_cast<unsigned long long>(total_tasks), in_transit_tasks,
              opt.tenants, opt.steps, mean_sim_step_s,
              share_err ? fmt_fixed(*share_err, 3).c_str() : "n/a",
              conserved ? "OK" : "VIOLATED");
  const bool attrib_ok = !opt.attrib || report_attribution() == 0;

  if (!opt.output_dir.empty()) {
    std::printf("artifacts written under %s/\n", opt.output_dir.c_str());
  }
  if (!opt.trace_path.empty()) {
    if (!obs::write_chrome_trace(opt.trace_path)) return 1;
    std::printf("trace written to %s (load in https://ui.perfetto.dev)\n",
                opt.trace_path.c_str());
  }
  bool events_ok = true;
  if (!opt.events_path.empty()) {
    if (!obs::write_events_file(opt.events_path)) return 1;
    const obs::EventsValidation ev =
        obs::validate_events_file(opt.events_path);
    if (!ev.ok) {
      std::fprintf(stderr, "events file %s INVALID: %s\n",
                   opt.events_path.c_str(), ev.error.c_str());
      return 1;
    }
    // The recorder and the service report count the same lifecycle
    // transitions through different paths; their per-tenant partitions
    // must agree exactly, or one of them lied.
    for (const TenantRunRow& row : report.rows) {
      const obs::EventsValidation::TenantCounts* counts = nullptr;
      for (const obs::EventsValidation::TenantCounts& t : ev.tenants) {
        if (t.tenant == row.tenant) counts = &t;
      }
      const bool row_ok = counts != nullptr &&
                          counts->submitted == row.submitted &&
                          counts->completed == row.completed &&
                          counts->degraded == row.degraded &&
                          counts->shed == row.shed &&
                          counts->deferred == row.deferred;
      if (!row_ok) {
        std::fprintf(stderr,
                     "events partition MISMATCH for tenant %d "
                     "(report: %llu sub / %llu comp / %llu degr / %llu "
                     "shed / %llu defd)\n",
                     row.tenant,
                     static_cast<unsigned long long>(row.submitted),
                     static_cast<unsigned long long>(row.completed),
                     static_cast<unsigned long long>(row.degraded),
                     static_cast<unsigned long long>(row.shed),
                     static_cast<unsigned long long>(row.deferred));
        events_ok = false;
      }
    }
    std::printf("events written to %s (%llu records, %llu dropped; "
                "per-tenant partition %s the service report)\n",
                opt.events_path.c_str(),
                static_cast<unsigned long long>(ev.records),
                static_cast<unsigned long long>(ev.dropped),
                events_ok ? "matches" : "MISMATCHES");
  }
  if (!opt.summary_path.empty()) {
    const ResilienceSummary& res = report.resilience;
    obs::RunSummary summary;
    summary.bench = "hia_campaign";
    const std::pair<const char*, double> metrics[] = {
        {"steps", static_cast<double>(opt.steps)},
        {"tenants", static_cast<double>(opt.tenants)},
        {"in_transit_tasks", static_cast<double>(in_transit_tasks)},
        {"total_tasks", static_cast<double>(total_tasks)},
        {"mean_sim_step_s", mean_sim_step_s},
        {"conservation_ok", conserved ? 1.0 : 0.0},
        {"pool_grows", static_cast<double>(report.pool.grows)},
        {"pool_shrinks", static_cast<double>(report.pool.shrinks)},
        {"tasks_completed", static_cast<double>(res.tasks_completed)},
        {"tasks_degraded", static_cast<double>(res.tasks_degraded)},
        {"tasks_shed", static_cast<double>(res.tasks_shed)},
        {"tasks_deferred", static_cast<double>(res.tasks_deferred)},
        {"task_retries", static_cast<double>(res.task_retries)},
        {"backoff_s", res.backoff_seconds},
        {"frame_retransmits", static_cast<double>(res.frame_retransmits)},
        {"crc_failures", static_cast<double>(res.crc_failures)},
        {"recovered_bytes", static_cast<double>(res.recovered_bytes)},
        {"buckets_killed", static_cast<double>(res.buckets_killed)},
        {"buckets_crashed", static_cast<double>(res.buckets_crashed)},
        {"servers_crashed", static_cast<double>(res.servers_crashed)},
        {"leases_expired", static_cast<double>(res.leases_expired)},
        {"tasks_reexecuted", static_cast<double>(res.tasks_reexecuted)},
        {"zombies_fenced", static_cast<double>(res.zombies_fenced)},
        {"replicas_repaired", static_cast<double>(res.replicas_repaired)},
        {"objects_lost", static_cast<double>(res.objects_lost)},
        {"steer_in_situ", static_cast<double>(res.steer_in_situ)},
        {"steer_deferred", static_cast<double>(res.steer_deferred)},
        {"steer_shed", static_cast<double>(res.steer_shed)},
        {"overload_diversions", static_cast<double>(res.overload_diversions)},
        {"admission_overdrafts",
         static_cast<double>(res.admission_overdrafts)},
        {"admission_wait_s", res.admission_wait_s},
        {"peak_queue_bytes", static_cast<double>(res.peak_queue_bytes)},
    };
    for (const auto& [key, value] : metrics) summary.metrics[key] = value;
    // Absent, like the printed "n/a", when no tenant held a bucket.
    if (share_err) summary.metrics["share_err_max"] = *share_err;
    for (const TenantRunRow& row : report.rows) {
      const std::string prefix = "t" + std::to_string(row.tenant) + "_";
      summary.metrics[prefix + "completed"] =
          static_cast<double>(row.completed);
      summary.metrics[prefix + "share"] = row.share_observed;
      summary.metrics[prefix + "p99_s"] = row.p99_turnaround_s;
    }
    if (!obs::write_run_summary(opt.summary_path, summary)) return 1;
    std::printf("run summary written to %s\n", opt.summary_path.c_str());
  }
  return conserved && events_ok && attrib_ok ? 0 : 1;
}
