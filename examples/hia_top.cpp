// hia_top — live operator console for the multi-tenant campaign service.
//
// Spawns a campaign in-process on a worker thread and renders a textual
// dashboard from CampaignService::poll_status() while it runs: service
// pressure, queue depth/bytes, admission credits, bucket census, and one
// row per tenant (observed vs target share, queue occupancy, credits
// held, rolling p99 turnaround, SLO burn, terminal-state counts). The
// same snapshot backs `hia_campaign --status-interval`; this binary is
// the interactive view.
//
// Examples:
//   hia_top --tenants 3 --steps 6
//   hia_top --tenants 4 --overload queue-bytes=2m,credits=8 --pool-max 8
//   hia_top --tenants 2 --interval 0.2 --plain   # append frames, no ANSI
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "core/stats_pipeline.hpp"
#include "service/campaign_service.hpp"

namespace {

using namespace hia;

struct Options {
  int tenants = 2;
  long steps = 5;
  int buckets = 4;
  int servers = 2;
  std::string weights;
  std::string overload;
  std::string faults;
  int pool_min = 0;
  int pool_max = 0;
  double interval_s = 0.5;
  double slo_s = 0.05;
  bool plain = false;  // append frames instead of ANSI clear-and-redraw
};

[[noreturn]] void usage(int code) {
  std::printf(
      "usage: hia_top [options]\n"
      "  --tenants N        concurrent campaigns (default 2)\n"
      "  --steps N          timesteps per tenant (default 5)\n"
      "  --buckets N        staging buckets (default 4)\n"
      "  --servers N        DataSpaces servers (default 2)\n"
      "  --weights a,b,...  per-tenant fair-share weights (length N)\n"
      "  --overload SPEC    service overload spec (OverloadConfig grammar)\n"
      "  --faults SPEC      service fault plan (FaultPlan grammar)\n"
      "  --pool-max N       elastic bucket pool ceiling (default: fixed;\n"
      "                     needs --overload for the pressure signal)\n"
      "  --pool-min N       elastic pool floor (default 1)\n"
      "  --interval S       refresh interval in seconds (default 0.5)\n"
      "  --slo S            per-tenant turnaround SLO target in seconds\n"
      "                     (default 0.05; drives the burn column)\n"
      "  --plain            append frames instead of redrawing in place\n");
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
    if (std::strcmp(argv[a], "--tenants") == 0) {
      opt.tenants = std::atoi(need("--tenants"));
    } else if (std::strcmp(argv[a], "--steps") == 0) {
      opt.steps = std::atol(need("--steps"));
    } else if (std::strcmp(argv[a], "--buckets") == 0) {
      opt.buckets = std::atoi(need("--buckets"));
    } else if (std::strcmp(argv[a], "--servers") == 0) {
      opt.servers = std::atoi(need("--servers"));
    } else if (std::strcmp(argv[a], "--weights") == 0) {
      opt.weights = need("--weights");
    } else if (std::strcmp(argv[a], "--overload") == 0) {
      opt.overload = need("--overload");
    } else if (std::strcmp(argv[a], "--faults") == 0) {
      opt.faults = need("--faults");
    } else if (std::strcmp(argv[a], "--pool-max") == 0) {
      opt.pool_max = std::atoi(need("--pool-max"));
    } else if (std::strcmp(argv[a], "--pool-min") == 0) {
      opt.pool_min = std::atoi(need("--pool-min"));
    } else if (std::strcmp(argv[a], "--interval") == 0) {
      opt.interval_s = std::atof(need("--interval"));
    } else if (std::strcmp(argv[a], "--slo") == 0) {
      opt.slo_s = std::atof(need("--slo"));
    } else if (std::strcmp(argv[a], "--plain") == 0) {
      opt.plain = true;
    } else if (std::strcmp(argv[a], "--help") == 0) {
      usage(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[a]);
      usage(2);
    }
  }
  if (opt.tenants < 1) {
    std::fprintf(stderr, "--tenants must be >= 1\n");
    usage(2);
  }
  if (opt.interval_s <= 0.0) opt.interval_s = 0.5;
  return opt;
}

/// One dashboard frame. `frame` counts redraws; returns the line count so
/// the ANSI mode knows how far to cursor back up.
int render(const CampaignService::Status& st, int frame, bool done) {
  int lines = 0;
  std::printf("hia_top — frame %d%s | pressure %-9s | queue %zu tasks / "
              "%zu B | store %zu B | credits %s | buckets %d | vt %.3f s\n",
              frame, done ? " (final)" : "", to_string(st.pressure),
              st.queue_depth, st.queue_bytes, st.store_bytes,
              st.credits_free < 0 ? "off"
                                  : std::to_string(st.credits_free).c_str(),
              st.live_buckets, st.virtual_time_s);
  ++lines;
  if (st.pool.grows + st.pool.shrinks > 0) {
    std::printf("pool: %llu grows, %llu shrinks\n",
                static_cast<unsigned long long>(st.pool.grows),
                static_cast<unsigned long long>(st.pool.shrinks));
    ++lines;
  }
  std::printf("  id  name          wt  share(obs/tgt)  queue  outst  "
              "credits      p99(s)  burn  comp  degr  shed  defd\n");
  ++lines;
  for (const CampaignService::TenantStatus& t : st.tenants) {
    char credits[32];
    if (t.credit_cap > 0) {
      std::snprintf(credits, sizeof credits, "%d/%d", t.credits_outstanding,
                    t.credit_cap);
    } else {
      std::snprintf(credits, sizeof credits, "%d", t.credits_outstanding);
    }
    std::printf("  %2d  %-12s %4.1f    %.2f / %.2f   %5zu  %5zu  %7s  "
                "%10.4f  %4.0f%%  %4lld  %4lld  %4lld  %4lld\n",
                t.tenant, t.name.c_str(), t.weight, t.observed_share,
                t.target_share, t.queue_depth, t.outstanding, credits,
                t.p99_turnaround_s, t.slo_burn * 100.0,
                static_cast<long long>(t.completed),
                static_cast<long long>(t.degraded),
                static_cast<long long>(t.shed),
                static_cast<long long>(t.deferred));
    ++lines;
  }
  std::fflush(stdout);
  return lines;
}

std::vector<double> parse_weights(const Options& opt) {
  std::vector<double> weights(static_cast<size_t>(opt.tenants), 1.0);
  if (opt.weights.empty()) return weights;
  size_t begin = 0, i = 0;
  while (begin <= opt.weights.size() && i < weights.size()) {
    const size_t comma = opt.weights.find(',', begin);
    const size_t end = comma == std::string::npos ? opt.weights.size() : comma;
    weights[i++] = std::atof(opt.weights.substr(begin, end - begin).c_str());
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  if (i != weights.size()) {
    std::fprintf(stderr, "--weights needs %d comma-separated values\n",
                 opt.tenants);
    std::exit(2);
  }
  for (double w : weights) {
    if (w <= 0.0) {
      std::fprintf(stderr, "--weights: every weight must be > 0\n");
      std::exit(2);
    }
  }
  return weights;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::vector<double> weights = parse_weights(opt);

  CampaignService::Options sopts;
  sopts.staging_servers = opt.servers;
  sopts.staging_buckets = opt.buckets;
  sopts.overload = opt.overload;
  sopts.faults = opt.faults;
  sopts.pool_min = opt.pool_min;
  sopts.pool_max = opt.pool_max;
  std::optional<CampaignService> built;
  try {
    built.emplace(sopts);
  } catch (const Error& e) {
    std::fprintf(stderr, "hia_top: %s\n", e.what());
    return 2;
  }
  CampaignService& service = *built;

  RunConfig config;
  config.sim.grid = GlobalGrid{{48, 32, 24}, {1.0, 32.0 / 48.0, 24.0 / 48.0}};
  config.sim.ranks_per_axis = {2, 2, 2};
  config.staging_servers = opt.servers;
  config.staging_buckets = opt.buckets;
  config.steps = opt.steps;
  for (int t = 0; t < opt.tenants; ++t) {
    CampaignService::TenantSpec spec;
    spec.name = "tenant-" + std::to_string(t + 1);
    spec.weight = weights[static_cast<size_t>(t)];
    spec.slo_target_s = opt.slo_s;
    spec.config = config;
    spec.setup = [](HybridRunner& runner) {
      runner.add_analysis(std::make_shared<HybridStatistics>(), 1);
    };
    service.add_tenant(std::move(spec));
  }

  // The campaign runs on a worker; the main thread is the console. The
  // final frame renders after `done` flips, so the dashboard always shows
  // the fully-drained state before exiting.
  CampaignService::ServiceReport report;
  std::atomic<bool> done{false};
  std::thread campaign([&service, &report, &done] {
    report = service.run();
    done.store(true, std::memory_order_release);
  });

  int frame = 0;
  int last_lines = 0;
  const auto interval = std::chrono::duration<double>(opt.interval_s);
  while (true) {
    const bool finished = done.load(std::memory_order_acquire);
    const CampaignService::Status st = service.poll_status();
    if (!opt.plain && last_lines > 0) {
      std::printf("\x1b[%dA\x1b[J", last_lines);  // cursor up + clear below
    }
    last_lines = render(st, ++frame, finished);
    if (finished) break;
    // Poll-with-deadline against the campaign finishing, not a bare
    // sleep: the final frame renders promptly once the service drains.
    const auto deadline = std::chrono::steady_clock::now() + interval;
    while (!done.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  campaign.join();

  uint64_t total = 0;
  bool conserved = true;
  for (const TenantRunRow& row : report.rows) {
    total += row.submitted;
    conserved = conserved &&
                row.completed + row.degraded + row.deferred + row.shed ==
                    row.submitted;
  }
  std::printf("\ncampaign drained: %llu tasks across %d tenants, "
              "conservation %s\n",
              static_cast<unsigned long long>(total), opt.tenants,
              conserved ? "OK" : "VIOLATED");
  return conserved ? 0 : 1;
}
