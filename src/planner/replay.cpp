#include "planner/replay.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>
#include <set>

#include "staging/policy.hpp"
#include "util/numeric.hpp"

namespace hia::planner {

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
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

}  // namespace

// ------------------------------------------------ workload extraction ----

Workload extract_workload(const obs::Attribution& attrib) {
  Workload w;
  if (!attrib.ok || !attrib.conserved) {
    // Fail closed, same contract as attribution: a spill with drops or a
    // partition that does not telescope cannot seed a trustworthy replay.
    w.error = attrib.error.empty() ? "attribution is not conserved"
                                   : attrib.error;
    return w;
  }
  std::set<int> buckets;
  std::set<int> tenants;
  for (const obs::TaskTimeline& tl : attrib.tasks) {
    ReplayTask t;
    t.task_id = tl.task_id;
    t.tenant = tl.tenant;
    t.step = tl.step;
    t.admit_wait_s = tl.phases[static_cast<int>(obs::TaskPhase::kAdmit)];
    t.arrival_vt = tl.submit_vt - t.admit_wait_s;
    t.input_bytes = tl.input_bytes;
    t.transfer_s = tl.phases[static_cast<int>(obs::TaskPhase::kTransfer)];
    t.compute_s = tl.phases[static_cast<int>(obs::TaskPhase::kCompute)];
    t.drain_s = tl.phases[static_cast<int>(obs::TaskPhase::kDrain)];
    t.terminal_kind = tl.terminal_kind;
    w.tasks.push_back(t);
    tenants.insert(tl.tenant);
    for (const obs::TaskTimeline::Segment& s : tl.segments) {
      if (s.bucket >= 0) buckets.insert(s.bucket);
    }
  }
  std::sort(w.tasks.begin(), w.tasks.end(),
            [](const ReplayTask& x, const ReplayTask& y) {
              if (x.arrival_vt != y.arrival_vt) {
                return x.arrival_vt < y.arrival_vt;
              }
              return x.task_id < y.task_id;
            });
  w.recorded_buckets = std::max<int>(1, static_cast<int>(buckets.size()));
  w.tenants.assign(tenants.begin(), tenants.end());
  w.measured_makespan_s = attrib.makespan_s;
  w.ok = true;
  return w;
}

Workload extract_workload_file(const std::string& path) {
  Workload w = extract_workload(obs::attribute_events_file(path));
  // The run-config header block is optional (pre-PR10 spills lack it) and
  // advisory: a missing or unreadable block leaves present == false and
  // the replay falls back to inferred configuration.
  std::string ignored;
  (void)obs::read_events_run_config(path, &w.run_config, &ignored);
  return w;
}

// ------------------------------------------------------ scenario spec ----

double nominal_codec_ratio(const std::string& codec) {
  // Nominal wire/raw ratios for the S3D field payloads the staging path
  // carries (docs/PLANNER.md documents the provenance; codec-ratio=R
  // overrides when you have a measured ratio for your own data).
  if (codec == "raw") return 1.0;
  if (codec == "rle") return 0.95;
  if (codec == "delta") return 0.45;
  if (codec == "quantize") return 0.20;
  return -1.0;
}

bool parse_scenario(const std::string& spec, Scenario* io,
                    std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  for (const std::string& item : split_csv(spec)) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      return fail("scenario directive '" + item + "' is not key=value");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    double num = 0.0;
    if (key == "buckets") {
      if (!parse_count(value, &io->buckets, 1)) {
        return fail("buckets must be a positive integer, got '" + value +
                    "'");
      }
    } else if (key == "nodes") {
      if (!parse_scaled(value, &num) || num <= 0.0) {
        return fail("nodes must be > 0, got '" + value + "'");
      }
      io->nodes = num;
    } else if (key == "base-nodes") {
      if (!parse_scaled(value, &num) || num <= 0.0) {
        return fail("base-nodes must be > 0, got '" + value + "'");
      }
      io->base_nodes = num;
    } else if (key == "arrival-scale") {
      if (!parse_scaled(value, &num) || num <= 0.0) {
        return fail("arrival-scale must be > 0, got '" + value + "'");
      }
      io->arrival_scale = num;
    } else if (key == "credits") {
      if (!parse_count(value, &io->credits)) {
        return fail("credits must be a nonnegative integer, got '" + value +
                    "'");
      }
    } else if (key == "queue-depth") {
      if (!parse_count(value, &io->queue_depth)) {
        return fail("queue-depth must be a nonnegative integer, got '" +
                    value + "'");
      }
    } else if (key == "divert") {
      if (value == "shed") {
        io->divert = DivertMode::kShed;
      } else if (value == "degrade") {
        io->divert = DivertMode::kDegrade;
      } else {
        return fail("divert must be shed or degrade, got '" + value + "'");
      }
    } else if (key == "policy") {
      if (value == "fcfs") {
        io->policy = QueuePolicy::kFcfs;
      } else if (value == "fair") {
        io->policy = QueuePolicy::kFair;
      } else {
        return fail("policy must be fcfs or fair, got '" + value + "'");
      }
    } else if (key == "xfer") {
      if (value == "recorded") {
        io->model_network = false;
      } else if (value == "modeled") {
        io->model_network = true;
      } else {
        return fail("xfer must be recorded or modeled, got '" + value +
                    "'");
      }
    } else if (key == "codec") {
      const double ratio = nominal_codec_ratio(value);
      if (ratio <= 0.0) {
        return fail("unknown codec '" + value +
                    "' (raw, rle, delta, quantize)");
      }
      io->codec_ratio = ratio;
      io->model_network = true;
    } else if (key == "codec-ratio") {
      if (!parse_scaled(value, &num) || num <= 0.0) {
        return fail("codec-ratio must be > 0, got '" + value + "'");
      }
      io->codec_ratio = num;
      io->model_network = true;
    } else if (key == "smsg-lat") {
      if (!parse_scaled(value, &num) || num < 0.0) {
        return fail("smsg-lat must be >= 0 seconds, got '" + value + "'");
      }
      io->net.smsg_latency_s = num;
      io->model_network = true;
    } else if (key == "smsg-bw") {
      if (!parse_scaled(value, &num) || num <= 0.0) {
        return fail("smsg-bw must be > 0 bytes/s, got '" + value + "'");
      }
      io->net.smsg_bandwidth_Bps = num;
      io->model_network = true;
    } else if (key == "smsg-max") {
      if (!parse_count(value, &io->net.smsg_max_bytes)) {
        return fail("smsg-max must be a nonnegative byte count, got '" +
                    value + "'");
      }
      io->model_network = true;
    } else if (key == "bte-lat") {
      if (!parse_scaled(value, &num) || num < 0.0) {
        return fail("bte-lat must be >= 0 seconds, got '" + value + "'");
      }
      io->net.bte_latency_s = num;
      io->model_network = true;
    } else if (key == "bte-bw") {
      if (!parse_scaled(value, &num) || num <= 0.0) {
        return fail("bte-bw must be > 0 bytes/s, got '" + value + "'");
      }
      io->net.bte_bandwidth_Bps = num;
      io->model_network = true;
    } else if (key == "congestion") {
      if (!parse_scaled(value, &num) || num < 0.0) {
        return fail("congestion must be >= 0, got '" + value + "'");
      }
      io->net.congestion_exponent = num;
      io->model_network = true;
    } else {
      return fail("unknown scenario key '" + key + "'");
    }
  }
  return true;
}

// ------------------------------------------------------------- replay ----

Prediction replay(const Workload& workload, const Scenario& scenario) {
  Prediction p;
  if (!workload.ok) {
    p.error = workload.error;
    return p;
  }
  const int buckets =
      scenario.buckets > 0 ? scenario.buckets : workload.recorded_buckets;
  double scale = scenario.arrival_scale;
  if (scenario.nodes > 0.0) scale *= scenario.base_nodes / scenario.nodes;
  if (!(scale > 0.0) || !std::isfinite(scale)) {
    p.error = "arrival scale must be positive and finite";
    return p;
  }
  if (workload.tasks.empty()) {
    p.ok = true;
    return p;
  }

  const size_t n = workload.tasks.size();
  const double t0 = workload.tasks.front().arrival_vt;
  struct Sim {
    const ReplayTask* task = nullptr;
    double arrival = 0.0;
    Ticket ticket;      // id = index into sims (= admission order)
    double busy = 0.0;  // bucket occupancy of the dispatched attempt
  };
  std::vector<Sim> sims(n);
  for (size_t i = 0; i < n; ++i) {
    sims[i].task = &workload.tasks[i];
    sims[i].arrival = t0 + (workload.tasks[i].arrival_vt - t0) * scale;
  }

  // Event kinds order same-instant processing: a completion releases its
  // bucket and credit before the next arrival or dispatch sees the state.
  enum EvKind { kBucketDone = 0, kDegradeDone = 1, kArrival = 2 };
  struct Ev {
    double t;
    int kind;
    uint64_t seq;
    size_t idx;
  };
  auto later = [](const Ev& x, const Ev& y) {
    if (x.t != y.t) return x.t > y.t;
    if (x.kind != y.kind) return x.kind > y.kind;
    return x.seq > y.seq;
  };
  std::priority_queue<Ev, std::vector<Ev>, decltype(later)> events(later);
  uint64_t seq = 0;
  for (size_t i = 0; i < n; ++i) {
    events.push({sims[i].arrival, kArrival, seq++, i});
  }

  const NetworkModel net(scenario.net);
  std::deque<size_t> admit_fifo;  // arrived, waiting for a credit
  // Admitted, waiting for a bucket: the live scheduler's own policy, with
  // the scenario's queue-depth cap as its hard wall.
  TaskQueue queue([cap = scenario.queue_depth](size_t depth, size_t) {
    return cap > 0 && depth >= static_cast<size_t>(cap);
  });
  if (scenario.policy == QueuePolicy::kFair) {
    // Tenants without a recorded weight (or spills with no run_config)
    // replay at 1.0.
    const std::vector<double>& w = scenario.tenant_weights;
    for (const int tenant : workload.tenants) {
      const size_t i = static_cast<size_t>(tenant) - 1;
      queue.set_tenant(tenant,
                       tenant >= 1 && i < w.size() && w[i] > 0.0 ? w[i] : 1.0);
    }
  }
  int free_buckets = buckets;
  int credits_in_use = 0;

  double& admit_total = p.phase_totals[static_cast<int>(obs::TaskPhase::kAdmit)];
  double& queue_total = p.phase_totals[static_cast<int>(obs::TaskPhase::kQueue)];
  double& xfer_total =
      p.phase_totals[static_cast<int>(obs::TaskPhase::kTransfer)];
  double& compute_total =
      p.phase_totals[static_cast<int>(obs::TaskPhase::kCompute)];
  double& drain_total =
      p.phase_totals[static_cast<int>(obs::TaskPhase::kDrain)];

  double max_terminal = sims.front().arrival;
  auto terminal = [&](size_t idx, double now) {
    p.turnarounds_s.push_back(now - sims[idx].arrival);
    p.terminals_vt.push_back(now);
    max_terminal = std::max(max_terminal, now);
  };

  auto transfer_seconds = [&](const ReplayTask& t) {
    if (!scenario.model_network) return t.transfer_s;
    const double scaled =
        static_cast<double>(std::max<int64_t>(0, t.input_bytes)) *
        scenario.codec_ratio;
    if (scaled < 1.0) return 0.0;
    // Congestion sampled at dispatch: this flow plus every in-service
    // task (each bucket pulls at attempt start). A coarse but honest
    // stand-in for continuous flow tracking — see docs/PLANNER.md.
    return net.transfer_seconds(static_cast<size_t>(scaled + 0.5),
                                buckets - free_buckets + 1);
  };

  auto dispatch = [&](double now) {
    while (free_buckets > 0) {
      // Replayed attempts never fail, so no ticket names a bucket to avoid
      // and any bucket id serves.
      const std::optional<Ticket> picked = queue.pick(0, buckets, now);
      if (!picked) break;
      Sim& sim = sims[picked->id];
      sim.ticket = *picked;
      const ReplayTask& t = *sim.task;
      queue_total += now - sim.ticket.enqueue_time;
      const double xfer = transfer_seconds(t);
      sim.busy = xfer + t.compute_s + t.drain_s;
      xfer_total += xfer;
      compute_total += t.compute_s;
      drain_total += t.drain_s;
      p.busy_bucket_seconds += sim.busy;
      --free_buckets;
      events.push({now + sim.busy, kBucketDone, seq++, picked->id});
    }
  };

  auto try_admit = [&](double now) {
    while (!admit_fifo.empty() &&
           (scenario.credits == 0 || credits_in_use < scenario.credits)) {
      const size_t idx = admit_fifo.front();
      admit_fifo.pop_front();
      ++credits_in_use;
      admit_total += now - sims[idx].arrival;
      const ReplayTask& t = *sims[idx].task;
      // No byte caps in replay: the ticket carries no bytes.
      const Ticket ticket{.id = idx, .tenant = t.tenant, .enqueue_time = now};
      if (queue.would_divert(t.tenant, 0) != TaskQueue::Divert::kNone) {
        // Diverted before the queue, like submit().
        if (scenario.divert == DivertMode::kShed) {
          ++p.shed;
          terminal(idx, now);
          --credits_in_use;
        } else {
          // Degrade-to-in-situ: compute-only cost, no staging bucket.
          ++p.degraded;
          compute_total += t.compute_s;
          events.push({now + t.compute_s, kDegradeDone, seq++, idx});
        }
        continue;
      }
      queue.push(ticket);
      p.peak_queue_depth =
          std::max(p.peak_queue_depth, static_cast<long>(queue.size()));
    }
  };

  while (!events.empty()) {
    const Ev e = events.top();
    events.pop();
    const double now = e.t;
    switch (e.kind) {
      case kBucketDone:
        queue.settle(sims[e.idx].ticket, sims[e.idx].busy);
        ++free_buckets;
        --credits_in_use;
        ++p.completed;
        terminal(e.idx, now);
        break;
      case kDegradeDone:
        --credits_in_use;
        terminal(e.idx, now);
        break;
      case kArrival:
        admit_fifo.push_back(e.idx);
        break;
    }
    try_admit(now);
    dispatch(now);
  }

  p.makespan_s = max_terminal - sims.front().arrival;
  for (const double turnaround : p.turnarounds_s) {
    p.total_turnaround_s += turnaround;
  }
  if (p.makespan_s > 0.0) {
    p.utilization =
        p.busy_bucket_seconds / (static_cast<double>(buckets) * p.makespan_s);
  }
  std::sort(p.terminals_vt.begin(), p.terminals_vt.end());
  p.ok = true;
  return p;
}

// -------------------------------------------------------- calibration ----

Calibration calibrate(const Workload& workload, double tolerance) {
  Calibration c;
  c.tolerance = tolerance;
  if (!workload.ok) {
    c.error = workload.error;
    return c;
  }
  Scenario recorded;
  recorded.label = "recorded";
  // Multi-tenant recordings replay under the fair-share matcher. A spill
  // whose header carries a run_config block replays the *configured*
  // truth — tenant weights and bucket count — instead of inferring it
  // from the event stream (idle buckets never appear in occupancies, and
  // weights are invisible to the recorder's task lifecycle events).
  recorded.policy = workload.tenants.size() > 1 ? QueuePolicy::kFair
                                                : QueuePolicy::kFcfs;
  if (workload.run_config.present) {
    if (workload.run_config.buckets > 0) {
      recorded.buckets = workload.run_config.buckets;
    }
    recorded.tenant_weights = workload.run_config.tenant_weights;
  }
  c.prediction = replay(workload, recorded);
  if (!c.prediction.ok) {
    c.error = c.prediction.error;
    return c;
  }
  c.ok = true;
  c.measured_makespan_s = workload.measured_makespan_s;
  c.predicted_makespan_s = c.prediction.makespan_s;
  if (c.measured_makespan_s > 0.0) {
    c.rel_error = std::fabs(c.predicted_makespan_s - c.measured_makespan_s) /
                  c.measured_makespan_s;
  } else {
    c.rel_error = c.predicted_makespan_s > 0.0 ? 1.0 : 0.0;
  }
  c.calibrated = c.rel_error <= tolerance;
  return c;
}

// -------------------------------------------------------------- sweep ----

bool parse_sweep(const std::string& spec, SweepSpec* out,
                 std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
    return fail("sweep spec '" + spec + "' is not key=values");
  }
  out->key = spec.substr(0, eq);
  out->values.clear();
  const std::string body = spec.substr(eq + 1);
  const size_t dots = body.find("..");
  if (dots != std::string::npos) {
    // LO..HI[:STEP], endpoints inclusive.
    const std::string lo_text = body.substr(0, dots);
    std::string hi_text = body.substr(dots + 2);
    double step = 1.0;
    const size_t colon = hi_text.find(':');
    if (colon != std::string::npos) {
      if (!parse_scaled(hi_text.substr(colon + 1), &step) || step <= 0.0) {
        return fail("sweep step must be > 0 in '" + spec + "'");
      }
      hi_text = hi_text.substr(0, colon);
    }
    double lo = 0.0;
    double hi = 0.0;
    if (!parse_scaled(lo_text, &lo) || !parse_scaled(hi_text, &hi)) {
      return fail("sweep range endpoints must be numbers in '" + spec + "'");
    }
    if (hi < lo) {
      return fail("sweep range is empty (hi < lo) in '" + spec + "'");
    }
    // Count the values before making any: a range of 10^12 steps, or one
    // whose step is lost in rounding, must fail here, not allocate.
    const double last =
        std::floor((hi + 1e-9 * std::max(1.0, std::fabs(hi)) - lo) / step);
    if (!(last < static_cast<double>(kMaxSweepScenarios))) {
      return fail("sweep range in '" + spec + "' has more than " +
                  std::to_string(kMaxSweepScenarios) + " values");
    }
    double prev = lo;
    for (size_t k = 0; k <= static_cast<size_t>(last); ++k) {
      const double v = lo + static_cast<double>(k) * step;
      if (k > 0 && !(v > prev)) {
        return fail("sweep step does not advance the value in '" + spec +
                    "'");
      }
      prev = v;
      char buf[64];
      if (std::fabs(v - std::round(v)) < 1e-9 && std::fabs(v) < 9e18) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(std::llround(v)));
      } else {
        std::snprintf(buf, sizeof(buf), "%g", v);
      }
      out->values.push_back(buf);
    }
  } else {
    out->values = split_csv(body);
  }
  if (out->values.empty()) {
    return fail("sweep spec '" + spec + "' has no values");
  }
  if (out->values.size() > kMaxSweepScenarios) {
    return fail("sweep spec '" + spec + "' has more than " +
                std::to_string(kMaxSweepScenarios) + " values");
  }
  return true;
}

bool expand_sweeps(const Scenario& base,
                   const std::vector<SweepSpec>& sweeps,
                   std::vector<Scenario>* out, std::string* error) {
  out->clear();
  if (sweeps.empty()) {
    out->push_back(base);
    return true;
  }
  size_t scenarios = 1;
  for (const SweepSpec& axis : sweeps) {
    if (axis.values.empty() ||
        axis.values.size() > kMaxSweepScenarios / scenarios) {
      if (error != nullptr) {
        *error = axis.values.empty()
                     ? "sweep axis '" + axis.key + "' has no values"
                     : "sweep grid exceeds " +
                           std::to_string(kMaxSweepScenarios) + " scenarios";
      }
      return false;
    }
    scenarios *= axis.values.size();
  }
  std::vector<size_t> index(sweeps.size(), 0);
  while (true) {
    Scenario s = base;
    std::string label;
    for (size_t axis = 0; axis < sweeps.size(); ++axis) {
      const std::string& value = sweeps[axis].values[index[axis]];
      if (!parse_scenario(sweeps[axis].key + "=" + value, &s, error)) {
        return false;
      }
      if (!label.empty()) label += ';';
      label += sweeps[axis].key + "=" + value;
    }
    s.label = label;
    out->push_back(std::move(s));
    // Row-major odometer: last axis fastest.
    size_t axis = sweeps.size();
    while (axis > 0) {
      --axis;
      if (++index[axis] < sweeps[axis].values.size()) break;
      index[axis] = 0;
      if (axis == 0) return true;
    }
  }
}

}  // namespace hia::planner
