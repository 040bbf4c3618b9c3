#include "obs/attrib.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace hia::obs {

namespace {

// Tolerated clock jitter on phase boundaries. Boundaries are ordered by
// construction (mutex happens-before between the emitting sites), so
// anything past this is an instrumentation bug, not noise.
constexpr double kNegEps = 1e-9;
// Relative tolerance on the partition sum — the sum telescopes exactly,
// so this only absorbs floating-point association error.
constexpr double kSumEps = 1e-6;

// EventKind values are stable on-disk identifiers, so the task-keyed kinds
// are two fixed ranges: the lifecycle kinds 1..6 (terminals 3..6) and the
// attribution kinds 13..19.
bool is_terminal(int32_t kind) { return kind >= 3 && kind <= 6; }

/// True for kinds whose `a` operand is a task id.
bool is_task_keyed(int32_t kind) {
  return (kind >= 1 && kind <= 6) || (kind >= 13 && kind <= 19);
}

/// Processing order for same-timestamp records of one task: submit opens,
/// a release precedes the assign it enables, xfer/work splits precede the
/// record that ends their occupancy, terminals close the timeline.
int kind_rank(int32_t kind) {
  switch (static_cast<EventKind>(kind)) {
    case EventKind::kTaskSubmit: return 0;
    case EventKind::kCreditGrant: return 1;
    case EventKind::kBackoffRelease: return 2;
    case EventKind::kTaskAssign:
    case EventKind::kBucketOccupy: return 3;
    case EventKind::kTaskXfer:
    case EventKind::kTaskWork: return 4;
    case EventKind::kTaskRetry:
    case EventKind::kBucketVacate: return 5;
    default: return 6;  // terminals
  }
}

void add_segment(TaskTimeline& tl, TaskPhase phase, double begin, double end,
                 int bucket, int attempt) {
  // Zero-width segments carry no weight; widths below kNegEps are
  // floating-point residue from the µs->s conversion, not real time.
  if (end - begin <= kNegEps) return;
  TaskTimeline::Segment s;
  s.phase = phase;
  s.begin_vt = begin;
  s.end_vt = end;
  s.bucket = bucket;
  s.attempt = attempt;
  tl.segments.push_back(s);
}

/// Rebuilds one task's timeline from its vt-ordered records. On return
/// tl.error is empty iff the partition is exact and every phase >= 0.
void rebuild_task(const std::vector<EventRecord>& evs, TaskTimeline& tl) {
  auto fail = [&tl](const std::string& why) {
    if (tl.error.empty()) tl.error = why;
  };

  const EventRecord& first = evs.front();
  if (static_cast<EventKind>(first.kind) != EventKind::kTaskSubmit) {
    fail("first event is " + std::string(event_kind_name(first.kind)) +
         ", not task_submit");
    return;
  }
  if (first.vt_s < 0.0) {
    fail("task_submit without a virtual timestamp");
    return;
  }
  tl.tenant = first.tenant;
  tl.step = first.bucket;  // submits carry the step in the bucket field
  tl.input_bytes = first.b;
  tl.submit_vt = first.vt_s;

  double& admit = tl.phases[static_cast<int>(TaskPhase::kAdmit)];
  double& queue = tl.phases[static_cast<int>(TaskPhase::kQueue)];
  double& backoff = tl.phases[static_cast<int>(TaskPhase::kBackoff)];
  double& transfer = tl.phases[static_cast<int>(TaskPhase::kTransfer)];
  double& compute = tl.phases[static_cast<int>(TaskPhase::kCompute)];
  double& drain = tl.phases[static_cast<int>(TaskPhase::kDrain)];

  double t = tl.submit_vt;  // current timeline position
  bool in_occupancy = false;
  bool terminated = false;
  double occ_xfer = 0.0;
  double occ_work = 0.0;
  int occ_bucket = -1;
  int occ_attempt = 0;

  for (size_t i = 1; i < evs.size(); ++i) {
    const EventRecord& e = evs[i];
    const auto kind = static_cast<EventKind>(e.kind);
    if (terminated) {
      fail(std::string(event_kind_name(e.kind)) + " after the terminal event");
      return;
    }
    if (e.vt_s < 0.0) {
      fail(std::string(event_kind_name(e.kind)) +
           " without a virtual timestamp");
      return;
    }
    if (e.vt_s - t < -kNegEps) {
      fail(std::string(event_kind_name(e.kind)) +
           " moves the timeline backwards");
      return;
    }
    switch (kind) {
      case EventKind::kTaskSubmit:
        fail("duplicate task_submit (task-id collision in the stream)");
        return;
      case EventKind::kCreditGrant:
        admit += static_cast<double>(e.b) * 1e-6;
        break;
      case EventKind::kBackoffRelease:
        if (in_occupancy) {
          fail("backoff_release during bucket occupancy");
          return;
        }
        add_segment(tl, TaskPhase::kBackoff, t, e.vt_s, -1, 0);
        backoff += e.vt_s - t;
        t = e.vt_s;
        break;
      case EventKind::kTaskAssign:
      case EventKind::kBucketOccupy:
        if (in_occupancy) {
          fail("nested bucket occupancy");
          return;
        }
        add_segment(tl, TaskPhase::kQueue, t, e.vt_s, -1, 0);
        queue += e.vt_s - t;
        t = e.vt_s;
        in_occupancy = true;
        occ_xfer = 0.0;
        occ_work = 0.0;
        occ_bucket = e.bucket;
        occ_attempt = static_cast<int>(e.b);
        tl.bucket = e.bucket;
        ++tl.attempts;
        break;
      case EventKind::kTaskXfer:
        if (!in_occupancy) {
          fail("task_xfer outside bucket occupancy");
          return;
        }
        occ_xfer += static_cast<double>(e.b) * 1e-6;
        break;
      case EventKind::kTaskWork:
        if (!in_occupancy) {
          fail("task_work outside bucket occupancy");
          return;
        }
        occ_work += static_cast<double>(e.b) * 1e-6;
        break;
      case EventKind::kTaskRetry:
      case EventKind::kBucketVacate:
      case EventKind::kTaskComplete:
      case EventKind::kTaskDegrade:
      case EventKind::kTaskShed:
      case EventKind::kTaskDefer:
        if (in_occupancy) {
          // Close the occupancy window [t, e.vt): measured transfer and
          // work shares, remainder is drain. The split boundaries inside
          // the window are synthetic; the sums are not.
          const double occ_end = e.vt_s;
          const double occ_drain = (occ_end - t) - occ_xfer - occ_work;
          if (occ_drain < -kNegEps) {
            fail("transfer+work exceed the occupancy window");
            return;
          }
          add_segment(tl, TaskPhase::kTransfer, t, t + occ_xfer, occ_bucket,
                      occ_attempt);
          add_segment(tl, TaskPhase::kCompute, t + occ_xfer,
                      t + occ_xfer + occ_work, occ_bucket, occ_attempt);
          add_segment(tl, TaskPhase::kDrain, t + occ_xfer + occ_work, occ_end,
                      occ_bucket, occ_attempt);
          transfer += occ_xfer;
          compute += occ_work;
          drain += occ_drain;
          t = occ_end;
          in_occupancy = false;
        } else if (kind == EventKind::kTaskRetry ||
                   kind == EventKind::kBucketVacate) {
          fail(std::string(event_kind_name(e.kind)) +
               " without a matching occupancy start");
          return;
        } else {
          // Terminal straight from the queue (shed, defer, diverted).
          add_segment(tl, TaskPhase::kQueue, t, e.vt_s, -1, 0);
          queue += e.vt_s - t;
          t = e.vt_s;
        }
        if (is_terminal(e.kind)) {
          terminated = true;
          tl.terminal_kind = e.kind;
          tl.terminal_vt = e.vt_s;
        }
        break;
      default:
        fail(std::string("unexpected event kind ") +
             std::to_string(e.kind));
        return;
    }
  }
  if (!terminated) {
    fail("no terminal event (complete/degrade/shed/defer)");
    return;
  }
  if (in_occupancy) {
    fail("occupancy never closed");
    return;
  }

  // Prepend the admission segment: the producer was blocked for `admit`
  // seconds immediately before the submit instant.
  if (admit > 0.0) {
    TaskTimeline::Segment s;
    s.phase = TaskPhase::kAdmit;
    s.begin_vt = tl.submit_vt - admit;
    s.end_vt = tl.submit_vt;
    tl.segments.insert(tl.segments.begin(), s);
  }

  // The check the whole layer exists for: phases nonnegative, partition
  // sums exactly to the turnaround.
  tl.turnaround_s = admit + (tl.terminal_vt - tl.submit_vt);
  double sum = 0.0;
  for (int p = 0; p < kPhaseCount; ++p) {
    if (tl.phases[p] < -kNegEps) {
      fail(std::string(phase_name(static_cast<TaskPhase>(p))) + " is negative");
      return;
    }
    sum += tl.phases[p];
  }
  if (std::fabs(sum - tl.turnaround_s) >
      kSumEps * std::max(1.0, std::fabs(tl.turnaround_s))) {
    fail("partition does not sum to turnaround (sum=" + std::to_string(sum) +
         " turnaround=" + std::to_string(tl.turnaround_s) + ")");
    return;
  }
  tl.conserved = true;
}

}  // namespace

const char* phase_name(TaskPhase phase) {
  switch (phase) {
    case TaskPhase::kAdmit: return "admit_wait";
    case TaskPhase::kQueue: return "queue_wait";
    case TaskPhase::kBackoff: return "backoff";
    case TaskPhase::kTransfer: return "transfer";
    case TaskPhase::kCompute: return "compute";
    case TaskPhase::kDrain: return "drain";
  }
  return "unknown";
}

Attribution attribute_events(const std::vector<EventRecord>& records,
                             uint64_t dropped) {
  Attribution a;
  a.dropped = dropped;
  if (dropped > 0) {
    // Fail closed: the ring lost records, so no per-task partition can be
    // proven. Resize the ring (set_events_capacity) and re-record.
    a.error = std::to_string(dropped) +
              " records dropped: timelines are unverifiable";
    return a;
  }

  std::map<uint64_t, std::vector<EventRecord>> by_task;
  for (const EventRecord& r : records) {
    if (event_kind_name(r.kind) == nullptr) {
      a.error = "unknown event kind " + std::to_string(r.kind);
      return a;
    }
    if (is_task_keyed(r.kind)) {
      by_task[static_cast<uint64_t>(r.a)].push_back(r);
    }
  }

  a.ok = true;
  a.conserved = true;
  for (auto& [task_id, evs] : by_task) {
    std::stable_sort(evs.begin(), evs.end(),
                     [](const EventRecord& x, const EventRecord& y) {
                       if (x.vt_s != y.vt_s) return x.vt_s < y.vt_s;
                       if (kind_rank(x.kind) != kind_rank(y.kind)) {
                         return kind_rank(x.kind) < kind_rank(y.kind);
                       }
                       return x.t_us < y.t_us;
                     });
    TaskTimeline tl;
    tl.task_id = task_id;
    rebuild_task(evs, tl);
    if (!tl.conserved) {
      a.conserved = false;
      if (a.error.empty()) {
        a.error = "task " + std::to_string(task_id) + ": " + tl.error;
      }
      // Structural failures (no submit/terminal, illegal sequencing) mean
      // the stream itself is broken, not just one partition.
      if (tl.terminal_kind == 0 || tl.submit_vt <= 0.0) a.ok = a.ok && false;
    }
    a.tasks.push_back(std::move(tl));
  }

  double min_start = 0.0;
  double max_end = 0.0;
  bool any = false;
  for (const TaskTimeline& tl : a.tasks) {
    if (!tl.conserved) continue;
    const double start =
        tl.submit_vt - tl.phases[static_cast<int>(TaskPhase::kAdmit)];
    if (!any || start < min_start) min_start = start;
    if (!any || tl.terminal_vt > max_end) max_end = tl.terminal_vt;
    any = true;
    for (int p = 0; p < kPhaseCount; ++p) a.phase_totals[p] += tl.phases[p];
    a.total_turnaround_s += tl.turnaround_s;
  }
  if (any) a.makespan_s = max_end - min_start;
  return a;
}

Attribution attribute_events_file(const std::string& path) {
  std::vector<EventRecord> records;
  uint64_t dropped = 0;
  std::string error;
  if (!read_events_file(path, &records, &dropped, nullptr, &error)) {
    Attribution a;
    a.error = error;
    return a;
  }
  return attribute_events(records, dropped);
}

// ------------------------------------------------------- critical path ----

CriticalPath extract_critical_path(const Attribution& attrib, int top_k) {
  CriticalPath cp;
  if (!attrib.ok || !attrib.conserved) {
    cp.error = attrib.error.empty() ? "attribution is not conserved"
                                    : attrib.error;
    return cp;
  }
  cp.ok = true;
  for (const TaskTimeline& tl : attrib.tasks) {
    cp.longest_task_chain_s = std::max(cp.longest_task_chain_s,
                                       tl.turnaround_s);
  }
  if (attrib.tasks.empty()) return cp;

  struct Seg {
    uint64_t task_id;
    TaskPhase phase;
    double begin, end;
    int bucket;
    int attempt;
  };
  std::vector<Seg> segs;
  std::vector<std::pair<size_t, size_t>> task_range;  // [first, last] index
  for (const TaskTimeline& tl : attrib.tasks) {
    const size_t first = segs.size();
    for (const TaskTimeline::Segment& s : tl.segments) {
      segs.push_back({tl.task_id, s.phase, s.begin_vt, s.end_vt, s.bucket,
                      s.attempt});
    }
    if (segs.size() > first) {
      task_range.emplace_back(first, segs.size() - 1);
    }
  }
  if (segs.empty()) return cp;

  const double kEdgeEps = 1e-9;
  std::vector<std::vector<size_t>> preds(segs.size());
  auto add_edge = [&](size_t from, size_t to) {
    if (from == to) return;
    if (segs[from].end <= segs[to].begin + kEdgeEps) {
      preds[to].push_back(from);
    }
  };

  // 1. Intra-task phase chains.
  for (const auto& [first, last] : task_range) {
    for (size_t i = first; i < last; ++i) add_edge(i, i + 1);
  }

  // 2. Same-bucket occupancy serialization: a bucket runs one attempt at a
  // time, so consecutive occupancy windows on a bucket are ordered. The
  // fallback executor (bucket -1) is per-thread, not a shared resource.
  struct Occ {
    double begin, end;
    size_t first_seg, last_seg;
  };
  std::map<int, std::vector<Occ>> by_bucket;
  {
    std::map<std::pair<uint64_t, std::pair<int, int>>, Occ> windows;
    for (size_t i = 0; i < segs.size(); ++i) {
      const Seg& s = segs[i];
      if (s.bucket < 0) continue;
      if (s.phase != TaskPhase::kTransfer && s.phase != TaskPhase::kCompute &&
          s.phase != TaskPhase::kDrain) {
        continue;
      }
      const auto key = std::make_pair(s.task_id,
                                      std::make_pair(s.bucket, s.attempt));
      auto it = windows.find(key);
      if (it == windows.end()) {
        windows.emplace(key, Occ{s.begin, s.end, i, i});
      } else {
        it->second.begin = std::min(it->second.begin, s.begin);
        if (s.end > it->second.end) {
          it->second.end = s.end;
          it->second.last_seg = i;
        }
      }
    }
    for (const auto& [key, occ] : windows) {
      by_bucket[key.second.first].push_back(occ);
    }
  }
  for (auto& [bucket, occs] : by_bucket) {
    std::sort(occs.begin(), occs.end(),
              [](const Occ& x, const Occ& y) { return x.begin < y.begin; });
    for (size_t i = 1; i < occs.size(); ++i) {
      add_edge(occs[i - 1].last_seg, occs[i].first_seg);
    }
  }

  // 3. Producer step barriers: within a tenant, step s+1's submits happen
  // after step s's on the producer loop. Only time-consistent pairs get an
  // edge (staging pipelines across steps, so this is a partial order).
  {
    // task_range[i] corresponds to the i-th task *with segments*; walk the
    // tasks in the same order to stay correct when some have none.
    std::map<int, std::map<int, std::vector<size_t>>> tenant_steps;
    size_t range_idx = 0;
    for (const TaskTimeline& tl : attrib.tasks) {
      if (tl.segments.empty()) continue;
      tenant_steps[tl.tenant][tl.step].push_back(range_idx);
      ++range_idx;
    }
    for (const auto& [tenant, steps] : tenant_steps) {
      const std::map<int, std::vector<size_t>>& m = steps;
      for (auto it = m.begin(); it != m.end(); ++it) {
        auto next = std::next(it);
        if (next == m.end()) break;
        for (size_t u : it->second) {
          for (size_t v : next->second) {
            add_edge(task_range[u].second, task_range[v].first);
          }
        }
      }
    }
  }

  // 4. Credit dependencies: a task that waited for admission was enabled
  // by some earlier completion releasing its credit; the latest terminal
  // at or before the admission start is the releasing candidate.
  {
    std::vector<std::pair<double, size_t>> terminals;  // (terminal_vt, last)
    size_t range_idx = 0;
    std::vector<size_t> admit_first;  // range idx of tasks with admit wait
    for (const TaskTimeline& tl : attrib.tasks) {
      if (tl.segments.empty()) continue;
      terminals.emplace_back(tl.terminal_vt, task_range[range_idx].second);
      if (tl.phases[static_cast<int>(TaskPhase::kAdmit)] > 0.0) {
        admit_first.push_back(range_idx);
      }
      ++range_idx;
    }
    std::sort(terminals.begin(), terminals.end());
    for (size_t v : admit_first) {
      const double admit_begin = segs[task_range[v].first].begin;
      auto it = std::upper_bound(
          terminals.begin(), terminals.end(),
          std::make_pair(admit_begin + kEdgeEps, segs.size()));
      if (it == terminals.begin()) continue;
      add_edge(std::prev(it)->second, task_range[v].first);
    }
  }

  // Longest-path DP in start-time order (every edge points forward in
  // virtual time, so this is a topological order).
  std::vector<size_t> order(segs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    if (segs[x].begin != segs[y].begin) return segs[x].begin < segs[y].begin;
    if (segs[x].end != segs[y].end) return segs[x].end < segs[y].end;
    return x < y;
  });
  std::vector<size_t> pos(segs.size());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  std::vector<double> best(segs.size());
  std::vector<std::ptrdiff_t> choice(segs.size(), -1);
  for (size_t oi = 0; oi < order.size(); ++oi) {
    const size_t i = order[oi];
    double in_best = 0.0;
    std::ptrdiff_t in_choice = -1;
    for (size_t p : preds[i]) {
      if (pos[p] >= oi) continue;  // eps-degenerate edge; drop, stay a DAG
      if (best[p] > in_best) {
        in_best = best[p];
        in_choice = static_cast<std::ptrdiff_t>(p);
      }
    }
    best[i] = in_best + (segs[i].end - segs[i].begin);
    choice[i] = in_choice;
  }

  auto chain_of = [&](size_t tail) {
    std::vector<CriticalPath::Node> chain;
    std::ptrdiff_t cur = static_cast<std::ptrdiff_t>(tail);
    while (cur >= 0) {
      const Seg& s = segs[static_cast<size_t>(cur)];
      chain.push_back({s.task_id, s.phase, s.begin, s.end, s.bucket});
      cur = choice[static_cast<size_t>(cur)];
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
  };

  // Rank chain tails, keep the top-k ending in distinct tasks.
  std::vector<size_t> tails(segs.size());
  for (size_t i = 0; i < tails.size(); ++i) tails[i] = i;
  std::sort(tails.begin(), tails.end(),
            [&](size_t x, size_t y) { return best[x] > best[y]; });
  std::vector<uint64_t> seen_tasks;
  for (size_t tail : tails) {
    const uint64_t task = segs[tail].task_id;
    if (std::find(seen_tasks.begin(), seen_tasks.end(), task) !=
        seen_tasks.end()) {
      continue;
    }
    seen_tasks.push_back(task);
    cp.top_chains.push_back(chain_of(tail));
    if (cp.top_chains.size() >= static_cast<size_t>(std::max(1, top_k))) {
      break;
    }
  }
  if (!cp.top_chains.empty()) {
    cp.path = cp.top_chains.front();
    for (const CriticalPath::Node& n : cp.path) {
      const double dur = n.end_vt - n.begin_vt;
      cp.length_s += dur;
      cp.phase_on_path[static_cast<int>(n.phase)] += dur;
    }
  }
  return cp;
}

}  // namespace hia::obs
