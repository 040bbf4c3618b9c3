// Replay-driven what-if capacity planner (the ROADMAP's SIM-SITU mode).
//
// A recorded `hia-events-v1` spill carries every task's causal costs:
// admission wait, per-attempt transfer/compute wall time, occupancy
// remainder, arrival order, tenant and input bytes (obs/attrib.hpp proves
// the partition is exact before we trust any of it). This module replays
// that workload through a discrete-event model of the staging layer —
// credit admission, a bounded task queue matched by the live scheduler's
// own policy (staging/policy.hpp, FCFS or fair share, on virtual time),
// B bucket servers, and the Gemini NetworkModel for transfers — under
// *hypothetical* configurations: different bucket counts, producer node
// counts, network parameters, codec reduction ratios, and overload
// policies. One replay costs microseconds, so sweeping the paper's
// Table I / Fig 5 sizing questions over a scenario grid is near-free.
//
// Fidelity contract:
//   * Recorded per-task service costs (transfer + compute + drain) are
//     conserved verbatim unless the scenario re-models transfers
//     (`xfer=modeled`, implied by any network/codec key).
//   * A spill with dropped records FAILS CLOSED: lost records mean the
//     workload is unverifiable, so extraction refuses (same rule as
//     attribution).
//   * calibrate() replays the recorded run under its *own* configuration
//     and must reproduce the measured makespan within a relative
//     tolerance — the CI gate (`replay_calibrated_ok` in
//     bench/baselines/BENCH_replay.json) that keeps the model honest.
//
// Known model simplifications (docs/PLANNER.md "When replay lies"):
// fault-driven retries/backoff are not re-simulated, and congestion is
// sampled at dispatch time rather than continuously. Spills that carry a
// run_config header block (PR 10+) replay with the *recorded* tenant
// weights and configured bucket count; older spills fall back to equal
// weights and the observed bucket census.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/attrib.hpp"
#include "obs/events.hpp"
#include "runtime/network_model.hpp"

namespace hia::planner {

/// One replayable task reconstructed from a spill's attribution.
struct ReplayTask {
  uint64_t task_id = 0;
  int tenant = 0;
  int step = -1;
  double arrival_vt = 0.0;  // submit_vt - admit_wait: when the producer
                            //   first wanted admission
  double admit_wait_s = 0.0;   // recorded admission wait
  int64_t input_bytes = 0;     // submit record's input wire bytes
  double transfer_s = 0.0;     // recorded wall seconds inside pulls
  double compute_s = 0.0;      // recorded handler seconds
  double drain_s = 0.0;        // recorded occupancy remainder
  int32_t terminal_kind = 0;   // recorded outcome (EventKind)
};

/// The workload plus the measured ground truth from one spill.
struct Workload {
  bool ok = false;
  std::string error;  // fail-closed reason (drops, broken partition, I/O)
  std::vector<ReplayTask> tasks;  // sorted by arrival, then task id
  double measured_makespan_s = 0.0;  // attribution's measured makespan
  int recorded_buckets = 1;  // distinct bucket ids seen in occupancies
  std::vector<int> tenants;  // distinct tenant ids, ascending
  /// Run configuration embedded in the spill header (present == false for
  /// pre-PR10 spills or when extracting from an in-memory attribution).
  /// When present, calibrate() replays the *configured* bucket count and
  /// tenant weights instead of inferring them from the event stream.
  obs::EventsRunConfig run_config;
};

/// Builds the workload from a conserved attribution. Fails closed when
/// the attribution is not ok/conserved (which includes any drops).
Workload extract_workload(const obs::Attribution& attrib);

/// Same, straight from an hia-events-v1 spill.
Workload extract_workload_file(const std::string& path);

/// Matcher discipline for the replayed queue.
enum class QueuePolicy { kFcfs, kFair };

/// Where queue-cap overflow goes (the overload divert policy).
enum class DivertMode { kShed, kDegrade };

/// One hypothetical configuration. The default scenario replays the
/// recorded run: recorded bucket count, recorded transfer costs,
/// unlimited credits, unbounded queue, FCFS.
struct Scenario {
  int buckets = 0;        // staging buckets; 0 = recorded count
  double arrival_scale = 1.0;  // multiplies arrival offsets from t0
  double nodes = 0.0;     // producer nodes; >0 scales arrivals by
                          //   base_nodes/nodes (strong scaling)
  double base_nodes = 1.0;
  int credits = 0;        // admission credits; 0 = unlimited
  long queue_depth = 0;   // queued-task cap; 0 = unbounded
  DivertMode divert = DivertMode::kShed;  // where capped overflow goes
  QueuePolicy policy = QueuePolicy::kFcfs;
  bool model_network = false;  // re-model transfers from input bytes
  NetworkParams net;           // used when model_network
  double codec_ratio = 1.0;    // wire-byte scale under re-modeling
  /// Fair-share weights for QueuePolicy::kFair (index = tenant id - 1;
  /// empty or out-of-range tenants = weight 1.0). calibrate() and hia_plan
  /// seed these from the spill's run_config when the header carries one.
  std::vector<double> tenant_weights;
  std::string label;           // human-readable "k=v;k=v" scenario key
};

/// Parses a comma-separated "key=value" spec into `*io` (on top of its
/// current values). Keys: buckets, nodes, base-nodes, arrival-scale,
/// credits, queue-depth, divert (shed|degrade), policy (fcfs|fair),
/// xfer (recorded|modeled), codec (raw|rle|delta|quantize),
/// codec-ratio, smsg-lat, smsg-bw, smsg-max, bte-lat, bte-bw,
/// congestion. Numbers accept binary k/m/g suffixes (1024-based, the
/// overload-spec convention). Any
/// network or codec key implies xfer=modeled. Returns false with
/// `*error` set on an unknown key or a value out of domain.
bool parse_scenario(const std::string& spec, Scenario* io,
                    std::string* error);

/// Nominal wire-reduction ratio for a named codec (the planner cannot
/// re-encode recorded payloads, so codec sweeps scale bytes by these;
/// override with codec-ratio=R). Returns <= 0 for an unknown name.
double nominal_codec_ratio(const std::string& codec);

/// What one replayed scenario predicts.
struct Prediction {
  bool ok = false;
  std::string error;
  double makespan_s = 0.0;  // max predicted terminal - min arrival
  double phase_totals[obs::kPhaseCount] = {};  // predicted task-seconds
  double total_turnaround_s = 0.0;
  uint64_t completed = 0;
  uint64_t degraded = 0;  // queue-cap overflow run at in-situ cost
  uint64_t shed = 0;      // queue-cap overflow dropped at admission
  long peak_queue_depth = 0;
  double busy_bucket_seconds = 0.0;
  double utilization = 0.0;  // busy / (buckets * makespan)
  std::vector<double> turnarounds_s;  // per task, arrival -> terminal
  std::vector<double> terminals_vt;   // predicted terminal times, sorted
};

/// Replays the workload under `scenario`. Deterministic: identical
/// inputs produce identical predictions (ties broken by task id;
/// completions process before arrivals at equal instants).
Prediction replay(const Workload& workload, const Scenario& scenario);

/// The calibration check: replay the recorded run under its own
/// configuration and compare predicted vs measured makespan.
struct Calibration {
  bool ok = false;          // workload extracted and replay ran
  std::string error;
  bool calibrated = false;  // ok && rel_error <= tolerance
  double measured_makespan_s = 0.0;
  double predicted_makespan_s = 0.0;
  double rel_error = 0.0;   // |predicted - measured| / measured
  double tolerance = 0.0;
  Prediction prediction;
};

/// Default calibration tolerance. Replay conserves recorded service
/// costs and runs the live matching policy, so the residual is the
/// recorded credit wait the default scenario does not replay — see
/// docs/PLANNER.md for the rationale and the measured residuals behind
/// this number.
inline constexpr double kDefaultCalibrationTolerance = 0.15;

/// Replays under the recorded configuration (recorded buckets, recorded
/// transfers, fair-share when the spill is multi-tenant) and checks the
/// makespan against the measurement.
Calibration calibrate(const Workload& workload,
                      double tolerance = kDefaultCalibrationTolerance);

// ---- Sweep grammar ----
//
//   KEY=V1,V2,...          explicit value list
//   KEY=LO..HI             inclusive integer-stepped range (step 1)
//   KEY=LO..HI:STEP        inclusive range with explicit step
//
// Every key parse_scenario accepts can be swept; multiple sweep axes
// cross-multiply into the scenario grid. One axis, and the whole grid,
// hold at most kMaxSweepScenarios values.

/// Each scenario is one full replay of the workload, so a grid past this
/// is a typo ("buckets=1..1e12"), not a plan.
inline constexpr size_t kMaxSweepScenarios = 4096;

struct SweepSpec {
  std::string key;
  std::vector<std::string> values;  // rendered back through the scenario
                                    //   parser, so domain checks apply
};

/// Parses one "key=spec" sweep axis. Returns false with `*error` set on
/// grammar errors (no '=', empty list, bad range, nonpositive step), on a
/// step too small to advance the value in double precision, and on more
/// than kMaxSweepScenarios values. A range is counted before any value is
/// made.
bool parse_sweep(const std::string& spec, SweepSpec* out,
                 std::string* error);

/// Expands sweep axes over `base` into the scenario cross product, in
/// row-major order (first axis slowest). Labels carry only the swept
/// keys ("buckets=4;credits=8"). Returns false when the grid would exceed
/// kMaxSweepScenarios, or when any generated value fails scenario parsing.
bool expand_sweeps(const Scenario& base,
                   const std::vector<SweepSpec>& sweeps,
                   std::vector<Scenario>* out, std::string* error);

}  // namespace hia::planner
