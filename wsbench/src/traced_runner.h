// The traced pass's runner: the round loop of run_sync_experiment, driven
// from the benchmark so each call into the engine and the verifier gets
// its own span. The outcome must equal run_sync_experiment's field by
// field (same_outcome checks it), which is what lets the traced pass
// split the runner's time without changing what it computes.
#ifndef WSBENCH_SRC_TRACED_RUNNER_H_
#define WSBENCH_SRC_TRACED_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sync/runner.h"
#include "wsbench/src/tracer.h"
#include "wsbench/src/workloads.h"

namespace wsbench {

/// Counters and timings one traced run adds to.
struct RunStats {
  double run_s = 0.0;          ///< sync.run spans, minus the probe below
  double setup_s = 0.0;        ///< Simulation construction
  double step_s = 0.0;         ///< Simulation::step, wake-up phase
  double observe_s = 0.0;      ///< SyncVerifier::observe
  double maintenance_s = 0.0;  ///< Simulation::run_maintenance
  int64_t node_checks = 0;     ///< live nodes the verifier examined
  /// Nodes the engine visited: wake-event pops for protocols that predict
  /// their wake-ups, live node-rounds for the always-visited ones.
  int64_t node_visits = 0;
  int64_t awake_node_rounds = 0;  ///< broadcast + listen node-rounds
  int64_t fast_forwarded_rounds = 0;
  double asleep_for_s = 0.0;      ///< protocol(id).asleep_for() probes
  int64_t asleep_for_probes = 0;
  std::vector<float> round_us;    ///< per-step wall time
  std::vector<double> run_ms;     ///< per-run latency

  void merge(RunStats&& other);
};

/// Runs `spec` like run_sync_experiment, recording a "sync.run" span under
/// `parent` with radio/sync children: one span per step and observe when
/// `per_round_spans`, else one aggregate span each. After the run it probes
/// protocol(id).asleep_for() over the live nodes ("dutycycle.asleep_for").
wsync::RunOutcome traced_run(const wsync::RunSpec& spec, SpanLog& log,
                             int parent, bool per_round_spans,
                             RunStats* stats);

/// Empty when `a` and `b` agree on every field, else the first difference.
std::string outcome_difference(const wsync::RunOutcome& a,
                               const wsync::RunOutcome& b);

/// Fills the radio, dutycycle and sync per-layer metrics from `stats`, the
/// per-layer self times from `spans`, and the tracing overhead.
/// `maintenance_step_s` is the time a step-only twin took for the
/// maintenance rounds (0 without a maintenance phase).
void add_layer_metrics(const RunStats& stats, double maintenance_step_s,
                       const std::vector<Span>& spans, double traced_wall_s,
                       double untraced_wall_s, Report* report);

}  // namespace wsbench

#endif  // WSBENCH_SRC_TRACED_RUNNER_H_
