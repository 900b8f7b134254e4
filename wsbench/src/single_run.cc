// wakeup_large_n and drift_hold: one seeded duty-cycle run each, through
// run_sync_experiment, with no service work around it.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/experiment/sweep.h"
#include "src/radio/engine.h"
#include "src/sync/runner.h"
#include "wsbench/src/traced_runner.h"
#include "wsbench/src/tracer.h"
#include "wsbench/src/workloads.h"

namespace wsbench {
namespace {

using wsync::ExperimentPoint;
using wsync::RunOutcome;
using wsync::RunSpec;
using wsync::Simulation;

/// Setup samples taken per measured invocation (the median is reported).
constexpr int kSetupSamples = 200;

struct SingleRun {
  const char* name;
  ExperimentPoint point;
};

/// Duty-cycled synchronizer against an oblivious jammer, everyone awake
/// from round 0.
ExperimentPoint duty_cycle_point(int64_t N, int n) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = N;
  point.n = n;
  point.protocol = wsync::ProtocolKind::kDutyCycle;
  point.adversary = wsync::AdversaryKind::kRandomSubset;
  point.activation = wsync::ActivationKind::kSimultaneous;
  return point;
}

SingleRun wakeup_large_n() {
  return {"wakeup_large_n", duty_cycle_point(100'000, 50'000)};
}

SingleRun drift_hold() {
  SingleRun run{"drift_hold", duty_cycle_point(4096, 4096)};
  run.point.drift_ppm = 200;
  run.point.resync_awake_slots = 8;
  run.point.maintenance_rounds = 8000;
  // The catalog's calibrated bound for the R=8 cadence (drift_hold_dutycycle).
  run.point.offset_bound = 48;
  return run;
}

RunSpec spec_for(const ExperimentPoint& point, uint64_t seed) {
  RunSpec spec = wsync::make_run_spec(point);
  spec.sim.seed = seed;
  return spec;
}

/// Spec building plus Simulation construction: the work before round 0.
double setup_seconds(const ExperimentPoint& point, uint64_t seed) {
  const double start = now_s();
  const RunSpec spec = spec_for(point, seed);
  const Simulation sim(spec.sim, spec.factory, spec.make_adversary(),
                       spec.make_activation());
  return now_s() - start;
}

struct Pass {
  double wall_s = 0.0;
  RunOutcome outcome;
};

Pass production_pass(const ExperimentPoint& point, uint64_t seed) {
  Pass pass;
  const double start = now_s();
  pass.outcome = wsync::run_sync_experiment(spec_for(point, seed));
  pass.wall_s = now_s() - start;
  return pass;
}

/// The run's correctness claims; appends a line per broken one.
bool check(const SingleRun& run, const RunOutcome& outcome, Report* report) {
  const size_t before = report->failures.size();
  const std::string who = std::string(run.name) + ": ";
  if (!outcome.synced) {
    report->failures.push_back(who + "no liveness within " +
                               std::to_string(outcome.rounds) + " rounds");
  }
  if (outcome.properties.synch_commit_violations != 0) {
    report->failures.push_back(
        who + std::to_string(outcome.properties.synch_commit_violations) +
        " synch-commit violations");
  }
  if (outcome.properties.correctness_violations != 0) {
    report->failures.push_back(
        who + std::to_string(outcome.properties.correctness_violations) +
        " correctness violations");
  }
  if (outcome.offset_violations != 0) {
    report->failures.push_back(who +
                               std::to_string(outcome.offset_violations) +
                               " offset violations");
  }
  return report->failures.size() == before;
}

/// Steps a twin of the run through the same wake-up rounds, then times
/// `maintenance_rounds` plain steps: run_maintenance minus this is the cost
/// of its per-round scan.
double step_only_maintenance(const RunSpec& spec) {
  Simulation sim(spec.sim, spec.factory, spec.make_adversary(),
                 spec.make_activation());
  while (sim.round() < spec.max_rounds) {
    sim.step();
    if (sim.all_synced()) break;
  }
  for (wsync::RoundId i = 0; i < spec.extra_rounds; ++i) sim.step();
  const double start = now_s();
  for (wsync::RoundId i = 0; i < spec.maintenance_rounds; ++i) sim.step();
  return now_s() - start;
}

Report measure(const SingleRun& run, const Options& options) {
  Report report;
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    setups.push_back(setup_seconds(run.point, options.seed));
  }
  std::vector<double> walls;
  RunOutcome first;
  const double start = now_s();
  do {
    Pass pass = production_pass(run.point, options.seed);
    bool ok = check(run, pass.outcome, &report);
    if (walls.empty()) {
      first = pass.outcome;
    } else if (const std::string field =
                   outcome_difference(first, pass.outcome);
               !field.empty()) {
      report.failures.push_back(std::string(run.name) +
                                ": repeated pass differs in " + field);
      ok = false;
    }
    walls.push_back(pass.wall_s);
    ++report.attempted;
    if (!ok) ++report.failed;
  } while (now_s() - start < options.seconds);

  print_passes(run.name, walls);
  const double node_rounds =
      static_cast<double>(run.point.n) *
      static_cast<double>(first.rounds_simulated);
  report.values["wall_s"] = median(walls);
  report.values["node_rounds_per_s"] = node_rounds / median(walls);
  report.values["setup_s"] = median(setups);
  return report;
}

Report trace(const SingleRun& run, const Options& options) {
  Report report;
  const Pass untraced = production_pass(run.point, options.seed);

  SpanLog log;
  RunStats stats;
  const int root = log.open("bench.pass", -1);
  RunSpec spec;
  {
    const ScopedSpan span(log, "experiment.make_run_spec", root);
    spec = spec_for(run.point, options.seed);
  }
  const RunOutcome traced =
      traced_run(spec, log, root, /*per_round_spans=*/true, &stats);
  log.close(root);
  const double traced_wall = log.spans()[0].dur_s;

  // A second untraced pass after the traced one, so warm-up does not land
  // on one side of the overhead.
  const Pass untraced_after = production_pass(run.point, options.seed);

  report.attempted = 1;
  bool ok = check(run, untraced.outcome, &report);
  for (const RunOutcome* other : {&traced, &untraced_after.outcome}) {
    if (const std::string field = outcome_difference(*other, untraced.outcome);
        !field.empty()) {
      report.failures.push_back(std::string(run.name) +
                                ": traced or repeated outcome differs in " +
                                field);
      ok = false;
    }
  }
  if (!ok) report.failed = 1;

  const double maintenance_step_s =
      spec.maintenance_rounds > 0 ? step_only_maintenance(spec) : 0.0;
  add_layer_metrics(stats, maintenance_step_s, log.spans(), traced_wall,
                    median({untraced.wall_s, untraced_after.wall_s}),
                    &report);

  std::ofstream out(options.out_dir + "/trace_" + run.name + ".json");
  write_chrome_trace(log.spans(), out);
  return report;
}

Report run_single(const SingleRun& run, const Options& options) {
  return options.trace ? trace(run, options) : measure(run, options);
}

}  // namespace

Report run_wakeup_large_n(const Options& options) {
  return run_single(wakeup_large_n(), options);
}

Report run_drift_hold(const Options& options) {
  return run_single(drift_hold(), options);
}

}  // namespace wsbench
