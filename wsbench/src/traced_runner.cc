#include "wsbench/src/traced_runner.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "bench/bench_util.h"

namespace wsbench {

void RunStats::merge(RunStats&& other) {
  run_s += other.run_s;
  setup_s += other.setup_s;
  step_s += other.step_s;
  observe_s += other.observe_s;
  maintenance_s += other.maintenance_s;
  node_checks += other.node_checks;
  node_visits += other.node_visits;
  awake_node_rounds += other.awake_node_rounds;
  fast_forwarded_rounds += other.fast_forwarded_rounds;
  asleep_for_s += other.asleep_for_s;
  asleep_for_probes += other.asleep_for_probes;
  round_us.insert(round_us.end(), other.round_us.begin(),
                  other.round_us.end());
  run_ms.insert(run_ms.end(), other.run_ms.begin(), other.run_ms.end());
}

namespace {

using wsync::NodeId;
using wsync::RunOutcome;
using wsync::RunSpec;
using wsync::Simulation;

/// Times protocol(id).asleep_for() over every live node. Nodes are settled
/// first, so the timed loop measures the call and not the catch-up replay.
/// Returns whether the protocol predicts its wake-ups.
bool probe_asleep_for(Simulation& sim, SpanLog& log, int parent,
                      RunStats* stats) {
  std::vector<NodeId> live;
  for (NodeId id = 0; id < sim.config().n; ++id) {
    if (sim.is_active(id) && !sim.is_crashed(id)) {
      sim.protocol(id);
      live.push_back(id);
    }
  }
  int64_t predicted = 0;
  const ScopedSpan span(log, "dutycycle.asleep_for", parent);
  const double start = now_s();
  for (NodeId id : live) {
    const std::optional<int64_t> horizon = sim.protocol(id).asleep_for();
    wsync::bench::keep(horizon.value_or(-1));
    if (horizon.has_value()) ++predicted;
  }
  stats->asleep_for_s += now_s() - start;
  stats->asleep_for_probes += static_cast<int64_t>(live.size());
  return predicted > 0;
}

}  // namespace

RunOutcome traced_run(const RunSpec& spec, SpanLog& log, int parent,
                      bool per_round_spans, RunStats* stats) {
  // Mirrors src/sync/runner.cc statement for statement; only the spans and
  // counters are new.
  const int run = log.open("sync.run", parent);
  const int setup = log.open("radio.setup", run);
  std::optional<Simulation> sim;
  sim.emplace(spec.sim, spec.factory, spec.make_adversary(),
              spec.make_activation(), spec.trace);
  log.close(setup);
  stats->setup_s += log.spans()[static_cast<size_t>(setup)].dur_s;
  wsync::SyncVerifier verifier(spec.verifier);

  const int step_total =
      per_round_spans ? -1 : log.aggregate("radio.step", run);
  const int observe_total =
      per_round_spans ? -1 : log.aggregate("sync.observe", run);
  int64_t live_node_rounds = 0;

  RunOutcome outcome;
  double max_weight = 0.0;

  auto apply_crash_waves = [&] {
    for (const wsync::CrashWave& wave : spec.crash_waves) {
      if (wave.round != sim->round()) continue;
      int remaining = wave.count;
      for (NodeId id = 0; id < spec.sim.n && remaining > 0; ++id) {
        if (sim->is_active(id) && !sim->is_crashed(id)) {
          sim->crash(id);
          --remaining;
        }
      }
    }
  };

  auto round = [&] {
    apply_crash_waves();
    const double start = now_s();
    const wsync::RoundReport report = sim->step();
    const double stepped = now_s();
    max_weight = std::max(max_weight, report.broadcast_weight);
    verifier.observe(*sim);
    const double observed = now_s();
    if (per_round_spans) {
      log.record("radio.step", run, start, stepped);
      log.record("sync.observe", run, stepped, observed);
    } else {
      log.add(step_total, stepped - start);
      log.add(observe_total, observed - stepped);
    }
    stats->step_s += stepped - start;
    stats->observe_s += observed - stepped;
    stats->round_us.push_back(static_cast<float>((stepped - start) * 1e6));
    stats->node_checks += sim->active_count();
    live_node_rounds += sim->active_count();
  };

  while (sim->round() < spec.max_rounds) {
    round();
    if (sim->all_synced()) break;
  }
  outcome.synced = sim->all_synced();
  outcome.rounds = sim->round();

  for (wsync::RoundId i = 0; i < spec.extra_rounds; ++i) round();

  if (spec.maintenance_rounds > 0) {
    const ScopedSpan span(log, "radio.maintenance", run);
    const double start = now_s();
    const Simulation::MaintenanceReport maintenance =
        sim->run_maintenance(spec.maintenance_rounds, spec.offset_bound);
    stats->maintenance_s += now_s() - start;
    // Every node is active by liveness and no crash wave fires here, so the
    // live count held for the whole phase.
    live_node_rounds += spec.maintenance_rounds * sim->active_count();
    outcome.max_offset_seen = maintenance.max_offset_seen;
    outcome.offset_violations = maintenance.offset_violations;
    outcome.resync_count = maintenance.resync_count;
  }

  outcome.sync_latency.resize(static_cast<size_t>(spec.sim.n), -1);
  for (NodeId id = 0; id < spec.sim.n; ++id) {
    const wsync::RoundId sync_at = sim->sync_round(id);
    const wsync::RoundId woke_at = sim->activation_round(id);
    if (sync_at >= 0) {
      outcome.last_sync_round = std::max(outcome.last_sync_round, sync_at);
      outcome.sync_latency[static_cast<size_t>(id)] = sync_at - woke_at;
    }
  }

  outcome.properties = verifier.report();
  outcome.max_broadcast_weight = max_weight;
  outcome.energy = sim->energy().totals();

  outcome.rounds_simulated = sim->round();
  outcome.deliveries = sim->deliveries_total();
  outcome.collisions = sim->collisions_total();
  outcome.absences = sim->absences_total();
  for (NodeId id = 0; id < spec.sim.n; ++id) {
    if (sim->role(id) == wsync::Role::kKnockedOut) ++outcome.knockouts;
  }
  outcome.wake_events_popped = sim->wake_events_popped();
  outcome.fast_forwarded_rounds = sim->fast_forwarded_rounds();

  // The probe is not part of the runner's work: its time is taken out of
  // the run latency below.
  const double probe_start = now_s();
  const bool predicts_wakeups = probe_asleep_for(*sim, log, run, stats);
  const double probe_s = now_s() - probe_start;
  {
    const ScopedSpan span(log, "radio.teardown", run);
    sim.reset();
  }
  log.close(run);

  const double run_s = log.spans()[static_cast<size_t>(run)].dur_s - probe_s;
  stats->run_s += run_s;
  stats->run_ms.push_back(run_s * 1e3);
  stats->node_visits +=
      predicts_wakeups ? outcome.wake_events_popped : live_node_rounds;
  stats->awake_node_rounds +=
      outcome.energy.broadcast_rounds + outcome.energy.listen_rounds;
  stats->fast_forwarded_rounds += outcome.fast_forwarded_rounds;
  return outcome;
}

std::string outcome_difference(const RunOutcome& a, const RunOutcome& b) {
  const wsync::SyncVerifier::Report& pa = a.properties;
  const wsync::SyncVerifier::Report& pb = b.properties;
  const std::pair<const char*, bool> checks[] = {
      {"synced", a.synced == b.synced},
      {"rounds", a.rounds == b.rounds},
      {"last_sync_round", a.last_sync_round == b.last_sync_round},
      {"sync_latency", a.sync_latency == b.sync_latency},
      {"rounds_observed", pa.rounds_observed == pb.rounds_observed},
      {"synch_commit_violations",
       pa.synch_commit_violations == pb.synch_commit_violations},
      {"correctness_violations",
       pa.correctness_violations == pb.correctness_violations},
      {"agreement_violations",
       pa.agreement_violations == pb.agreement_violations},
      {"max_simultaneous_leaders",
       pa.max_simultaneous_leaders == pb.max_simultaneous_leaders},
      {"resyncs_observed", pa.resyncs_observed == pb.resyncs_observed},
      {"max_broadcast_weight",
       a.max_broadcast_weight == b.max_broadcast_weight},
      {"energy", a.energy == b.energy},
      {"max_offset_seen", a.max_offset_seen == b.max_offset_seen},
      {"offset_violations", a.offset_violations == b.offset_violations},
      {"resync_count", a.resync_count == b.resync_count},
      {"rounds_simulated", a.rounds_simulated == b.rounds_simulated},
      {"deliveries", a.deliveries == b.deliveries},
      {"collisions", a.collisions == b.collisions},
      {"absences", a.absences == b.absences},
      {"knockouts", a.knockouts == b.knockouts},
      {"wake_events_popped", a.wake_events_popped == b.wake_events_popped},
      {"fast_forwarded_rounds",
       a.fast_forwarded_rounds == b.fast_forwarded_rounds},
  };
  for (const auto& [field, equal] : checks) {
    if (!equal) return field;
  }
  return "";
}

void add_layer_metrics(const RunStats& stats, double maintenance_step_s,
                       const std::vector<Span>& spans, double traced_wall_s,
                       double untraced_wall_s, Report* report) {
  auto& v = report->values;
  const auto visits = static_cast<double>(stats.node_visits);
  const auto awake = static_cast<double>(stats.awake_node_rounds);
  v["radio.step_s"] = stats.step_s;
  v["radio.node_visits"] = visits;
  v["radio.awake_node_rounds"] = awake;
  v["radio.visit_yield"] = ratio(awake, visits);
  v["radio.ns_per_visit"] =
      ratio((stats.step_s + maintenance_step_s) * 1e9, visits);
  v["radio.round_p50_us"] = quantile(stats.round_us, 0.50);
  v["radio.round_p99_us"] = quantile(stats.round_us, 0.99);
  v["radio.maintenance_s"] = stats.maintenance_s;
  v["radio.maintenance_scan_s"] =
      maintenance_step_s > 0.0 ? stats.maintenance_s - maintenance_step_s
                               : 0.0;
  v["radio.fast_forwarded_rounds"] =
      static_cast<double>(stats.fast_forwarded_rounds);
  v["radio.setup_s"] = stats.setup_s;
  v["dutycycle.asleep_for_ns"] =
      ratio(stats.asleep_for_s * 1e9,
            static_cast<double>(stats.asleep_for_probes));
  v["sync.observe_s"] = stats.observe_s;
  v["sync.node_checks"] = static_cast<double>(stats.node_checks);
  v["sync.runner_over_engine"] =
      ratio(stats.run_s, stats.step_s + stats.maintenance_s);
  v["sync.run_p50_ms"] = quantile(stats.run_ms, 0.50);
  v["sync.run_p98_ms"] = quantile(stats.run_ms, 0.98);
  v["sync.run_max_ms"] = quantile(stats.run_ms, 1.0);
  for (const auto& [layer, seconds] : self_seconds_by_layer(spans)) {
    v[layer + ".self_s"] = seconds;
  }
  v["bench.trace_overhead_s"] = traced_wall_s - untraced_wall_s;
}

}  // namespace wsbench
