// E-BKO — radio use vs contention: the Bradonjić–Kohler–Ostrovsky cost of
// the paper's always-on protocols as jamming intensity grows.
//
// The grid comes from the scenario catalog (energy_vs_contention), the
// single source of truth also exercised by wsync_run and the registry
// tests; this bench adds the radio-use table (awake-rounds and the
// broadcast/listen split) and, given an output path, writes a JSON summary
// of deterministic aggregates for CI to archive.
//
// Expected shape: the paper's protocols never power down, so per-node
// awake-rounds track time-to-liveness — heavier actual jamming t' stretches
// both together, while the broadcast share of awake time stays small (the
// schedules listen far more than they talk). The per-point energy budgets
// must hold (zero violations).
#include <cstdio>

#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/scenario/registry.h"
#include "src/scenario/scenario.h"
#include "src/service/streaming_sweep.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
  using namespace wsync;
  bench::section(
      "Radio use vs contention — awake-rounds under growing jamming "
      "(cf. Bradonjic-Kohler-Ostrovsky)");
  const Scenario& scenario = ScenarioRegistry::get("energy_vs_contention");
  const int seeds = scenario.default_seeds;
  ThreadPool pool;
  const std::vector<PointResult> results =
      run_points(scenario.grid, seeds, pool);

  Table table({"t_actual", "runs", "p50 rounds", "awake p50", "awake max",
               "bcast share", "listen share", "budget", "violations"});
  for (const PointResult& result : results) {
    const ExperimentPoint& p = result.point;
    const int jam = p.jam_count < 0 ? p.t : p.jam_count;
    const double awake_total = static_cast<double>(result.broadcast_rounds +
                                                   result.listen_rounds);
    const double denom = awake_total > 0 ? awake_total : 1.0;
    table.row()
        .cell(static_cast<int64_t>(jam))
        .cell(static_cast<int64_t>(result.runs))
        .cell(result.rounds_to_live.p50, 0)
        .cell(result.max_awake_rounds.p50, 0)
        .cell(result.max_awake_rounds.max, 0)
        .cell(static_cast<double>(result.broadcast_rounds) / denom, 4)
        .cell(static_cast<double>(result.listen_rounds) / denom, 4)
        .cell(p.energy_budget)
        .cell(static_cast<int64_t>(result.energy_budget_violations));
  }
  std::printf("%s", table.markdown().c_str());

  const std::vector<std::string> failures =
      check_expectations(scenario, results);
  for (const std::string& failure : failures) {
    std::printf("EXPECTATION FAILED: %s\n", failure.c_str());
  }

  bench::note(
      "\nShape check: awake p50 rises with t' in lockstep with p50 rounds "
      "(always-on radios\nmake energy an alias of time), and the broadcast "
      "share stays small — the schedules\nlisten far more than they talk. "
      "Budgets must show zero violations.");

  if (argc > 1) {
    // Deterministic aggregates only, so summaries diff clean across runs
    // and worker counts (same contract as wsync_run --json).
    std::ofstream out(argv[1]);
    if (!out) {
      std::fprintf(stderr, "energy_radio_use: cannot write '%s'\n", argv[1]);
      return 2;
    }
    out << "{\n  \"scenario\": \"" << scenario.name << "\",\n"
        << "  \"seeds\": " << seeds << ",\n"
        << "  \"ok\": " << (failures.empty() ? "true" : "false") << ",\n"
        << "  \"points\":\n"
        << table.json(2) << "\n}\n";
    std::printf("\nwrote %s\n", argv[1]);
  }
  return failures.empty() ? 0 : 1;
}
