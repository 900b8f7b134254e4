// E15 — Parallel runner scaling: a serial seed loop vs parallel_for on the
// thread pool, wall-clock on the Theorem 10 workload (Trapdoor, staggered
// activation, random-subset jammer), replicated across seeds at 1/2/4/8
// workers.
//
// Besides the stdout table, writes BENCH_parallel_scaling.json (path
// overridable via argv[1]) so CI can track the perf trajectory from PR to
// PR. The bench also re-verifies the determinism contract: every parallel
// outcome vector must be bit-identical to the serial one.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/thread_pool.h"
#include "src/experiment/sweep.h"
#include "src/stats/table.h"
#include "src/sync/runner.h"

namespace wsync {
namespace {

bool identical(const std::vector<RunOutcome>& a,
               const std::vector<RunOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].synced != b[i].synced || a[i].rounds != b[i].rounds ||
        a[i].last_sync_round != b[i].last_sync_round ||
        a[i].sync_latency != b[i].sync_latency ||
        a[i].max_broadcast_weight != b[i].max_broadcast_weight ||
        a[i].properties.agreement_violations !=
            b[i].properties.agreement_violations ||
        a[i].properties.synch_commit_violations !=
            b[i].properties.synch_commit_violations ||
        a[i].properties.correctness_violations !=
            b[i].properties.correctness_violations ||
        a[i].properties.max_simultaneous_leaders !=
            b[i].properties.max_simultaneous_leaders ||
        a[i].properties.rounds_observed != b[i].properties.rounds_observed ||
        a[i].properties.resyncs_observed != b[i].properties.resyncs_observed) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace wsync

int main(int argc, char** argv) {
  using namespace wsync;
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_parallel_scaling.json";

  // The Theorem 10 workload at a size where one serial pass takes seconds:
  // the same shape thm10_trapdoor_scaling_n sweeps.
  ExperimentPoint point;
  point.F = 16;
  point.t = 8;
  point.N = 4096;
  point.n = 24;
  point.protocol = ProtocolKind::kTrapdoor;
  point.adversary = AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kStaggeredUniform;
  point.activation_window = 32;
  const int seed_count = 32;

  bench::section(
      "Parallel runner scaling — Theorem 10 workload, serial vs "
      "parallel_for");
  std::printf("Trapdoor, F = %d, t = %d, N = %lld, n = %d, %d seeds; "
              "hardware concurrency = %d\n\n",
              point.F, point.t, static_cast<long long>(point.N), point.n,
              seed_count, ThreadPool::default_workers());

  const RunSpec spec = make_run_spec(point);
  const std::vector<uint64_t> seeds = make_seeds(seed_count);
  const auto run_seed = [&](std::vector<RunOutcome>& outcomes, size_t i) {
    RunSpec seeded = spec;
    seeded.sim.seed = seeds[i];
    outcomes[i] = run_sync_experiment(seeded);
  };

  std::vector<RunOutcome> serial(seeds.size());
  const double serial_ms = bench::time_ms([&] {
    for (size_t i = 0; i < seeds.size(); ++i) run_seed(serial, i);
  });

  struct Measurement {
    int workers;
    double ms;
    bool identical;
  };
  std::vector<Measurement> measurements;
  for (const int workers : {1, 2, 4, 8}) {
    ThreadPool pool(workers);  // pool construction is part of neither timing
    std::vector<RunOutcome> outcomes(seeds.size());
    const double ms = bench::time_ms([&] {
      parallel_for(pool, seeds.size(),
                   [&](size_t i) { run_seed(outcomes, i); });
    });
    measurements.push_back({workers, ms, identical(serial, outcomes)});
  }

  Table table({"runner", "workers", "wall ms", "speedup vs serial",
               "bit-identical"});
  table.row()
      .cell("serial")
      .cell(int64_t{1})
      .cell(serial_ms, 1)
      .cell(1.0, 2)
      .cell("-");
  for (const Measurement& m : measurements) {
    table.row()
        .cell("parallel")
        .cell(static_cast<int64_t>(m.workers))
        .cell(m.ms, 1)
        .cell(serial_ms / m.ms, 2)
        .cell(m.identical ? "yes" : "NO");
  }
  std::printf("%s", table.markdown().c_str());
  bench::note(
      "\nShape check: speedup tracks min(workers, cores) — runs are "
      "embarrassingly\nparallel (each owns its forked Rng streams), so the "
      "only losses are pool\noverhead and load imbalance on the slowest "
      "seed. The bit-identical column\nmust read 'yes' everywhere: "
      "parallelism changes wall-clock, never results.");

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"parallel_scaling\",\n"
               "  \"workload\": {\"protocol\": \"trapdoor\", \"F\": %d, "
               "\"t\": %d, \"N\": %lld, \"n\": %d, \"seeds\": %d},\n"
               "  \"hardware_concurrency\": %d,\n"
               "  \"serial_ms\": %.3f,\n"
               "  \"parallel\": [",
               point.F, point.t, static_cast<long long>(point.N), point.n,
               seed_count, ThreadPool::default_workers(), serial_ms);
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(json,
                 "%s\n    {\"workers\": %d, \"ms\": %.3f, "
                 "\"speedup\": %.3f, \"bit_identical\": %s}",
                 i == 0 ? "" : ",", m.workers, m.ms, serial_ms / m.ms,
                 m.identical ? "true" : "false");
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());

  bool all_identical = true;
  for (const Measurement& m : measurements) all_identical &= m.identical;
  return all_identical ? 0 : 1;
}
