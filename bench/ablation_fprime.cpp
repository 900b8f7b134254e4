// E12 — Design ablations:
//   (a) the F' = min(F, 2t) band restriction: against the full-band
//       variant, especially when t << F (the final epoch is F'^2/(F'-t)
//       long: 4t^2/t = Theta(t) vs F^2/(F-t));
//   (b) the epoch-length constant c1;
//   (c) the final-epoch constant c2 (too short -> multiple leaders).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/thread_pool.h"
#include "src/experiment/sweep.h"
#include "src/stats/table.h"
#include "src/sync/runner.h"
#include "src/trapdoor/trapdoor.h"

namespace wsync {
namespace {

PointResult run_with_config(ThreadPool& pool, const TrapdoorConfig& config,
                            int F, int t, int64_t N, int n, int seeds,
                            AdversaryKind adversary,
                            ActivationKind activation) {
  ExperimentPoint point;
  point.F = F;
  point.t = t;
  point.N = N;
  point.n = n;
  point.adversary = adversary;
  point.activation = activation;
  point.activation_window = 48;
  point.extra_rounds = 128;
  RunSpec spec = make_run_spec(point);
  spec.factory = TrapdoorProtocol::factory(config);
  // Budget: generous multiple of this config's own schedule.
  spec.max_rounds =
      16 * TrapdoorSchedule::standard(F, t, N, config).total_rounds() + 2048;

  // The spec is not make_run_spec(point), so the seeds fan out directly.
  const std::vector<uint64_t> seed_list = make_seeds(seeds);
  std::vector<RunOutcome> outcomes(seed_list.size());
  parallel_for(pool, seed_list.size(), [&](size_t i) {
    RunSpec seeded = spec;
    seeded.sim.seed = seed_list[i];
    outcomes[i] = run_sync_experiment(seeded);
  });
  return aggregate_point(point, outcomes);
}

void band_ablation(ThreadPool& pool) {
  std::printf("(a) F' = min(F, 2t) band restriction, F = 64, N = 256, "
              "n = 12, random jammer, 8 seeds:\n\n");
  Table table({"t", "restricted: median rounds", "full band: median rounds",
               "speedup from F'"});
  for (int t : {1, 2, 4, 8, 16}) {
    TrapdoorConfig restricted;
    TrapdoorConfig full;
    full.restrict_to_fprime = false;
    const PointResult r =
        run_with_config(pool, restricted, 64, t, 256, 12, 8,
                        AdversaryKind::kRandomSubset,
                        ActivationKind::kSimultaneous);
    const PointResult f =
        run_with_config(pool, full, 64, t, 256, 12, 8,
                        AdversaryKind::kRandomSubset,
                        ActivationKind::kSimultaneous);
    table.row()
        .cell(static_cast<int64_t>(t))
        .cell(r.rounds_to_live.p50, 0)
        .cell(f.rounds_to_live.p50, 0)
        .cell(f.rounds_to_live.p50 / r.rounds_to_live.p50, 1);
  }
  std::printf("%s", table.markdown().c_str());
  bench::note(
      "\nShape check: the F' restriction wins by a growing factor as t "
      "shrinks relative\nto F — the full-band final epoch pays "
      "Theta(F^2/(F-t)) regardless of t.");
}

void epoch_constant_ablation(ThreadPool& pool) {
  std::printf("\n(b) epoch-length constant c1 (F = 16, t = 8, N = 64, "
              "n = 12, staggered, 12 seeds):\n\n");
  Table table({"c1", "synced runs", "median rounds", "multi-leader runs",
               "agreement violations"});
  for (double c1 : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    TrapdoorConfig config;
    config.epoch_constant = c1;
    // Pin a long final epoch so this sweep isolates c1's speed effect
    // (safety is the final epoch's job — sweep (c) below).
    config.final_epoch_constant = 8.0;
    const PointResult r = run_with_config(
        pool, config, 16, 8, 64, 12, 12, AdversaryKind::kRandomSubset,
        ActivationKind::kStaggeredUniform);
    table.row()
        .cell(c1, 1)
        .cell(static_cast<int64_t>(r.synced_runs))
        .cell(r.rounds_to_live.p50, 0)
        .cell(static_cast<int64_t>(r.multi_leader_runs))
        .cell(r.agreement_violations);
  }
  std::printf("%s", table.markdown().c_str());
}

void final_epoch_ablation(ThreadPool& pool) {
  std::printf("\n(c) final-epoch constant c2 (F = 16, t = 8, N = 64, "
              "n = 16, staggered + fixed jammer, 20 seeds):\n\n");
  Table table({"c2", "synced runs", "median rounds", "multi-leader runs",
               "agreement violations"});
  for (double c2 : {0.0625, 0.25, 1.0, 4.0}) {
    TrapdoorConfig config;
    config.final_epoch_constant = c2;
    const PointResult r = run_with_config(
        pool, config, 16, 8, 64, 16, 20, AdversaryKind::kFixedFirst,
        ActivationKind::kStaggeredUniform);
    table.row()
        .cell(c2, 4)
        .cell(static_cast<int64_t>(r.synced_runs))
        .cell(r.rounds_to_live.p50, 0)
        .cell(static_cast<int64_t>(r.multi_leader_runs))
        .cell(r.agreement_violations);
  }
  std::printf("%s", table.markdown().c_str());
  bench::note(
      "\nShape check: shrinking the final epoch trades rounds for safety — "
      "at tiny c2\nthe long-final-epoch guarantee ('any second potential "
      "leader is knocked out\nduring its final epoch') starts to crack and "
      "multi-leader runs appear.");
}

}  // namespace
}  // namespace wsync

int main() {
  wsync::bench::section("Ablations — the Trapdoor design choices");
  wsync::ThreadPool pool;  // one pool, reused by every ablation sweep
  wsync::band_ablation(pool);
  wsync::epoch_constant_ablation(pool);
  wsync::final_epoch_ablation(pool);
  return 0;
}
