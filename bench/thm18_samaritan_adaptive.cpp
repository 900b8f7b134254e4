// E5 — Theorem 18, adaptive case: all nodes wake together and the adversary
// disrupts only t' < t frequencies. Good Samaritan time must scale with the
// ACTUAL disruption t' (O(t' log^3 N)), while the Trapdoor protocol pays
// for the worst-case budget t regardless. The crossover at small t' is the
// paper's headline comparison.
//
// The grid comes from the scenario catalog (thm18_samaritan_adaptive):
// (GS, Trapdoor) point pairs per t', with the oblivious low-frequency
// jammer fixed on {1..t'} — the worst case for the GS narrow bands, and
// exactly the adaptivity the theorem prices at O(t' log^3 N).
#include <cstdio>

#include <vector>

#include "bench/bench_util.h"
#include "src/common/require.h"
#include "src/scenario/registry.h"
#include "src/service/streaming_sweep.h"
#include "src/stats/table.h"

int main() {
  using namespace wsync;
  const Scenario& scenario =
      ScenarioRegistry::get("thm18_samaritan_adaptive");
  const int seeds = scenario.default_seeds;
  const ExperimentPoint& first = scenario.grid.front();

  bench::section(
      "Theorem 18 — adaptive Good Samaritan vs worst-case-provisioned "
      "Trapdoor (simultaneous wake)");
  std::printf(
      "F = %d, t = %d (provisioned), N = %lld, n = %d, oblivious "
      "low-frequency jammer fixed on {1..t'}, %d seeds\n\n",
      first.F, first.t, static_cast<long long>(first.N), first.n, seeds);

  Table table({"t' (actual jam)", "GS median rounds", "GS p90",
               "Trapdoor median rounds", "Trapdoor p90",
               "GS t'-scaling t'lg^3N", "winner"});
  // The whole grid — a (GS, Trapdoor) pair per t' — runs as one parallel
  // batch; results come back in point order, so pairs stay adjacent.
  ThreadPool pool;
  const std::vector<PointResult> results =
      run_points(scenario.grid, seeds, pool);

  std::vector<double> gs_medians;
  std::vector<int> t_primes;
  for (size_t i = 0; i + 1 < results.size(); i += 2) {
    const PointResult& gs = results[i];
    const PointResult& td = results[i + 1];
    // The column binding below depends on the registry's pair order; fail
    // loudly if a catalog edit reorders it.
    WSYNC_CHECK(gs.point.protocol == ProtocolKind::kGoodSamaritan &&
                    td.point.protocol == ProtocolKind::kTrapdoor,
                "thm18 scenario grid must pair (GS, Trapdoor) per t'");
    const int t_prime = gs.point.jam_count;
    t_primes.push_back(t_prime);
    gs_medians.push_back(gs.rounds_to_live.p50);
    const char* winner =
        gs.rounds_to_live.p50 < td.rounds_to_live.p50 ? "GS" : "Trapdoor";
    table.row()
        .cell(static_cast<int64_t>(t_prime))
        .cell(gs.rounds_to_live.p50, 0)
        .cell(gs.rounds_to_live.p90, 0)
        .cell(td.rounds_to_live.p50, 0)
        .cell(td.rounds_to_live.p90, 0)
        .cell(samaritan_predicted_rounds(t_prime, first.N), 0)
        .cell(std::string(winner));
  }
  std::printf("%s", table.markdown().c_str());

  std::printf("\nGS growth between consecutive t' doublings (expect ~2x "
              "once t' drives the super-epoch, the linear-in-t' "
              "signature):\n");
  for (size_t i = 2; i < gs_medians.size(); ++i) {
    std::printf("  t' %d -> %d: x%.2f\n", t_primes[i - 1], t_primes[i],
                gs_medians[i] / gs_medians[i - 1]);
  }
  bench::note(
      "\nShape check: GS time grows roughly linearly with the ACTUAL "
      "disruption t'\n(geometric super-epoch dominance) while the Trapdoor "
      "time is flat in t' —\nit is provisioned for the worst case t. GS "
      "wins at small t'; Trapdoor wins\nonce t' approaches t (its log-power "
      "is lower). The crossover is the paper's\nheadline trade-off.");
  return 0;
}
