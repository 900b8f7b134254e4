// E9 — Agreement / leader uniqueness Monte Carlo (Theorem 10's and
// Theorem 15's "at most one leader, whp" arguments), plus the failure modes
// of the wakeup-style baseline that lacks the long final epoch.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/service/streaming_sweep.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"

namespace wsync {
namespace {

void run_config(Table& table, ThreadPool& pool, ProtocolKind protocol,
                AdversaryKind adversary, ActivationKind activation, int F,
                int t, int64_t N, int n, int runs) {
  ExperimentPoint point;
  point.F = F;
  point.t = t;
  point.N = N;
  point.n = n;
  point.protocol = protocol;
  point.adversary = adversary;
  point.activation = activation;
  point.activation_window = 48;
  point.extra_rounds = 128;
  const PointResult result = run_points({point}, runs, pool)[0];
  const Proportion multi = wilson_interval(result.multi_leader_runs, runs);
  table.row()
      .cell(std::string(to_string(protocol)))
      .cell(std::string(to_string(adversary)))
      .cell(std::string(to_string(activation)))
      .cell(static_cast<int64_t>(result.synced_runs))
      .cell(static_cast<int64_t>(result.multi_leader_runs))
      .cell(multi.upper, 3)
      .cell(result.agreement_violations)
      .cell(result.commit_violations + result.correctness_violations);
}

}  // namespace
}  // namespace wsync

int main() {
  using namespace wsync;
  const int runs = 120;
  bench::section(
      "Agreement Monte Carlo — leader uniqueness across protocols and "
      "adversaries");
  std::printf("F = 8, t = 6, N = 64, n = 12, %d seeded runs per row; "
              "'multi-leader' counts runs where two leaders ever "
              "coexisted.\n\n", runs);
  Table table({"protocol", "adversary", "activation", "synced runs",
               "multi-leader runs", "multi-leader 95% upper",
               "agreement violations", "commit+correctness violations"});
  ThreadPool pool;  // one pool, reused by every row's seed replication
  // The paper's protocols: unique leader whp in every configuration.
  run_config(table, pool, ProtocolKind::kTrapdoor,
             AdversaryKind::kRandomSubset, ActivationKind::kSimultaneous, 8,
             6, 64, 12, runs);
  run_config(table, pool, ProtocolKind::kTrapdoor,
             AdversaryKind::kRandomSubset, ActivationKind::kStaggeredUniform,
             8, 6, 64, 12, runs);
  run_config(table, pool, ProtocolKind::kTrapdoor,
             AdversaryKind::kGreedyDelivery, ActivationKind::kTwoBatch, 8, 6,
             64, 12, runs);
  run_config(table, pool, ProtocolKind::kGoodSamaritan,
             AdversaryKind::kRandomSubset, ActivationKind::kSimultaneous, 8,
             4, 32, 8, runs / 2);
  // The baseline without the final epoch: multiple leaders appear under
  // disruption + staggering.
  run_config(table, pool, ProtocolKind::kWakeupBaseline,
             AdversaryKind::kRandomSubset, ActivationKind::kStaggeredUniform,
             8, 6, 64, 12, runs);
  run_config(table, pool, ProtocolKind::kWakeupBaseline,
             AdversaryKind::kFixedFirst, ActivationKind::kTwoBatch, 8, 6, 64,
             12, runs);
  // ALOHA strawman: no ordering at all.
  run_config(table, pool, ProtocolKind::kAloha, AdversaryKind::kRandomSubset,
             ActivationKind::kStaggeredUniform, 8, 6, 64, 12, runs);
  std::printf("%s", table.markdown().c_str());
  bench::note(
      "\nShape check: Trapdoor and Good Samaritan never elect two leaders "
      "or violate\nagreement across every adversary/activation mix; the "
      "wakeup baseline (no long\nfinal epoch, no F' restriction) and the "
      "ALOHA strawman elect multiple leaders\nunder disruption — exactly "
      "the failure the Trapdoor final epoch exists to\nprevent.");
  return 0;
}
