// E4 — Theorem 10, t-scaling: measured rounds-to-liveness of the Trapdoor
// protocol vs t at fixed (F, N). The Ft/(F-t) term must dominate as t -> F:
// the curve blows up near t = F - 1.
#include <cstdio>

#include <vector>

#include "bench/bench_util.h"
#include "src/service/streaming_sweep.h"
#include "src/stats/regression.h"
#include "src/stats/table.h"

namespace wsync {
namespace {

void run_sweep(ThreadPool& pool, int F, int64_t N, int n, int seeds) {
  std::printf("\nF = %d, N = %lld, n = %d, simultaneous activation, "
              "random-subset jammer, %d seeds per point\n\n",
              F, static_cast<long long>(N), n, seeds);
  Table table({"t", "F'=min(F,2t)", "median rounds", "p90 rounds",
               "predicted shape", "measured/predicted"});
  std::vector<ExperimentPoint> points;
  for (int t : {0, 1, 2, 4, 6, 8, 10, 12, 14}) {
    if (t >= F) continue;
    ExperimentPoint point;
    point.F = F;
    point.t = t;
    point.N = N;
    point.n = n;
    point.protocol = ProtocolKind::kTrapdoor;
    point.adversary = AdversaryKind::kRandomSubset;
    point.activation = ActivationKind::kSimultaneous;
    points.push_back(point);
  }
  std::vector<double> model;
  std::vector<double> measured;
  for (const PointResult& result : run_points(points, seeds, pool)) {
    const int t = result.point.t;
    const double predicted = trapdoor_predicted_rounds(F, t, N);
    model.push_back(predicted);
    measured.push_back(result.rounds_to_live.p50);
    const int f_prime = std::min(F, std::max(2 * t, 1));
    table.row()
        .cell(static_cast<int64_t>(t))
        .cell(static_cast<int64_t>(f_prime))
        .cell(result.rounds_to_live.p50, 0)
        .cell(result.rounds_to_live.p90, 0)
        .cell(predicted, 0)
        .cell(result.rounds_to_live.p50 / predicted, 2);
  }
  std::printf("%s", table.markdown().c_str());
  const ModelFit fit = model_fit(model, measured);
  std::printf("\nmodel fit: measured ~ %.2f x prediction, R^2 = %.3f\n",
              fit.constant, fit.r2);
}

}  // namespace
}  // namespace wsync

int main() {
  wsync::bench::section(
      "Theorem 10 — Trapdoor synchronization time vs t at fixed F, N "
      "(the Ft/(F-t) blow-up)");
  wsync::ThreadPool pool;
  wsync::run_sweep(pool, 16, 1024, 16, 10);
  wsync::bench::note(
      "\nShape check: time rises steeply as t approaches F (the F-t "
      "denominator);\nat t = 0 the F' = min(F, 2t) trick collapses the "
      "band to one frequency and\nthe run completes in Theta(lg^2 N).");
  return 0;
}
