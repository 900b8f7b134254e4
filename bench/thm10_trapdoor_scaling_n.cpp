// E3 — Theorem 10, N-scaling: measured rounds-to-liveness of the Trapdoor
// protocol vs the predicted curve F/(F-t) lg^2 N + Ft/(F-t) lgN.
//
// The grid comes from the scenario catalog (thm10_trapdoor_n_scaling), the
// single source of truth also exercised by wsync_run and the registry
// tests; this bench adds the per-t tables and the model fit.
//
// Expected shape: the measured median tracks the prediction up to a stable
// multiplicative constant (the epoch-length constants), i.e. the model fit
// below reports a high R^2 and a bounded max relative error.
#include <cstdio>

#include <vector>

#include "bench/bench_util.h"
#include "src/scenario/registry.h"
#include "src/service/streaming_sweep.h"
#include "src/stats/regression.h"
#include "src/stats/table.h"

namespace wsync {
namespace {

void report_for_t(const std::vector<ExperimentPoint>& points,
                  const std::vector<PointResult>& results, int seeds) {
  const int F = points.front().F;
  const int t = points.front().t;
  std::printf("\nF = %d, t = %d, staggered activation, random-subset "
              "jammer, %d seeds per point\n\n", F, t, seeds);
  Table table({"N", "n", "median rounds", "p90 rounds", "max rounds",
               "predicted shape", "measured/predicted"});
  std::vector<double> model;
  std::vector<double> measured;
  for (const PointResult& result : results) {
    const int64_t N = result.point.N;
    const double predicted = trapdoor_predicted_rounds(F, t, N);
    model.push_back(predicted);
    measured.push_back(result.rounds_to_live.p50);
    table.row()
        .cell(N)
        .cell(static_cast<int64_t>(result.point.n))
        .cell(result.rounds_to_live.p50, 0)
        .cell(result.rounds_to_live.p90, 0)
        .cell(result.rounds_to_live.max, 0)
        .cell(predicted, 0)
        .cell(result.rounds_to_live.p50 / predicted, 2);
  }
  std::printf("%s", table.markdown().c_str());

  const ModelFit fit = model_fit(model, measured);
  std::printf(
      "\nmodel fit: measured ~ %.2f x [F/(F-t) lg^2 N + Ft/(F-t) lgN], "
      "R^2 = %.3f, max rel. err. = %.2f\n",
      fit.constant, fit.r2, fit.max_relative_error);
}

}  // namespace
}  // namespace wsync

int main() {
  using namespace wsync;
  bench::section(
      "Theorem 10 — Trapdoor synchronization time vs N "
      "(O(F/(F-t) log^2 N + Ft/(F-t) logN))");
  const Scenario& scenario =
      ScenarioRegistry::get("thm10_trapdoor_n_scaling");
  const int seeds = scenario.default_seeds;
  // The whole grid runs as one parallel batch; results come back in point
  // order, so slicing by t just partitions consecutive runs.
  ThreadPool pool;
  const std::vector<PointResult> results =
      run_points(scenario.grid, seeds, pool);
  size_t begin = 0;
  while (begin < scenario.grid.size()) {
    size_t end = begin;
    while (end < scenario.grid.size() &&
           scenario.grid[end].t == scenario.grid[begin].t) {
      ++end;
    }
    report_for_t(
        {scenario.grid.begin() + static_cast<std::ptrdiff_t>(begin),
         scenario.grid.begin() + static_cast<std::ptrdiff_t>(end)},
        {results.begin() + static_cast<std::ptrdiff_t>(begin),
         results.begin() + static_cast<std::ptrdiff_t>(end)},
        seeds);
    begin = end;
  }
  bench::note(
      "\nShape check: the measured/predicted column is stable across N "
      "within each t,\nconfirming the lg^2 N growth; larger t shifts the "
      "whole curve up via the\nFt/(F-t) term.");
  return 0;
}
