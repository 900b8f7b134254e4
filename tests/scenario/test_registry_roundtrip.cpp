// Registry round-trip: every catalog scenario validates, runs a seed to
// completion, and produces bit-identical aggregates at 1 vs 4 workers —
// the PR 2 determinism contract extended to the whole catalog.
#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/scenario/registry.h"
#include "src/scenario/scenario.h"
#include "src/service/streaming_sweep.h"
#include "tests/testing/point_results.h"

namespace wsync {
namespace {

class RegistryRoundTripTest
    : public ::testing::TestWithParam<const Scenario*> {};

std::string scenario_name(
    const ::testing::TestParamInfo<const Scenario*>& info) {
  return info.param->name;
}

TEST_P(RegistryRoundTripTest, RunsOneSeedIdenticallyAcrossWorkerCounts) {
  const Scenario& scenario = *GetParam();
  ASSERT_NO_THROW(validate(scenario));

  ThreadPool serial(1);
  const std::vector<PointResult> one = run_points(scenario.grid, 1, serial);
  ASSERT_EQ(one.size(), scenario.grid.size());
  for (const PointResult& r : one) {
    // Every run completed (synced or counted as a timeout), and the one
    // unconditional hard property held.
    EXPECT_EQ(r.runs, 1);
    EXPECT_EQ(r.synced_runs + r.timeout_runs, r.runs);
    EXPECT_EQ(r.commit_violations, 0);
    // Energy was measured on every run: always-on protocols burn at least
    // one awake round, and the split sums to n x observed rounds.
    EXPECT_GT(r.max_awake_rounds.max, 0.0);
    EXPECT_GT(r.broadcast_rounds + r.listen_rounds, 0);
  }

  ThreadPool parallel(4);
  const std::vector<PointResult> four =
      run_points(scenario.grid, 1, parallel);
  ASSERT_EQ(four.size(), one.size());
  for (size_t i = 0; i < one.size(); ++i) {
    testing::expect_same_result(one[i], four[i]);
  }
  EXPECT_EQ(check_expectations(scenario, one),
            check_expectations(scenario, four));
}

std::vector<const Scenario*> catalog_pointers() {
  std::vector<const Scenario*> out;
  for (const Scenario& scenario : ScenarioRegistry::all()) {
    out.push_back(&scenario);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Catalog, RegistryRoundTripTest,
                         ::testing::ValuesIn(catalog_pointers()),
                         scenario_name);

}  // namespace
}  // namespace wsync
