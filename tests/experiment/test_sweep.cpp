#include "src/experiment/sweep.h"

#include <gtest/gtest.h>

#include "tests/testing/point_results.h"

namespace wsync {
namespace {

TEST(SweepTest, MakeSeedsIsDeterministicAndDistinct) {
  const auto a = make_seeds(10);
  const auto b = make_seeds(10);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 10u);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_NE(a[0], a[i]);
  const auto c = make_seeds(10, 999);
  EXPECT_NE(a, c);
}

TEST(SweepTest, EnumNamesAreStable) {
  EXPECT_STREQ(to_string(ProtocolKind::kTrapdoor), "trapdoor");
  EXPECT_STREQ(to_string(ProtocolKind::kGoodSamaritan), "good_samaritan");
  EXPECT_STREQ(to_string(ProtocolKind::kDutyCycle), "duty_cycle");
  EXPECT_STREQ(to_string(ProtocolKind::kEnergyOracle), "energy_oracle");
  EXPECT_STREQ(to_string(AdversaryKind::kRandomSubset), "random_subset");
  EXPECT_STREQ(to_string(AdversaryKind::kDutyCycle), "duty_cycle");
  EXPECT_STREQ(to_string(ActivationKind::kStaggeredUniform), "staggered");
  EXPECT_STREQ(to_string(ActivationKind::kPoisson), "poisson");
}

TEST(SweepTest, MakeRunSpecFillsDefaults) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 32;
  point.n = 4;
  point.protocol = ProtocolKind::kTrapdoor;
  point.adversary = AdversaryKind::kRandomSubset;
  const RunSpec spec = make_run_spec(point);
  EXPECT_EQ(spec.sim.F, 8);
  EXPECT_GT(spec.max_rounds, 0);
  EXPECT_NE(spec.factory, nullptr);
  EXPECT_NE(spec.make_adversary, nullptr);
  EXPECT_NE(spec.make_activation, nullptr);
}

TEST(SweepTest, JamCountDefaultsToTAndValidates) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 8;
  point.n = 2;
  point.jam_count = 3;  // exceeds t
  point.adversary = AdversaryKind::kRandomSubset;
  EXPECT_THROW(make_run_spec(point), std::invalid_argument);
}

TEST(SweepTest, RunPointAggregatesTrapdoorRuns) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 32;
  point.n = 6;
  point.protocol = ProtocolKind::kTrapdoor;
  point.adversary = AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kSimultaneous;
  const PointResult result = testing::serial_point(point, 5);
  EXPECT_EQ(result.runs, 5);
  EXPECT_EQ(result.synced_runs, 5);
  EXPECT_EQ(result.agreement_violations, 0);
  EXPECT_EQ(result.commit_violations, 0);
  EXPECT_EQ(result.correctness_violations, 0);
  EXPECT_EQ(result.max_leaders, 1);
  EXPECT_EQ(result.multi_leader_runs, 0);
  EXPECT_GT(result.rounds_to_live.mean, 0.0);
  EXPECT_GT(result.max_node_latency.mean, 0.0);
}

TEST(SweepTest, EveryProtocolKindRunsAtSmallScale) {
  for (const ProtocolKind kind :
       {ProtocolKind::kTrapdoor, ProtocolKind::kTrapdoorFullBand,
        ProtocolKind::kWakeupBaseline, ProtocolKind::kAloha,
        ProtocolKind::kFaultTolerantTrapdoor, ProtocolKind::kDutyCycle,
        ProtocolKind::kEnergyOracle}) {
    ExperimentPoint point;
    point.F = 4;
    point.t = 1;
    point.N = 8;
    point.n = 3;
    point.protocol = kind;
    point.adversary = AdversaryKind::kNone;
    const PointResult result = testing::serial_point(point, 2);
    EXPECT_EQ(result.synced_runs, 2) << to_string(kind);
  }
}

TEST(SweepTest, EveryAdversaryKindRunsAtSmallScale) {
  for (const AdversaryKind kind :
       {AdversaryKind::kNone, AdversaryKind::kFixedFirst,
        AdversaryKind::kRandomSubset, AdversaryKind::kSweep,
        AdversaryKind::kGilbertElliott, AdversaryKind::kGreedyDelivery,
        AdversaryKind::kGreedyListener, AdversaryKind::kDutyCycle}) {
    ExperimentPoint point;
    point.F = 8;
    point.t = 2;
    point.N = 16;
    point.n = 4;
    point.adversary = kind;
    const PointResult result = testing::serial_point(point, 2);
    EXPECT_EQ(result.synced_runs, 2) << to_string(kind);
    EXPECT_EQ(result.agreement_violations, 0) << to_string(kind);
  }
}

TEST(SweepTest, EveryActivationKindRunsAtSmallScale) {
  for (const ActivationKind kind :
       {ActivationKind::kSimultaneous, ActivationKind::kStaggeredUniform,
        ActivationKind::kSequential, ActivationKind::kTwoBatch,
        ActivationKind::kPoisson}) {
    ExperimentPoint point;
    point.F = 8;
    point.t = 2;
    point.N = 16;
    point.n = 4;
    point.activation = kind;
    point.activation_window = 32;
    point.adversary = AdversaryKind::kRandomSubset;
    const PointResult result = testing::serial_point(point, 2);
    EXPECT_EQ(result.synced_runs, 2) << to_string(kind);
  }
}

TEST(SweepTest, DutyCycleValidatesItsWindow) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 16;
  point.n = 4;
  point.adversary = AdversaryKind::kDutyCycle;
  point.duty_period = 4;
  point.duty_on = 5;  // on > period
  EXPECT_THROW(make_run_spec(point), std::invalid_argument);
  point.duty_on = 2;
  EXPECT_NO_THROW(make_run_spec(point));
}

TEST(SweepTest, CrashWavesFlowIntoTheRunSpecAndCrashNodes) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 16;
  point.n = 6;
  point.protocol = ProtocolKind::kFaultTolerantTrapdoor;
  point.adversary = AdversaryKind::kRandomSubset;
  point.crash_waves = {{5, 2}};
  const RunSpec spec = make_run_spec(point);
  ASSERT_EQ(spec.crash_waves.size(), 1u);
  EXPECT_EQ(spec.crash_waves[0].round, 5);
  EXPECT_EQ(spec.crash_waves[0].count, 2);

  // The wave crashes exactly two nodes; the survivors still synchronize,
  // and the per-node latency slots of the victims stay at -1.
  const PointResult result = testing::serial_point(point, 2);
  EXPECT_EQ(result.synced_runs, 2);
  EXPECT_EQ(result.commit_violations, 0);
  for (uint64_t seed : make_seeds(2)) {
    RunSpec seeded = spec;
    seeded.sim.seed = seed;
    const RunOutcome outcome = run_sync_experiment(seeded);
    EXPECT_TRUE(outcome.synced);
    int never_synced = 0;
    for (RoundId latency : outcome.sync_latency) {
      if (latency < 0) ++never_synced;
    }
    // Simultaneous activation at round 0, wave at round 5: both victims
    // were pre-sync contenders, so exactly they never report a number.
    EXPECT_EQ(never_synced, 2);
  }
}

TEST(SweepTest, PredictionHelpers) {
  // Theorem 10 curve grows with t (for fixed F) and with N.
  EXPECT_GT(trapdoor_predicted_rounds(16, 12, 1024),
            trapdoor_predicted_rounds(16, 4, 1024));
  EXPECT_GT(trapdoor_predicted_rounds(16, 4, 1 << 16),
            trapdoor_predicted_rounds(16, 4, 1 << 8));
  // Theorem 18 optimistic curve is linear in t'.
  EXPECT_DOUBLE_EQ(samaritan_predicted_rounds(4, 256),
                   2.0 * samaritan_predicted_rounds(2, 256));
}

}  // namespace
}  // namespace wsync
