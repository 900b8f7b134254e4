// Property suite for the Trapdoor protocol: the five wireless
// synchronization properties (paper Section 3) plus the Theorem 10 time
// bound and leader uniqueness (Theorem 10's agreement argument), swept over
// a parameter grid with TEST_P.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/experiment/sweep.h"
#include "src/trapdoor/schedule.h"
#include "tests/testing/point_results.h"

namespace wsync {
namespace {

struct GridPoint {
  int F;
  int t;
  int64_t N;
  int n;
  AdversaryKind adversary;
  ActivationKind activation;
};

std::string grid_name(const ::testing::TestParamInfo<GridPoint>& info) {
  const GridPoint& g = info.param;
  return std::string("F") + std::to_string(g.F) + "t" + std::to_string(g.t) + "N" +
         std::to_string(g.N) + "n" + std::to_string(g.n) + "_" +
         to_string(g.adversary) + "_" + to_string(g.activation);
}

class TrapdoorPropertyTest : public ::testing::TestWithParam<GridPoint> {};

TEST_P(TrapdoorPropertyTest, FivePropertiesAndLeaderUniqueness) {
  const GridPoint& g = GetParam();
  ExperimentPoint point;
  point.F = g.F;
  point.t = g.t;
  point.N = g.N;
  point.n = g.n;
  point.protocol = ProtocolKind::kTrapdoor;
  point.adversary = g.adversary;
  point.activation = g.activation;
  point.activation_window = 64;
  point.extra_rounds = 200;  // agreement must keep holding after liveness

  const PointResult result = testing::serial_point(point, 5);

  // Liveness within the auto budget (a generous multiple of Theorem 10).
  EXPECT_EQ(result.synced_runs, result.runs);
  // Agreement / Synch Commit / Correctness.
  EXPECT_EQ(result.agreement_violations, 0);
  EXPECT_EQ(result.commit_violations, 0);
  EXPECT_EQ(result.correctness_violations, 0);
  // At most one leader (Theorem 10's agreement argument).
  EXPECT_LE(result.max_leaders, 1);
}

TEST_P(TrapdoorPropertyTest, LivenessWithinTheoremTenShape) {
  const GridPoint& g = GetParam();
  ExperimentPoint point;
  point.F = g.F;
  point.t = g.t;
  point.N = g.N;
  point.n = g.n;
  point.protocol = ProtocolKind::kTrapdoor;
  point.adversary = g.adversary;
  point.activation = g.activation;
  point.activation_window = 64;

  const PointResult result = testing::serial_point(point, 5);
  ASSERT_EQ(result.synced_runs, result.runs);

  // The protocol's own schedule is Theta(F/(F-t) lg^2 N + Ft/(F-t) lgN)
  // long; every node must finish within a small constant times the
  // schedule (competition + absorption), counted from the last activation.
  const auto schedule = TrapdoorSchedule::standard(g.F, g.t, g.N);
  const double budget =
      6.0 * static_cast<double>(schedule.total_rounds()) + 64 + 512;
  EXPECT_LE(result.rounds_to_live.max, budget);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TrapdoorPropertyTest,
    ::testing::Values(
        // Clean spectrum.
        GridPoint{4, 0, 16, 4, AdversaryKind::kNone,
                  ActivationKind::kSimultaneous},
        // Light random disruption.
        GridPoint{8, 2, 32, 8, AdversaryKind::kRandomSubset,
                  ActivationKind::kSimultaneous},
        // Heavy disruption, t = 3F/4.
        GridPoint{8, 6, 32, 8, AdversaryKind::kRandomSubset,
                  ActivationKind::kSimultaneous},
        // The Theorem 1 adversary (fixed first-t).
        GridPoint{8, 4, 32, 6, AdversaryKind::kFixedFirst,
                  ActivationKind::kSimultaneous},
        // Staggered wakeups.
        GridPoint{8, 2, 32, 8, AdversaryKind::kRandomSubset,
                  ActivationKind::kStaggeredUniform},
        // Sequential wakeups (maximal stagger).
        GridPoint{8, 2, 16, 6, AdversaryKind::kRandomSubset,
                  ActivationKind::kSequential},
        // Two far-apart batches with adaptive jamming.
        GridPoint{8, 2, 32, 8, AdversaryKind::kGreedyDelivery,
                  ActivationKind::kTwoBatch},
        // Bursty jammer.
        GridPoint{16, 4, 64, 10, AdversaryKind::kGilbertElliott,
                  ActivationKind::kStaggeredUniform},
        // Sweeping jammer, larger N gap (n << N).
        GridPoint{8, 3, 256, 5, AdversaryKind::kSweep,
                  ActivationKind::kSimultaneous},
        // Single frequency, no disruption possible.
        GridPoint{1, 0, 8, 4, AdversaryKind::kNone,
                  ActivationKind::kSimultaneous},
        // Two nodes only.
        GridPoint{8, 2, 16, 2, AdversaryKind::kRandomSubset,
                  ActivationKind::kTwoBatch},
        // Adaptive listener-targeting jammer.
        GridPoint{8, 2, 32, 6, AdversaryKind::kGreedyListener,
                  ActivationKind::kSimultaneous}),
    grid_name);

}  // namespace
}  // namespace wsync
