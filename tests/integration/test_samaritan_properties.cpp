// Property suite for the Good Samaritan protocol (paper Section 7 /
// Theorem 18): five properties, leader uniqueness, the optimistic
// fast-path, and the fallback path.
#include <gtest/gtest.h>

#include <string>

#include "src/experiment/sweep.h"
#include "src/samaritan/good_samaritan.h"
#include "tests/testing/point_results.h"

namespace wsync {
namespace {

struct GsPoint {
  int F;
  int t;
  int t_prime;  // actually jammed
  int64_t N;
  int n;
  AdversaryKind adversary;
  ActivationKind activation;
};

std::string gs_name(const ::testing::TestParamInfo<GsPoint>& info) {
  const GsPoint& g = info.param;
  return std::string("F") + std::to_string(g.F) + "t" + std::to_string(g.t) + "tp" +
         std::to_string(g.t_prime) + "N" + std::to_string(g.N) + "n" +
         std::to_string(g.n) + "_" + to_string(g.adversary) + "_" +
         to_string(g.activation);
}

class SamaritanPropertyTest : public ::testing::TestWithParam<GsPoint> {};

TEST_P(SamaritanPropertyTest, FivePropertiesAndLeaderUniqueness) {
  const GsPoint& g = GetParam();
  ExperimentPoint point;
  point.F = g.F;
  point.t = g.t;
  point.N = g.N;
  point.n = g.n;
  point.jam_count = g.t_prime;
  point.protocol = ProtocolKind::kGoodSamaritan;
  point.adversary = g.adversary;
  point.activation = g.activation;
  point.activation_window = 64;
  point.extra_rounds = 200;

  const PointResult result = testing::serial_point(point, 3);
  EXPECT_EQ(result.synced_runs, result.runs);
  EXPECT_EQ(result.agreement_violations, 0);
  EXPECT_EQ(result.commit_violations, 0);
  EXPECT_EQ(result.correctness_violations, 0);
  EXPECT_LE(result.max_leaders, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SamaritanPropertyTest,
    ::testing::Values(
        // The optimistic sweet spot: simultaneous wake, small t'.
        GsPoint{8, 4, 1, 16, 4, AdversaryKind::kRandomSubset,
                ActivationKind::kSimultaneous},
        // Clean spectrum, simultaneous wake.
        GsPoint{8, 4, 0, 16, 6, AdversaryKind::kNone,
                ActivationKind::kSimultaneous},
        // Full budget disruption (t' = t = F/2).
        GsPoint{8, 4, 4, 16, 4, AdversaryKind::kRandomSubset,
                ActivationKind::kSimultaneous},
        // Staggered wakeups force the non-optimistic path.
        GsPoint{8, 4, 2, 16, 4, AdversaryKind::kRandomSubset,
                ActivationKind::kStaggeredUniform},
        // Two nodes, the minimum for the samaritan mechanism.
        GsPoint{8, 4, 1, 16, 2, AdversaryKind::kRandomSubset,
                ActivationKind::kSimultaneous},
        // Single node: must fall back and lead itself.
        GsPoint{4, 2, 0, 8, 1, AdversaryKind::kNone,
                ActivationKind::kSimultaneous},
        // Oblivious bursty jammer.
        GsPoint{8, 4, 3, 16, 5, AdversaryKind::kGilbertElliott,
                ActivationKind::kSimultaneous}),
    gs_name);

TEST(SamaritanIntegrationTest, OptimisticPathElectsLeaderWithoutFallback) {
  // All nodes wake together, light disruption: the leader must emerge
  // during the optimistic portion (no node enters fallback).
  ExperimentPoint point;
  point.F = 8;
  point.t = 4;
  point.N = 16;
  point.n = 4;
  point.jam_count = 1;
  point.protocol = ProtocolKind::kGoodSamaritan;
  point.adversary = AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kSimultaneous;

  const RunSpec spec = make_run_spec(point);
  int fallback_free_runs = 0;
  for (uint64_t seed : make_seeds(5)) {
    RunSpec seeded = spec;
    seeded.sim.seed = seed;
    Simulation sim(seeded.sim, seeded.factory, seeded.make_adversary(),
                   seeded.make_activation());
    const auto result = sim.run_until_synced(seeded.max_rounds);
    ASSERT_TRUE(result.synced);
    bool used_fallback = false;
    for (NodeId id = 0; id < point.n; ++id) {
      const auto& p =
          dynamic_cast<const GoodSamaritanProtocol&>(sim.protocol(id));
      if (p.in_fallback() || p.fallback_age() > 0) used_fallback = true;
    }
    if (!used_fallback) ++fallback_free_runs;
  }
  // Whp every run stays optimistic; tolerate at most one unlucky seed.
  EXPECT_GE(fallback_free_runs, 4);
}

TEST(SamaritanIntegrationTest, RolesPartitionAfterLivenessSimultaneous) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 4;
  point.N = 16;
  point.n = 6;
  point.jam_count = 1;
  point.protocol = ProtocolKind::kGoodSamaritan;
  point.adversary = AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kSimultaneous;

  const RunSpec spec = make_run_spec(point);
  RunSpec seeded = spec;
  seeded.sim.seed = 1234;
  Simulation sim(seeded.sim, seeded.factory, seeded.make_adversary(),
                 seeded.make_activation());
  const auto result = sim.run_until_synced(seeded.max_rounds);
  ASSERT_TRUE(result.synced);

  int leaders = 0;
  for (NodeId id = 0; id < point.n; ++id) {
    const Role role = sim.role(id);
    EXPECT_TRUE(role == Role::kLeader || role == Role::kSynced)
        << "node " << id << " role " << to_string(role);
    if (role == Role::kLeader) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

}  // namespace
}  // namespace wsync
