// Engine edge cases: activation schedule integration, accessor
// preconditions, liveness accounting subtleties, and the sparse engine's
// stale-count regressions — observers that used to assume every node is
// visited every round (active_count, crashed_count, all_synced,
// activation_round, sync_round) exercised across asleep windows and
// skipped rounds.
#include <gtest/gtest.h>

#include <memory>

#include "src/adversary/basic.h"
#include "src/baseline/wakeup.h"
#include "src/dutycycle/duty_cycle.h"
#include "src/radio/engine.h"
#include "src/trapdoor/trapdoor.h"
#include "tests/testing/sim_builder.h"

namespace wsync {
namespace {

using testing::EnginePair;
using testing::FakeProtocol;
using testing::SimBuilder;

TEST(EngineEdgeTest, AccessorsRejectOutOfRangeIds) {
  auto sim = SimBuilder(2, 0, 2).build();
  EXPECT_THROW(sim->output(-1), std::invalid_argument);
  EXPECT_THROW(sim->output(2), std::invalid_argument);
  EXPECT_THROW(sim->role(5), std::invalid_argument);
  EXPECT_THROW(sim->crash(-1), std::invalid_argument);
}

TEST(EngineEdgeTest, ProtocolAccessBeforeActivationThrows) {
  auto sim = SimBuilder(2, 0, 2)
                 .N(4)
                 .activation<SequentialActivation>(2, 10)
                 .build();
  sim->step();  // only node 0 is awake
  EXPECT_NO_THROW(sim->protocol(0));
  EXPECT_THROW(sim->protocol(1), std::invalid_argument);
  EXPECT_THROW(sim->crash(1), std::invalid_argument);
}

TEST(EngineEdgeTest, InactiveNodesDoNotAct) {
  std::map<NodeId, FakeProtocol*> nodes;
  auto sim = SimBuilder(2, 0, 2)
                 .N(4)
                 .fake({}, &nodes)
                 .activation<SequentialActivation>(2, 5)
                 .build();
  for (int i = 0; i < 5; ++i) sim->step();  // rounds 0..4: only node 0 awake
  ASSERT_EQ(nodes.count(0), 1u);
  EXPECT_EQ(nodes[0]->acts(), 5);
  EXPECT_EQ(nodes.count(1), 0u);  // node 1 wakes at round 5, not yet run
  sim->step();  // round 5
  ASSERT_EQ(nodes.count(1), 1u);
  EXPECT_EQ(nodes[1]->acts(), 1);
  EXPECT_EQ(nodes[0]->acts(), 6);
}

TEST(EngineEdgeTest, PoissonActivationDrivesFullSync) {
  auto sim = SimBuilder(8, 2, 6)
                 .N(16)
                 .seed(21)
                 .protocol(TrapdoorProtocol::factory())
                 .adversary<RandomSubsetAdversary>(2)
                 .activation<PoissonActivation>(6, 0.05)
                 .build();
  const auto result = sim->run_until_synced(500000);
  EXPECT_TRUE(result.synced);
  for (NodeId id = 0; id < 6; ++id) {
    EXPECT_GE(sim->activation_round(id), 0);
    EXPECT_GE(sim->sync_round(id), sim->activation_round(id));
  }
}

TEST(EngineEdgeTest, ActivationRoundsVisibleThroughAccessors) {
  auto sim = SimBuilder(2, 0, 3)
                 .N(4)
                 .activation<SequentialActivation>(3, 4)
                 .build();
  for (int i = 0; i < 12; ++i) sim->step();
  EXPECT_EQ(sim->activation_round(0), 0);
  EXPECT_EQ(sim->activation_round(1), 4);
  EXPECT_EQ(sim->activation_round(2), 8);
  EXPECT_EQ(sim->activated_total(), 3);
}

TEST(EngineEdgeTest, AllSyncedRequiresEveryActivation) {
  // One node never wakes within the horizon: liveness must not be claimed
  // even if every ACTIVE node outputs.
  std::map<NodeId, FakeProtocol::Script> scripts;
  scripts[0].sync_at_age = 0;
  scripts[1].sync_at_age = 0;
  auto sim = SimBuilder(2, 0, 2)
                 .N(4)
                 .fake(scripts)
                 .activation<TwoBatchActivation>(2, 1, 0, 1000)
                 .build();
  for (int i = 0; i < 10; ++i) sim->step();
  EXPECT_FALSE(sim->all_synced());  // node 1 still inactive
}

TEST(EngineEdgeTest, ActiveCountExcludesCrashedNodes) {
  auto sim = SimBuilder(2, 0, 3).N(4).build();
  sim->step();
  EXPECT_EQ(sim->active_count(), 3);
  EXPECT_EQ(sim->crashed_count(), 0);
  sim->crash(1);
  sim->step();  // publish the post-crash accounting to the view
  // Regression: active_count() used to report crashed nodes as active while
  // view().active_count() excluded them. Both observers must agree.
  EXPECT_EQ(sim->active_count(), 2);
  EXPECT_EQ(sim->crashed_count(), 1);
  EXPECT_EQ(sim->active_count(), sim->view().active_count());
  EXPECT_EQ(sim->activated_total(), 3);  // activation history is unchanged
}

TEST(EngineEdgeTest, AllSyncedIsFalseWhenEveryNodeHasCrashed) {
  // Every node outputs immediately, then all of them crash: liveness must
  // not be claimed by an execution with no surviving witness.
  std::map<NodeId, FakeProtocol::Script> scripts;
  for (NodeId id = 0; id < 2; ++id) scripts[id].sync_at_age = 0;
  auto sim = SimBuilder(2, 0, 2).fake(scripts).build();
  sim->step();
  EXPECT_TRUE(sim->all_synced());
  sim->crash(0);
  EXPECT_TRUE(sim->all_synced());  // one survivor still outputs
  sim->crash(1);
  EXPECT_FALSE(sim->all_synced());  // vacuous liveness is not liveness
  EXPECT_EQ(sim->active_count(), 0);
  sim->step();
  EXPECT_FALSE(sim->all_synced());
}

TEST(EngineEdgeTest, DoubleCrashIsIdempotent) {
  auto sim = SimBuilder(2, 0, 2).build();
  sim->step();
  sim->crash(0);
  EXPECT_NO_THROW(sim->crash(0));
  EXPECT_TRUE(sim->is_crashed(0));
}

TEST(EngineEdgeTest, RunUntilSyncedResumable) {
  auto sim = SimBuilder(8, 2, 4)
                 .N(16)
                 .seed(9)
                 .protocol(TrapdoorProtocol::factory())
                 .adversary<RandomSubsetAdversary>(2)
                 .build();
  // Interleave manual steps with run_until_synced: the budget is absolute.
  for (int i = 0; i < 10; ++i) sim->step();
  const auto r1 = sim->run_until_synced(11);
  EXPECT_EQ(r1.rounds, 11);
  const auto r2 = sim->run_until_synced(500000);
  EXPECT_TRUE(r2.synced);
  EXPECT_GE(r2.rounds, 11);
}

// --- sparse stale-count regressions ----------------------------------------
// The sparse engine visits only the awake cohort, so every observer below
// must stay correct without a per-round walk over all nodes.

SimBuilder hard_sleep_builder(int n, uint64_t seed) {
  WakeupBaselineConfig config;
  config.sleep_after_sync = true;  // synced nodes power down forever
  return SimBuilder(4, 0, n)
      .N(8)
      .seed(seed)
      .protocol(WakeupBaseline::factory(config));
}

TEST(EngineEdgeTest, CrashDuringFullyAsleepWindowUpdatesCounters) {
  // Drive every node into the permanent-sleep state, then crash one while
  // no node is awake (no wake event pending at all). The observers must
  // absorb the crash without waiting for the victim's next visit.
  EnginePair pair = hard_sleep_builder(3, 0xC4A5).pair();
  auto& sparse = *pair.sparse;
  while (!sparse.all_synced()) pair.step();
  ASSERT_TRUE(pair.dense->all_synced());

  for (int i = 0; i < 5; ++i) pair.step();  // deep inside the asleep window
  pair.sparse->crash(1);
  pair.dense->crash(1);
  EXPECT_EQ(sparse.active_count(), 2);
  EXPECT_EQ(sparse.crashed_count(), 1);
  EXPECT_EQ(sparse.role(1), Role::kCrashed);
  EXPECT_TRUE(sparse.all_synced());  // two sleeping witnesses still output
  // The crashed node's output froze; the sleepers keep counting.
  const SyncOutput frozen = sparse.output(1);
  for (int i = 0; i < 7; ++i) pair.step();
  EXPECT_EQ(sparse.output(1), frozen);
  EXPECT_TRUE(sparse.output(0).has_number());
  pair.expect_same_state();
}

TEST(EngineEdgeTest, CrashingEverySleeperDropsLiveness) {
  // all_synced() is witness-based; crashing all sleeping nodes must flip it
  // even though no node will ever wake to be re-counted.
  EnginePair pair = hard_sleep_builder(2, 0xC4A6).pair();
  while (!pair.sparse->all_synced()) pair.step();
  pair.sparse->crash(0);
  pair.dense->crash(0);
  EXPECT_TRUE(pair.sparse->all_synced());
  pair.sparse->crash(1);
  pair.dense->crash(1);
  EXPECT_FALSE(pair.sparse->all_synced());
  pair.step();
  EXPECT_FALSE(pair.sparse->all_synced());
  pair.expect_same_state();
}

TEST(EngineEdgeTest, ActivationLandsInsideSleptWindow) {
  // Node 0 syncs alone and powers down; node 1 activates much later, in a
  // round where no wake event is pending. The activation must fire on
  // schedule and re-arm liveness tracking on both engines.
  WakeupBaselineConfig config;
  config.sleep_after_sync = true;
  EnginePair pair = SimBuilder(4, 0, 2)
                        .N(8)
                        .seed(0xAC71)
                        .protocol(WakeupBaseline::factory(config))
                        .activation<TwoBatchActivation>(2, 1, 0, 60)
                        .pair();
  for (RoundId r = 0; r < 60; ++r) pair.step();
  ASSERT_EQ(pair.sparse->activated_total(), 1);
  EXPECT_FALSE(pair.sparse->all_synced());  // node 1 not yet activated
  pair.step();  // round 60: activation fires
  EXPECT_EQ(pair.sparse->activated_total(), 2);
  EXPECT_EQ(pair.sparse->activation_round(1), 60);
  while (!pair.sparse->all_synced()) pair.step();
  EXPECT_GE(pair.sparse->sync_round(1), 60);
  pair.expect_same_state();
}

TEST(EngineEdgeTest, ReviveAfterSilenceAcrossAsleepGaps) {
  // Duty-cycled knockout revival: crash the winner, and the knocked-out
  // node — visited only on its own wake slots, with skipped rounds replayed
  // lazily — must accumulate quiet slots across the gaps and re-enter the
  // competition identically under both engines.
  EnginePair pair = SimBuilder(8, 0, 2)
                        .N(16)
                        .seed(0x5E71)
                        .protocol(DutyCycleProtocol::factory())
                        .pair();
  // Crash the winner at the exact moment the loser sits knocked out but has
  // not yet adopted the numbering — the only state that revives. (Once it
  // adopts, it is kSynced and stays so forever.)
  NodeId leader = kNoNode;
  RoundId setup = 2000000;
  while (setup-- > 0 && leader == kNoNode) {
    pair.step();
    for (NodeId id = 0; id < 2; ++id) {
      if (pair.sparse->role(id) == Role::kLeader &&
          pair.sparse->role(1 - id) == Role::kKnockedOut) {
        leader = id;
      }
    }
  }
  ASSERT_NE(leader, kNoNode) << "seed never reached leader-vs-knocked-out";
  const NodeId survivor = 1 - leader;
  pair.sparse->crash(leader);
  pair.dense->crash(leader);

  // Run until the survivor has revived and re-promoted itself (bounded).
  RoundId budget = 2000000;
  while (budget-- > 0 && pair.sparse->role(survivor) != Role::kLeader) {
    pair.step();
    ASSERT_FALSE(::testing::Test::HasFailure());
  }
  EXPECT_EQ(pair.sparse->role(survivor), Role::kLeader);
  EXPECT_EQ(pair.dense->role(survivor), Role::kLeader);
  pair.expect_same_state();
}

TEST(EngineEdgeTest, SilentAdversaryRunUntilSyncedStaysBitIdentical) {
  // A silent adversary with every live node between wake slots leaves whole
  // windows with an empty cohort. The dense twin visits every node in every
  // round, the sparse one only its wake events; results must agree.
  SimBuilder builder = SimBuilder(8, 0, 2)
                           .N(64)
                           .seed(0xFA57)
                           .protocol(DutyCycleProtocol::factory());
  EnginePair pair = builder.pair();
  const auto dense_result = pair.dense->run_until_synced(4000000);
  const auto sparse_result = pair.sparse->run_until_synced(4000000);
  EXPECT_EQ(dense_result.synced, sparse_result.synced);
  EXPECT_EQ(dense_result.rounds, sparse_result.rounds);
  pair.expect_same_state();
}

}  // namespace
}  // namespace wsync
