// EnergyLedger unit tests plus engine-integration coverage of the radio-use
// accounting: conservation (exactly one of broadcast/listen/sleep per node
// per round), never-activated and crashed nodes sleeping, late activation,
// and the RoundAction::sleep() path.
#include "src/radio/energy.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>

#include "src/adversary/basic.h"
#include "src/radio/engine.h"
#include "tests/testing/fake_protocol.h"

namespace wsync {
namespace {

using testing::FakeProtocol;
using testing::test_payload;

TEST(EnergyLedgerTest, StartsEmpty) {
  const EnergyLedger ledger(3);
  EXPECT_EQ(ledger.n(), 3);
  EXPECT_EQ(ledger.rounds(), 0);
  EXPECT_EQ(ledger.max_awake_rounds(), 0);
  EXPECT_EQ(ledger.mean_awake_rounds(), 0.0);
  EXPECT_EQ(ledger.node(0), NodeEnergy{});
  const RunEnergy totals = ledger.totals();
  EXPECT_EQ(totals, RunEnergy{});
}

TEST(EnergyLedgerTest, AccumulatesPerNodeStates) {
  EnergyLedger ledger(3);
  ledger.record(0, RadioState::kBroadcast);
  ledger.record(1, RadioState::kListen);
  ledger.record(2, RadioState::kSleep);
  ledger.end_round();
  ledger.record(0, RadioState::kListen);
  ledger.record(1, RadioState::kListen);
  ledger.record(2, RadioState::kSleep);
  ledger.end_round();

  EXPECT_EQ(ledger.rounds(), 2);
  EXPECT_EQ(ledger.node(0).broadcast_rounds, 1);
  EXPECT_EQ(ledger.node(0).listen_rounds, 1);
  EXPECT_EQ(ledger.node(0).awake_rounds(), 2);
  EXPECT_EQ(ledger.node(1).listen_rounds, 2);
  EXPECT_EQ(ledger.node(2).sleep_rounds, 2);
  EXPECT_EQ(ledger.node(2).awake_rounds(), 0);
  EXPECT_EQ(ledger.max_awake_rounds(), 2);
  EXPECT_DOUBLE_EQ(ledger.mean_awake_rounds(), 4.0 / 3.0);

  const RunEnergy totals = ledger.totals();
  EXPECT_EQ(totals.rounds, 2);
  EXPECT_EQ(totals.max_awake_rounds, 2);
  EXPECT_EQ(totals.broadcast_rounds, 1);
  EXPECT_EQ(totals.listen_rounds, 3);
  EXPECT_EQ(totals.sleep_rounds, 2);
}

TEST(EnergyLedgerTest, ConservationIsEnforcedAtTheSource) {
  EnergyLedger ledger(2);
  ledger.record(0, RadioState::kListen);
  // A second record for the same node in one round is a bug.
  EXPECT_THROW(ledger.record(0, RadioState::kSleep), std::logic_error);
  // Closing the round with node 1 unrecorded is a bug.
  EXPECT_THROW(ledger.end_round(), std::logic_error);
}

TEST(EnergyLedgerTest, RejectsBadIds) {
  EnergyLedger ledger(2);
  EXPECT_THROW(ledger.record(-1, RadioState::kSleep), std::invalid_argument);
  EXPECT_THROW(ledger.record(2, RadioState::kSleep), std::invalid_argument);
  EXPECT_THROW(ledger.node(2), std::invalid_argument);
}

TEST(EnergyLedgerTest, LazySkipWindowsMatchStrictAcrossActivateAndCrash) {
  // Strict-vs-lazy differential for the exact interleaving that bit the
  // sparse engine: an activate() or a crash landing at the edge of a window
  // the lazy ledger has closed with no record (empty end_round_lazy()
  // closes). The lazy counters must settle to the strict ones — no
  // double-charged and no dropped sleep rounds on the overlap.
  //
  // Script over 30 rounds:
  //  * node 0: active from round 0, listens on multiples of 10;
  //  * node 1: activated at round 12, the first round after an unrecorded
  //    window, then listens every round;
  //  * node 2: active from round 0, broadcasts on multiples of 10, crashes
  //    at round 12 (strict records its sleeps; lazy never records it again).
  EnergyLedger strict(3);
  EnergyLedger lazy(3);
  strict.activate(0);
  strict.activate(2);
  lazy.activate(0);
  lazy.activate(2);

  for (int r = 0; r < 30; ++r) {
    if (r == 12) strict.activate(1);
    strict.record(0, r % 10 == 0 ? RadioState::kListen : RadioState::kSleep);
    strict.record(1, r >= 12 ? RadioState::kListen : RadioState::kSleep);
    strict.record(2, (r % 10 == 0 && r < 12) ? RadioState::kBroadcast
                                             : RadioState::kSleep);
    strict.end_round();
  }

  lazy.record(0, RadioState::kListen);       // round 0
  lazy.record(2, RadioState::kBroadcast);
  lazy.end_round_lazy();
  for (int r = 1; r < 10; ++r) lazy.end_round_lazy();  // everyone asleep
  lazy.record(0, RadioState::kListen);       // round 10
  lazy.record(2, RadioState::kBroadcast);
  lazy.end_round_lazy();
  lazy.end_round_lazy();                     // round 11 unrecorded...
  lazy.activate(1);  // ...and the activate lands right at the window's edge
  for (int r = 12; r < 30; ++r) {
    lazy.record(1, RadioState::kListen);
    if (r % 10 == 0) lazy.record(0, RadioState::kListen);
    lazy.end_round_lazy();
  }

  ASSERT_EQ(strict.rounds(), lazy.rounds());
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(strict.node(id), lazy.node(id)) << "node " << id;
  }
  const RunEnergy a = strict.totals();
  const RunEnergy b = lazy.totals();
  EXPECT_EQ(a, b);
  // Sanity against hand counts: node 1 was a participant for rounds 12-29.
  EXPECT_EQ(lazy.node(1).active_rounds, 18);
  EXPECT_EQ(lazy.node(1).listen_rounds, 18);
  EXPECT_EQ(lazy.node(2).broadcast_rounds, 2);
  EXPECT_EQ(lazy.node(2).sleep_rounds, 28);
}

// --- engine integration ----------------------------------------------------

SimConfig small_config(int n) {
  SimConfig config;
  config.F = 2;
  config.t = 0;
  config.N = n;
  config.n = n;
  config.seed = 7;
  return config;
}

TEST(EngineEnergyTest, LateActivationSleepsUntilWake) {
  // Node 0 wakes at round 0, node 1 at round 3; both then listen on 0.
  std::map<NodeId, FakeProtocol*> registry;
  Simulation sim(small_config(2),
                 FakeProtocol::factory({}, &registry),
                 std::make_unique<NoneAdversary>(),
                 std::make_unique<SequentialActivation>(2, 3));
  for (int r = 0; r < 6; ++r) sim.step();

  const EnergyLedger& ledger = sim.energy();
  EXPECT_EQ(ledger.rounds(), 6);
  // Node 0: awake all 6 rounds.
  EXPECT_EQ(ledger.node(0).listen_rounds, 6);
  EXPECT_EQ(ledger.node(0).sleep_rounds, 0);
  // Node 1: slept rounds 0-2, listened 3-5.
  EXPECT_EQ(ledger.node(1).sleep_rounds, 3);
  EXPECT_EQ(ledger.node(1).listen_rounds, 3);
  // Conservation for every node.
  for (NodeId id = 0; id < 2; ++id) {
    EXPECT_EQ(ledger.node(id).total_rounds(), 6);
  }
}

TEST(EngineEnergyTest, CrashedNodesSleepFromTheNextRound) {
  std::map<NodeId, FakeProtocol*> registry;
  Simulation sim(small_config(2),
                 FakeProtocol::factory({}, &registry),
                 std::make_unique<NoneAdversary>(),
                 std::make_unique<SimultaneousActivation>(2));
  sim.step();
  sim.step();
  sim.crash(1);
  sim.step();
  sim.step();

  const EnergyLedger& ledger = sim.energy();
  EXPECT_EQ(ledger.node(0).listen_rounds, 4);
  EXPECT_EQ(ledger.node(1).listen_rounds, 2);
  EXPECT_EQ(ledger.node(1).sleep_rounds, 2);
  EXPECT_EQ(ledger.node(1).awake_rounds(), 2);
  EXPECT_EQ(ledger.max_awake_rounds(), 4);
}

TEST(EngineEnergyTest, NeverActivatedNodeOnlySleeps) {
  // Activation at round 10; we stop at round 4, so node 0 never wakes.
  std::map<NodeId, FakeProtocol*> registry;
  Simulation sim(small_config(1),
                 FakeProtocol::factory({}, &registry),
                 std::make_unique<NoneAdversary>(),
                 std::make_unique<SimultaneousActivation>(1, 10));
  for (int r = 0; r < 4; ++r) sim.step();

  const EnergyLedger& ledger = sim.energy();
  EXPECT_EQ(ledger.node(0).sleep_rounds, 4);
  EXPECT_EQ(ledger.node(0).awake_rounds(), 0);
  EXPECT_EQ(ledger.totals().sleep_rounds, 4);
  EXPECT_EQ(ledger.totals().max_awake_rounds, 0);
}

TEST(EngineEnergyTest, SleepActionIsChargedAsSleep) {
  // Node 0 cycles broadcast / listen / sleep; node 1 always listens.
  FakeProtocol::Script duty_cycled;
  duty_cycled.actions = {RoundAction::send(0, test_payload(1)),
                         RoundAction::listen(0), RoundAction::sleep()};
  std::map<NodeId, FakeProtocol*> registry;
  Simulation sim(small_config(2),
                 FakeProtocol::factory({{0, duty_cycled}}, &registry),
                 std::make_unique<NoneAdversary>(),
                 std::make_unique<SimultaneousActivation>(2));
  for (int r = 0; r < 6; ++r) sim.step();

  const EnergyLedger& ledger = sim.energy();
  EXPECT_EQ(ledger.node(0).broadcast_rounds, 2);
  EXPECT_EQ(ledger.node(0).listen_rounds, 2);
  EXPECT_EQ(ledger.node(0).sleep_rounds, 2);
  EXPECT_EQ(ledger.node(1).listen_rounds, 6);

  // Node 0 never receives: as the sole broadcaster it cannot hear itself,
  // and in its listen/sleep rounds nobody is on the air.
  ASSERT_EQ(registry[0]->receptions.size(), 6u);
  for (const auto& received : registry[0]->receptions) {
    EXPECT_FALSE(received.has_value());
  }
}

TEST(EngineEnergyTest, SleepingBroadcasterReachesNobody) {
  // Node 0 sleeps every round; node 1 listens on frequency 0. Nothing is
  // on the air, so node 1 never receives and the per-freq stats stay empty.
  FakeProtocol::Script sleeper;
  sleeper.actions = {RoundAction::sleep()};
  std::map<NodeId, FakeProtocol*> registry;
  Simulation sim(small_config(2),
                 FakeProtocol::factory({{0, sleeper}}, &registry),
                 std::make_unique<NoneAdversary>(),
                 std::make_unique<SimultaneousActivation>(2));
  const RoundReport report = sim.step();
  EXPECT_EQ(report.broadcasters, 0);
  EXPECT_EQ(report.deliveries, 0);
  EXPECT_EQ(sim.view().last_round().per_freq[0].broadcasters, 0);
  EXPECT_EQ(sim.view().last_round().per_freq[0].listeners, 1);
  EXPECT_EQ(sim.energy().node(0).sleep_rounds, 1);
}

}  // namespace
}  // namespace wsync
