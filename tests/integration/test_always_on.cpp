// Pins the ledger semantics of the paper's protocols and the strawman
// baselines: none of them ever emits RoundAction::sleep(), so for every
// node awake-rounds ≡ rounds-since-activation (their radio-use cost IS
// their round count — the always-on premise every energy comparison in the
// repo leans on). The unslotted adapter wraps these same Protocol
// instances and sleeps only through the phase ticks before a node's first
// logical round; its own case below pins that.
//
// The duty-cycled subsystem is the deliberate exception, asserted in the
// opposite direction: its nodes MUST sleep.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/adversary/basic.h"
#include "src/experiment/sweep.h"
#include "src/radio/engine.h"
#include "src/sync/runner.h"
#include "src/trapdoor/trapdoor.h"
#include "src/unslotted/unslotted.h"

namespace wsync {
namespace {

/// Runs `kind` on a small staggered point and returns the simulation after
/// `rounds` engine rounds.
void assert_sleep_shape(ProtocolKind kind, bool expect_sleeping) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 16;
  point.n = 4;
  point.protocol = kind;
  point.adversary = AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kStaggeredUniform;
  point.activation_window = 24;

  const RunSpec spec = make_run_spec(point);
  Simulation sim(spec.sim, spec.factory, spec.make_adversary(),
                 spec.make_activation());
  const RoundId rounds = 200;
  for (RoundId r = 0; r < rounds; ++r) sim.step();

  bool any_active_sleep = false;
  for (NodeId id = 0; id < point.n; ++id) {
    const NodeEnergy& energy = sim.energy().node(id);
    const RoundId woke_at = sim.activation_round(id);
    const int64_t active = woke_at >= 0 ? rounds - woke_at : 0;
    ASSERT_EQ(energy.active_rounds, active)
        << to_string(kind) << " node " << id;
    if (expect_sleeping) {
      // Sleep while active is the whole point of the duty-cycled regime.
      any_active_sleep |= energy.awake_rounds() < energy.active_rounds;
    } else {
      // Always-on pin: awake every single round since activation — any
      // sleep() emitted by these protocols is a regression in the ledger
      // semantics every energy budget in the catalog relies on.
      ASSERT_EQ(energy.awake_rounds(), energy.active_rounds)
          << to_string(kind) << " node " << id << " slept while active";
      ASSERT_EQ(energy.sleep_rounds, rounds - active)
          << to_string(kind) << " node " << id;
      ASSERT_EQ(energy.awake_fraction(), active > 0 ? 1.0 : 0.0)
          << to_string(kind) << " node " << id;
    }
  }
  if (expect_sleeping) {
    EXPECT_TRUE(any_active_sleep)
        << to_string(kind) << " never slept while active";
  }
}

TEST(AlwaysOnPinTest, PaperProtocolsAndBaselinesNeverSleep) {
  for (const ProtocolKind kind :
       {ProtocolKind::kTrapdoor, ProtocolKind::kTrapdoorFullBand,
        ProtocolKind::kGoodSamaritan, ProtocolKind::kWakeupBaseline,
        ProtocolKind::kAloha, ProtocolKind::kFaultTolerantTrapdoor}) {
    assert_sleep_shape(kind, /*expect_sleeping=*/false);
  }
}

TEST(AlwaysOnPinTest, DutyCycledProtocolsDoSleep) {
  for (const ProtocolKind kind :
       {ProtocolKind::kDutyCycle, ProtocolKind::kEnergyOracle}) {
    assert_sleep_shape(kind, /*expect_sleeping=*/true);
  }
}

TEST(AlwaysOnPinTest, UnslottedTrapdoorSleepsOnlyThroughItsPhase) {
  // A wrapped node holds its logical round's action on every tick, so its
  // radio is on from its first logical round on: awake ticks equal ticks
  // since activation minus its phase. The dense engine's strict ledger
  // checks conservation every tick.
  const int ticks_per_slot = 3;
  SimConfig config;
  config.F = 8;
  config.t = 2;
  config.N = 16;
  config.n = 6;
  config.seed = 7;
  config.engine = EngineMode::kDense;
  Simulation sim(config,
                 UnslottedProtocol::factory(TrapdoorProtocol::factory(),
                                            ticks_per_slot),
                 std::make_unique<RandomSubsetAdversary>(2),
                 std::make_unique<SlotActivation>(
                     std::make_unique<StaggeredUniformActivation>(config.n, 8),
                     ticks_per_slot));
  const RoundId ticks = 600;
  for (RoundId r = 0; r < ticks; ++r) sim.step();

  bool any_phase = false;
  for (NodeId id = 0; id < config.n; ++id) {
    const int phase =
        dynamic_cast<const UnslottedProtocol&>(sim.protocol(id)).phase();
    const NodeEnergy& energy = sim.energy().node(id);
    const RoundId active = ticks - sim.activation_round(id);
    ASSERT_EQ(energy.active_rounds, active) << "node " << id;
    ASSERT_EQ(energy.awake_rounds(), active - phase) << "node " << id;
    ASSERT_EQ(energy.sleep_rounds, ticks - active + phase) << "node " << id;
    any_phase |= phase > 0;
  }
  EXPECT_TRUE(any_phase) << "no node drew a phase; the pin shows nothing";
}

}  // namespace
}  // namespace wsync
