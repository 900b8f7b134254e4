#include "src/unslotted/unslotted.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>

#include "src/adversary/basic.h"
#include "src/experiment/sweep.h"
#include "src/radio/engine.h"
#include "src/samaritan/good_samaritan.h"
#include "src/trapdoor/trapdoor.h"
#include "tests/testing/fake_protocol.h"

namespace wsync {
namespace {

using testing::FakeProtocol;
using testing::test_payload;

SimConfig basic_config(int F, int t, int n, int64_t N, uint64_t seed = 1) {
  SimConfig config;
  config.F = F;
  config.t = t;
  config.N = N;
  config.n = n;
  config.seed = seed;
  return config;
}

/// `inner` stretched over `ticks_per_slot` ticks per round, woken in slot 0.
std::unique_ptr<Simulation> unslotted_sim(
    const SimConfig& config, int ticks_per_slot, ProtocolFactory inner,
    std::unique_ptr<Adversary> adversary) {
  return std::make_unique<Simulation>(
      config, UnslottedProtocol::factory(std::move(inner), ticks_per_slot),
      std::move(adversary),
      std::make_unique<SlotActivation>(
          std::make_unique<SimultaneousActivation>(config.n), ticks_per_slot));
}

int phase(const Simulation& sim, NodeId id) {
  return dynamic_cast<const UnslottedProtocol&>(sim.protocol(id)).phase();
}

int leaders(const Simulation& sim) {
  int count = 0;
  for (NodeId id = 0; id < sim.config().n; ++id) {
    count += sim.role(id) == Role::kLeader ? 1 : 0;
  }
  return count;
}

TEST(UnslottedTest, ValidatesConfig) {
  const ProtocolFactory fake = FakeProtocol::factory({}, nullptr);
  EXPECT_THROW(UnslottedProtocol(fake({}), 0), std::invalid_argument);
  EXPECT_THROW(UnslottedProtocol(nullptr, 2), std::invalid_argument);
  EXPECT_THROW(UnslottedProtocol::factory(fake, 0), std::invalid_argument);
  EXPECT_THROW(UnslottedProtocol::factory(nullptr, 2), std::invalid_argument);
  EXPECT_THROW(SlotActivation(std::make_unique<SimultaneousActivation>(2), 0),
               std::invalid_argument);
  EXPECT_THROW(SlotActivation(nullptr, 2), std::invalid_argument);
}

TEST(UnslottedTest, OneTickPerSlotIsTheSlottedRun) {
  // At T = 1 the adapters draw no phase and hold nothing: for every
  // protocol kind every report and node observer equals the bare run's (a
  // duty-cycled node loses only its wake prediction, which is invisible).
  auto observe = [](const Simulation& sim, NodeId id) {
    return std::tuple(sim.output(id), sim.role(id), sim.sync_round(id),
                      sim.energy().node(id));
  };
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 16;
  point.n = 6;
  point.adversary = AdversaryKind::kRandomSubset;
  point.activation_window = 24;
  for (const ProtocolKind kind :
       {ProtocolKind::kTrapdoor, ProtocolKind::kTrapdoorFullBand,
        ProtocolKind::kGoodSamaritan, ProtocolKind::kWakeupBaseline,
        ProtocolKind::kAloha, ProtocolKind::kFaultTolerantTrapdoor,
        ProtocolKind::kDutyCycle, ProtocolKind::kEnergyOracle}) {
    point.protocol = kind;
    for (const ActivationKind activation :
         {ActivationKind::kSimultaneous, ActivationKind::kStaggeredUniform}) {
      point.activation = activation;
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(::testing::Message() << to_string(kind) << " "
                                          << to_string(activation) << " seed "
                                          << seed);
        RunSpec spec = make_run_spec(point);
        spec.sim.seed = seed;
        Simulation bare(spec.sim, spec.factory, spec.make_adversary(),
                        spec.make_activation());
        Simulation wrapped(
            spec.sim, UnslottedProtocol::factory(spec.factory, 1),
            spec.make_adversary(),
            std::make_unique<SlotActivation>(spec.make_activation(), 1));
        for (RoundId r = 0; r < 3000; ++r) {
          ASSERT_EQ(bare.step(), wrapped.step()) << "round " << r;
          for (NodeId id = 0; id < spec.sim.n; ++id) {
            ASSERT_EQ(observe(bare, id), observe(wrapped, id))
                << "round " << r << " node " << id;
          }
        }
      }
    }
  }
}

TEST(UnslottedTest, PhaseShiftedListenerStillHears) {
  // Seeds give nodes random phases in {0, 1}; a listener hears a broadcaster
  // whatever their phases, as each node holds one inner act() over every
  // tick of its round. The broadcaster's planned weight is 0 in the phase,
  // the inner weight at a round start and the held broadcast's 1 inside.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::map<NodeId, FakeProtocol::Script> scripts;
    scripts[0].actions = {RoundAction::send(1, test_payload(9))};
    scripts[0].weight = 0.25;
    scripts[1].actions = {RoundAction::listen(1)};
    std::map<NodeId, FakeProtocol*> nodes;
    const auto sim = unslotted_sim(basic_config(4, 0, 2, 2, seed), 2,
                                   FakeProtocol::factory(scripts, &nodes),
                                   std::make_unique<NoneAdversary>());
    for (RoundId tick = 0; tick < 8; ++tick) {
      const double weight = sim->step().broadcast_weight;
      const RoundId into = tick - phase(*sim, 0);
      EXPECT_EQ(weight, into < 0 ? 0.0 : into % 2 == 0 ? 0.25 : 1.0);
    }
    const auto heard =
        std::count_if(nodes[1]->receptions.begin(), nodes[1]->receptions.end(),
                      [](const auto& r) { return r.has_value(); });
    EXPECT_GT(heard, 0) << "seed " << seed << " phases " << phase(*sim, 0)
                        << "/" << phase(*sim, 1);
    EXPECT_EQ(nodes[0]->acts(), (8 - phase(*sim, 0) + 1) / 2);
  }
}

TEST(UnslottedTest, PerTickDisruptionBlocks) {
  std::map<NodeId, FakeProtocol::Script> scripts;
  scripts[0].actions = {RoundAction::send(0, test_payload(1))};
  scripts[1].actions = {RoundAction::listen(0)};
  std::map<NodeId, FakeProtocol*> nodes;
  const auto sim = unslotted_sim(basic_config(4, 1, 2, 2), 2,
                                 FakeProtocol::factory(scripts, &nodes),
                                 std::make_unique<FixedSubsetAdversary>(1));
  for (int i = 0; i < 12; ++i) sim->step();
  ASSERT_FALSE(nodes[1]->receptions.empty());
  for (const auto& r : nodes[1]->receptions) EXPECT_FALSE(r.has_value());
}

TEST(UnslottedTest, PhasesAreAssignedWithinSlot) {
  const auto sim = unslotted_sim(basic_config(4, 0, 16, 16), 4,
                                 FakeProtocol::factory({}, nullptr),
                                 std::make_unique<NoneAdversary>());
  sim->step();
  std::set<int> phases;
  for (NodeId id = 0; id < 16; ++id) {
    EXPECT_GE(phase(*sim, id), 0);
    EXPECT_LT(phase(*sim, id), 4);
    phases.insert(phase(*sim, id));
  }
  EXPECT_GT(phases.size(), 1u);  // not all aligned
}

TEST(UnslottedTest, TrapdoorSynchronizesUnslotted) {
  // The Section 8 claim: the slotted protocol carries over at a constant
  // multiplicative cost. Trapdoor instances with random phases must still
  // elect a unique leader and synchronize.
  const auto sim = unslotted_sim(basic_config(8, 2, 6, 16, 99), 2,
                                 TrapdoorProtocol::factory(),
                                 std::make_unique<RandomSubsetAdversary>(2));
  ASSERT_TRUE(sim->run_until_synced(4000000).synced);
  for (NodeId id = 0; id < 6; ++id) EXPECT_TRUE(sim->output(id).has_number());
  EXPECT_EQ(leaders(*sim), 1);
}

/// The largest per-tick spread of numbered outputs over 500 ticks after
/// liveness (Trapdoor and Good Samaritan, six seeds each), each within
/// `bound`. Phases cost one; straddled leader rounds (T >= 3) one more.
int64_t worst_spread(int ticks_per_slot, int64_t bound) {
  int64_t worst = 0;
  for (const bool trapdoor : {true, false}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const SimConfig config = trapdoor ? basic_config(8, 2, 5, 16, seed)
                                        : basic_config(8, 2, 4, 8, seed);
      const auto sim = unslotted_sim(
          config, ticks_per_slot,
          trapdoor ? TrapdoorProtocol::factory()
                   : GoodSamaritanProtocol::factory(),
          std::make_unique<RandomSubsetAdversary>(2));
      EXPECT_TRUE(sim->run_until_synced(50000000).synced) << "seed " << seed;
      const auto report = sim->run_maintenance(500, bound);
      EXPECT_EQ(report.offset_violations, 0)
          << "T=" << ticks_per_slot << " n=" << config.n << " seed " << seed
          << " reached spread " << report.max_offset_seen;
      worst = std::max(worst, report.max_offset_seen);
    }
  }
  return worst;
}

TEST(UnslottedTest, OutputSpreadIsZeroAtOneTickPerSlot) {
  EXPECT_EQ(worst_spread(1, 0), 0);
}

TEST(UnslottedTest, OutputSpreadStaysWithinOneAtTwoTicksPerSlot) {
  EXPECT_EQ(worst_spread(2, 1), 1);
}

TEST(UnslottedTest, OutputSpreadStaysWithinTwoAtThreeTicksPerSlot) {
  EXPECT_EQ(worst_spread(3, 2), 2);
}

TEST(UnslottedTest, UnslottedCostIsRoughlyTheRepetitionFactor) {
  // Slotted baseline vs ticks_per_slot = 2: ticks-to-sync should be about
  // 2x the slotted rounds-to-sync (same protocol, same parameters).
  auto ticks_to_sync = [](int ticks_per_slot) {
    const auto sim = unslotted_sim(basic_config(8, 2, 4, 16, 5), ticks_per_slot,
                                   TrapdoorProtocol::factory(),
                                   std::make_unique<RandomSubsetAdversary>(2));
    const auto result = sim->run_until_synced(8000000);
    EXPECT_TRUE(result.synced) << "T=" << ticks_per_slot;
    return static_cast<double>(result.rounds);
  };
  const double ratio = ticks_to_sync(2) / ticks_to_sync(1);
  EXPECT_GT(ratio, 1.0);
  EXPECT_LT(ratio, 4.0);  // constant multiplicative cost, about 2x
}

TEST(UnslottedTest, GoodSamaritanAlsoSurvivesTheTransform) {
  // The transform is protocol-agnostic: the Good Samaritan protocol (with
  // its much more intricate round structure) must also synchronize with
  // phase-shifted nodes.
  const auto sim = unslotted_sim(basic_config(8, 2, 4, 8, 17), 2,
                                 GoodSamaritanProtocol::factory(),
                                 std::make_unique<RandomSubsetAdversary>(2));
  ASSERT_TRUE(sim->run_until_synced(50000000).synced);
  EXPECT_EQ(leaders(*sim), 1);
}

TEST(UnslottedTest, DeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    const auto sim = unslotted_sim(basic_config(8, 2, 4, 8, seed), 2,
                                   TrapdoorProtocol::factory(),
                                   std::make_unique<RandomSubsetAdversary>(2));
    return sim->run_until_synced(4000000).rounds;
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

}  // namespace
}  // namespace wsync
