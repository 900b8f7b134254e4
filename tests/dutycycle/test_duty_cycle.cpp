// DutyCycleProtocol and EnergyOracleProtocol state machines driven by hand
// (no engine): sleep exactly off-schedule, knockout/promotion/adoption,
// relay-then-dormant, silence revival, leader merge, and the oracle's
// always-on-until-contact-then-hard-sleep contract.
#include "src/dutycycle/duty_cycle.h"

#include <gtest/gtest.h>

#include <optional>

#include "src/common/rng.h"
#include "src/drift/drift.h"
#include "src/dutycycle/oracle.h"

namespace wsync {
namespace {

ProtocolEnv make_env(int F = 16, int t = 4, int64_t N = 64,
                     uint64_t uid = 1000) {
  ProtocolEnv env;
  env.F = F;
  env.t = t;
  env.N = N;
  env.uid = uid;
  env.node_id = 0;
  return env;
}

Message leader_message(uint64_t leader_uid, int64_t round_number) {
  LeaderMsg msg;
  msg.leader_uid = leader_uid;
  msg.round_number = round_number;
  return Message{1, 0, msg};
}

Message contender_message(int64_t age, uint64_t uid) {
  ContenderMsg msg;
  msg.ts = Timestamp{age, uid};
  return Message{1, 0, msg};
}

/// Steps the protocol one round with no reception; returns the action.
RoundAction step(Protocol& protocol, Rng& rng) {
  RoundAction action = protocol.act(rng);
  protocol.on_round_end(std::nullopt, rng);
  return action;
}

TEST(DutyCycleProtocolTest, SleepsExactlyOffItsWakeSchedule) {
  Rng rng(1);
  DutyCycleProtocol protocol(make_env());
  protocol.on_activate(rng);
  const WakeSchedule& schedule = protocol.schedule();
  const int64_t horizon = schedule.ladder_rounds() + 2 * schedule.period();
  for (int64_t age = 0; age < horizon; ++age) {
    const bool awake = schedule.awake(age);
    const double prob = protocol.broadcast_probability();
    const RoundAction action = step(protocol, rng);
    ASSERT_EQ(action.is_sleep(), !awake) << "age " << age;
    if (!awake) {
      ASSERT_EQ(prob, 0.0) << "age " << age;
    }
    if (action.broadcast) {
      ASSERT_GT(prob, 0.0) << "age " << age;
    }
    if (!action.is_sleep()) {
      ASSERT_GE(action.frequency, 0);
      ASSERT_LT(action.frequency, protocol.band());
    }
  }
}

TEST(DutyCycleProtocolTest, BandIsFPrimeUnlessConfiguredFull) {
  Rng rng(2);
  DutyCycleProtocol narrow(make_env(16, 4));
  EXPECT_EQ(narrow.band(), 8);  // min(F, 2t)
  DutyCycleProtocol clean(make_env(16, 0));
  EXPECT_EQ(clean.band(), 1);  // max(1, 2t)
  DutyCycleConfig full;
  full.restrict_to_fprime = false;
  DutyCycleProtocol wide(make_env(16, 4), full);
  EXPECT_EQ(wide.band(), 16);
}

TEST(DutyCycleProtocolTest, LoneContenderPromotesAndNumbersCorrectly) {
  Rng rng(3);
  DutyCycleProtocol protocol(make_env());
  protocol.on_activate(rng);
  int64_t rounds = 0;
  while (protocol.role() != Role::kLeader) {
    step(protocol, rng);
    ++rounds;
    ASSERT_LT(rounds, 100000) << "no promotion";
  }
  EXPECT_TRUE(protocol.output().has_number());
  // Correctness: the output increments every round, awake or asleep.
  int64_t previous = protocol.output().value;
  for (int i = 0; i < 200; ++i) {
    step(protocol, rng);
    ASSERT_EQ(protocol.output().value, previous + 1);
    previous = protocol.output().value;
  }
}

TEST(DutyCycleProtocolTest, LargerTimestampKnocksContenderOut) {
  Rng rng(4);
  DutyCycleProtocol protocol(make_env());
  protocol.on_activate(rng);
  protocol.act(rng);
  // A message from an older node (larger age) wins.
  protocol.on_round_end(contender_message(1000, 7), rng);
  EXPECT_EQ(protocol.role(), Role::kKnockedOut);
  EXPECT_TRUE(protocol.output().is_bottom());
  // A knocked-out node never broadcasts.
  for (int i = 0; i < 500; ++i) {
    const RoundAction action = protocol.act(rng);
    ASSERT_FALSE(action.broadcast);
    protocol.on_round_end(std::nullopt, rng);
    if (protocol.role() != Role::kKnockedOut) break;  // silence revival
  }
}

TEST(DutyCycleProtocolTest, SmallerTimestampDoesNotKnockOut) {
  Rng rng(5);
  DutyCycleProtocol protocol(make_env());
  protocol.on_activate(rng);
  protocol.act(rng);
  protocol.on_round_end(contender_message(0, 1), rng);  // younger, smaller uid
  EXPECT_EQ(protocol.role(), Role::kContender);
}

TEST(DutyCycleProtocolTest, AdoptsLeaderRelaysThenHardSleeps) {
  Rng rng(6);
  DutyCycleConfig config;
  config.relay_awake_slots = 4;
  DutyCycleProtocol protocol(make_env(), config);
  protocol.on_activate(rng);
  protocol.act(rng);
  protocol.on_round_end(leader_message(42, 777), rng);
  ASSERT_EQ(protocol.role(), Role::kSynced);
  EXPECT_EQ(protocol.output().value, 777);

  // Relay phase: on wake slots the node may broadcast the numbering.
  int64_t expected = 777;
  bool saw_relay_broadcast = false;
  for (int i = 0; i < 2000 && !protocol.dormant(); ++i) {
    const RoundAction action = protocol.act(rng);
    if (action.broadcast) {
      saw_relay_broadcast = true;
      const auto* msg = std::get_if<LeaderMsg>(&*action.payload);
      ASSERT_NE(msg, nullptr);
      EXPECT_EQ(msg->leader_uid, 42u);  // relays the adopted leader's uid
      EXPECT_EQ(msg->round_number, expected + 1);
    }
    protocol.on_round_end(std::nullopt, rng);
    ++expected;
    ASSERT_EQ(protocol.output().value, expected);
  }
  ASSERT_TRUE(protocol.dormant()) << "relay never exhausted";
  EXPECT_TRUE(saw_relay_broadcast);

  // Dormant: the radio stays off forever, the count keeps incrementing.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(protocol.act(rng).is_sleep());
    ASSERT_EQ(protocol.broadcast_probability(), 0.0);
    protocol.on_round_end(std::nullopt, rng);
    ++expected;
    ASSERT_EQ(protocol.output().value, expected);
  }
}

TEST(DutyCycleProtocolTest, LeaderMergeLargerUidWins) {
  Rng rng(7);
  DutyCycleProtocol protocol(make_env(16, 4, 64, /*uid=*/100));
  protocol.on_activate(rng);
  while (protocol.role() != Role::kLeader) step(protocol, rng);

  // A rival leader with a smaller uid is ignored.
  protocol.act(rng);
  protocol.on_round_end(leader_message(99, 5), rng);
  EXPECT_EQ(protocol.role(), Role::kLeader);

  // A rival with a larger uid wins: this leader adopts and relays.
  const int64_t own = protocol.output().value;
  protocol.act(rng);
  protocol.on_round_end(leader_message(101, own + 5000), rng);
  EXPECT_EQ(protocol.role(), Role::kSynced);
  EXPECT_EQ(protocol.output().value, own + 5000);
}

TEST(DutyCycleProtocolTest, KnockedOutRevivesAfterSilentWakeSlots) {
  Rng rng(8);
  DutyCycleConfig config;
  config.revive_awake_slots = 8;
  DutyCycleProtocol protocol(make_env(), config);
  protocol.on_activate(rng);
  protocol.act(rng);
  protocol.on_round_end(contender_message(1000, 7), rng);
  ASSERT_EQ(protocol.role(), Role::kKnockedOut);

  int64_t rounds = 0;
  while (protocol.role() == Role::kKnockedOut) {
    step(protocol, rng);
    ASSERT_LT(++rounds, 10000) << "never revived";
  }
  EXPECT_EQ(protocol.role(), Role::kContender);
  // And with continued silence, the revived node eventually leads.
  while (protocol.role() != Role::kLeader) {
    step(protocol, rng);
    ASSERT_LT(++rounds, 100000) << "revived node never promoted";
  }
}

TEST(DutyCycleProtocolTest, ReceptionResetsTheSilenceClock) {
  Rng rng(9);
  DutyCycleConfig config;
  config.revive_awake_slots = 8;
  DutyCycleProtocol protocol(make_env(), config);
  protocol.on_activate(rng);
  protocol.act(rng);
  protocol.on_round_end(contender_message(1000, 7), rng);
  ASSERT_EQ(protocol.role(), Role::kKnockedOut);
  // Keep the channel audibly alive: the node must stay knocked out.
  for (int i = 0; i < 2000; ++i) {
    const RoundAction action = protocol.act(rng);
    if (!action.is_sleep()) {
      protocol.on_round_end(contender_message(2000 + i, 7), rng);
    } else {
      protocol.on_round_end(std::nullopt, rng);
    }
    ASSERT_EQ(protocol.role(), Role::kKnockedOut) << "round " << i;
  }
}

// --- Resync cadence (hold-the-sync) ---------------------------------------
//
// With resync_every_awake_slots = R > 0, every R-th awake slot of a node's
// schedule is a resync slot: the leader's beacon goes out for certain, and
// dormant adopters re-open the radio to hear it. The slot rule is a pure
// function of age, so these tests recompute it externally from the
// WakeSchedule and diff the protocol's behavior against it.

/// True iff `age` is a resync slot of `schedule` under cadence R —
/// the test's independent copy of the protocol's rule.
bool external_resync_slot(const WakeSchedule& schedule, int64_t age, int R) {
  return schedule.awake(age) && schedule.awake_rounds_before(age) % R == 0;
}

TEST(DutyCycleResyncTest, DormantAdopterWakesListenOnlyOnTheCadence) {
  Rng rng(20);
  DutyCycleConfig config;
  config.relay_awake_slots = 0;  // dormant immediately after adoption
  config.resync_every_awake_slots = 4;
  DutyCycleProtocol protocol(make_env(), config);
  protocol.on_activate(rng);
  protocol.act(rng);
  protocol.on_round_end(leader_message(42, 900), rng);
  ASSERT_TRUE(protocol.dormant());

  const WakeSchedule& schedule = protocol.schedule();
  int64_t age = 1;  // one on_round_end so far
  int resync_wakes = 0;
  for (int i = 0; i < 4000; ++i, ++age) {
    const bool resync = external_resync_slot(schedule, age, 4);
    const double prob = protocol.broadcast_probability();
    const RoundAction action = protocol.act(rng);
    ASSERT_EQ(!action.is_sleep(), resync) << "age " << age;
    ASSERT_FALSE(action.broadcast) << "age " << age;  // listen-only wake
    ASSERT_EQ(prob, 0.0) << "age " << age;
    protocol.on_round_end(std::nullopt, rng);
    resync_wakes += resync ? 1 : 0;
  }
  EXPECT_GT(resync_wakes, 0) << "the cadence never fired";
}

TEST(DutyCycleResyncTest, AsleepForLandsExactlyOnTheNextCadenceSlot) {
  Rng rng(21);
  DutyCycleConfig config;
  config.relay_awake_slots = 0;
  config.resync_every_awake_slots = 4;
  DutyCycleProtocol protocol(make_env(), config);
  protocol.on_activate(rng);
  protocol.act(rng);
  protocol.on_round_end(leader_message(42, 900), rng);
  ASSERT_TRUE(protocol.dormant());

  const WakeSchedule& schedule = protocol.schedule();
  int64_t age = 1;
  for (int hops = 0; hops < 50; ++hops) {
    const auto asleep = protocol.asleep_for();
    ASSERT_TRUE(asleep.has_value());
    const int64_t k = *asleep;
    ASSERT_GE(k, 0);
    // Nothing in the skipped window is a resync slot; the landing age is.
    for (int64_t d = 0; d < k; ++d) {
      ASSERT_FALSE(external_resync_slot(schedule, age + d, 4))
          << "age " << age + d;
    }
    ASSERT_TRUE(external_resync_slot(schedule, age + k, 4)) << "age " << age;
    protocol.skip_rounds(k);
    age += k;
    // Step through the resync wake itself.
    ASSERT_FALSE(protocol.act(rng).is_sleep()) << "age " << age;
    protocol.on_round_end(std::nullopt, rng);
    ++age;
  }
}

TEST(DutyCycleResyncTest, NoCadenceMeansDormantForever) {
  Rng rng(22);
  DutyCycleConfig config;
  config.relay_awake_slots = 0;  // resync_every_awake_slots stays 0
  DutyCycleProtocol protocol(make_env(), config);
  protocol.on_activate(rng);
  protocol.act(rng);
  protocol.on_round_end(leader_message(42, 900), rng);
  ASSERT_TRUE(protocol.dormant());
  ASSERT_TRUE(protocol.asleep_for().has_value());
  EXPECT_EQ(*protocol.asleep_for(), kAsleepForever);
}

TEST(DutyCycleResyncTest, SkipRoundsMatchesSteppingUnderDrift) {
  // The sparse engine's replay must telescope the per-round drift deltas to
  // the same local count the dense engine accumulates one round at a time.
  // 333'333 ppm exercises both the +1 and the +2 delta.
  ProtocolEnv env = make_env();
  env.drift_ppm_rate = 333'333;
  DutyCycleConfig config;
  config.relay_awake_slots = 0;
  Rng rng_a(23);
  Rng rng_b(23);
  DutyCycleProtocol stepped(env, config);
  DutyCycleProtocol skipped(env, config);
  for (DutyCycleProtocol* p : {&stepped, &skipped}) {
    Rng& rng = p == &stepped ? rng_a : rng_b;
    p->on_activate(rng);
    p->act(rng);
    p->on_round_end(leader_message(42, 900), rng);
    ASSERT_TRUE(p->dormant());
  }
  for (int i = 0; i < 997; ++i) {
    ASSERT_TRUE(stepped.act(rng_a).is_sleep());
    stepped.on_round_end(std::nullopt, rng_a);
  }
  skipped.skip_rounds(997);
  EXPECT_EQ(skipped.output().value, stepped.output().value);
  // Both equal the closed form: adopted value plus the local-clock advance
  // from age 1 (adoption) to age 998.
  EXPECT_EQ(stepped.output().value,
            900 + local_clock(998, 333'333) - local_clock(1, 333'333));
}

TEST(DutyCycleResyncTest, ReAdoptionsIncrementResyncCorrections) {
  Rng rng(24);
  DutyCycleProtocol protocol(make_env());
  protocol.on_activate(rng);
  EXPECT_EQ(protocol.resync_corrections(), 0);
  protocol.act(rng);
  protocol.on_round_end(leader_message(42, 500), rng);
  // The first adoption establishes the numbering — not a correction.
  EXPECT_EQ(protocol.resync_corrections(), 0);
  protocol.act(rng);
  protocol.on_round_end(leader_message(42, 700), rng);
  // A later beacon overwrites accumulated skew: that IS the resync event.
  EXPECT_EQ(protocol.resync_corrections(), 1);
  EXPECT_EQ(protocol.output().value, 700);
  protocol.act(rng);
  protocol.on_round_end(leader_message(77, 900), rng);
  EXPECT_EQ(protocol.resync_corrections(), 2);
  EXPECT_EQ(protocol.output().value, 900);
}

TEST(DutyCycleResyncTest, LeaderBeaconIsCertainOnItsResyncSlots) {
  Rng rng(25);
  DutyCycleConfig config;
  config.resync_every_awake_slots = 4;
  config.leader_broadcast_prob = 0.0;  // isolate the cadence's transmissions
  DutyCycleProtocol protocol(make_env(), config);
  protocol.on_activate(rng);
  int64_t age = 0;
  while (protocol.role() != Role::kLeader) {
    step(protocol, rng);
    ++age;
    ASSERT_LT(age, 100000) << "no promotion";
  }
  const WakeSchedule& schedule = protocol.schedule();
  int beacons = 0;
  for (int i = 0; i < 3000; ++i, ++age) {
    const bool resync = external_resync_slot(schedule, age, 4);
    const double prob = protocol.broadcast_probability();
    const RoundAction action = protocol.act(rng);
    if (resync) {
      ASSERT_EQ(prob, 1.0) << "age " << age;
      ASSERT_TRUE(action.broadcast) << "age " << age;
      const auto* msg = std::get_if<LeaderMsg>(&*action.payload);
      ASSERT_NE(msg, nullptr);
      EXPECT_EQ(msg->leader_uid, 1000u);  // make_env()'s uid
      EXPECT_EQ(msg->round_number, protocol.output().value + 1);
      ++beacons;
    } else if (schedule.awake(age)) {
      // With leader_broadcast_prob 0 every off-cadence awake slot listens.
      ASSERT_EQ(prob, 0.0) << "age " << age;
      ASSERT_FALSE(action.broadcast) << "age " << age;
    } else {
      ASSERT_TRUE(action.is_sleep()) << "age " << age;
    }
    protocol.on_round_end(std::nullopt, rng);
  }
  EXPECT_GT(beacons, 0) << "the leader never hit a resync slot";
}

TEST(EnergyOracleTest, AlwaysOnUntilContactThenHardSleep) {
  Rng rng(10);
  EnergyOracleProtocol protocol(make_env());
  protocol.on_activate(rng);
  // Always-on while competing: never a sleep action.
  for (int i = 0; i < 200; ++i) {
    ASSERT_FALSE(protocol.act(rng).is_sleep());
    protocol.on_round_end(std::nullopt, rng);
    if (protocol.role() == Role::kLeader) break;
  }
  // Re-run with a fresh node that hears a leader: hard sleep from then on.
  Rng rng2(11);
  EnergyOracleProtocol adopter(make_env(16, 4, 64, 2000));
  adopter.on_activate(rng2);
  adopter.act(rng2);
  adopter.on_round_end(leader_message(42, 500), rng2);
  ASSERT_EQ(adopter.role(), Role::kSynced);
  ASSERT_TRUE(adopter.dormant());
  int64_t expected = 500;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(adopter.act(rng2).is_sleep());
    ASSERT_EQ(adopter.broadcast_probability(), 0.0);
    adopter.on_round_end(std::nullopt, rng2);
    ++expected;
    ASSERT_EQ(adopter.output().value, expected);
  }
}

TEST(EnergyOracleTest, LoneOracleSelfPromotesAndStaysOn) {
  Rng rng(12);
  EnergyOracleProtocol protocol(make_env(4, 0, 8));
  protocol.on_activate(rng);
  int64_t rounds = 0;
  while (protocol.role() != Role::kLeader) {
    ASSERT_FALSE(protocol.act(rng).is_sleep());
    protocol.on_round_end(std::nullopt, rng);
    ASSERT_LT(++rounds, 100000);
  }
  // The leader keeps burning: it is the oracle's max-awake node.
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(protocol.act(rng).is_sleep());
    protocol.on_round_end(std::nullopt, rng);
  }
  EXPECT_TRUE(protocol.output().has_number());
}

TEST(EnergyOracleTest, KnockoutKeepsListeningUntilContact) {
  Rng rng(13);
  EnergyOracleProtocol protocol(make_env());
  protocol.on_activate(rng);
  protocol.act(rng);
  protocol.on_round_end(contender_message(1000, 7), rng);
  ASSERT_EQ(protocol.role(), Role::kKnockedOut);
  for (int i = 0; i < 200; ++i) {
    const RoundAction action = protocol.act(rng);
    ASSERT_FALSE(action.is_sleep());
    ASSERT_FALSE(action.broadcast);
    protocol.on_round_end(std::nullopt, rng);
  }
  // First contact: adopt and power down.
  protocol.act(rng);
  protocol.on_round_end(leader_message(42, 900), rng);
  EXPECT_TRUE(protocol.dormant());
}

}  // namespace
}  // namespace wsync
