#include "src/trapdoor/trapdoor.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/adversary/basic.h"
#include "src/radio/engine.h"

namespace wsync {
namespace {

ProtocolEnv make_env(int F, int t, int64_t N, uint64_t uid) {
  ProtocolEnv env;
  env.F = F;
  env.t = t;
  env.N = N;
  env.uid = uid;
  env.node_id = 0;
  return env;
}

Message contender_message(int64_t age, uint64_t uid) {
  Message m;
  m.sender = 1;
  m.frequency = 0;
  ContenderMsg msg;
  msg.ts = Timestamp{age, uid};
  m.payload = msg;
  return m;
}

Message leader_message(uint64_t uid, int64_t number) {
  Message m;
  m.sender = 1;
  m.frequency = 0;
  LeaderMsg msg;
  msg.leader_uid = uid;
  msg.round_number = number;
  m.payload = msg;
  return m;
}

TEST(TrapdoorProtocolTest, StartsAsContenderWithBottomOutput) {
  TrapdoorProtocol p(make_env(8, 2, 64, 42));
  Rng rng(1);
  p.on_activate(rng);
  EXPECT_EQ(p.role(), Role::kContender);
  EXPECT_TRUE(p.output().is_bottom());
  EXPECT_EQ(p.age(), 0);
  EXPECT_EQ(p.current_epoch(), 1);
}

TEST(TrapdoorProtocolTest, ActStaysWithinFPrime) {
  TrapdoorProtocol p(make_env(16, 2, 64, 42));  // F' = 4
  Rng rng(2);
  p.on_activate(rng);
  for (int i = 0; i < 500; ++i) {
    const RoundAction action = p.act(rng);
    EXPECT_GE(action.frequency, 0);
    EXPECT_LT(action.frequency, 4);
    p.on_round_end(std::nullopt, rng);
  }
}

TEST(TrapdoorProtocolTest, LargerTimestampKnocksOut) {
  TrapdoorProtocol p(make_env(8, 2, 64, 42));
  Rng rng(3);
  p.on_activate(rng);
  p.act(rng);
  // Sender active for 100 rounds (we are at age 0): larger timestamp.
  p.on_round_end(contender_message(100, 7), rng);
  EXPECT_EQ(p.role(), Role::kKnockedOut);
  EXPECT_TRUE(p.output().is_bottom());
}

TEST(TrapdoorProtocolTest, SmallerTimestampIsIgnored) {
  TrapdoorProtocol p(make_env(8, 2, 64, 42));
  Rng rng(4);
  p.on_activate(rng);
  for (int i = 0; i < 10; ++i) {
    p.act(rng);
    p.on_round_end(std::nullopt, rng);
  }
  p.act(rng);
  p.on_round_end(contender_message(2, 7), rng);  // our age is 10 > 2
  EXPECT_EQ(p.role(), Role::kContender);
}

TEST(TrapdoorProtocolTest, EqualAgeUidBreaksTie) {
  TrapdoorProtocol p(make_env(8, 2, 64, 42));
  Rng rng(5);
  p.on_activate(rng);
  p.act(rng);
  p.on_round_end(contender_message(0, 41), rng);  // smaller uid: ignored
  EXPECT_EQ(p.role(), Role::kContender);
  p.act(rng);
  p.on_round_end(contender_message(1, 43), rng);  // equal age now 1, bigger uid
  EXPECT_EQ(p.role(), Role::kKnockedOut);
}

TEST(TrapdoorProtocolTest, KnockedOutNodeKeepsListening) {
  TrapdoorProtocol p(make_env(8, 2, 64, 42));
  Rng rng(6);
  p.on_activate(rng);
  p.act(rng);
  p.on_round_end(contender_message(100, 7), rng);
  ASSERT_EQ(p.role(), Role::kKnockedOut);
  for (int i = 0; i < 100; ++i) {
    const RoundAction action = p.act(rng);
    EXPECT_FALSE(action.broadcast);
    EXPECT_LT(action.frequency, 4);  // F' = 4
    p.on_round_end(std::nullopt, rng);
  }
  EXPECT_DOUBLE_EQ(p.broadcast_probability(), 0.0);
}

TEST(TrapdoorProtocolTest, SurvivorBecomesLeaderAndCountsRounds) {
  const ProtocolEnv env = make_env(2, 0, 2, 42);
  TrapdoorProtocol p(env);
  Rng rng(7);
  p.on_activate(rng);
  const int64_t total = p.schedule().total_rounds();
  for (int64_t i = 0; i < total; ++i) {
    EXPECT_EQ(p.role(), Role::kContender) << "round " << i;
    p.act(rng);
    p.on_round_end(std::nullopt, rng);
  }
  EXPECT_EQ(p.role(), Role::kLeader);
  ASSERT_TRUE(p.output().has_number());
  const int64_t first = p.output().value;
  // Correctness: output increments every subsequent round.
  for (int i = 1; i <= 5; ++i) {
    p.act(rng);
    p.on_round_end(std::nullopt, rng);
    EXPECT_EQ(p.output().value, first + i);
  }
}

TEST(TrapdoorProtocolTest, LeaderMessageCarriesNextOutput) {
  const ProtocolEnv env = make_env(2, 0, 2, 42);
  TrapdoorProtocol p(env);
  Rng rng(8);
  p.on_activate(rng);
  while (p.role() != Role::kLeader) {
    p.act(rng);
    p.on_round_end(std::nullopt, rng);
  }
  // Find a broadcasting round and check the number it carries: it must be
  // the leader's output at the END of that round.
  for (int tries = 0; tries < 1000; ++tries) {
    const RoundAction action = p.act(rng);
    if (action.broadcast) {
      const auto& msg = std::get<LeaderMsg>(*action.payload);
      p.on_round_end(std::nullopt, rng);
      EXPECT_EQ(msg.round_number, p.output().value);
      return;
    }
    p.on_round_end(std::nullopt, rng);
  }
  FAIL() << "leader never broadcast in 1000 rounds";
}

TEST(TrapdoorProtocolTest, AdoptsLeaderNumbering) {
  TrapdoorProtocol p(make_env(8, 2, 64, 42));
  Rng rng(9);
  p.on_activate(rng);
  p.act(rng);
  p.on_round_end(leader_message(7, 1234), rng);
  EXPECT_EQ(p.role(), Role::kSynced);
  EXPECT_EQ(p.output().value, 1234);
  EXPECT_EQ(p.adopted_leader_uid(), 7u);
  // Increments thereafter.
  p.act(rng);
  p.on_round_end(std::nullopt, rng);
  EXPECT_EQ(p.output().value, 1235);
}

TEST(TrapdoorProtocolTest, ReadoptionFromSameLeaderKeepsAgreement) {
  TrapdoorProtocol p(make_env(8, 2, 64, 42));
  Rng rng(10);
  p.on_activate(rng);
  p.act(rng);
  p.on_round_end(leader_message(7, 100), rng);
  EXPECT_EQ(p.output().value, 100);
  // Hearing the leader again two rounds later: numbers must stay aligned.
  p.act(rng);
  p.on_round_end(std::nullopt, rng);
  EXPECT_EQ(p.output().value, 101);
  p.act(rng);
  p.on_round_end(leader_message(7, 102), rng);
  EXPECT_EQ(p.output().value, 102);
}

TEST(TrapdoorProtocolTest, SyncedNodeIgnoresASecondLeader) {
  // Two leaders can coexist (asymmetric channel views, crash waves). A node
  // numbered by leader 7 must not jump to leader 8's numbering; its own
  // leader's beacons still resync it.
  TrapdoorProtocol p(make_env(8, 2, 64, 42));
  Rng rng(13);
  p.on_activate(rng);
  p.act(rng);
  p.on_round_end(leader_message(7, 100), rng);
  ASSERT_EQ(p.output().value, 100);
  p.act(rng);
  p.on_round_end(leader_message(8, 500), rng);
  EXPECT_EQ(p.output().value, 101);
  EXPECT_EQ(p.adopted_leader_uid(), 7u);
  EXPECT_EQ(p.resync_corrections(), 0);
  p.act(rng);
  p.on_round_end(leader_message(7, 110), rng);
  EXPECT_EQ(p.output().value, 110);
  EXPECT_EQ(p.resync_corrections(), 1);
}

TEST(TrapdoorProtocolTest, KnockedOutStillAdoptsLeader) {
  TrapdoorProtocol p(make_env(8, 2, 64, 42));
  Rng rng(11);
  p.on_activate(rng);
  p.act(rng);
  p.on_round_end(contender_message(50, 9), rng);
  ASSERT_EQ(p.role(), Role::kKnockedOut);
  p.act(rng);
  p.on_round_end(leader_message(9, 77), rng);
  EXPECT_EQ(p.role(), Role::kSynced);
  EXPECT_EQ(p.output().value, 77);
}

TEST(TrapdoorProtocolTest, SyncCommitNeverRegresses) {
  TrapdoorProtocol p(make_env(8, 2, 64, 42));
  Rng rng(12);
  p.on_activate(rng);
  p.act(rng);
  p.on_round_end(leader_message(9, 5), rng);
  for (int i = 0; i < 200; ++i) {
    p.act(rng);
    // Hearing contenders after synchronizing must not reset the output.
    p.on_round_end(contender_message(1000 + i, 999), rng);
    EXPECT_TRUE(p.output().has_number());
  }
}

TEST(TrapdoorProtocolTest, BroadcastProbabilityTracksSchedule) {
  TrapdoorProtocol p(make_env(8, 2, 256, 42));
  Rng rng(13);
  p.on_activate(rng);
  const auto& schedule = p.schedule();
  for (int64_t age = 0; age < schedule.total_rounds(); ++age) {
    EXPECT_DOUBLE_EQ(p.broadcast_probability(),
                     schedule.broadcast_prob_at(age));
    p.act(rng);
    p.on_round_end(std::nullopt, rng);
  }
  EXPECT_DOUBLE_EQ(p.broadcast_probability(), 0.5);  // leader now
}

TEST(TrapdoorProtocolTest, ContenderBroadcastsCarryTimestamp) {
  TrapdoorProtocol p(make_env(4, 1, 4, 42));  // high probs, small N
  Rng rng(14);
  p.on_activate(rng);
  bool saw_broadcast = false;
  for (int i = 0; i < 200 && p.role() == Role::kContender; ++i) {
    const RoundAction action = p.act(rng);
    if (action.broadcast) {
      const auto& msg = std::get<ContenderMsg>(*action.payload);
      EXPECT_EQ(msg.ts.age, p.age());
      EXPECT_EQ(msg.ts.uid, 42u);
      saw_broadcast = true;
    }
    p.on_round_end(std::nullopt, rng);
  }
  EXPECT_TRUE(saw_broadcast);
}

}  // namespace
}  // namespace wsync
