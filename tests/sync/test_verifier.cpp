#include "src/sync/verifier.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/adversary/basic.h"
#include "tests/testing/fake_protocol.h"
#include "tests/testing/full_scan_oracle.h"

namespace wsync {
namespace {

using testing::FakeProtocol;

/// A protocol whose outputs follow an explicit script of values
/// (SyncOutput::kBottom for ⊥), for violating properties on purpose.
class OutputScriptProtocol final : public Protocol {
 public:
  OutputScriptProtocol(std::vector<int64_t> outputs, Role role)
      : outputs_(std::move(outputs)), role_(role) {}

  void on_activate(Rng&) override {}
  RoundAction act(Rng&) override { return RoundAction::listen(0); }
  void on_round_end(const std::optional<Message>&, Rng&) override { ++age_; }
  SyncOutput output() const override {
    const size_t i =
        std::min(static_cast<size_t>(age_ > 0 ? age_ - 1 : 0),
                 outputs_.size() - 1);
    return SyncOutput{outputs_[i]};
  }
  Role role() const override { return role_; }

 private:
  std::vector<int64_t> outputs_;
  Role role_;
  int64_t age_ = 0;
};

constexpr int64_t kBot = SyncOutput::kBottom;

Simulation make_sim(std::map<NodeId, std::vector<int64_t>> scripts,
                    std::map<NodeId, Role> roles = {}) {
  SimConfig config;
  config.F = 2;
  config.t = 0;
  config.n = static_cast<int>(scripts.size());
  config.N = config.n;
  auto factory = [scripts = std::move(scripts),
                  roles = std::move(roles)](const ProtocolEnv& env) {
    Role role = Role::kContender;
    if (const auto it = roles.find(env.node_id); it != roles.end()) {
      role = it->second;
    }
    return std::make_unique<OutputScriptProtocol>(scripts.at(env.node_id),
                                                  role);
  };
  return Simulation(config, factory, std::make_unique<NoneAdversary>(),
                    std::make_unique<SimultaneousActivation>(config.n));
}

void drive(Simulation& sim, SyncVerifier& verifier, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    sim.step();
    verifier.observe(sim);
  }
}

TEST(SyncVerifierTest, CleanRunPasses) {
  // Node 1 synchronizes one round before node 0; their numbers agree in
  // every round where both output.
  auto sim = make_sim({{0, {kBot, kBot, 10, 11, 12}},
                       {1, {kBot, 9, 10, 11, 12}}});
  SyncVerifier verifier;
  drive(sim, verifier, 5);
  EXPECT_TRUE(verifier.report().ok());
  EXPECT_EQ(verifier.report().rounds_observed, 5);
}

TEST(SyncVerifierTest, DetectsSynchCommitViolation) {
  auto sim = make_sim({{0, {5, 6, kBot, kBot, kBot}}});
  SyncVerifier verifier;
  drive(sim, verifier, 5);
  EXPECT_GT(verifier.report().synch_commit_violations, 0);
  EXPECT_FALSE(verifier.report().ok());
}

TEST(SyncVerifierTest, DetectsCorrectnessViolation) {
  auto sim = make_sim({{0, {5, 6, 9, 10, 11}}});  // 6 -> 9 jumps
  SyncVerifier verifier;
  drive(sim, verifier, 5);
  EXPECT_EQ(verifier.report().correctness_violations, 1);
  EXPECT_FALSE(verifier.report().ok());
}

TEST(SyncVerifierTest, DetectsStuckOutput) {
  auto sim = make_sim({{0, {5, 5, 5}}});  // must increment each round
  SyncVerifier verifier;
  drive(sim, verifier, 3);
  EXPECT_GT(verifier.report().correctness_violations, 0);
}

TEST(SyncVerifierTest, DetectsAgreementViolation) {
  auto sim = make_sim({{0, {10, 11, 12}},
                       {1, {20, 21, 22}}});  // two numbering schemes
  SyncVerifier verifier;
  drive(sim, verifier, 3);
  EXPECT_EQ(verifier.report().agreement_violations, 3);
  EXPECT_FALSE(verifier.report().ok());
}

TEST(SyncVerifierTest, AgreementCountsNodesOffTheLowestIdNumber) {
  // Per round, the count is the live numbered nodes whose number differs
  // from the lowest-id numbered node's — not "rounds with >= 2 distinct
  // numbers" (which would read 1 per round for both layouts below).
  auto minority_first = make_sim({{0, {10, 11, 12}},
                                  {1, {20, 21, 22}},
                                  {2, {20, 21, 22}}});
  SyncVerifier first;
  drive(minority_first, first, 3);
  EXPECT_EQ(first.report().agreement_violations, 2 * 3);

  auto majority_first = make_sim({{0, {20, 21, 22}},
                                  {1, {20, 21, 22}},
                                  {2, {10, 11, 12}}});
  SyncVerifier second;
  drive(majority_first, second, 3);
  EXPECT_EQ(second.report().agreement_violations, 1 * 3);
}

TEST(SyncVerifierTest, ObserveRequiresExactlyOneStepPerCall) {
  auto sim = make_sim({{0, {10, 11, 12, 13}}});
  SyncVerifier verifier;
  sim.step();
  sim.step();
  verifier.observe(sim);  // the first call may follow any number of steps
  EXPECT_THROW(verifier.observe(sim), std::invalid_argument);  // no step
  sim.step();
  sim.step();
  EXPECT_THROW(verifier.observe(sim), std::invalid_argument);  // two steps

  auto other = make_sim({{0, {10, 11, 12, 13}}});
  SyncVerifier fresh;
  sim.step();
  fresh.observe(sim);
  for (int i = 0; i < 6; ++i) other.step();  // one round past `sim`
  EXPECT_THROW(fresh.observe(other), std::invalid_argument);  // other sim
}

/// A leader from activation whose radio stays off for its first rounds:
/// the sparse engine does not visit it in the round it wakes up. It numbers
/// itself on its first awake round, as the sparse contract requires.
class SleepyLeader final : public Protocol {
 public:
  void on_activate(Rng&) override {}
  RoundAction act(Rng&) override {
    return age_ < kAsleep ? RoundAction::sleep() : RoundAction::listen(0);
  }
  void on_round_end(const std::optional<Message>&, Rng&) override { ++age_; }
  SyncOutput output() const override {
    return age_ > kAsleep ? SyncOutput{100 + age_} : SyncOutput{};
  }
  Role role() const override { return Role::kLeader; }
  std::optional<int64_t> asleep_for() const override {
    return std::max<int64_t>(kAsleep - age_, 0);
  }
  void skip_rounds(int64_t rounds) override { age_ += rounds; }

 private:
  static constexpr int64_t kAsleep = 3;
  int64_t age_ = 0;
};

TEST(SyncVerifierTest, CountsNodesActivatedAsleepInTheirFirstRound) {
  // changed_nodes() must carry an activation the engine did not visit, or
  // the leader it adds goes uncounted until its first wake.
  SimConfig config;
  config.F = 2;
  config.n = 3;
  config.N = 3;
  auto build = [&](EngineMode mode) {
    SimConfig c = config;
    c.engine = mode;
    return Simulation(
        c, [](const ProtocolEnv&) { return std::make_unique<SleepyLeader>(); },
        std::make_unique<NoneAdversary>(),
        std::make_unique<SequentialActivation>(config.n, 2));
  };
  Simulation dense = build(EngineMode::kDense);
  Simulation sparse = build(EngineMode::kSparse);
  testing::FullScanVerifier oracle;
  SyncVerifier verifier;
  for (int round = 0; round < 12; ++round) {
    dense.step();
    sparse.step();
    oracle.observe(dense);
    verifier.observe(sparse);
    ASSERT_TRUE(testing::same_report(oracle.report(), verifier.report()))
        << "round " << round;
    if (round == 0) {
      EXPECT_EQ(verifier.report().max_simultaneous_leaders, 1);
    }
  }
  EXPECT_EQ(verifier.report().max_simultaneous_leaders, 3);
  EXPECT_GT(verifier.report().agreement_violations, 0);
}

TEST(SyncVerifierTest, SeesACrashBetweenStepAndObserve) {
  // changed_nodes() also carries a node crashed after the step it reports
  // on; node 0 is the lone off-number node, so missing its crash would keep
  // counting it against the other two.
  auto sim = make_sim({{0, {10, 11, 12, 13}},
                       {1, {20, 21, 22, 23}},
                       {2, {20, 21, 22, 23}}});
  SyncVerifier verifier;
  drive(sim, verifier, 2);
  EXPECT_EQ(verifier.report().agreement_violations, 2 * 2);
  sim.step();
  sim.crash(0);
  verifier.observe(sim);
  EXPECT_EQ(verifier.report().agreement_violations, 2 * 2);
  drive(sim, verifier, 1);
  EXPECT_EQ(verifier.report().agreement_violations, 2 * 2);
}

TEST(SyncVerifierTest, BottomNodesDoNotBreakAgreement) {
  auto sim = make_sim({{0, {10, 11, 12}},
                       {1, {kBot, kBot, kBot}}});
  SyncVerifier verifier;
  drive(sim, verifier, 3);
  EXPECT_EQ(verifier.report().agreement_violations, 0);
}

TEST(SyncVerifierTest, CountsSimultaneousLeaders) {
  auto sim = make_sim({{0, {10, 11, 12}}, {1, {10, 11, 12}}},
                      {{0, Role::kLeader}, {1, Role::kLeader}});
  SyncVerifier verifier;
  drive(sim, verifier, 3);
  EXPECT_EQ(verifier.report().max_simultaneous_leaders, 2);
}

TEST(SyncVerifierTest, AllowResyncToleratesRestart) {
  auto sim = make_sim({{0, {5, 6, kBot, kBot, 20, 21}}});
  VerifierConfig config;
  config.allow_resync = true;
  SyncVerifier verifier(config);
  drive(sim, verifier, 6);
  EXPECT_TRUE(verifier.report().ok());
  EXPECT_GT(verifier.report().resyncs_observed, 0);
}

TEST(SyncVerifierTest, StrictModeRejectsRestart) {
  auto sim = make_sim({{0, {5, 6, kBot, kBot, 20, 21}}});
  SyncVerifier verifier;
  drive(sim, verifier, 6);
  EXPECT_FALSE(verifier.report().ok());
}

}  // namespace
}  // namespace wsync
