// The sparse-engine contract (src/protocol/protocol.h), checked on every
// ProtocolKind in isolation, with no engine and no differential run.
//
// Two instances of one protocol, built from the same environment and rng
// seed, are driven in lockstep with identical inputs. Whenever the first
// predicts an asleep horizon h > 0, it skips a random k <= h rounds with
// skip_rounds(k) while the second runs the same k rounds explicitly, and
// each explicit round is checked:
//   * act() sleeps, draws nothing from the rng, and broadcast_probability()
//     is exactly 0.0;
//   * role() and output().has_number() hold still, and a numbered output
//     advances by exactly one per round (what lets the engine and the
//     verifier read only the nodes the engine visits).
// After the span both instances must agree on output, role and rng position.
// Awake rounds hear random leader and contender messages, so the runs reach
// the numbered, relaying and dormant states. Kinds without a wake prediction
// must answer nullopt every round.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/experiment/sweep.h"
#include "src/protocol/protocol.h"

namespace wsync {
namespace {

struct ContractCase {
  ProtocolKind kind = ProtocolKind::kTrapdoor;
  int ppm = 0;  ///< drift rates tried: 0, or +ppm and -ppm
};

bool predicts_wakeups(ProtocolKind kind) {
  return kind == ProtocolKind::kDutyCycle ||
         kind == ProtocolKind::kEnergyOracle;
}

/// What a listening node hears this round: nothing, or a random leader or
/// contender message.
std::optional<Message> stimulus(Rng& rng) {
  if (!rng.bernoulli(0.3)) return std::nullopt;
  Message message;
  message.sender = 0;
  message.frequency = 0;
  if (rng.bernoulli(0.5)) {
    message.payload = LeaderMsg{rng.next_u64(), rng.uniform_int(0, 1'000'000)};
  } else {
    message.payload =
        ContenderMsg{Timestamp{rng.uniform_int(0, 4'000), rng.next_u64()}};
  }
  return message;
}

/// The next value of each stream, compared without advancing either.
bool same_position(const Rng& a, const Rng& b) {
  Rng x = a;
  Rng y = b;
  return x.next_u64() == y.next_u64() && x.next_u64() == y.next_u64();
}

struct Coverage {
  int64_t skipped_rounds = 0;
  int64_t numbered_skipped_rounds = 0;
};

void drive(const ContractCase& c, int64_t rate, uint64_t seed,
           int resync_slots, Coverage* coverage) {
  ExperimentPoint point;
  point.F = 8;
  point.t = 2;
  point.N = 32;
  point.n = 4;
  point.protocol = c.kind;
  point.resync_awake_slots = resync_slots;
  const ProtocolFactory factory = make_run_spec(point).factory;
  ProtocolEnv env;
  env.F = point.F;
  env.t = point.t;
  env.N = point.N;
  env.uid = seed * 0x9E37'79B9'7F4A'7C15 + 1;
  env.node_id = 0;
  env.drift_ppm_rate = rate;
  const std::unique_ptr<Protocol> skipper = factory(env);
  const std::unique_ptr<Protocol> stepper = factory(env);
  Rng skip_rng(seed);
  Rng step_rng(seed);
  Rng inputs(seed ^ 0xC0DE);
  skipper->on_activate(skip_rng);
  stepper->on_activate(step_rng);

  const std::string where = std::string(to_string(c.kind)) + " rate " +
                            std::to_string(rate) + " seed " +
                            std::to_string(seed) + " R " +
                            std::to_string(resync_slots);
  constexpr int64_t kRounds = 3'000;
  constexpr int64_t kLongestSpan = 97;
  for (int64_t round = 0; round < kRounds;) {
    const std::optional<int64_t> horizon = skipper->asleep_for();
    ASSERT_EQ(horizon.has_value(), predicts_wakeups(c.kind))
        << where << " round " << round;
    if (horizon.has_value() && *horizon > 0) {
      ASSERT_EQ(skipper->broadcast_probability(), 0.0) << where;
      const int64_t k =
          1 + static_cast<int64_t>(inputs.next_below(static_cast<uint64_t>(
                  std::min(*horizon, kLongestSpan))));
      const SyncOutput start = stepper->output();
      const Role role = stepper->role();
      for (int64_t j = 1; j <= k; ++j) {
        ASSERT_EQ(stepper->broadcast_probability(), 0.0)
            << where << " round " << round + j - 1;
        const Rng before = step_rng;
        const RoundAction action = stepper->act(step_rng);
        ASSERT_TRUE(action.is_sleep()) << where << " round " << round + j - 1;
        ASSERT_TRUE(same_position(before, step_rng))
            << where << " asleep act() drew from the rng";
        stepper->on_round_end(std::nullopt, step_rng);
        const SyncOutput now = stepper->output();
        ASSERT_EQ(stepper->role(), role) << where << " round " << round + j - 1;
        ASSERT_EQ(now.has_number(), start.has_number())
            << where << " round " << round + j - 1;
        if (start.has_number()) {
          ASSERT_EQ(now.value, start.value + j)
              << where << ": asleep output must advance by one per round "
              << "(round " << round + j - 1 << ")";
        }
      }
      skipper->skip_rounds(k);
      ASSERT_EQ(skipper->output(), stepper->output()) << where;
      ASSERT_EQ(skipper->role(), stepper->role()) << where;
      ASSERT_TRUE(same_position(skip_rng, step_rng)) << where;
      coverage->skipped_rounds += k;
      if (start.has_number()) coverage->numbered_skipped_rounds += k;
      round += k;
      continue;
    }
    // An awake (or unpredicted) round: both instances act alike and hear
    // the same thing.
    const RoundAction a = skipper->act(skip_rng);
    const RoundAction b = stepper->act(step_rng);
    ASSERT_EQ(a.frequency, b.frequency) << where << " round " << round;
    ASSERT_EQ(a.broadcast, b.broadcast) << where << " round " << round;
    const std::optional<Message> heard =
        a.is_sleep() || a.broadcast ? std::nullopt : stimulus(inputs);
    skipper->on_round_end(heard, skip_rng);
    stepper->on_round_end(heard, step_rng);
    ASSERT_EQ(skipper->output(), stepper->output()) << where;
    ASSERT_EQ(skipper->role(), stepper->role()) << where;
    ++round;
  }
}

class SparseContract : public ::testing::TestWithParam<ContractCase> {};

TEST_P(SparseContract, AsleepSpansSkipExactlyAndHoldTheOutputRule) {
  const ContractCase& c = GetParam();
  std::vector<int64_t> rates = {0};
  if (c.ppm > 0) rates = {c.ppm, -c.ppm};
  Coverage coverage;
  for (const int64_t rate : rates) {
    for (const uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
      for (const int resync_slots : {0, 4}) {
        drive(c, rate, seed, resync_slots, &coverage);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  if (predicts_wakeups(c.kind)) {
    // The checks above must have had asleep numbered spans to bite on.
    EXPECT_GT(coverage.numbered_skipped_rounds, 0);
  } else {
    EXPECT_EQ(coverage.skipped_rounds, 0);
  }
}

std::vector<ContractCase> all_cases() {
  std::vector<ContractCase> cases;
  for (const ProtocolKind kind :
       {ProtocolKind::kTrapdoor, ProtocolKind::kTrapdoorFullBand,
        ProtocolKind::kGoodSamaritan, ProtocolKind::kWakeupBaseline,
        ProtocolKind::kAloha, ProtocolKind::kFaultTolerantTrapdoor,
        ProtocolKind::kDutyCycle, ProtocolKind::kEnergyOracle}) {
    for (const int ppm : {0, 333'333}) cases.push_back({kind, ppm});
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<ContractCase>& info) {
  return std::string(to_string(info.param.kind)) + "_ppm" +
         std::to_string(info.param.ppm);
}

INSTANTIATE_TEST_SUITE_P(EveryProtocolKind, SparseContract,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace wsync
