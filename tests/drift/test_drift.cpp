// The drift layer's closed forms, pinned exactly: floor semantics for
// negative rates (truncation bugs show up as off-by-one skew), the
// {0, 1, 2} per-round local-clock delta that preserves Commitment, the
// 128-bit intermediate that keeps huge ages exact, and the rate draw's
// determinism contract — ppm = 0 consumes no randomness at all, which is
// what makes legacy executions bit-identical to pre-drift builds.
#include "src/drift/drift.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/common/rng.h"

namespace wsync {
namespace {

TEST(DriftSkewTest, ZeroRateAndZeroAgeAreExactlyZero) {
  EXPECT_EQ(drift_skew(0, 0), 0);
  EXPECT_EQ(drift_skew(123456, 0), 0);
  EXPECT_EQ(drift_skew(0, 999'999), 0);
  EXPECT_EQ(drift_skew(0, -999'999), 0);
  EXPECT_EQ(local_clock(777, 0), 777);
}

TEST(DriftSkewTest, PositiveRatesFloorTowardZero) {
  // 100 ppm: one extra local round every 10'000 true rounds.
  EXPECT_EQ(drift_skew(9'999, 100), 0);
  EXPECT_EQ(drift_skew(10'000, 100), 1);
  EXPECT_EQ(drift_skew(19'999, 100), 1);
  EXPECT_EQ(drift_skew(1'000'000, 100), 100);
}

TEST(DriftSkewTest, NegativeRatesFloorAwayFromZero) {
  // Floor division, NOT truncation: -1/10'000 of a round after one true
  // round is already floor(-0.0001) = -1... no — it is 0 only at age 0;
  // the first non-exact negative quotient must round DOWN to -1, where
  // truncating division would give 0.
  EXPECT_EQ(drift_skew(1, -100), -1);
  EXPECT_EQ(drift_skew(9'999, -100), -1);
  EXPECT_EQ(drift_skew(10'000, -100), -1);  // exact: -1 with no remainder
  EXPECT_EQ(drift_skew(10'001, -100), -2);
  EXPECT_EQ(drift_skew(1'000'000, -100), -100);
  // Mirrors floor(): skew(age, -r) == -skew(age, r) only on exact
  // multiples; elsewhere it is one lower.
  EXPECT_EQ(drift_skew(15'000, -100), -(drift_skew(15'000, 100) + 1));
}

TEST(DriftSkewTest, HugeAgesStayExactThroughThe128BitProduct) {
  // age * rate overflows int64 here; the 128-bit intermediate must not.
  const int64_t age = int64_t{1} << 62;
  EXPECT_EQ(drift_skew(age, 1'000'000 - 1), age - age / 1'000'000 - 1);
  EXPECT_EQ(drift_skew(age, 500'000), age / 2);
  EXPECT_EQ(drift_skew(age, -500'000), -(age / 2));
}

TEST(DriftSkewTest, RejectsNegativeAgeAndOutOfRangeRates) {
  EXPECT_THROW(drift_skew(-1, 100), std::invalid_argument);
  EXPECT_THROW(drift_skew(10, kDriftPpmScale), std::invalid_argument);
  EXPECT_THROW(drift_skew(10, -kDriftPpmScale), std::invalid_argument);
}

TEST(LocalClockTest, PerRoundDeltaIsZeroOneOrTwoAndNeverBackwards) {
  // The Commitment property rides on this: a synced node's output advances
  // by exactly this delta per round, so it must never be negative — and
  // |rate| < 1e6 caps it at 2 (the +1 true round plus at most one skew
  // step, or minus at most one).
  const int64_t rates[] = {0,        1,       -1,      100,     -100,
                           333'333, -333'333, 999'999, -999'999};
  for (const int64_t rate : rates) {
    int64_t previous = local_clock(0, rate);
    for (int64_t age = 1; age <= 4'000; ++age) {
      const int64_t now = local_clock(age, rate);
      const int64_t delta = now - previous;
      ASSERT_GE(delta, 0) << "rate " << rate << " age " << age;
      ASSERT_LE(delta, 2) << "rate " << rate << " age " << age;
      previous = now;
    }
  }
}

TEST(LocalClockTest, ExtremeRatesBoundTheClockWithinTwoXAndZero) {
  // rate -> -1e6 freezes the local clock (but never reverses it);
  // rate -> +1e6 doubles it (but never more).
  for (int64_t age = 0; age <= 2'000; ++age) {
    ASSERT_GE(local_clock(age, -999'999), 0);
    ASSERT_LE(local_clock(age, 999'999), 2 * age);
  }
  EXPECT_EQ(local_clock(1'000'000, 999'999), 2 * 1'000'000 - 1);
  EXPECT_EQ(local_clock(1'000'000, -999'999), 1);
}

TEST(NextSkewChangeTest, MatchesABruteForceScan) {
  // The duty-cycle protocol caps its sleep horizon with this, so the
  // sparse engine visits every round in which a sleeper's clock steps +0
  // or +2; an off-by-one here skips exactly that round.
  const int64_t rates[] = {1,        -1,       7,       -7,      200,
                           -200,     120'000, -120'000, 333'333, -333'333,
                           999'999, -999'999};
  constexpr int64_t kLastAge = 3'000;
  for (const int64_t rate : rates) {
    // One forward walk per rate: every age at which the skew changes, up to
    // the first one past kLastAge (a million ages out at 1 ppm).
    std::vector<int64_t> changes;
    for (int64_t a = 1; changes.empty() || changes.back() <= kLastAge; ++a) {
      if (drift_skew(a, rate) != drift_skew(a - 1, rate)) changes.push_back(a);
    }
    size_t next = 0;
    for (int64_t age = 0; age <= kLastAge; ++age) {
      while (changes[next] <= age) ++next;
      ASSERT_EQ(next_skew_change(age, rate), changes[next])
          << "rate " << rate << " age " << age;
    }
  }
}

TEST(NextSkewChangeTest, ZeroRateNeverChangesAndHugeAgesStayExact) {
  EXPECT_EQ(next_skew_change(0, 0), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(next_skew_change(123'456, 0),
            std::numeric_limits<int64_t>::max());
  const int64_t age = int64_t{1} << 50;
  for (const int64_t rate : {int64_t{3}, int64_t{-3}, int64_t{999'999}}) {
    const int64_t next = next_skew_change(age, rate);
    EXPECT_GT(next, age);
    EXPECT_NE(drift_skew(next, rate), drift_skew(age, rate));
    EXPECT_EQ(drift_skew(next - 1, rate), drift_skew(age, rate));
  }
  EXPECT_THROW(next_skew_change(-1, 100), std::invalid_argument);
}

TEST(DrawDriftRatesTest, ZeroPpmDrawsNothingAndReturnsEmpty) {
  // The legacy bit-identity contract: a disabled drift model must not
  // consume a single draw from the stream, so the next value out of the
  // fork matches a fresh, untouched fork.
  Rng touched(0xD51F7);
  Rng untouched(0xD51F7);
  const std::vector<int64_t> rates = draw_drift_rates({0}, 16, touched);
  EXPECT_TRUE(rates.empty());
  EXPECT_EQ(touched.next_u64(), untouched.next_u64());
}

TEST(DrawDriftRatesTest, DrawsAreDeterministicAndWithinTheBound) {
  const DriftSpec spec{250};
  Rng a(42);
  Rng b(42);
  const std::vector<int64_t> first = draw_drift_rates(spec, 64, a);
  const std::vector<int64_t> second = draw_drift_rates(spec, 64, b);
  ASSERT_EQ(first.size(), 64u);
  EXPECT_EQ(first, second);
  for (const int64_t rate : first) {
    ASSERT_GE(rate, -250);
    ASSERT_LE(rate, 250);
  }
  // And a different seed actually moves the draw (the rates are not a
  // constant function hiding behind the determinism check).
  Rng c(43);
  EXPECT_NE(draw_drift_rates(spec, 64, c), first);
}

TEST(DrawDriftRatesTest, RejectsOutOfRangeSpecs) {
  Rng rng(1);
  EXPECT_THROW(draw_drift_rates({-1}, 4, rng), std::invalid_argument);
  EXPECT_THROW(draw_drift_rates({static_cast<int>(kDriftPpmScale)}, 4, rng),
               std::invalid_argument);
  EXPECT_THROW(draw_drift_rates({10}, -1, rng), std::invalid_argument);
}

}  // namespace
}  // namespace wsync
