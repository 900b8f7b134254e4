#include "src/dutycycle/wake_schedule.h"

#include <algorithm>
#include <limits>

#include "src/common/math_util.h"
#include "src/common/require.h"

namespace wsync {

int WakeSchedule::grid_side_for(int64_t N) {
  WSYNC_REQUIRE(N >= 1, "N must be positive");
  return static_cast<int>(next_pow2(std::max<int64_t>(4, lg_ceil(N))));
}

int64_t WakeSchedule::overlap_window(int64_t N) {
  const int64_t s = grid_side_for(N);
  return s * s;
}

WakeSchedule::WakeSchedule(int64_t N, Rng& rng) {
  side_ = grid_side_for(N);
  period_ = static_cast<int64_t>(side_) * side_;
  const int rungs = lg_floor(side_);  // s = 2^rungs

  // Rung k spans s·2^k rounds at density 2^-k; phase drawn per rung.
  rung_phase_.resize(static_cast<size_t>(rungs) + 1);
  ladder_rounds_ = 0;
  for (int k = 0; k <= rungs; ++k) {
    rung_phase_[static_cast<size_t>(k)] =
        static_cast<int64_t>(rng.next_below(static_cast<uint64_t>(pow2(k))));
    ladder_rounds_ += static_cast<int64_t>(side_) * pow2(k);
  }
  ladder_awake_ = static_cast<int64_t>(side_) * (rungs + 1);

  row_ = static_cast<int>(rng.next_below(static_cast<uint64_t>(side_)));
  col_ = static_cast<int>(rng.next_below(static_cast<uint64_t>(side_)));
}

bool WakeSchedule::awake(int64_t age) const {
  WSYNC_REQUIRE(age >= 0, "age must be non-negative");
  if (age < ladder_rounds_) {
    // Find the rung: rung k starts at s·(2^k − 1).
    int64_t start = 0;
    for (size_t k = 0; k < rung_phase_.size(); ++k) {
      const int64_t len = static_cast<int64_t>(side_) * pow2(static_cast<int>(k));
      if (age < start + len) {
        const int64_t stride = pow2(static_cast<int>(k));
        return (age - start) % stride == rung_phase_[k];
      }
      start += len;
    }
    WSYNC_CHECK(false, "ladder rung lookup fell through");
  }
  const int64_t pos = (age - ladder_rounds_) % period_;
  return pos / side_ == row_ || pos % side_ == col_;
}

int64_t WakeSchedule::next_awake(int64_t age) const {
  WSYNC_REQUIRE(age >= 0, "age must be non-negative");
  // The sparse engine calls this once per node per awake round, so it is
  // closed-form rather than a scan over awake(). Within one phase the asleep
  // gap is bounded by the stride (<= s for every rung and for the steady
  // column); across a rung boundary it can stretch to the old stride plus
  // the next rung's phase — still < 3s.
  const int64_t s = side_;
  // Steady grid: distance to the column residue or to the row block start,
  // whichever comes first. Both are > 0 when `pos` itself is asleep.
  const auto steady_next = [&](int64_t pos) -> int64_t {
    if (pos / s == row_ || pos % s == col_) return pos;
    const int64_t to_col = (col_ - pos % s + s) % s;
    const int64_t to_row = (static_cast<int64_t>(row_) * s - pos + period_) %
                           period_;
    return pos + std::min(to_col, to_row);
  };
  if (age >= ladder_rounds_) {
    const int64_t pos = (age - ladder_rounds_) % period_;
    const int64_t delta = steady_next(pos) - pos;
    // A query in the final partial period before INT64_MAX may have no
    // representable answer; `age + delta` would silently wrap (signed
    // overflow UB) instead of failing. No real run gets here — ages are
    // bounded by the round budget — so fail crisply rather than wrap.
    WSYNC_REQUIRE(delta <= std::numeric_limits<int64_t>::max() - age,
                  "next_awake overflows int64 (age too close to INT64_MAX)");
    return age + delta;
  }
  // Ladder: jump to the rung's next residue slot, or — when the rung ends
  // first — to the next rung's phase (or the steady grid's first slot).
  int64_t start = 0;
  for (size_t k = 0; k < rung_phase_.size(); ++k) {
    const int64_t stride = pow2(static_cast<int>(k));
    const int64_t len = s * stride;
    if (age < start + len) {
      const int64_t offset = (age - start) % stride;
      const int64_t delta = (rung_phase_[k] - offset + stride) % stride;
      if (age + delta < start + len) return age + delta;
      const int64_t next_start = start + len;
      if (k + 1 < rung_phase_.size()) return next_start + rung_phase_[k + 1];
      return next_start + steady_next(0);
    }
    start += len;
  }
  WSYNC_CHECK(false, "ladder rung lookup fell through");
  return age;  // unreachable
}

int64_t WakeSchedule::awake_rounds_before(int64_t age) const {
  WSYNC_REQUIRE(age >= 0, "age must be non-negative");
  int64_t awake = 0;
  // Ladder contribution: rung k has one awake slot per 2^k rounds.
  int64_t start = 0;
  for (size_t k = 0; k < rung_phase_.size(); ++k) {
    const int64_t stride = pow2(static_cast<int>(k));
    const int64_t len = static_cast<int64_t>(side_) * stride;
    if (age <= start) return awake;
    const int64_t span = std::min(age, start + len) - start;
    // Awake slots in [0, span) of this rung: positions ≡ phase (mod stride).
    const int64_t phase = rung_phase_[k];
    if (span > phase) awake += (span - phase - 1) / stride + 1;
    start += len;
  }
  if (age <= ladder_rounds_) return awake;
  // Steady contribution: full periods plus a partial tail [0, tail) of the
  // grid — its slots in the row block, plus its slots in the column, minus
  // the one slot the two share when the tail reaches it.
  const int64_t steady = age - ladder_rounds_;
  const int64_t s = side_;
  awake += steady / period_ * slots_per_period();
  const int64_t tail = steady % period_;
  const int64_t row_start = row_ * s;
  awake += std::clamp<int64_t>(tail - row_start, 0, s);
  if (tail > col_) awake += (tail - col_ - 1) / s + 1;
  if (tail > row_start + col_) --awake;
  return awake;
}

}  // namespace wsync
