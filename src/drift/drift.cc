#include "src/drift/drift.h"

#include <limits>

namespace wsync {

int64_t drift_skew(int64_t age, int64_t rate_ppm) {
  WSYNC_REQUIRE(age >= 0, "age must be non-negative");
  WSYNC_REQUIRE(rate_ppm > -kDriftPpmScale && rate_ppm < kDriftPpmScale,
                "drift rate must lie in (-1'000'000, 1'000'000) ppm");
  // Floor division of the exact 128-bit product: C++ integer division
  // truncates toward zero, so a negative non-exact quotient is one above
  // the floor.
  const __int128 product = static_cast<__int128>(age) * rate_ppm;
  auto quotient = static_cast<int64_t>(product / kDriftPpmScale);
  if (product % kDriftPpmScale != 0 && product < 0) --quotient;
  return quotient;
}

int64_t local_clock(int64_t age, int64_t rate_ppm) {
  return age + drift_skew(age, rate_ppm);
}

int64_t next_skew_change(int64_t age, int64_t rate_ppm) {
  const int64_t skew = drift_skew(age, rate_ppm);  // validates both inputs
  if (rate_ppm == 0) return std::numeric_limits<int64_t>::max();
  // Positive rates: the first a with a·r >= (skew + 1)·S, i.e. the ceiling
  // of the quotient. Negative rates: the skew drops below `skew` once
  // a·r < skew·S, i.e. a·|r| > −skew·S, so the floor of that quotient + 1.
  const __int128 scale = kDriftPpmScale;
  const __int128 next =
      rate_ppm > 0 ? ((skew + 1) * scale + rate_ppm - 1) / rate_ppm
                   : (-static_cast<__int128>(skew) * scale) / -rate_ppm + 1;
  return next > std::numeric_limits<int64_t>::max()
             ? std::numeric_limits<int64_t>::max()
             : static_cast<int64_t>(next);
}

}  // namespace wsync
