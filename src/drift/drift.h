// Per-node clock-drift model (the hold-the-sync realism axis).
//
// The paper's model runs on perfectly synchronized round boundaries; real
// deployments (Cappelle et al., low-power multi-IMU WSNs) must *maintain*
// synchronization under per-node oscillator drift. We keep the paper's
// slotted execution — rounds stay globally aligned, so the engine, the
// adversary and the rendezvous analysis are untouched — and model drift
// where it actually bites the synchronization problem: in each node's LOCAL
// ROUND COUNTER, the clock whose agreement the correctness property
// constrains. A node with rate r ppm has counted
//
//   local(age) = age + floor(age * r / 1'000'000)
//
// local rounds after `age` true rounds, so two synchronized nodes with
// different rates slide apart by up to 2*ppm/1e6 counts per round until a
// resync beacon corrects the laggard. Everything is exact integer math
// (128-bit intermediate product), so drift executions are bit-identical
// across engines, worker counts and platforms like every other axis.
//
// Rates are drawn once per execution from a dedicated fork of the master
// seed (engine stream kDriftStream): node i gets a signed rate uniform in
// [-ppm, +ppm]. ppm = 0 disables the model — no stream is forked, no rate
// is drawn, and every closed form below degenerates to the identity, so
// legacy executions are bit-identical to pre-drift builds.
#ifndef WSYNC_DRIFT_DRIFT_H_
#define WSYNC_DRIFT_DRIFT_H_

#include <cstdint>
#include <vector>

#include "src/common/require.h"
#include "src/common/rng.h"

namespace wsync {

/// One local round per true round corresponds to a rate of this many ppm.
inline constexpr int64_t kDriftPpmScale = 1'000'000;

/// Drift configuration carried by SimConfig. `ppm` bounds the magnitude of
/// every per-node rate; 0 disables the model entirely.
struct DriftSpec {
  /// Max |rate| in parts-per-million, 0 <= ppm < kDriftPpmScale.
  int ppm = 0;

  friend constexpr bool operator==(const DriftSpec&,
                                   const DriftSpec&) = default;
};

/// Accumulated local-clock skew after `age` true rounds at `rate_ppm`:
/// floor(age * rate / 1e6). Exact for any |rate| < kDriftPpmScale and any
/// age a simulation can reach (128-bit intermediate). Requires age >= 0.
int64_t drift_skew(int64_t age, int64_t rate_ppm);

/// The node's local round counter after `age` true rounds: age + skew.
/// Non-decreasing in age for |rate| < kDriftPpmScale, with per-round
/// increments in {0, 1, 2}; the identity when rate_ppm == 0.
int64_t local_clock(int64_t age, int64_t rate_ppm);

/// The smallest age' > `age` with drift_skew(age') != drift_skew(age): the
/// round served at age' − 1 is the next one in which the local clock steps
/// by 0 or 2 instead of 1. INT64_MAX when the skew never changes again
/// (rate_ppm == 0, or a step beyond the int64 range). Requires age >= 0.
int64_t next_skew_change(int64_t age, int64_t rate_ppm);

/// Draws the n per-node signed rates, uniform in [-spec.ppm, +spec.ppm],
/// from `rng` (the engine's kDriftStream fork). With ppm == 0 returns an
/// empty vector WITHOUT drawing, so disabled-drift executions consume no
/// randomness — callers treat "empty" as "all rates zero".
///
/// Inline (header-only) so this layer never links against the Rng
/// implementation: wsync_core links wsync_drift, not the other way around.
inline std::vector<int64_t> draw_drift_rates(const DriftSpec& spec, int n,
                                             Rng& rng) {
  WSYNC_REQUIRE(spec.ppm >= 0 && spec.ppm < kDriftPpmScale,
                "drift ppm must lie in [0, 1'000'000)");
  WSYNC_REQUIRE(n >= 0, "node count must be non-negative");
  if (spec.ppm == 0) return {};
  std::vector<int64_t> rates(static_cast<size_t>(n));
  for (auto& rate : rates) rate = rng.uniform_int(-spec.ppm, spec.ppm);
  return rates;
}

}  // namespace wsync

#endif  // WSYNC_DRIFT_DRIFT_H_
