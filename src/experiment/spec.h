// Declarative experiment descriptions: a benchmark names a grid of
// ExperimentPoints; the sweep harness turns each into a RunSpec, replicates
// it across seeds, and aggregates the outcomes.
#ifndef WSYNC_EXPERIMENT_SPEC_H_
#define WSYNC_EXPERIMENT_SPEC_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/types.h"
#include "src/experiment/field_list.h"

namespace wsync {

enum class ProtocolKind {
  kTrapdoor,
  kTrapdoorFullBand,  ///< ablation: restrict_to_fprime = false
  kGoodSamaritan,
  kWakeupBaseline,
  kAloha,
  kFaultTolerantTrapdoor,
  kDutyCycle,      ///< BKO-style duty-cycled synchronizer (sleeps most rounds)
  kEnergyOracle,   ///< always-on until first contact, then hard sleep
};

enum class AdversaryKind {
  kNone,
  kFixedFirst,       ///< always jams {0..jam_count-1} (Theorem 1 adversary)
  kRandomSubset,     ///< jam_count random frequencies per round (oblivious)
  kSweep,            ///< sweeping window of width jam_count
  kGilbertElliott,   ///< bursty: 0 in good state, jam_count in bad state
  kGreedyDelivery,   ///< adaptive: top jam_count by decayed deliveries
  kGreedyListener,   ///< adaptive: top jam_count by last-round listeners
  kDutyCycle,        ///< periodic: jams {0..jam_count-1} for duty_on rounds
                     ///< out of every duty_period (microwave-oven pattern)
  kWhitespace,       ///< whitespace availability (Azar et al.): fixed
                     ///< per-node channel masks with a guaranteed common
                     ///< core, plus jam_count random jamming on top
};

enum class ActivationKind {
  kSimultaneous,
  kStaggeredUniform,  ///< uniform wake rounds over [0, window)
  kSequential,        ///< one node per round
  kTwoBatch,          ///< half at round 0, half at `window`
  kPoisson,           ///< geometric inter-arrivals with mean `window / n`
};

const char* to_string(ProtocolKind kind);
const char* to_string(AdversaryKind kind);
const char* to_string(ActivationKind kind);

struct ExperimentPoint {
  int F = 2;
  int t = 0;
  int64_t N = 2;
  int n = 1;

  ProtocolKind protocol = ProtocolKind::kTrapdoor;
  AdversaryKind adversary = AdversaryKind::kNone;
  ActivationKind activation = ActivationKind::kSimultaneous;

  /// Frequencies actually jammed per round (the paper's t'); defaults to t
  /// when negative.
  int jam_count = -1;

  /// Activation window for staggered/two-batch schedules.
  RoundId activation_window = 0;

  /// Round budget for liveness; 0 = auto (a generous multiple of the
  /// protocol's schedule length).
  RoundId max_rounds = 0;

  /// Keep verifying this many rounds after liveness.
  RoundId extra_rounds = 0;

  /// kDutyCycle only: jam for `duty_on` rounds out of every `duty_period`.
  RoundId duty_period = 8;
  RoundId duty_on = 4;

  /// kWhitespace only: channels available per node (negative = auto, half
  /// the band but at least one) and channels guaranteed common to every
  /// node (so rendezvous stays possible); 1 <= shared <= available <= F.
  int whitespace_available = -1;
  int whitespace_shared = 1;

  /// Energy budget (Bradonjić–Kohler–Ostrovsky radio use): when
  /// non-negative, every run of this point is expected to keep every node's
  /// awake-rounds (broadcast + listen) at or below this bound. Violations
  /// are counted in PointResult::energy_budget_violations and gate
  /// check_expectations. Negative = no budget.
  int64_t energy_budget = -1;

  /// Crash-fault waves, applied by the runner (see RunSpec::crash_waves).
  /// The waves must leave at least one node alive for liveness to remain
  /// achievable.
  std::vector<CrashWave> crash_waves;

  /// Round-loop implementation (kAuto = sparse). Bit-identical results by
  /// the engine equivalence contract, so exports never mention it — the
  /// differential wall diffs dense vs sparse byte-for-byte.
  EngineMode engine = EngineMode::kAuto;

  // --- clock drift & resync maintenance (hold-the-sync) -------------------

  /// Per-node oscillator drift magnitude in ppm (see src/drift/drift.h):
  /// each node draws a fixed rate in [-drift_ppm, +drift_ppm] from a
  /// dedicated seed stream, and its output advances on the drifted local
  /// clock. 0 (the default) reproduces drift-free runs bit-exactly.
  int drift_ppm = 0;

  /// Rounds of resync maintenance after liveness + extra_rounds (see
  /// RunSpec::maintenance_rounds). 0 disables the phase.
  RoundId maintenance_rounds = 0;

  /// Max pairwise output offset tolerated during maintenance; rounds above
  /// the bound count into PointResult::offset_violations and gate
  /// check_expectations. Negative = chart only. Requires maintenance_rounds
  /// > 0 when set.
  int64_t offset_bound = -1;

  /// kDutyCycle only: resync-beacon cadence R in awake slots (see
  /// DutyCycleConfig::resync_every_awake_slots). 0 disables.
  int resync_awake_slots = 0;
};

/// Every ExperimentPoint member, in the order plan_fingerprint mixes them
/// (see src/experiment/field_list.h). A new member needs an entry here.
inline constexpr std::tuple kPointFields{
    Field{"F", &ExperimentPoint::F, Codec::kInt},
    Field{"t", &ExperimentPoint::t, Codec::kInt},
    Field{"N", &ExperimentPoint::N, Codec::kInt},
    Field{"n", &ExperimentPoint::n, Codec::kInt},
    Field{"protocol", &ExperimentPoint::protocol, Codec::kInt},
    Field{"adversary", &ExperimentPoint::adversary, Codec::kInt},
    Field{"activation", &ExperimentPoint::activation, Codec::kInt},
    Field{"jam_count", &ExperimentPoint::jam_count, Codec::kInt},
    Field{"activation_window", &ExperimentPoint::activation_window,
          Codec::kInt},
    Field{"max_rounds", &ExperimentPoint::max_rounds, Codec::kInt},
    Field{"extra_rounds", &ExperimentPoint::extra_rounds, Codec::kInt},
    Field{"duty_period", &ExperimentPoint::duty_period, Codec::kInt},
    Field{"duty_on", &ExperimentPoint::duty_on, Codec::kInt},
    Field{"whitespace_available", &ExperimentPoint::whitespace_available,
          Codec::kInt},
    Field{"whitespace_shared", &ExperimentPoint::whitespace_shared,
          Codec::kInt},
    Field{"energy_budget", &ExperimentPoint::energy_budget, Codec::kInt},
    Field{"drift_ppm", &ExperimentPoint::drift_ppm, Codec::kInt},
    Field{"maintenance_rounds", &ExperimentPoint::maintenance_rounds,
          Codec::kInt},
    Field{"offset_bound", &ExperimentPoint::offset_bound, Codec::kInt},
    Field{"resync_awake_slots", &ExperimentPoint::resync_awake_slots,
          Codec::kInt},
    Field{"crash_waves", &ExperimentPoint::crash_waves, Codec::kWaves},
    // Never fingerprinted: dense and sparse are bit-identical by contract,
    // so a checkpoint taken under one engine resumes under the other.
    Field{"engine", &ExperimentPoint::engine, Codec::kSkip},
};
static_assert(valid_field_list<ExperimentPoint>(kPointFields),
              "kPointFields must list every ExperimentPoint member once");

}  // namespace wsync

#endif  // WSYNC_EXPERIMENT_SPEC_H_
