#include "src/experiment/sweep.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <type_traits>

#include "src/adversary/adaptive.h"
#include "src/adversary/basic.h"
#include "src/adversary/bursty.h"
#include "src/adversary/whitespace.h"
#include "src/baseline/aloha.h"
#include "src/baseline/wakeup.h"
#include "src/dutycycle/duty_cycle.h"
#include "src/dutycycle/oracle.h"
#include "src/dutycycle/wake_schedule.h"
#include "src/common/math_util.h"
#include "src/common/require.h"
#include "src/samaritan/good_samaritan.h"
#include "src/trapdoor/fault_tolerant.h"
#include "src/trapdoor/trapdoor.h"

namespace wsync {

const char* to_string(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kTrapdoor: return "trapdoor";
    case ProtocolKind::kTrapdoorFullBand: return "trapdoor_fullband";
    case ProtocolKind::kGoodSamaritan: return "good_samaritan";
    case ProtocolKind::kWakeupBaseline: return "wakeup_baseline";
    case ProtocolKind::kAloha: return "aloha";
    case ProtocolKind::kFaultTolerantTrapdoor: return "ft_trapdoor";
    case ProtocolKind::kDutyCycle: return "duty_cycle";
    case ProtocolKind::kEnergyOracle: return "energy_oracle";
  }
  return "unknown";
}

const char* to_string(AdversaryKind kind) {
  switch (kind) {
    case AdversaryKind::kNone: return "none";
    case AdversaryKind::kFixedFirst: return "fixed_first";
    case AdversaryKind::kRandomSubset: return "random_subset";
    case AdversaryKind::kSweep: return "sweep";
    case AdversaryKind::kGilbertElliott: return "gilbert_elliott";
    case AdversaryKind::kGreedyDelivery: return "greedy_delivery";
    case AdversaryKind::kGreedyListener: return "greedy_listener";
    case AdversaryKind::kDutyCycle: return "duty_cycle";
    case AdversaryKind::kWhitespace: return "whitespace";
  }
  return "unknown";
}

const char* to_string(ActivationKind kind) {
  switch (kind) {
    case ActivationKind::kSimultaneous: return "simultaneous";
    case ActivationKind::kStaggeredUniform: return "staggered";
    case ActivationKind::kSequential: return "sequential";
    case ActivationKind::kTwoBatch: return "two_batch";
    case ActivationKind::kPoisson: return "poisson";
  }
  return "unknown";
}

namespace {

ProtocolFactory make_factory(const ExperimentPoint& point) {
  switch (point.protocol) {
    case ProtocolKind::kTrapdoor:
      return TrapdoorProtocol::factory();
    case ProtocolKind::kTrapdoorFullBand: {
      TrapdoorConfig config;
      config.restrict_to_fprime = false;
      return TrapdoorProtocol::factory(config);
    }
    case ProtocolKind::kGoodSamaritan:
      return GoodSamaritanProtocol::factory();
    case ProtocolKind::kWakeupBaseline:
      return WakeupBaseline::factory();
    case ProtocolKind::kAloha:
      return AlohaSync::factory();
    case ProtocolKind::kFaultTolerantTrapdoor:
      return FaultTolerantTrapdoor::factory();
    case ProtocolKind::kDutyCycle: {
      DutyCycleConfig config;
      // Whitespace masks can miss the narrow F' band entirely (the same
      // reason whitespace scenarios run the full-band Trapdoor), so the
      // duty-cycled synchronizer hops the whole band under that adversary.
      config.restrict_to_fprime =
          point.adversary != AdversaryKind::kWhitespace;
      config.resync_every_awake_slots = point.resync_awake_slots;
      return DutyCycleProtocol::factory(config);
    }
    case ProtocolKind::kEnergyOracle:
      return EnergyOracleProtocol::factory();
  }
  WSYNC_CHECK(false, "unknown protocol kind");
  return {};
}

int effective_jam_count(const ExperimentPoint& point) {
  const int jam = point.jam_count < 0 ? point.t : point.jam_count;
  WSYNC_REQUIRE(jam <= point.t, "jam_count must not exceed t");
  return jam;
}

}  // namespace

int effective_whitespace_available(const ExperimentPoint& point) {
  if (point.whitespace_available > 0) return point.whitespace_available;
  return std::max(1, point.F / 2);
}

namespace {

std::function<std::unique_ptr<Adversary>()> make_adversary_producer(
    const ExperimentPoint& point) {
  const int jam = effective_jam_count(point);
  switch (point.adversary) {
    case AdversaryKind::kNone:
      return [] { return std::make_unique<NoneAdversary>(); };
    case AdversaryKind::kFixedFirst:
      return [jam] { return std::make_unique<FixedSubsetAdversary>(jam); };
    case AdversaryKind::kRandomSubset:
      return [jam] { return std::make_unique<RandomSubsetAdversary>(jam); };
    case AdversaryKind::kSweep:
      return [jam] { return std::make_unique<SweepAdversary>(jam); };
    case AdversaryKind::kGilbertElliott:
      return [jam] {
        GilbertElliottAdversary::Params params;
        params.good_count = 0;
        params.bad_count = jam;
        return std::make_unique<GilbertElliottAdversary>(params);
      };
    case AdversaryKind::kGreedyDelivery:
      return [jam] { return std::make_unique<GreedyDeliveryAdversary>(jam); };
    case AdversaryKind::kGreedyListener:
      return [jam] { return std::make_unique<GreedyListenerAdversary>(jam); };
    case AdversaryKind::kDutyCycle: {
      WSYNC_REQUIRE(point.duty_period >= 1 &&
                        point.duty_on >= 0 &&
                        point.duty_on <= point.duty_period,
                    "need 0 <= duty_on <= duty_period");
      std::vector<Frequency> set(static_cast<size_t>(jam));
      for (int f = 0; f < jam; ++f) set[static_cast<size_t>(f)] = f;
      const RoundId period = point.duty_period;
      const RoundId on = point.duty_on;
      return [set, period, on] {
        return std::make_unique<DutyCycleAdversary>(set, period, on);
      };
    }
    case AdversaryKind::kWhitespace: {
      WhitespaceAdversary::Params params;
      params.n = point.n;
      params.available = effective_whitespace_available(point);
      params.shared = point.whitespace_shared;
      params.jam_count = jam;
      WSYNC_REQUIRE(params.available <= point.F,
                    "whitespace_available must not exceed F");
      WSYNC_REQUIRE(params.shared >= 1 && params.shared <= params.available,
                    "need 1 <= whitespace_shared <= whitespace_available");
      return [params] {
        return std::make_unique<WhitespaceAdversary>(params);
      };
    }
  }
  WSYNC_CHECK(false, "unknown adversary kind");
  return {};
}

std::function<std::unique_ptr<ActivationSchedule>()> make_activation_producer(
    const ExperimentPoint& point) {
  const int n = point.n;
  const RoundId window = std::max<RoundId>(1, point.activation_window);
  switch (point.activation) {
    case ActivationKind::kSimultaneous:
      return [n] { return std::make_unique<SimultaneousActivation>(n); };
    case ActivationKind::kStaggeredUniform:
      return [n, window] {
        return std::make_unique<StaggeredUniformActivation>(n, window);
      };
    case ActivationKind::kSequential:
      return [n] { return std::make_unique<SequentialActivation>(n); };
    case ActivationKind::kTwoBatch:
      return [n, window] {
        return std::make_unique<TwoBatchActivation>(
            n, std::max(1, n / 2), 0, window);
      };
    case ActivationKind::kPoisson: {
      // Mean inter-arrival window / n, so the swarm occupies roughly the
      // same span as the staggered schedule with the same window.
      const double rate =
          static_cast<double>(n) / static_cast<double>(window);
      return [n, rate] {
        return std::make_unique<PoissonActivation>(n, std::min(1.0, rate));
      };
    }
  }
  WSYNC_CHECK(false, "unknown activation kind");
  return {};
}

/// A generous liveness budget when the point does not specify one: a
/// multiple of the protocol's own schedule length plus the activation span.
RoundId auto_round_budget(const ExperimentPoint& point) {
  const ProtocolEnv env{point.F, point.t, point.N, 0, kNoNode};
  RoundId schedule_total = 0;
  switch (point.protocol) {
    case ProtocolKind::kTrapdoor:
    case ProtocolKind::kFaultTolerantTrapdoor: {
      schedule_total =
          TrapdoorSchedule::standard(env.F, env.t, env.N).total_rounds();
      break;
    }
    case ProtocolKind::kTrapdoorFullBand: {
      TrapdoorConfig config;
      config.restrict_to_fprime = false;
      schedule_total =
          TrapdoorSchedule::standard(env.F, env.t, env.N, config)
              .total_rounds();
      break;
    }
    case ProtocolKind::kGoodSamaritan: {
      const SamaritanSchedule schedule(env.F, env.t, env.N);
      // Optimistic portion + a full fallback competition (each fallback
      // round advances with probability 1/2, hence the factor 2) + slack.
      schedule_total = schedule.total_optimistic_rounds() +
                       2 * schedule.fallback_epoch_length() *
                           (schedule.lg_n() + 1);
      break;
    }
    case ProtocolKind::kWakeupBaseline:
    case ProtocolKind::kEnergyOracle: {  // same doubling cycle by design
      const int lg_n = std::max(1, lg_ceil(point.N));
      schedule_total = static_cast<RoundId>(4 * lg_n) * lg_n;
      break;
    }
    case ProtocolKind::kAloha:
      schedule_total = 256;
      break;
    case ProtocolKind::kDutyCycle: {
      // Sleeping stretches wall-clock time: budget the ladder plus several
      // guaranteed-overlap windows per band frequency (each window costs
      // only ~2·grid_side awake rounds, but a full period of wall-clock).
      // Band via the shared rule, with make_factory's whitespace
      // full-band exception.
      const int side = WakeSchedule::grid_side_for(point.N);
      const int64_t ladder =
          static_cast<int64_t>(side) * (2 * side - 1);
      const int band = DutyCycleProtocol::band_for(
          point.F, point.t,
          point.adversary != AdversaryKind::kWhitespace);
      schedule_total =
          ladder + 4 * WakeSchedule::overlap_window(point.N) * band;
      break;
    }
  }
  RoundId budget = 16 * schedule_total +
                   8 * std::max<RoundId>(1, point.activation_window) + 1024;
  if (point.adversary == AdversaryKind::kWhitespace) {
    // Whitespace masks thin every rendezvous: a broadcast lands only when
    // listener and broadcaster share the channel, so scale the budget by
    // roughly the inverse of the guaranteed-common fraction of the band.
    const RoundId dilation = std::max<RoundId>(
        1, point.F / std::max(1, point.whitespace_shared));
    budget *= dilation;
  }
  return budget;
}

}  // namespace

RunSpec make_run_spec(const ExperimentPoint& point) {
  WSYNC_REQUIRE(point.n >= 1 && point.N >= point.n, "need 1 <= n <= N");
  RunSpec spec;
  spec.sim.F = point.F;
  spec.sim.t = point.t;
  spec.sim.N = point.N;
  spec.sim.n = point.n;
  spec.sim.engine = point.engine;
  spec.sim.drift.ppm = point.drift_ppm;
  spec.factory = make_factory(point);
  spec.make_adversary = make_adversary_producer(point);
  spec.make_activation = make_activation_producer(point);
  spec.max_rounds =
      point.max_rounds > 0 ? point.max_rounds : auto_round_budget(point);
  spec.extra_rounds = point.extra_rounds;
  spec.maintenance_rounds = point.maintenance_rounds;
  spec.offset_bound = point.offset_bound;
  spec.crash_waves = point.crash_waves;
  spec.verifier.allow_resync =
      point.protocol == ProtocolKind::kFaultTolerantTrapdoor;
  return spec;
}

std::vector<uint64_t> make_seeds(int count, uint64_t base) {
  WSYNC_REQUIRE(count >= 1, "need at least one seed");
  std::vector<uint64_t> seeds(static_cast<size_t>(count));
  uint64_t state = base;
  for (auto& s : seeds) s = splitmix64(state);
  return seeds;
}

PointResult aggregate_point(const ExperimentPoint& point,
                            const std::vector<RunOutcome>& outcomes) {
  PointResult result;
  result.point = point;

  // The plain sums and maxes, straight from the field list.
  for_each_field(kResultFields, [&](const auto& field) {
    if constexpr (std::is_invocable_v<decltype(field.per_run),
                                      const RunOutcome&>) {
      auto& value = result.*field.member;
      using Member = std::remove_reference_t<decltype(value)>;
      for (const RunOutcome& outcome : outcomes) {
        const auto sample =
            static_cast<Member>(std::invoke(field.per_run, outcome));
        value = field.merge == Merge::kMax
                    ? std::max(value, sample)
                    : static_cast<Member>(value + sample);
      }
    }
  });

  std::vector<double> rounds;
  std::vector<double> latencies;
  std::vector<double> max_awake;
  std::vector<double> mean_awake;
  std::vector<double> awake_fraction;
  std::vector<double> max_offsets;
  for (const RunOutcome& outcome : outcomes) {
    if (outcome.synced) {
      rounds.push_back(static_cast<double>(outcome.rounds));
      RoundId worst = 0;
      for (RoundId latency : outcome.sync_latency) {
        worst = std::max(worst, latency);
      }
      latencies.push_back(static_cast<double>(worst));
    }

    // Energy is spent whether or not the run reached liveness, so the radio
    // use summaries cover every run (unlike rounds_to_live).
    max_awake.push_back(static_cast<double>(outcome.energy.max_awake_rounds));
    mean_awake.push_back(outcome.energy.mean_awake_rounds);
    awake_fraction.push_back(outcome.energy.awake_fraction());
    if (point.energy_budget >= 0 &&
        outcome.energy.max_awake_rounds > point.energy_budget) {
      ++result.energy_budget_violations;
    }

    // Maintenance offsets cover every run (all 0 without a maintenance
    // phase, so the summary stays well-defined for legacy points).
    max_offsets.push_back(static_cast<double>(outcome.max_offset_seen));
  }
  result.rounds_to_live = summarize(rounds);
  result.max_node_latency = summarize(latencies);
  result.max_awake_rounds = summarize(max_awake);
  result.mean_awake_rounds = summarize(mean_awake);
  result.awake_fraction = summarize(awake_fraction);
  result.max_offset = summarize(max_offsets);
  return result;
}

double trapdoor_predicted_rounds(int F, int t, int64_t N) {
  WSYNC_REQUIRE(F >= 1 && t >= 0 && t < F, "need 0 <= t < F");
  const double lg = std::max(1.0, std::log2(static_cast<double>(N)));
  const double ratio = static_cast<double>(F) / static_cast<double>(F - t);
  return ratio * lg * lg +
         ratio * static_cast<double>(std::max(1, t)) * lg;
}

double samaritan_predicted_rounds(int t_prime, int64_t N) {
  WSYNC_REQUIRE(t_prime >= 0, "t' must be non-negative");
  const double lg = std::max(1.0, std::log2(static_cast<double>(N)));
  return static_cast<double>(std::max(1, t_prime)) * lg * lg * lg;
}

}  // namespace wsync
