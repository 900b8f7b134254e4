// ScenarioFuzz: property-based sweep over the registry's axes.
//
// Draws random (protocol, adversary, activation, n, F, t, drift) tuples
// from the same enum axes the catalog is built on — including the
// duty-cycled kinds, whose nodes genuinely sleep, and drifted local clocks
// with an optional resync cadence — runs a short execution for each
// (some with crash injection), and asserts the engine invariants that
// must hold for EVERY pairing, not just the curated scenarios:
//   * at most t frequencies disrupted per round;
//   * no reception on a disrupted frequency (delivered ⇒ clean and a sole
//     broadcaster);
//   * active_count() + crashed_count() conservation against the activation
//     totals;
//   * all_synced() ⇒ every surviving node outputs a number, and for the
//     paper's protocols those numbers agree (verifier agreement);
//   * energy conservation: every node has exactly one of
//     broadcast/listen/sleep per round (counters sum to the round count)
//     and awake-rounds never exceed total rounds;
//   * whitespace masks: no delivery ever crosses a frequency excluded by
//     the sender's or the receiver's availability mask;
//   * energy budgets: aggregate_point flags a violation iff some node's
//     awake-rounds exceeded the tuple's drawn budget;
//   * engine equivalence: every tuple also runs a dense-engine twin in
//     lockstep with the (sparse-by-default) primary sim, asserting
//     bit-identical RoundReports per round and identical ledger/observer
//     state at the end — the fuzz arm of the differential wall;
//   * verifier equivalence: the event-driven SyncVerifier on the primary
//     sim reports exactly what the full-scan oracle reports on the dense
//     twin, after every round, and so does all_synced() on both sims
//     against a liveness scan of the dense twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/adversary/whitespace.h"
#include "src/common/rng.h"
#include "src/radio/engine.h"
#include "src/radio/trace.h"
#include "src/scenario/scenario.h"
#include "src/sync/runner.h"
#include "src/sync/verifier.h"
#include "tests/testing/full_scan_oracle.h"

namespace wsync {
namespace {

constexpr ProtocolKind kProtocols[] = {
    ProtocolKind::kTrapdoor,        ProtocolKind::kTrapdoorFullBand,
    ProtocolKind::kGoodSamaritan,   ProtocolKind::kWakeupBaseline,
    ProtocolKind::kAloha,           ProtocolKind::kFaultTolerantTrapdoor,
    ProtocolKind::kDutyCycle,       ProtocolKind::kEnergyOracle};
constexpr AdversaryKind kAdversaries[] = {
    AdversaryKind::kNone,          AdversaryKind::kFixedFirst,
    AdversaryKind::kRandomSubset,  AdversaryKind::kSweep,
    AdversaryKind::kGilbertElliott, AdversaryKind::kGreedyDelivery,
    AdversaryKind::kGreedyListener, AdversaryKind::kDutyCycle,
    AdversaryKind::kWhitespace};
constexpr ActivationKind kActivations[] = {
    ActivationKind::kSimultaneous, ActivationKind::kStaggeredUniform,
    ActivationKind::kSequential,   ActivationKind::kTwoBatch,
    ActivationKind::kPoisson};

struct FuzzTuple {
  ExperimentPoint point;
  uint64_t seed = 0;
  bool inject_crash = false;
};

/// Deterministic draw: the suite must fail reproducibly or not at all.
std::vector<FuzzTuple> draw_tuples(int count, uint64_t master_seed) {
  std::vector<FuzzTuple> tuples;
  Rng rng(master_seed);
  for (int i = 0; i < count; ++i) {
    FuzzTuple tuple;
    ExperimentPoint& p = tuple.point;
    p.F = static_cast<int>(rng.uniform_int(1, 16));
    p.t = static_cast<int>(rng.uniform_int(0, p.F - 1));
    p.n = static_cast<int>(rng.uniform_int(1, 8));
    p.N = rng.uniform_int(p.n, 64);
    p.protocol = kProtocols[rng.next_below(std::size(kProtocols))];
    p.adversary = kAdversaries[rng.next_below(std::size(kAdversaries))];
    p.activation = kActivations[rng.next_below(std::size(kActivations))];
    p.activation_window = rng.uniform_int(1, 24);
    if (p.t > 0) {
      // Sometimes jam below budget (the Theorem 18 regime).
      p.jam_count = static_cast<int>(rng.uniform_int(0, p.t));
    }
    if (p.adversary == AdversaryKind::kDutyCycle) {
      p.duty_period = rng.uniform_int(1, 12);
      p.duty_on = rng.uniform_int(0, p.duty_period);
    }
    if (p.adversary == AdversaryKind::kWhitespace) {
      p.whitespace_available = static_cast<int>(rng.uniform_int(1, p.F));
      p.whitespace_shared =
          static_cast<int>(rng.uniform_int(1, p.whitespace_available));
    }
    // Sometimes draw an awake-rounds budget; its accounting is asserted
    // against the ledger either way (violation iff actually exceeded).
    if (rng.bernoulli(0.4)) {
      p.energy_budget = rng.uniform_int(0, 700);
    }
    // Sometimes drift the local clocks (the hold-the-sync axis); the
    // engine-equivalence lockstep below must survive any rate draw, and
    // the duty-cycled kinds sometimes add a resync cadence on top so the
    // dormant-wake / certain-beacon paths get fuzzed too.
    if (rng.bernoulli(0.3)) {
      p.drift_ppm = static_cast<int>(rng.uniform_int(1, 300'000));
      if (rng.bernoulli(0.5)) {
        p.resync_awake_slots = static_cast<int>(rng.uniform_int(1, 16));
      }
    }
    tuple.seed = rng.next_u64();
    tuple.inject_crash = p.n >= 2 && rng.bernoulli(0.3);
    tuples.push_back(tuple);
  }
  return tuples;
}

std::string tuple_name(const ::testing::TestParamInfo<FuzzTuple>& info) {
  const ExperimentPoint& p = info.param.point;
  std::string name = std::string(to_string(p.protocol)) + "_" +
                     to_string(p.adversary) + "_" + to_string(p.activation) +
                     "_F" + std::to_string(p.F) + "t" + std::to_string(p.t) +
                     "n" + std::to_string(p.n) + "_i" +
                     std::to_string(info.index);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

/// The paper's protocols guarantee agreement whp; the strawman baselines do
/// not, which is precisely the repo's negative result.
bool agreement_guaranteed(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kTrapdoor:
    case ProtocolKind::kTrapdoorFullBand:
    case ProtocolKind::kGoodSamaritan:
    case ProtocolKind::kFaultTolerantTrapdoor:
      return true;
    case ProtocolKind::kWakeupBaseline:
    case ProtocolKind::kAloha:
    // The duty-cycled protocols trade agreement down to whp (two sleepy
    // leaders can coexist until their wake slots collide and they merge).
    case ProtocolKind::kDutyCycle:
    case ProtocolKind::kEnergyOracle:
      return false;
  }
  return false;
}

class ScenarioFuzz : public ::testing::TestWithParam<FuzzTuple> {};

TEST_P(ScenarioFuzz, EngineInvariantsHoldForRandomTuples) {
  const FuzzTuple& tuple = GetParam();
  RunSpec spec = make_run_spec(tuple.point);
  spec.sim.seed = tuple.seed;

  MemoryTrace trace;
  // Keep a typed handle on whitespace adversaries so the delivery/mask law
  // can be asserted against the materialized masks (the sim owns it).
  std::unique_ptr<Adversary> adversary = spec.make_adversary();
  const auto* whitespace =
      dynamic_cast<const WhitespaceAdversary*>(adversary.get());
  ASSERT_EQ(whitespace != nullptr,
            tuple.point.adversary == AdversaryKind::kWhitespace);
  Simulation sim(spec.sim, spec.factory, std::move(adversary),
                 spec.make_activation(), &trace);
  ASSERT_EQ(sim.engine_mode(), EngineMode::kSparse);  // kAuto resolves sparse
  // The differential wall rides along: a dense twin of the same spec runs
  // in lockstep, and every tuple must produce a bit-identical execution.
  SimConfig dense_config = spec.sim;
  dense_config.engine = EngineMode::kDense;
  Simulation dense(dense_config, spec.factory, spec.make_adversary(),
                   spec.make_activation());
  SyncVerifier verifier(spec.verifier);
  testing::FullScanVerifier oracle(spec.verifier);

  const RoundId rounds =
      std::min<RoundId>(spec.max_rounds, 600);  // short executions
  const RoundId crash_at = rounds / 3;
  int expected_crashes = 0;

  for (RoundId r = 0; r < rounds; ++r) {
    if (tuple.inject_crash && r == crash_at && sim.active_count() >= 2) {
      // Crash the highest-id live node (keeps a witness alive).
      for (NodeId id = tuple.point.n - 1; id >= 0; --id) {
        if (sim.is_active(id) && !sim.is_crashed(id)) {
          sim.crash(id);
          dense.crash(id);
          ++expected_crashes;
          break;
        }
      }
    }
    const RoundReport report = sim.step();
    const RoundReport dense_report = dense.step();
    ASSERT_EQ(report, dense_report) << "engines diverged at round " << r;
    verifier.observe(sim);
    oracle.observe(dense);
    ASSERT_TRUE(testing::same_report(oracle.report(), verifier.report()))
        << "round " << r;
    const bool live = testing::full_scan_all_synced(dense);
    ASSERT_EQ(dense.all_synced(), live) << "round " << r;
    ASSERT_EQ(sim.all_synced(), live) << "round " << r;

    const RoundTraceEvent& event = trace.rounds().back();
    ASSERT_EQ(event.round, r);

    // Invariant: the adversary never exceeds its budget.
    ASSERT_LE(static_cast<int>(event.disrupted.size()), tuple.point.t);

    // Invariant: deliveries need a sole broadcaster on a clean frequency.
    for (size_t f = 0; f < event.stats.per_freq.size(); ++f) {
      const FreqRoundStats& fs = event.stats.per_freq[f];
      ASSERT_EQ(fs.delivered, fs.broadcasters == 1 && !fs.disrupted)
          << "frequency " << f << " round " << r;
      if (fs.disrupted) {
        ASSERT_FALSE(fs.delivered);
      }
    }

    // Invariant: node accounting conserves. Every activated node is either
    // live or crashed, and the engine/view counters agree.
    ASSERT_EQ(sim.active_count() + sim.crashed_count(),
              sim.activated_total());
    ASSERT_EQ(sim.view().active_count(), sim.active_count());
    ASSERT_EQ(sim.crashed_count(), expected_crashes);
    ASSERT_LE(sim.activated_total(), tuple.point.n);

    // Invariant: energy conservation. Exactly one radio state per node per
    // round, so the three counters sum to the rounds executed and
    // awake-rounds can never exceed them.
    const EnergyLedger& ledger = sim.energy();
    ASSERT_EQ(ledger.rounds(), r + 1);
    for (NodeId id = 0; id < tuple.point.n; ++id) {
      const NodeEnergy& energy = ledger.node(id);
      ASSERT_EQ(energy.total_rounds(), r + 1) << "node " << id;
      ASSERT_LE(energy.awake_rounds(), r + 1);
      ASSERT_GE(energy.broadcast_rounds, 0);
      ASSERT_GE(energy.listen_rounds, 0);
      ASSERT_GE(energy.sleep_rounds, 0);
      // Active-rounds accounting: rounds since activation, and a node can
      // only be awake while active (the duty-cycled protocols sleep part
      // of their active rounds; the always-on ones all of none).
      const RoundId woke_at = sim.activation_round(id);
      ASSERT_EQ(energy.active_rounds, woke_at >= 0 ? r + 1 - woke_at : 0)
          << "node " << id;
      ASSERT_LE(energy.awake_rounds(), energy.active_rounds) << "node " << id;
    }

    // Invariant: no delivery crosses an excluded whitespace channel, on
    // either end.
    if (whitespace != nullptr) {
      for (const DeliveryTraceEvent& delivery : trace.deliveries()) {
        if (delivery.round != r) continue;
        ASSERT_TRUE(whitespace->channel_available(delivery.from,
                                                  delivery.frequency))
            << "sender " << delivery.from << " delivered on a frequency "
            << "its mask excludes";
        ASSERT_TRUE(whitespace->channel_available(delivery.to,
                                                  delivery.frequency))
            << "receiver " << delivery.to << " heard a frequency its mask "
            << "excludes";
      }
    }

    if (sim.all_synced()) break;
  }

  // Differential wall: after the lockstep run, every observable surface of
  // the two engines must agree — per-node ledger state included.
  ASSERT_EQ(sim.round(), dense.round());
  EXPECT_EQ(sim.all_synced(), dense.all_synced());
  EXPECT_EQ(sim.active_count(), dense.active_count());
  EXPECT_EQ(sim.crashed_count(), dense.crashed_count());
  EXPECT_EQ(sim.activated_total(), dense.activated_total());
  EXPECT_EQ(sim.energy().totals(), dense.energy().totals());
  for (NodeId id = 0; id < tuple.point.n; ++id) {
    EXPECT_EQ(sim.energy().node(id), dense.energy().node(id)) << "node " << id;
    EXPECT_EQ(sim.output(id), dense.output(id)) << "node " << id;
    EXPECT_EQ(sim.sync_round(id), dense.sync_round(id)) << "node " << id;
    EXPECT_EQ(sim.activation_round(id), dense.activation_round(id))
        << "node " << id;
    EXPECT_EQ(sim.role(id), dense.role(id)) << "node " << id;
  }

  // Invariant: all_synced() means every surviving node holds a number.
  if (sim.all_synced()) {
    int64_t first_output = SyncOutput::kBottom;
    bool agree = true;
    for (NodeId id = 0; id < tuple.point.n; ++id) {
      if (!sim.is_active(id) || sim.is_crashed(id)) continue;
      const SyncOutput output = sim.output(id);
      ASSERT_TRUE(output.has_number()) << "node " << id;
      if (first_output == SyncOutput::kBottom) {
        first_output = output.value;
      } else if (output.value != first_output) {
        agree = false;
      }
    }
    // Under drift the synced outputs legitimately slide apart (that is the
    // whole point of the axis), so exact agreement is only asserted on
    // drift-free tuples.
    if (tuple.point.drift_ppm == 0 &&
        agreement_guaranteed(tuple.point.protocol)) {
      EXPECT_TRUE(agree) << "synced outputs disagree";
      EXPECT_EQ(verifier.report().agreement_violations, 0);
    }
  }

  // The crash stayed permanent.
  if (expected_crashes > 0) {
    EXPECT_EQ(sim.crashed_count(), expected_crashes);
  }

  // Energy-budget accounting: aggregate_point must flag a violation
  // exactly when some node's awake-rounds exceeded the drawn budget.
  RunOutcome outcome;
  outcome.energy = sim.energy().totals();
  const PointResult aggregated = aggregate_point(tuple.point, {outcome});
  if (tuple.point.energy_budget >= 0) {
    const bool exceeded =
        outcome.energy.max_awake_rounds > tuple.point.energy_budget;
    EXPECT_EQ(aggregated.energy_budget_violations, exceeded ? 1 : 0);
  } else {
    EXPECT_EQ(aggregated.energy_budget_violations, 0);
  }
  EXPECT_EQ(aggregated.broadcast_rounds + aggregated.listen_rounds +
                aggregated.sleep_rounds,
            static_cast<int64_t>(tuple.point.n) * outcome.energy.rounds);
}

INSTANTIATE_TEST_SUITE_P(Axes, ScenarioFuzz,
                         ::testing::ValuesIn(draw_tuples(72, 0xF0220)),
                         tuple_name);

}  // namespace
}  // namespace wsync
