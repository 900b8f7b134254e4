// The disrupted radio network simulation engine.
//
// Implements the model of Section 2 exactly:
//   * time divided into synchronized rounds;
//   * F disjoint narrowband frequencies;
//   * each active node picks one frequency per round and broadcasts or
//     listens on it;
//   * a listener on frequency f receives a message iff exactly one node
//     broadcast on f AND the adversary did not disrupt f;
//   * the adversary disrupts up to t < F frequencies per round, choosing on
//     knowledge of the completed execution through round r−1 only;
//   * the adversary activates nodes at arbitrary rounds (via an
//     ActivationSchedule); nodes do not know the global round number.
//
// Two extensions ride on the same round loop:
//   * whitespace availability (Azar et al.): an adversary may declare a
//     channel absent for a particular node; a broadcast into an absent
//     channel reaches nobody (and does not collide) and a listener on an
//     absent channel hears nothing;
//   * energy accounting (Bradonjić–Kohler–Ostrovsky): every node is charged
//     exactly one of broadcast/listen/sleep per round into an EnergyLedger
//     (inactive and crashed nodes sleep; a protocol may also return
//     RoundAction::sleep() to power down for a round).
//
// One round body (Simulation::step()) visits the round's awake cohort over
// struct-of-arrays node state; the engine mode (EngineMode) picks the policy:
//   * dense — the reference: no wake prediction is asked for, so every live
//     node is visited every round and billed under the strict ledger check;
//   * sparse — a wake-event queue: a node whose protocol predicts its sleep
//     (Protocol::asleep_for()) is visited only when it may be awake, its
//     asleep span is replayed in O(1) via Protocol::skip_rounds() and the
//     ledger bills it lazily. Nodes without a prediction are visited every
//     round, as under dense. Every round executes under both modes.
// The two are required to be bit-identical on every execution — reports,
// traces, ledger, observers (the equivalence contract in
// docs/ARCHITECTURE.md, enforced by the differential test wall).
//
// Determinism: all randomness is derived from SimConfig::seed. Each node,
// the adversary, and the activation schedule get independent forked streams,
// so the same seed reproduces the same execution bit-for-bit.
#ifndef WSYNC_RADIO_ENGINE_H_
#define WSYNC_RADIO_ENGINE_H_

#include <map>
#include <memory>
#include <vector>

#include "src/adversary/adversary.h"
#include "src/common/require.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/drift/drift.h"
#include "src/protocol/protocol.h"
#include "src/radio/activation.h"
#include "src/radio/energy.h"
#include "src/radio/engine_view.h"
#include "src/radio/message.h"
#include "src/radio/trace.h"

namespace wsync {

struct SimConfig {
  int F = 1;         ///< number of frequencies, F >= 1
  int t = 0;         ///< adversary budget, 0 <= t < F
  int64_t N = 1;     ///< known upper bound on participants, N >= n
  int n = 1;         ///< actual number of nodes that will be activated
  uint64_t seed = 1; ///< master seed for the whole execution
  /// Round-loop implementation; kAuto resolves to the sparse engine.
  EngineMode engine = EngineMode::kAuto;
  /// Per-node clock drift (src/drift/drift.h). ppm == 0 (the default)
  /// disables the model bit-exactly: no stream fork, no rate draw.
  DriftSpec drift;
};

/// What one engine round produced; returned by step().
struct RoundReport {
  RoundId round = 0;            ///< index of the round just executed
  int activations = 0;          ///< nodes woken this round
  int deliveries = 0;           ///< listener receptions this round
  int broadcasters = 0;         ///< nodes that chose to broadcast
  int absences = 0;             ///< choices voided by a whitespace mask
  int collisions = 0;           ///< frequencies with >= 2 reaching broadcasters
  double broadcast_weight = 0;  ///< W(r): sum of planned broadcast probs

  friend constexpr bool operator==(const RoundReport&,
                                   const RoundReport&) = default;
};

/// One entry of Simulation::changed_nodes(): a node whose output, role or
/// liveness may have changed, with the role it holds now (kCrashed once
/// crashed). Ordered by id.
struct NodeChange {
  NodeId id = kNoNode;
  Role role = Role::kInactive;

  friend constexpr bool operator<(const NodeChange& a, const NodeChange& b) {
    return a.id < b.id;
  }
};

/// Bucketed round → awake-set index driving the sparse engine: a ring of
/// near-horizon buckets (one vector of node ids per upcoming round) plus an
/// ordered spill map for events beyond the horizon. Duty-cycled schedules
/// sleep O(lg N) rounds at a time — far below the horizon — so the spill map
/// is effectively never touched.
class WakeEventQueue {
 public:
  /// Enqueues node `id` for round `round`; `now` is the round currently in
  /// progress (or about to execute). Requires now <= round.
  void schedule(RoundId now, RoundId round, NodeId id) {
    if (round - now < kHorizon) {
      ring_[static_cast<size_t>(round % kHorizon)].push_back(id);
    } else {
      far_[round].push_back(id);
    }
  }

  /// Appends the ids due exactly in round `round` to *out (arbitrary order)
  /// and removes them from the queue. Every round is collected, in strictly
  /// increasing order.
  void collect(RoundId round, std::vector<NodeId>* out) {
    std::vector<NodeId>& bucket = ring_[static_cast<size_t>(round % kHorizon)];
    out->insert(out->end(), bucket.begin(), bucket.end());
    bucket.clear();
    if (!far_.empty() && far_.begin()->first == round) {
      const std::vector<NodeId>& spill = far_.begin()->second;
      out->insert(out->end(), spill.begin(), spill.end());
      far_.erase(far_.begin());
    }
  }

 private:
  static constexpr RoundId kHorizon = 4096;

  std::vector<std::vector<NodeId>> ring_ =
      std::vector<std::vector<NodeId>>(static_cast<size_t>(kHorizon));
  std::map<RoundId, std::vector<NodeId>> far_;
};

class Simulation {
 public:
  /// `factory` builds one Protocol per node at activation time.
  /// `trace` may be nullptr. Throws std::invalid_argument on bad config.
  Simulation(const SimConfig& config, ProtocolFactory factory,
             std::unique_ptr<Adversary> adversary,
             std::unique_ptr<ActivationSchedule> activation,
             TraceSink* trace = nullptr);

  /// Executes one round.
  RoundReport step();

  /// Steps round by round until every node has been activated and every
  /// non-crashed active node outputs a round number, or until `max_rounds`
  /// total rounds have been executed. Safe to call after step().
  struct RunResult {
    bool synced = false;   ///< liveness reached within the budget
    RoundId rounds = 0;    ///< total rounds executed so far
  };
  RunResult run_until_synced(RoundId max_rounds);

  /// What a resync-maintenance phase observed; returned by run_maintenance().
  struct MaintenanceReport {
    RoundId rounds = 0;            ///< maintenance rounds executed
    int64_t max_offset_seen = 0;   ///< max over rounds of the output spread
    int64_t offset_violations = 0; ///< rounds whose spread exceeded the bound
    int64_t resync_count = 0;      ///< skew corrections (re-adoptions)

    friend constexpr bool operator==(const MaintenanceReport&,
                                     const MaintenanceReport&) = default;
  };

  /// The hold-the-sync run mode: executes `horizon` further rounds and
  /// checks after each that the spread between the largest and smallest
  /// output over live synchronized nodes stays within
  /// `offset_bound` (< 0 = chart only, never count a violation). Under
  /// clock drift (SimConfig::drift) nodes slide apart between the resync
  /// beacons that re-align them; resync_count totals those corrections
  /// (Protocol::resync_corrections deltas). The spread comes from an
  /// OffsetTracker seeded once from every node and then updated from
  /// changed_nodes() only, so a round costs O(changed), not O(n);
  /// bit-identical across the dense and sparse engines.
  MaintenanceReport run_maintenance(RoundId horizon, int64_t offset_bound);

  // --- observers -----------------------------------------------------------

  const SimConfig& config() const { return config_; }
  /// The resolved engine policy: kDense or kSparse (never kAuto).
  EngineMode engine_mode() const {
    return sparse_ ? EngineMode::kSparse : EngineMode::kDense;
  }
  /// Always 0: every round executes. Kept only for wsbench, its one reader.
  RoundId fast_forwarded_rounds() const { return 0; }

  // Whole-execution telemetry counters. The first three are deterministic
  // run metrics — identical across the dense and sparse engines and across
  // worker counts. Wake-event
  // pops are engine-dependent: reproducible per (seed, engine), but the
  // dense engine never pops one.
  int64_t deliveries_total() const { return deliveries_total_; }
  int64_t collisions_total() const { return collisions_total_; }
  int64_t absences_total() const { return absences_total_; }
  int64_t wake_events_popped() const { return wake_events_popped_; }
  /// Number of completed rounds (== index of the next round to execute).
  RoundId round() const { return view_.round(); }
  /// The nodes whose output, role or liveness may have changed since the
  /// step() before the last one returned, by ascending id: the last step's
  /// visited cohort (every live node on the dense engine) and activations,
  /// plus every node crashed since then. By the sparse contract no other
  /// node's role or has_number() moved, and a numbered output of any other
  /// node advanced by exactly one per round. Empty before the first step().
  const std::vector<NodeChange>& changed_nodes() const { return changed_; }
  /// Activated nodes still participating, i.e. excluding crashed nodes —
  /// the same accounting view().active_count() publishes after each round.
  int active_count() const { return active_count_ - crashed_count_; }
  int crashed_count() const { return crashed_count_; }
  int activated_total() const { return activated_total_; }

  bool is_active(NodeId id) const {
    WSYNC_REQUIRE(id >= 0 && id < config_.n, "node id out of range");
    return node_active_[static_cast<size_t>(id)] != 0;
  }
  bool is_crashed(NodeId id) const {
    WSYNC_REQUIRE(id >= 0 && id < config_.n, "node id out of range");
    return node_crashed_[static_cast<size_t>(id)] != 0;
  }
  /// Round the node was activated, or -1.
  RoundId activation_round(NodeId id) const;
  /// First round the node output a number, or -1.
  RoundId sync_round(NodeId id) const;
  /// Latest output of the node (⊥ before activation).
  SyncOutput output(NodeId id) const;
  Role role(NodeId id) const;

  /// Direct access to a node's protocol (must be active). Non-const so tests
  /// and applications can downcast to the concrete protocol type.
  Protocol& protocol(NodeId id);
  const Protocol& protocol(NodeId id) const;

  /// True iff all n nodes have been activated and every active, non-crashed
  /// node currently outputs a round number (the liveness condition). False
  /// when no non-crashed node survives: liveness needs a living witness,
  /// so it is never claimed vacuously by an all-crashed execution.
  bool all_synced() const;

  /// Crash-fault injection (Section 8 experiments): the node stops
  /// participating from the next round on. No-op if already crashed;
  /// must be active.
  void crash(NodeId id);

  const EngineView& view() const { return view_; }

  /// Per-node radio-use accounting: exactly one of broadcast/listen/sleep
  /// per node per round (inactive and crashed nodes sleep). See
  /// src/radio/energy.h for the model.
  const EnergyLedger& energy() const { return energy_; }

 private:
  void activate_pending(RoundId r);
  std::vector<Frequency> validated_disruption();
  /// Replays node `id`'s pending asleep rounds up to the round in progress
  /// (no-op when already current — always under dense — crashed or inactive).
  void settle_node(NodeId id) const;
  /// Builds this round's cohort (due wake events + always-visited nodes) in
  /// ascending node-id order into cohort_.
  void build_cohort(RoundId r);
  /// Ends a step: adds unvisited_activations_ and crashed_since_step_ to
  /// the visited nodes already in changed_.
  void publish_changes();

  SimConfig config_;
  ProtocolFactory factory_;
  std::unique_ptr<Adversary> adversary_;
  std::unique_ptr<ActivationSchedule> activation_;
  TraceSink* trace_;  // not owned; may be null

  Rng adversary_rng_{0};
  Rng activation_rng_{0};
  Rng uid_rng_{0};
  /// Per-node drift rates in signed ppm; empty when drift is disabled
  /// (drawn once at construction from the kDriftStream fork).
  std::vector<int64_t> drift_rates_;

  // Node state, struct-of-arrays: the sparse engine touches only the awake
  // cohort's entries per round, and the flat flag/round arrays keep the
  // observers O(1) without walking protocol objects.
  std::vector<std::unique_ptr<Protocol>> protocols_;
  std::vector<Rng> node_rng_;
  std::vector<char> node_active_;
  std::vector<char> node_crashed_;
  std::vector<RoundId> node_activation_round_;
  std::vector<RoundId> node_sync_round_;
  std::vector<SyncOutput> node_last_output_;
  // per-round scratch, valid within one step() for the nodes visited:
  std::vector<Frequency> node_freq_;  ///< kNoFrequency = sleeping this round
  std::vector<char> node_broadcast_;
  std::vector<char> node_reached_;    ///< availability mask allowed the choice

  int active_count_ = 0;
  int activated_total_ = 0;
  int crashed_count_ = 0;

  // Whole-execution telemetry counters (see the observers above).
  int64_t deliveries_total_ = 0;
  int64_t collisions_total_ = 0;
  int64_t absences_total_ = 0;
  int64_t wake_events_popped_ = 0;

  // Cohort state. Under kDense no node predicts wakes, so every live node
  // is always awake and the wake queue stays empty.
  bool sparse_ = false;
  std::vector<char> node_sparse_;      ///< protocol predicts wakes
  std::vector<RoundId> node_settled_;  ///< rounds applied to the protocol
  std::vector<NodeId> always_awake_;   ///< sorted live unpredictable nodes
  WakeEventQueue wake_queue_;
  int synced_live_ = 0;  ///< live nodes whose last output has a number
  std::vector<NodeId> due_;     // scratch: events collected this round
  std::vector<NodeId> cohort_;  // scratch: nodes visited this round

  // Changed-node list (see changed_nodes()); sized by the cohort, never n.
  std::vector<NodeId> unvisited_activations_;  ///< asleep from activation
  std::vector<NodeId> crashed_since_step_;     ///< crash() calls since a step
  std::vector<NodeChange> changed_;

  EngineView view_;
  EnergyLedger energy_;

  // per-round scratch buffers, reused across rounds
  std::vector<int> broadcaster_count_;      // per frequency
  std::vector<NodeId> sole_broadcaster_;    // per frequency
  std::vector<char> disrupted_flag_;        // per frequency
  std::vector<Payload> pending_payload_;    // per frequency
};

}  // namespace wsync

#endif  // WSYNC_RADIO_ENGINE_H_
