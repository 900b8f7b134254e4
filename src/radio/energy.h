// Per-node radio-use accounting (the Bradonjić–Kohler–Ostrovsky cost axis).
//
// The source paper charges contention under adversarial jamming; its closest
// relatives charge *radio use*: Bradonjić–Kohler–Ostrovsky ("Near-Optimal
// Radio Use For Wireless Network Synchronization") bill every round a node's
// radio is on. The EnergyLedger records, for every node and every engine
// round, exactly one of three radio states — broadcast, listen, or sleep —
// so any experiment can report awake-rounds (broadcast + listen) and the
// broadcast/listen split alongside the paper's round counts.
//
// Conservation is enforced at the source: the engine must record every node
// exactly once per round, and end_round() checks it. Everything here is
// plain per-run integer state derived from the simulation, so ledger totals
// are bit-identical across worker counts (the PR 2 determinism contract).
#ifndef WSYNC_RADIO_ENERGY_H_
#define WSYNC_RADIO_ENERGY_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace wsync {

/// What a node's radio did in one round. Sleep covers not-yet-activated and
/// crashed nodes as well as an active node that returned RoundAction::sleep().
enum class RadioState : uint8_t { kSleep, kListen, kBroadcast };

/// Printable name for a radio state (stable, for traces and goldens).
constexpr const char* to_string(RadioState state) {
  switch (state) {
    case RadioState::kSleep: return "sleep";
    case RadioState::kListen: return "listen";
    case RadioState::kBroadcast: return "broadcast";
  }
  return "unknown";
}

/// One node's cumulative radio use. The three counters partition the rounds
/// executed so far: broadcast + listen + sleep == EnergyLedger::rounds().
struct NodeEnergy {
  int64_t broadcast_rounds = 0;
  int64_t listen_rounds = 0;
  int64_t sleep_rounds = 0;
  /// Rounds since the node was activated (0 while still inactive). Crashed
  /// nodes keep counting: they are activated participants whose radio
  /// happens to stay off.
  int64_t active_rounds = 0;

  /// Rounds the radio was on — the Bradonjić–Kohler–Ostrovsky cost.
  int64_t awake_rounds() const { return broadcast_rounds + listen_rounds; }
  int64_t total_rounds() const { return awake_rounds() + sleep_rounds; }
  /// Awake share of the rounds the node has been a participant — 1.0 for
  /// the always-on protocols, the duty fraction for sleeping ones.
  double awake_fraction() const {
    return active_rounds > 0
               ? static_cast<double>(awake_rounds()) /
                     static_cast<double>(active_rounds)
               : 0.0;
  }

  friend constexpr bool operator==(const NodeEnergy&,
                                   const NodeEnergy&) = default;
};

/// Whole-run energy aggregates, computed by EnergyLedger::totals() and
/// carried through RunOutcome into the point-level summaries.
struct RunEnergy {
  int64_t rounds = 0;            ///< rounds the ledger observed
  int64_t max_awake_rounds = 0;  ///< max over nodes of awake rounds
  double mean_awake_rounds = 0;  ///< mean over all n nodes
  int64_t broadcast_rounds = 0;  ///< summed over nodes
  int64_t listen_rounds = 0;     ///< summed over nodes
  int64_t sleep_rounds = 0;      ///< summed over nodes
  int64_t active_node_rounds = 0;  ///< Σ per-node rounds since activation

  /// Mean per-node awake share of post-activation rounds (node-round
  /// weighted): awake / active. 1.0 for always-on protocols; 0 when no
  /// node was ever activated.
  double awake_fraction() const {
    return active_node_rounds > 0
               ? static_cast<double>(broadcast_rounds + listen_rounds) /
                     static_cast<double>(active_node_rounds)
               : 0.0;
  }

  friend constexpr bool operator==(const RunEnergy&,
                                   const RunEnergy&) = default;
};

/// Records one RadioState per node per round. Owned and driven by the
/// Simulation; read by the runner, the verifier tests, and the goldens.
///
/// Two charging disciplines share one ledger:
///   * strict (dense engine): record() every node every round, then
///     end_round() — which enforces the conservation law at the source;
///   * lazy (sparse engine): record() only the visited cohort, then
///     end_round_lazy(); unrecorded rounds are implicit sleeps, settled
///     per node the next time it is recorded or read. Counters after a
///     settle are bit-identical to the strict discipline's.
class EnergyLedger {
 public:
  EnergyLedger() = default;
  /// A ledger for nodes {0, ..., n-1}.
  explicit EnergyLedger(int n);

  /// Marks node `id` activated from the round in progress on: its
  /// active_rounds counter starts with this round. Called by the engine at
  /// activation time; idempotent calls throw (a node activates once).
  void activate(NodeId id);

  /// Records node `id`'s state for the round in progress. The engine calls
  /// this at most once per node per round; a second record for the same node
  /// in one round throws.
  void record(NodeId id, RadioState state);

  /// Closes the round in progress. Throws unless every node was recorded
  /// exactly once since the previous round close — the per-node per-round
  /// broadcast/listen/sleep conservation law, enforced at the source.
  void end_round();

  /// Closes the round in progress without the every-node check: nodes not
  /// recorded this round slept implicitly (the sparse engine's discipline).
  void end_round_lazy();

  int n() const { return static_cast<int>(nodes_.size()); }
  /// Completed (closed) rounds.
  RoundId rounds() const { return rounds_; }
  const NodeEnergy& node(NodeId id) const;

  /// Max over nodes of awake rounds; 0 for an empty ledger.
  int64_t max_awake_rounds() const;
  /// Mean over all n nodes of awake rounds; 0 for an empty ledger.
  double mean_awake_rounds() const;

  /// Whole-run aggregates for the runner.
  RunEnergy totals() const;

 private:
  /// Accounts node `id`'s implicit sleeps for the closed rounds
  /// [settled_[id], rounds_). Logically const: observable state after a
  /// settle equals what strict round-by-round recording would have built.
  void settle(NodeId id) const;

  mutable std::vector<NodeEnergy> nodes_;
  /// Per node: rounds accounted so far (== rounds_ + 1 right after an
  /// explicit record for the round in progress).
  mutable std::vector<RoundId> settled_;
  std::vector<RoundId> active_from_;  ///< activation round, or -1
  int records_this_round_ = 0;
  RoundId rounds_ = 0;
};

}  // namespace wsync

#endif  // WSYNC_RADIO_ENERGY_H_
