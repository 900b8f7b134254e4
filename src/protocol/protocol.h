// The contract between the radio engine and a per-node protocol instance.
//
// One Protocol object embodies one node's state machine. The engine drives
// it: on_activate() once when the adversary wakes the node, then every round
// act() (choose frequency, broadcast or listen) followed by on_round_end()
// (reception result, if any). output() implements the paper's Section 3
// interface: ⊥ until synchronized, then an incrementing round number.
#ifndef WSYNC_PROTOCOL_PROTOCOL_H_
#define WSYNC_PROTOCOL_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "src/common/require.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/protocol/round_action.h"
#include "src/radio/message.h"

namespace wsync {

/// Sentinel for Protocol::asleep_for(): the radio is off permanently (the
/// node will sleep every remaining round unless it is observed mid-run).
inline constexpr int64_t kAsleepForever = std::numeric_limits<int64_t>::max();

/// Immutable environment handed to a protocol at construction. Matches the
/// paper's knowledge model: nodes know F, t and the upper bound N, but not
/// n, not the global round number, and not the identities of other nodes.
struct ProtocolEnv {
  int F = 1;         ///< number of frequencies
  int t = 0;         ///< max frequencies disrupted per round
  int64_t N = 1;     ///< known upper bound on the number of nodes
  uint64_t uid = 0;  ///< this node's unique identifier (random, collision-free whp)
  NodeId node_id = kNoNode;  ///< engine-level id; for tracing only, protocols
                             ///< must not base behaviour on it
  /// This node's oscillator drift rate in signed ppm (src/drift/drift.h):
  /// the local round counter advances by local_clock() deltas instead of 1
  /// per round. 0 (the default, and always 0 when SimConfig::drift is
  /// disabled) reproduces the paper's drift-free counter exactly.
  int64_t drift_ppm_rate = 0;
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Called once, in the round the adversary activates this node, before the
  /// first act().
  virtual void on_activate(Rng& rng) = 0;

  /// Called once per round while active: the node's frequency/broadcast
  /// decision for this round.
  virtual RoundAction act(Rng& rng) = 0;

  /// Called at the end of every round. `received` holds a message iff the
  /// node listened and exactly one undisrupted broadcaster used its
  /// frequency. Broadcasters always get nullopt.
  virtual void on_round_end(const std::optional<Message>& received,
                            Rng& rng) = 0;

  /// The node's current output (⊥ or round number), read after
  /// on_round_end() each round.
  virtual SyncOutput output() const = 0;

  /// Introspection for the verifier and the broadcast-weight experiments.
  virtual Role role() const = 0;

  /// The probability with which the *next* act() will broadcast, given the
  /// node's current state. Used to trace the paper's broadcast weight
  /// W(r) = sum_u p_u^r (Lemma 9 / Lemma 13); never used by the engine for
  /// resolution.
  virtual double broadcast_probability() const { return 0.0; }

  /// How many times this node, while already holding a numbering,
  /// re-adopted one from a received LeaderMsg — the resync events that
  /// correct accumulated clock skew during a maintenance run
  /// (Simulation::run_maintenance). Monotone non-decreasing; 0 for
  /// protocols without a resync path.
  virtual int64_t resync_corrections() const { return 0; }

  // --- sparse-engine contract ----------------------------------------------
  // A duty-cycled protocol can tell the engine, after every processed round,
  // how long it is certain to sleep, and can replay a block of asleep rounds
  // at once instead of being driven round-by-round. The dense↔sparse
  // equivalence contract (docs/ARCHITECTURE.md) requires of an implementer:
  //   * whenever asleep_for() > 0, the next act() would return
  //     RoundAction::sleep() WITHOUT drawing from its rng, and
  //     broadcast_probability() returns exactly 0.0;
  //   * skip_rounds(k), for any k <= asleep_for(), mutates state exactly as
  //     k iterations of act()+on_round_end(nullopt) would — same output(),
  //     same role();
  //   * across those k rounds role() and output().has_number() stay fixed,
  //     and a numbered output advances by exactly one per round — so a
  //     drifting clock must end the horizon before any round in which it
  //     steps by 0 or 2. The engine and the verifier then read only the
  //     nodes it visits (Simulation::changed_nodes());
  //   * whether asleep_for() returns a value is a constant property of the
  //     instance (probed once at activation).

  /// How many upcoming rounds (starting with the round the next act() would
  /// serve) the node is certain to sleep: 0 = may be awake next round,
  /// k > 0 = asleep for the next k rounds, kAsleepForever = dormant for
  /// good. nullopt (the default) = no prediction; the engine keeps the node
  /// on the dense-equivalent always-visited path.
  virtual std::optional<int64_t> asleep_for() const { return std::nullopt; }

  /// Replays `rounds` asleep rounds (see contract above). Only called
  /// by the sparse engine, and only with rounds <= the asleep_for() horizon.
  virtual void skip_rounds(int64_t rounds) {
    WSYNC_CHECK(rounds == 0, "skip_rounds() on a protocol without sparse "
                             "support (asleep_for() returned nullopt)");
  }

 protected:
  Protocol() = default;
};

/// Creates one protocol instance per node.
using ProtocolFactory =
    std::function<std::unique_ptr<Protocol>(const ProtocolEnv&)>;

}  // namespace wsync

#endif  // WSYNC_PROTOCOL_PROTOCOL_H_
