// Core value types shared across the wsync library.
//
// The paper's model (Section 2): a single-hop radio network with F disjoint
// narrowband frequencies, synchronous rounds, N known upper bound on the
// number of nodes, and an adversary disrupting up to t < F frequencies per
// round. These aliases and small value types make those quantities explicit
// in every interface.
#ifndef WSYNC_COMMON_TYPES_H_
#define WSYNC_COMMON_TYPES_H_

#include <compare>
#include <cstdint>
#include <limits>

namespace wsync {

/// Identifies a node within one simulation (dense, 0-based).
using NodeId = int32_t;

/// A narrowband frequency index in [0, F). The paper numbers frequencies
/// 1..F; we use 0-based indices internally and convert only when printing.
using Frequency = int32_t;

/// A global round index (0-based). Nodes never see this directly; each node
/// has only its local age (rounds since activation).
using RoundId = int64_t;

/// Sentinel: "no node".
inline constexpr NodeId kNoNode = -1;

/// Sentinel: "no frequency chosen" (node is inactive this round).
inline constexpr Frequency kNoFrequency = -1;

/// A contender timestamp, ordered lexicographically: (age, uid).
///
/// `age` is the number of rounds the node has been active at send time, so a
/// larger age means an earlier activation. Ties are broken by uid. The paper
/// draws uid uniformly from [1, cN^2]; we use a full 64-bit value from the
/// node's deterministic RNG stream, which serves the same purpose (unique
/// tie-breaking with negligible collision probability).
struct Timestamp {
  int64_t age = 0;
  uint64_t uid = 0;

  friend constexpr auto operator<=>(const Timestamp&,
                                    const Timestamp&) = default;
};

/// Node roles, used for introspection by the verifier and the
/// broadcast-weight experiments (Lemma 9 / Lemma 13). Protocols report their
/// current role; the engine never acts on it.
enum class Role : uint8_t {
  kInactive,    ///< not yet activated by the adversary
  kContender,   ///< competing to become leader
  kSamaritan,   ///< Good Samaritan protocol: downgraded helper
  kKnockedOut,  ///< Trapdoor: fell through the trapdoor; listening
  kPassive,     ///< Good Samaritan: knocked-out samaritan; listening
  kFallback,    ///< Good Samaritan: executing the modified-Trapdoor fallback
  kLeader,      ///< won the competition; dictates the numbering
  kSynced,      ///< adopted a leader's numbering scheme
  kCrashed,     ///< crash-fault injected (Section 8 extension)
};

/// Printable name for a role (stable, for traces and tests).
constexpr const char* to_string(Role role) {
  switch (role) {
    case Role::kInactive: return "inactive";
    case Role::kContender: return "contender";
    case Role::kSamaritan: return "samaritan";
    case Role::kKnockedOut: return "knocked_out";
    case Role::kPassive: return "passive";
    case Role::kFallback: return "fallback";
    case Role::kLeader: return "leader";
    case Role::kSynced: return "synced";
    case Role::kCrashed: return "crashed";
  }
  return "unknown";
}

/// A scheduled crash-fault burst (Section 8 extension): at the start of
/// round `round`, the `count` lowest-id nodes that are active and not yet
/// crashed are crashed. Used by the runner and scenario layers to express
/// churn waves declaratively.
struct CrashWave {
  RoundId round = 0;
  int count = 0;

  friend constexpr bool operator==(const CrashWave&,
                                   const CrashWave&) = default;
};

/// The policy around the engine's one round body (Simulation::step()).
///
/// The mode picks two policies: wake prediction and the ledger close.
/// kDense is the reference: it asks no protocol for a wake prediction, so
/// every live node is visited and strictly billed every round. kSparse asks
/// at activation and drives a wake-event queue and a lazy ledger, so
/// per-round cost scales with the awake cohort; it must be bit-identical to
/// kDense on every execution (the equivalence contract in
/// docs/ARCHITECTURE.md). kAuto resolves to kSparse.
enum class EngineMode : uint8_t {
  kAuto,    ///< resolves to kSparse
  kDense,   ///< no wake prediction: every live node visited every round
  kSparse,  ///< wake-event queue, lazy ledger
};

/// Printable name for an engine mode (stable, for CLI flags and tests).
constexpr const char* to_string(EngineMode mode) {
  switch (mode) {
    case EngineMode::kAuto: return "auto";
    case EngineMode::kDense: return "dense";
    case EngineMode::kSparse: return "sparse";
  }
  return "unknown";
}

/// A node's per-round output: either bottom (not yet synchronized) or a round
/// number. Encoded as int64_t with kBottom standing in for the paper's ⊥.
struct SyncOutput {
  static constexpr int64_t kBottom = std::numeric_limits<int64_t>::min();

  int64_t value = kBottom;

  constexpr bool is_bottom() const { return value == kBottom; }
  constexpr bool has_number() const { return value != kBottom; }

  friend constexpr bool operator==(const SyncOutput&,
                                   const SyncOutput&) = default;
};

}  // namespace wsync

#endif  // WSYNC_COMMON_TYPES_H_
