// Online verifier for the five properties of the wireless synchronization
// problem (paper Section 3):
//   1. Validity     — every output is ⊥ or a number (holds by construction
//                     of SyncOutput; the verifier re-checks activation
//                     coverage instead).
//   2. Synch Commit — once a node outputs a number it never outputs ⊥ again.
//   3. Correctness  — if a node outputs i in round r, it outputs i+1 in r+1.
//   4. Agreement    — all non-⊥ outputs in a round are equal (whp).
//   5. Liveness     — eventually every active node stops outputting ⊥
//                     (checked by the runner against a round budget).
//
// The verifier additionally tracks leader multiplicity (the paper's
// Theorem 10/15 argument: at most one contender becomes leader, whp).
//
// Cost: the first observe() reads every node; each later one reads only
// Simulation::changed_nodes(). Every other node kept its role and
// has_number(), and its number advanced by exactly one (the sparse
// contract), so it cannot have broken a property and its offset
// (output − round) is unchanged. Per-offset node counts then give
// Agreement without a scan.
#ifndef WSYNC_SYNC_VERIFIER_H_
#define WSYNC_SYNC_VERIFIER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/types.h"
#include "src/radio/engine.h"
#include "src/radio/offset_tracker.h"

namespace wsync {

struct VerifierConfig {
  /// Crash-recovery mode (Section 8): a restart legitimately returns a
  /// node's output to ⊥ and may change its numbering. When set, Synch
  /// Commit and Correctness are only enforced between resets, and
  /// Agreement violations are still counted (reported, not failed).
  bool allow_resync = false;
};

class SyncVerifier {
 public:
  explicit SyncVerifier(VerifierConfig config = {});

  /// Call once after every Simulation::step(): each call after the first
  /// requires exactly one step() of the same Simulation since the previous
  /// one, so no round goes unseen.
  void observe(const Simulation& sim);

  struct Report {
    int64_t rounds_observed = 0;
    int64_t synch_commit_violations = 0;
    int64_t correctness_violations = 0;
    /// Summed over rounds: the live numbered nodes whose number differs
    /// from that of the lowest-id live numbered node.
    int64_t agreement_violations = 0;
    int max_simultaneous_leaders = 0;
    int64_t resyncs_observed = 0;  ///< output returned to ⊥ (allow_resync)

    /// All hard properties hold (agreement is a whp property but any
    /// violation in a run is still a failure for that run).
    bool ok() const {
      return synch_commit_violations == 0 && correctness_violations == 0 &&
             agreement_violations == 0;
    }
  };

  const Report& report() const { return report_; }

 private:
  /// Checks node `id`'s current output against its recorded offset, then
  /// records the new offset and whether `role` (its role now) is leader.
  void check_node(const Simulation& sim, NodeId id, Role role);

  VerifierConfig config_;
  Report report_;
  // Incremental state, allocated at the first observe().
  const Simulation* sim_ = nullptr;
  RoundId last_round_ = 0;
  std::optional<OffsetTracker> offsets_;
  std::vector<char> leader_;  ///< per node: live with Role::kLeader
  int leaders_ = 0;
};

}  // namespace wsync

#endif  // WSYNC_SYNC_VERIFIER_H_
