#include "src/sync/verifier.h"

#include "src/common/require.h"

namespace wsync {

SyncVerifier::SyncVerifier(VerifierConfig config) : config_(config) {}

void SyncVerifier::observe(const Simulation& sim) {
  if (!offsets_.has_value()) {
    sim_ = &sim;
    offsets_.emplace(sim.config().n);
    leader_.assign(static_cast<size_t>(sim.config().n), 0);
    for (NodeId id = 0; id < sim.config().n; ++id) {
      check_node(sim, id, sim.role(id));
    }
  } else {
    WSYNC_REQUIRE(&sim == sim_,
                  "verifier reused across different simulations");
    WSYNC_REQUIRE(sim.round() == last_round_ + 1,
                  "observe() requires exactly one step() since the previous "
                  "call");
    for (const NodeChange& change : sim.changed_nodes()) {
      check_node(sim, change.id, change.role);
    }
  }
  last_round_ = sim.round();

  ++report_.rounds_observed;

  // Agreement: all non-⊥ outputs within this round must be equal. Equal
  // numbers in one round are equal offsets, so the nodes off the lowest-id
  // numbered node's number are the numbered ones not at its offset.
  const NodeId reference = offsets_->lowest_numbered();
  if (reference != kNoNode) {
    report_.agreement_violations +=
        offsets_->numbered() - offsets_->count_at(offsets_->offset(reference));
  }

  if (leaders_ > report_.max_simultaneous_leaders) {
    report_.max_simultaneous_leaders = leaders_;
  }
}

void SyncVerifier::check_node(const Simulation& sim, NodeId id, Role role) {
  const int64_t previous = offsets_->offset(id);
  int64_t current = OffsetTracker::kNone;
  bool leader = false;
  if (sim.is_active(id) && !sim.is_crashed(id)) {
    const SyncOutput output = sim.output(id);
    if (output.has_number()) {
      current = output.value - sim.round();
      // Correctness: numbers increment by exactly one round-over-round,
      // i.e. a numbered node keeps its offset.
      if (previous != OffsetTracker::kNone && current != previous &&
          !config_.allow_resync) {
        ++report_.correctness_violations;
      }
    } else if (previous != OffsetTracker::kNone) {
      // Synch Commit: non-⊥ may never be followed by ⊥.
      if (config_.allow_resync) {
        ++report_.resyncs_observed;
      } else {
        ++report_.synch_commit_violations;
      }
    }
    leader = role == Role::kLeader;
  }
  offsets_->set(id, current);
  char& was_leader = leader_[static_cast<size_t>(id)];
  leaders_ += (leader ? 1 : 0) - was_leader;
  was_leader = leader ? 1 : 0;
}

}  // namespace wsync
