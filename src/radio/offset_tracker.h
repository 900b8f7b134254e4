// Offsets of a simulation's live numbered nodes, kept current round by round
// from the engine's changed-node list.
//
// A numbered node's offset is output − round. Under the sparse contract
// (src/protocol/protocol.h) a node the engine does not visit advances its
// number by exactly one per round, so its offset holds still; only the ids in
// Simulation::changed_nodes() can move one. The per-round readers of the
// outputs — the Section 3 verifier (src/sync/verifier.h) and the maintenance
// spread (Simulation::run_maintenance) — keep one of these and update it from
// that list instead of reading all n nodes every round.
#ifndef WSYNC_RADIO_OFFSET_TRACKER_H_
#define WSYNC_RADIO_OFFSET_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace wsync {

class OffsetTracker {
 public:
  /// Marks a node that is inactive, crashed or outputs ⊥.
  static constexpr int64_t kNone = std::numeric_limits<int64_t>::min();

  /// All `n` nodes start at kNone.
  explicit OffsetTracker(int n);

  /// Records `offset` (kNone = not counted) for node `id`.
  void set(NodeId id, int64_t offset);

  int64_t offset(NodeId id) const {
    return offsets_[static_cast<size_t>(id)];
  }
  /// Nodes with an offset.
  int64_t numbered() const { return numbered_; }
  /// Nodes whose offset is exactly `offset`.
  int64_t count_at(int64_t offset) const;
  /// Largest minus smallest offset; 0 when no node is numbered.
  int64_t spread() const {
    return counts_.empty() ? 0 : counts_.back().first - counts_.front().first;
  }
  /// The lowest numbered id, or kNoNode.
  NodeId lowest_numbered();

 private:
  std::vector<int64_t> offsets_;
  /// (offset, nodes) for every offset held, ascending: an ordered multiset
  /// with one entry per distinct offset, not one per node.
  std::vector<std::pair<int64_t, int64_t>> counts_;
  int64_t numbered_ = 0;
  /// No numbered node has a smaller id; lowest_numbered() walks it forward.
  NodeId lowest_ = 0;
};

}  // namespace wsync

#endif  // WSYNC_RADIO_OFFSET_TRACKER_H_
