// The adversary's window into the execution.
//
// Per Section 2: "The adversary chooses its behavior for round r based only
// on knowledge of the protocol being executed and the completed execution up
// to the end of round r−1." EngineView exposes exactly that: summaries of
// completed rounds, never the current round's choices.
#ifndef WSYNC_RADIO_ENGINE_VIEW_H_
#define WSYNC_RADIO_ENGINE_VIEW_H_

#include <cstdint>
#include <vector>

#include "src/common/require.h"
#include "src/common/types.h"

namespace wsync {

/// Per-frequency outcome of one completed round. Broadcasters/listeners
/// count only nodes that actually reached the channel: a node whose
/// whitespace availability mask excludes the frequency is tallied in
/// `absent` instead (its transmission neither delivers nor collides).
struct FreqRoundStats {
  int broadcasters = 0;
  int listeners = 0;
  int absent = 0;          ///< choices voided by a whitespace mask
  bool disrupted = false;
  bool delivered = false;  ///< exactly one broadcaster and not disrupted

  friend constexpr bool operator==(const FreqRoundStats&,
                                   const FreqRoundStats&) = default;
};

/// Summary of one completed round.
struct RoundStats {
  RoundId round = -1;
  std::vector<FreqRoundStats> per_freq;
  int activations = 0;
  int deliveries = 0;  ///< number of listeners that received a message

  friend bool operator==(const RoundStats&, const RoundStats&) = default;
};

/// Read-only execution history handed to adversaries. Owned and updated by
/// the Simulation; adversaries must not retain references across rounds.
class EngineView {
 public:
  int F() const { return F_; }
  int t() const { return t_; }
  int64_t N() const { return N_; }

  /// The round about to execute (0-based).
  RoundId round() const { return round_; }

  /// Number of nodes active at the end of the previous round.
  int active_count() const { return active_count_; }

  bool has_last_round() const { return last_round_.round >= 0; }
  const RoundStats& last_round() const {
    WSYNC_CHECK(has_last_round(), "no completed round yet");
    return last_round_;
  }

  /// Cumulative per-frequency delivery counts over all completed rounds.
  const std::vector<int64_t>& deliveries_per_freq() const {
    return deliveries_per_freq_;
  }

  /// Cumulative per-frequency listener counts over all completed rounds.
  const std::vector<int64_t>& listens_per_freq() const {
    return listens_per_freq_;
  }

 private:
  friend class Simulation;

  int F_ = 1;
  int t_ = 0;
  int64_t N_ = 1;
  RoundId round_ = 0;
  int active_count_ = 0;
  RoundStats last_round_;
  std::vector<int64_t> deliveries_per_freq_;
  std::vector<int64_t> listens_per_freq_;
};

}  // namespace wsync

#endif  // WSYNC_RADIO_ENGINE_VIEW_H_
