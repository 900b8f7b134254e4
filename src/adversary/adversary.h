// The interference adversary interface.
//
// Section 2: an adversary disrupts up to t < F frequencies per round,
// preventing any reception on them. It incarnates every unpredictable
// interference source on a crowded unlicensed band — cross traffic,
// appliances, or an actual jammer. Implementations live in src/adversary/
// (basic, bursty, adaptive); the interface lives here so the radio engine
// can hold one without depending on any concrete strategy.
#ifndef WSYNC_ADVERSARY_ADVERSARY_H_
#define WSYNC_ADVERSARY_ADVERSARY_H_

#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/radio/engine_view.h"

namespace wsync {

class Adversary {
 public:
  virtual ~Adversary() = default;

  Adversary(const Adversary&) = delete;
  Adversary& operator=(const Adversary&) = delete;

  /// Chooses the set of frequencies to disrupt for the round about to
  /// execute. Must return at most view.t() distinct frequencies in
  /// [0, view.F()). The engine validates both constraints.
  virtual std::vector<Frequency> disrupt(const EngineView& view,
                                         Rng& rng) = 0;

  /// True if the adversary's choices are a fixed (possibly random) sequence
  /// independent of the execution — the paper's "oblivious" adversary class
  /// assumed by the Good Samaritan analysis (Section 7).
  virtual bool is_oblivious() const = 0;

  // --- whitespace channel availability (Azar et al.) ----------------------
  // A second, orthogonal resource: instead of jamming (which consumes the
  // budget t and causes collisions), an adversary may declare a channel
  // simply ABSENT for a particular node — the whitespace model, where each
  // party sees only a subset of the band. The engine treats an absent
  // channel as if the node's radio faced dead air: its broadcast reaches
  // nobody (and does not collide), and it hears nothing while listening.

  /// True when this adversary restricts per-node channel availability at
  /// all. The engine skips the per-(node, frequency) queries on the hot
  /// path when this is false (the default).
  virtual bool restricts_availability() const { return false; }

  /// Whitespace availability: true iff frequency `f` exists for node `id`
  /// this round. Only consulted when restricts_availability() is true, and
  /// only after disrupt() has been called for the round (implementations
  /// may materialize masks lazily there, where they have the rng).
  virtual bool channel_available(NodeId /*id*/, Frequency /*f*/) const {
    return true;
  }

 protected:
  Adversary() = default;
};

}  // namespace wsync

#endif  // WSYNC_ADVERSARY_ADVERSARY_H_
