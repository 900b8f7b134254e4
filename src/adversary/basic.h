// Oblivious adversaries: fixed or randomized disruption sequences that do
// not depend on the execution.
#ifndef WSYNC_ADVERSARY_BASIC_H_
#define WSYNC_ADVERSARY_BASIC_H_

#include <vector>

#include "src/adversary/adversary.h"

namespace wsync {

/// Disrupts nothing. The t = 0 / clean-spectrum case.
class NoneAdversary final : public Adversary {
 public:
  std::vector<Frequency> disrupt(const EngineView& view, Rng& rng) override;
  bool is_oblivious() const override { return true; }
};

/// Disrupts the same fixed set every round. With the set {0, ..., t-1} this
/// is exactly the weak adversary used in the Theorem 1 lower bound proof.
class FixedSubsetAdversary final : public Adversary {
 public:
  /// Disrupts the given frequencies every round.
  explicit FixedSubsetAdversary(std::vector<Frequency> frequencies);
  /// Convenience: disrupts the first `count` frequencies {0, ..., count-1}.
  explicit FixedSubsetAdversary(int first_count);

  std::vector<Frequency> disrupt(const EngineView& view, Rng& rng) override;
  bool is_oblivious() const override { return true; }

 private:
  std::vector<Frequency> frequencies_;
};

/// Disrupts `count` frequencies chosen uniformly at random each round,
/// independently across rounds (oblivious).
class RandomSubsetAdversary final : public Adversary {
 public:
  /// `count` = number of frequencies jammed per round; must be <= t.
  explicit RandomSubsetAdversary(int count);

  std::vector<Frequency> disrupt(const EngineView& view, Rng& rng) override;
  bool is_oblivious() const override { return true; }

 private:
  int count_;
};

/// A contiguous window of `width` frequencies sweeping across the band,
/// advancing by `step` every `dwell` rounds — a frequency-sweeping jammer
/// (chirp interference).
class SweepAdversary final : public Adversary {
 public:
  SweepAdversary(int width, int step = 1, int dwell = 1);

  std::vector<Frequency> disrupt(const EngineView& view, Rng& rng) override;
  bool is_oblivious() const override { return true; }

 private:
  int width_;
  int step_;
  int dwell_;
};

/// Disrupts a fixed set with a duty cycle: `on_rounds` rounds of jamming out
/// of every `period` rounds — microwave-oven-style periodic interference.
class DutyCycleAdversary final : public Adversary {
 public:
  DutyCycleAdversary(std::vector<Frequency> frequencies, RoundId period,
                     RoundId on_rounds);

  std::vector<Frequency> disrupt(const EngineView& view, Rng& rng) override;
  bool is_oblivious() const override { return true; }

 private:
  std::vector<Frequency> frequencies_;
  RoundId period_;
  RoundId on_rounds_;
};

}  // namespace wsync

#endif  // WSYNC_ADVERSARY_BASIC_H_
