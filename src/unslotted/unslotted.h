// Unslotted execution (paper Section 8, "Unsynchronized rounds").
//
// "Throughout this paper, we assumed that nodes agree in advance on
// synchronized round boundaries. In general, however, slotted communication
// models can be transformed into non-slotted models, with a constant
// multiplicative cost; c.f., [1] (ALOHA). We believe that similar
// techniques can be applied to modify our protocols to work in a setting
// without synchronized round boundaries."
//
// The transform is per node, so it is two adapters on the one round body:
// an unslotted run is a Simulation whose rounds are physical TICKS.
//   * UnslottedProtocol wraps any slotted Protocol and stretches each of its
//     logical rounds over T = ticks_per_slot ticks, from a per-node phase
//     in [0, T) drawn at activation. It holds the round's action on every
//     tick (a broadcaster retransmits), keeps the first message heard in
//     any tick, and closes the inner round on the round's last tick.
//   * SlotActivation wakes slot s of any ActivationSchedule at tick s*T.
// With T = 2 this is the classical doubling transform: any two overlapping
// logical rounds share a full tick, so the slotted analysis carries over
// at a 2x cost. T = 1 is the slotted run, bit for bit.
//
// Agreement becomes a bound on the spread of numbered outputs within one
// tick, measured as 0 at T = 1, 1 at T = 2 and 2 at T = 3.
// Interleaved phases cost one; from T = 3 on a listener's logical round
// can also straddle two leader rounds and adopt either number.
//
// Engine rules apply per tick: the adversary's `delivered` flag means a
// sole undisrupted broadcaster, RoundReport::deliveries counts receptions
// per tick, and phase ticks are billed as sleep. With no asleep_for()
// prediction, the sparse engine visits a wrapped node every tick.
#ifndef WSYNC_UNSLOTTED_UNSLOTTED_H_
#define WSYNC_UNSLOTTED_UNSLOTTED_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/protocol/protocol.h"
#include "src/radio/activation.h"

namespace wsync {

class UnslottedProtocol final : public Protocol {
 public:
  UnslottedProtocol(std::unique_ptr<Protocol> inner, int ticks_per_slot);

  void on_activate(Rng& rng) override;
  RoundAction act(Rng& rng) override;
  void on_round_end(const std::optional<Message>& received,
                    Rng& rng) override;
  SyncOutput output() const override { return inner_->output(); }
  Role role() const override { return inner_->role(); }
  double broadcast_probability() const override;
  int64_t resync_corrections() const override {
    return inner_->resync_corrections();
  }

  /// Wraps every instance `inner` builds.
  static ProtocolFactory factory(ProtocolFactory inner, int ticks_per_slot);

  /// The node's tick offset in [0, T), fixed at activation.
  int phase() const { return phase_; }
  const Protocol& inner() const { return *inner_; }

 private:
  std::unique_ptr<Protocol> inner_;
  int ticks_per_slot_;
  int phase_ = 0;
  int tick_ = 0;  ///< ticks of the logical round done; < 0 during the phase
  RoundAction held_;  ///< the logical round's action, replayed every tick
  std::optional<Message> heard_;  ///< first reception of the logical round
};

/// Wakes slot s of `slots` at tick s * ticks_per_slot.
class SlotActivation final : public ActivationSchedule {
 public:
  SlotActivation(std::unique_ptr<ActivationSchedule> slots,
                 int ticks_per_slot);
  std::vector<NodeId> activations(RoundId tick, Rng& rng) override {
    if (tick % ticks_per_slot_ != 0) return {};
    return slots_->activations(tick / ticks_per_slot_, rng);
  }
  RoundId last_activation_round() const override {
    return slots_->last_activation_round() * ticks_per_slot_;
  }

 private:
  std::unique_ptr<ActivationSchedule> slots_;
  int ticks_per_slot_;
};

}  // namespace wsync

#endif  // WSYNC_UNSLOTTED_UNSLOTTED_H_
