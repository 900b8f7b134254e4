#include "src/unslotted/unslotted.h"

#include <utility>

#include "src/common/require.h"

namespace wsync {

UnslottedProtocol::UnslottedProtocol(std::unique_ptr<Protocol> inner,
                                     int ticks_per_slot)
    : inner_(std::move(inner)), ticks_per_slot_(ticks_per_slot) {
  WSYNC_REQUIRE(inner_ != nullptr, "inner protocol is required");
  WSYNC_REQUIRE(ticks_per_slot_ >= 1, "ticks_per_slot must be at least 1");
}

void UnslottedProtocol::on_activate(Rng& rng) {
  // At T = 1 nothing is drawn, so the node's stream stays the slotted one.
  if (ticks_per_slot_ > 1) {
    phase_ = static_cast<int>(
        rng.next_below(static_cast<uint64_t>(ticks_per_slot_)));
  }
  tick_ = -phase_;
  inner_->on_activate(rng);
}

RoundAction UnslottedProtocol::act(Rng& rng) {
  if (tick_ < 0) return RoundAction::sleep();
  if (tick_ == 0) held_ = inner_->act(rng);
  return held_;
}

void UnslottedProtocol::on_round_end(const std::optional<Message>& received,
                                     Rng& rng) {
  // A node waiting out its phase sleeps, so it receives nothing.
  if (!heard_.has_value()) heard_ = received;
  if (++tick_ < ticks_per_slot_) return;
  tick_ = 0;
  inner_->on_round_end(heard_, rng);
  heard_.reset();
}

double UnslottedProtocol::broadcast_probability() const {
  if (tick_ < 0) return 0.0;
  if (tick_ == 0) return inner_->broadcast_probability();
  return held_.broadcast ? 1.0 : 0.0;
}

ProtocolFactory UnslottedProtocol::factory(ProtocolFactory inner,
                                           int ticks_per_slot) {
  WSYNC_REQUIRE(inner != nullptr, "inner protocol factory is required");
  WSYNC_REQUIRE(ticks_per_slot >= 1, "ticks_per_slot must be at least 1");
  return [inner = std::move(inner),
          ticks_per_slot](const ProtocolEnv& env) -> std::unique_ptr<Protocol> {
    return std::make_unique<UnslottedProtocol>(inner(env), ticks_per_slot);
  };
}

SlotActivation::SlotActivation(std::unique_ptr<ActivationSchedule> slots,
                               int ticks_per_slot)
    : slots_(std::move(slots)), ticks_per_slot_(ticks_per_slot) {
  WSYNC_REQUIRE(slots_ != nullptr, "slot activation schedule is required");
  WSYNC_REQUIRE(ticks_per_slot_ >= 1, "ticks_per_slot must be at least 1");
}

}  // namespace wsync
