#include "src/dutycycle/duty_cycle.h"

#include <algorithm>

#include "src/common/require.h"
#include "src/drift/drift.h"

namespace wsync {

DutyCycleProtocol::DutyCycleProtocol(const ProtocolEnv& env,
                                     const DutyCycleConfig& config)
    : env_(env), config_(config) {
  WSYNC_REQUIRE(env.F >= 1 && env.t >= 0 && env.t < env.F,
                "invalid (F, t) for DutyCycleProtocol");
  WSYNC_REQUIRE(env.N >= 1, "invalid N for DutyCycleProtocol");
  WSYNC_REQUIRE(config.contender_broadcast_prob >= 0.0 &&
                    config.contender_broadcast_prob <= 1.0 &&
                    config.leader_broadcast_prob >= 0.0 &&
                    config.leader_broadcast_prob <= 1.0 &&
                    config.relay_broadcast_prob >= 0.0 &&
                    config.relay_broadcast_prob <= 1.0,
                "broadcast probabilities must lie in [0, 1]");
  WSYNC_REQUIRE(config.promote_extra_awake_slots >= 1 &&
                    config.relay_awake_slots >= 0 &&
                    config.revive_awake_slots >= 1,
                "need promote/revive thresholds >= 1 and relay slots >= 0");
  WSYNC_REQUIRE(config.resync_every_awake_slots >= 0,
                "resync cadence must be >= 0 awake slots (0 disables)");
  band_ = band_for(env.F, env.t, config.restrict_to_fprime);
}

int DutyCycleProtocol::band_for(int F, int t, bool restrict_to_fprime) {
  return restrict_to_fprime ? std::max(1, std::min(F, 2 * t)) : F;
}

void DutyCycleProtocol::on_activate(Rng& rng) {
  role_ = Role::kContender;
  age_ = 0;
  schedule_.emplace(env_.N, rng);
  promote_at_slots_ =
      schedule_->ladder_awake_rounds() + config_.promote_extra_awake_slots;
}

const WakeSchedule& DutyCycleProtocol::schedule() const {
  WSYNC_REQUIRE(schedule_.has_value(), "schedule exists only after activation");
  return *schedule_;
}

bool DutyCycleProtocol::awake_next() const {
  if (dormant_) {
    // A dormant adopter with a resync cadence still opens its radio on the
    // cadence slots, to hear the leader's beacon and cancel clock drift.
    return resync_slot(age_);
  }
  return schedule_->awake(age_);
}

bool DutyCycleProtocol::resync_slot(int64_t age) const {
  // Pure function of age: awake_rounds_before() is closed-form over the
  // schedule, so the rule gives the same answer whether the node was driven
  // round-by-round (dense) or replayed here (sparse).
  return config_.resync_every_awake_slots > 0 && schedule_->awake(age) &&
         schedule_->awake_rounds_before(age) %
                 config_.resync_every_awake_slots ==
             0;
}

int64_t DutyCycleProtocol::local(int64_t age) const {
  return local_clock(age, env_.drift_ppm_rate);
}

RoundAction DutyCycleProtocol::act(Rng& rng) {
  WSYNC_CHECK(role_ != Role::kInactive, "act() before activation");
  was_awake_ = awake_next();
  if (!was_awake_) return RoundAction::sleep();

  const auto f = static_cast<Frequency>(
      rng.next_below(static_cast<uint64_t>(band_)));
  // Dormant resync wake: listen only. The relay phase is over; the radio is
  // on solely to receive the leader's beacon and correct the local clock.
  if (dormant_) return RoundAction::listen(f);
  switch (role_) {
    case Role::kContender: {
      if (rng.bernoulli(config_.contender_broadcast_prob)) {
        ContenderMsg msg;
        msg.ts = timestamp();
        return RoundAction::send(f, msg);
      }
      return RoundAction::listen(f);
    }
    case Role::kLeader: {
      // On the leader's own resync slots the beacon goes out for certain —
      // this is the transmission the dormant adopters schedule their wakes
      // around. (Short-circuit: no bernoulli draw on those slots.)
      if (resync_slot(age_) ||
          rng.bernoulli(config_.leader_broadcast_prob)) {
        LeaderMsg msg;
        msg.leader_uid = env_.uid;
        msg.round_number = sync_value_ + 1;
        return RoundAction::send(f, msg);
      }
      return RoundAction::listen(f);
    }
    case Role::kSynced: {
      if (rng.bernoulli(config_.relay_broadcast_prob)) {
        LeaderMsg msg;
        msg.leader_uid = adopted_leader_uid_;
        msg.round_number = sync_value_ + 1;
        return RoundAction::send(f, msg);
      }
      return RoundAction::listen(f);
    }
    default:  // knocked out: duty-cycled listening
      return RoundAction::listen(f);
  }
}

void DutyCycleProtocol::adopt(const LeaderMsg& msg) {
  // Re-adopting while already numbered is the resync event: the received
  // beacon overwrites whatever skew the local clock accumulated.
  if (has_sync_) ++resync_corrections_;
  has_sync_ = true;
  sync_value_ = msg.round_number;
  adopted_leader_uid_ = msg.leader_uid;
  role_ = Role::kSynced;
}

void DutyCycleProtocol::on_round_end(const std::optional<Message>& received,
                                     Rng& /*rng*/) {
  WSYNC_CHECK(role_ != Role::kInactive, "on_round_end() before activation");
  const bool was_synced = has_sync_;
  bool adopted = false;

  if (received.has_value()) {
    if (const auto* leader = std::get_if<LeaderMsg>(&received->payload)) {
      if (role_ == Role::kLeader) {
        // Leader merge: the larger uid keeps the crown; the smaller one
        // adopts and relays the winner's numbering.
        if (leader->leader_uid > env_.uid) {
          adopt(*leader);
          relay_slots_ = 0;
          adopted = true;
        }
      } else {
        const bool fresh = role_ != Role::kSynced;
        adopt(*leader);
        if (fresh) relay_slots_ = 0;
        adopted = true;
      }
      quiet_slots_ = 0;
    } else if (role_ == Role::kContender) {
      if (const auto* c = std::get_if<ContenderMsg>(&received->payload)) {
        if (c->ts > timestamp()) {
          role_ = Role::kKnockedOut;
          quiet_slots_ = 0;
        }
      }
    } else if (role_ == Role::kKnockedOut) {
      // Any reception proves the competition is still live.
      quiet_slots_ = 0;
    }
  }

  ++age_;
  if (was_awake_) {
    ++awake_slots_;
    if (role_ == Role::kKnockedOut && !received.has_value()) ++quiet_slots_;
    if (role_ == Role::kSynced) ++relay_slots_;
  }

  if (role_ == Role::kContender && awake_slots_ >= promote_at_slots_) {
    role_ = Role::kLeader;
    has_sync_ = true;
    sync_value_ = local(age_);  // numbering starts on the local clock
  } else if (role_ == Role::kKnockedOut &&
             quiet_slots_ >= config_.revive_awake_slots) {
    // Silence revival: the node that knocked us out is gone (crashed or
    // itself knocked out by a now-dead winner). Re-enter the competition.
    role_ = Role::kContender;
    quiet_slots_ = 0;
    promote_at_slots_ = awake_slots_ + config_.promote_extra_awake_slots;
  } else if (role_ == Role::kSynced && !dormant_ &&
             relay_slots_ >= config_.relay_awake_slots) {
    dormant_ = true;  // numbering spread done: power down for good
  }

  // The output advances at the node's local clock rate: +1 per round when
  // drift-free, occasionally +0 or +2 under drift (never backwards, so the
  // Commitment property is preserved even while skew accumulates).
  if (was_synced && !adopted) sync_value_ += local(age_) - local(age_ - 1);
}

SyncOutput DutyCycleProtocol::output() const {
  if (!has_sync_) return SyncOutput{};
  return SyncOutput{sync_value_};
}

double DutyCycleProtocol::broadcast_probability() const {
  if (role_ == Role::kInactive || !awake_next()) return 0.0;
  if (dormant_) return 0.0;  // resync wake is listen-only
  switch (role_) {
    case Role::kContender: return config_.contender_broadcast_prob;
    case Role::kLeader:
      return resync_slot(age_) ? 1.0 : config_.leader_broadcast_prob;
    case Role::kSynced: return config_.relay_broadcast_prob;
    default: return 0.0;
  }
}

std::optional<int64_t> DutyCycleProtocol::asleep_for() const {
  if (role_ == Role::kInactive) return 0;  // probed at activation
  int64_t horizon = kAsleepForever;
  if (!dormant_) {
    horizon = schedule_->next_awake(age_) - age_;
  } else if (config_.resync_every_awake_slots > 0) {
    // Next resync slot: hop awake slot to awake slot until the cadence rule
    // fires. At most R hops, since awake_rounds_before() advances by one
    // per awake slot.
    int64_t a = schedule_->next_awake(age_);
    while (!resync_slot(a)) a = schedule_->next_awake(a + 1);
    horizon = a - age_;
  }
  if (has_sync_ && env_.drift_ppm_rate != 0) {
    // Sparse contract: an unvisited numbered output advances by exactly one
    // per round. Wake for the round served at the age before the next skew
    // change, where the drifted clock steps +0 or +2 instead.
    horizon = std::min(
        horizon, next_skew_change(age_, env_.drift_ppm_rate) - 1 - age_);
  }
  return horizon;
}

void DutyCycleProtocol::skip_rounds(int64_t rounds) {
  WSYNC_CHECK(role_ != Role::kInactive, "skip_rounds() before activation");
  // An asleep round is act() -> sleep (no rng draw) plus on_round_end(nullopt)
  // doing ++age_ and, once synced, advancing sync_value_ by the local-clock
  // delta. No slot counter moves and no role transition can fire (their
  // thresholds are only reachable on the awake round that increments the
  // corresponding counter), so a block of asleep rounds collapses to two
  // additions — the per-round drift deltas telescope to one closed form
  // (which is +1 per round: asleep_for() stops short of any skew change).
  if (has_sync_) sync_value_ += local(age_ + rounds) - local(age_);
  age_ += rounds;
  if (rounds > 0) was_awake_ = false;
}

ProtocolFactory DutyCycleProtocol::factory(const DutyCycleConfig& config) {
  return [config](const ProtocolEnv& env) {
    return std::make_unique<DutyCycleProtocol>(env, config);
  };
}

}  // namespace wsync
