#include "src/trapdoor/trapdoor.h"

#include "src/common/require.h"
#include "src/drift/drift.h"

namespace wsync {

TrapdoorProtocol::TrapdoorProtocol(const ProtocolEnv& env,
                                   const TrapdoorConfig& config)
    : env_(env),
      config_(config),
      schedule_(TrapdoorSchedule::standard(env.F, env.t, env.N, config)) {
  WSYNC_REQUIRE(env.F >= 1 && env.t >= 0 && env.t < env.F,
                "invalid (F, t) for TrapdoorProtocol");
  WSYNC_REQUIRE(env.N >= 1, "invalid N for TrapdoorProtocol");
}

void TrapdoorProtocol::on_activate(Rng& /*rng*/) {
  role_ = Role::kContender;
  age_ = 0;
}

RoundAction TrapdoorProtocol::act(Rng& rng) {
  WSYNC_CHECK(role_ != Role::kInactive, "act() before activation");
  switch (role_) {
    case Role::kContender:
      return act_contender(rng);
    case Role::kLeader:
      return act_leader(rng);
    default:
      return act_listener(rng);
  }
}

RoundAction TrapdoorProtocol::act_contender(Rng& rng) {
  const auto f = static_cast<Frequency>(
      rng.next_below(static_cast<uint64_t>(schedule_.f_prime())));
  const double p = schedule_.broadcast_prob_at(age_);
  if (rng.bernoulli(p)) {
    ContenderMsg msg;
    msg.ts = timestamp();
    return RoundAction::send(f, msg);
  }
  return RoundAction::listen(f);
}

RoundAction TrapdoorProtocol::act_leader(Rng& rng) {
  const auto f = static_cast<Frequency>(
      rng.next_below(static_cast<uint64_t>(schedule_.f_prime())));
  if (rng.bernoulli(config_.leader_broadcast_prob)) {
    LeaderMsg msg;
    msg.leader_uid = env_.uid;
    // The leader's output at the end of the current round will be
    // sync_value_ + 1; a node adopting this number in the same round agrees
    // with the leader from then on.
    msg.round_number = sync_value_ + 1;
    return RoundAction::send(f, msg);
  }
  return RoundAction::listen(f);
}

RoundAction TrapdoorProtocol::act_listener(Rng& rng) {
  // Knocked-out and synchronized nodes keep listening on a random channel
  // in [0, F') (paper Section 6.1).
  const auto f = static_cast<Frequency>(
      rng.next_below(static_cast<uint64_t>(schedule_.f_prime())));
  return RoundAction::listen(f);
}

int64_t TrapdoorProtocol::local(int64_t age) const {
  return local_clock(age, env_.drift_ppm_rate);
}

void TrapdoorProtocol::adopt_leader(const LeaderMsg& msg) {
  // Re-adopting while already numbered is the resync event that cancels
  // accumulated clock drift (always-on nodes hear beacons constantly, so
  // Trapdoor holds sync tightly even at high ppm).
  if (has_sync_) ++resync_corrections_;
  has_sync_ = true;
  sync_value_ = msg.round_number;
  adopted_leader_uid_ = msg.leader_uid;
  role_ = Role::kSynced;
}

bool TrapdoorProtocol::handle_message(const Message& message) {
  if (const auto* leader = std::get_if<LeaderMsg>(&message.payload)) {
    // A numbered node stays on one numbering (Section 3, Correctness): it
    // re-adopts only from the leader it follows, which is the drift resync.
    // A second leader's beacon would make its output jump.
    if (role_ != Role::kLeader &&
        (!has_sync_ || leader->leader_uid == adopted_leader_uid_)) {
      adopt_leader(*leader);
      return true;
    }
    return false;
  }
  if (role_ != Role::kContender) return false;
  if (const auto* contender = std::get_if<ContenderMsg>(&message.payload)) {
    // The trapdoor: a strictly larger (age, uid) timestamp knocks us out.
    if (contender->ts > timestamp()) {
      role_ = Role::kKnockedOut;
    }
  }
  // Samaritan/report/data payloads are not part of the Trapdoor protocol
  // and are ignored (robustness under mixed deployments).
  return false;
}

void TrapdoorProtocol::on_round_end(const std::optional<Message>& received,
                                    Rng& /*rng*/) {
  WSYNC_CHECK(role_ != Role::kInactive, "on_round_end() before activation");
  const bool was_synced_before_round = has_sync_;

  // `adopted` is true when this round's message (re)set sync_value_; the
  // adopted number is already the correct output for this round, so it must
  // not be incremented below.
  bool adopted = false;
  if (received.has_value()) adopted = handle_message(*received);
  ++age_;

  // A surviving contender that completed every epoch becomes leader and
  // starts the numbering at its own age.
  if (role_ == Role::kContender && age_ >= schedule_.total_rounds()) {
    role_ = Role::kLeader;
    has_sync_ = true;
    sync_value_ = local(age_);  // numbering starts on the local clock
  } else if (was_synced_before_round && !adopted) {
    // Correctness property: the output advances at the node's local clock
    // rate — exactly +1 per round when drift-free, occasionally +0 or +2
    // under drift (never backwards, preserving Commitment).
    sync_value_ += local(age_) - local(age_ - 1);
  }
}

SyncOutput TrapdoorProtocol::output() const {
  if (!has_sync_) return SyncOutput{};
  return SyncOutput{sync_value_};
}

double TrapdoorProtocol::broadcast_probability() const {
  switch (role_) {
    case Role::kContender:
      return schedule_.broadcast_prob_at(age_);
    case Role::kLeader:
      return config_.leader_broadcast_prob;
    default:
      return 0.0;
  }
}

int TrapdoorProtocol::current_epoch() const {
  const TrapdoorSchedule::Position pos = schedule_.position(age_);
  return pos.finished ? schedule_.num_epochs() + 1 : pos.epoch + 1;
}

ProtocolFactory TrapdoorProtocol::factory(const TrapdoorConfig& config) {
  return [config](const ProtocolEnv& env) {
    return std::make_unique<TrapdoorProtocol>(env, config);
  };
}

}  // namespace wsync
