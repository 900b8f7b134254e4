// BKO-style duty-cycled synchronizer: the first protocol in this repository
// that actually uses RoundAction::sleep().
//
// Bradonjić–Kohler–Ostrovsky ("Near-Optimal Radio Use For Wireless Network
// Synchronization") show that synchronization needs only polylogarithmic
// awake-rounds per node. This protocol reproduces that regime on the
// paper's disrupted multi-frequency model: each node follows its own
// WakeSchedule (geometric epoch ladder, then a grid-quorum steady state
// whose row/column structure guarantees common awake rounds against any
// activation offset) and powers its radio down in every other round.
//
// Within a wake round the node splits broadcast/listen by a coin and runs
// the familiar timestamp competition over the F' = min(F, 2t) band:
//   * contenders broadcast ContenderMsg{age, uid} or listen; a strictly
//     larger timestamp knocks a contender out;
//   * a contender that survives the whole ladder plus a configurable
//     number of steady awake slots promotes itself to leader and starts
//     the numbering at its own age (the existing Message round-offset
//     exchange: LeaderMsg carries the number for the round of
//     transmission, adopters increment thereafter);
//   * leaders broadcast LeaderMsg on (most) wake slots, and still listen
//     occasionally so two leaders eventually hear each other and merge
//     (larger leader uid wins);
//   * adopters relay the numbering for a bounded number of awake slots —
//     the epidemic phase that spreads the count — then power down HARD
//     (sleep every round; the local output keeps incrementing, so
//     Correctness holds while the radio is off);
//   * a knocked-out node that hears nothing for revive_awake_slots wake
//     slots returns to contention, so a crashed winner cannot strand the
//     losers (cf. the fault-tolerant Trapdoor's silence restart);
//   * with a resync cadence configured (resync_every_awake_slots > 0) the
//     hard power-down is softened: dormant adopters re-open the radio on
//     every R-th awake slot of their schedule to listen for the leader's
//     deterministic beacon, re-adopting the numbering and cancelling any
//     clock drift accumulated since the last contact (the hold-the-sync
//     maintenance regime; see Simulation::run_maintenance).
//
// Energy shape: ladder (s·(lg s + 1) awake) + duty fraction ≈ 2/s of the
// rounds to liveness, against the always-on protocols' awake ≡ rounds.
// Agreement stays a whp property (two leaders can coexist briefly before
// merging), which the duty-cycle scenarios account for exactly like the
// baseline ones.
#ifndef WSYNC_DUTYCYCLE_DUTY_CYCLE_H_
#define WSYNC_DUTYCYCLE_DUTY_CYCLE_H_

#include <optional>

#include "src/dutycycle/wake_schedule.h"
#include "src/protocol/protocol.h"

namespace wsync {

struct DutyCycleConfig {
  /// Broadcast probability on a contender's wake slot.
  double contender_broadcast_prob = 0.5;
  /// Broadcast probability on a leader's wake slot (< 1 so leaders keep
  /// listening enough to merge).
  double leader_broadcast_prob = 0.9;
  /// Steady awake slots (beyond the ladder) a contender must survive
  /// before self-promoting.
  int promote_extra_awake_slots = 32;
  /// Awake slots an adopter relays LeaderMsg before hard-sleeping.
  int relay_awake_slots = 16;
  /// Broadcast probability on a relaying adopter's wake slot.
  double relay_broadcast_prob = 0.5;
  /// Knocked-out nodes return to contention after this many awake slots
  /// without hearing anything (crash recovery).
  int revive_awake_slots = 96;
  /// Hop over F' = min(F, 2t) like the Trapdoor protocol; false hops the
  /// whole band (whitespace deployments, where the narrow band can miss a
  /// node's availability mask).
  bool restrict_to_fprime = true;
  /// Resync-beacon cadence R, in awake slots (0 disables). With R > 0 every
  /// R-th awake slot of a node's schedule is a *resync slot*: a leader
  /// broadcasts its LeaderMsg beacon deterministically there, and a dormant
  /// adopter re-opens its radio for exactly those slots (listen only) so it
  /// can re-adopt the numbering and cancel accumulated clock drift. The rule
  /// is a pure function of the node's age — awake_rounds_before(age) % R —
  /// so it survives the sparse replay bit-exactly.
  int resync_every_awake_slots = 0;
};

class DutyCycleProtocol final : public Protocol {
 public:
  DutyCycleProtocol(const ProtocolEnv& env, const DutyCycleConfig& config = {});

  void on_activate(Rng& rng) override;
  RoundAction act(Rng& rng) override;
  void on_round_end(const std::optional<Message>& received,
                    Rng& rng) override;
  SyncOutput output() const override;
  Role role() const override { return role_; }
  double broadcast_probability() const override;
  int64_t resync_corrections() const override { return resync_corrections_; }
  std::optional<int64_t> asleep_for() const override;
  void skip_rounds(int64_t rounds) override;

  static ProtocolFactory factory(const DutyCycleConfig& config = {});

  Timestamp timestamp() const { return Timestamp{age_, env_.uid}; }
  /// The node's wake schedule (valid after on_activate()).
  const WakeSchedule& schedule() const;
  /// Band actually hopped: F' or the full band per config.
  int band() const { return band_; }
  /// The band rule, shared with the round-budget sizing in
  /// experiment/sweep.cc so the two can never drift: F' = min(F, 2t)
  /// (at least 1) when restricted, the full band otherwise.
  static int band_for(int F, int t, bool restrict_to_fprime);
  /// True once the node has permanently powered down (relay exhausted).
  bool dormant() const { return dormant_; }

 private:
  bool awake_next() const;
  /// True iff `age` is an awake slot on the resync cadence (see
  /// DutyCycleConfig::resync_every_awake_slots). Always false when R == 0.
  bool resync_slot(int64_t age) const;
  /// This node's local round counter at true age `age` (drift applied).
  int64_t local(int64_t age) const;
  void adopt(const LeaderMsg& msg);

  ProtocolEnv env_;
  DutyCycleConfig config_;
  int band_ = 1;
  std::optional<WakeSchedule> schedule_;

  Role role_ = Role::kInactive;
  int64_t age_ = 0;
  int64_t awake_slots_ = 0;       // wake slots spent since activation
  int64_t promote_at_slots_ = 0;  // promotion threshold on awake_slots_
  int64_t quiet_slots_ = 0;       // knocked-out: awake slots since contact
  int64_t relay_slots_ = 0;       // synced: awake slots spent relaying
  bool dormant_ = false;          // synced + relay exhausted: radio off
  bool was_awake_ = false;        // this round's act() was a wake slot

  bool has_sync_ = false;
  int64_t sync_value_ = 0;
  uint64_t adopted_leader_uid_ = 0;
  int64_t resync_corrections_ = 0;  // re-adoptions while already numbered
};

}  // namespace wsync

#endif  // WSYNC_DUTYCYCLE_DUTY_CYCLE_H_
