// The Trapdoor Protocol (paper Section 6).
//
// A contender proceeds through the lgN epochs of the Figure 1 schedule,
// broadcasting a "contender" message tagged with its timestamp (age, uid)
// with the epoch's probability on a uniformly random frequency in [0, F').
// Receiving a contender message with a lexicographically larger timestamp
// knocks the receiver out (the trapdoor opens); knocked-out nodes keep
// listening on random frequencies in [0, F'). A contender that survives all
// epochs becomes leader, picks a round numbering (its own age), and
// thereafter broadcasts the numbering with probability 1/2 each round on a
// random frequency in [0, F'). Any node hearing a leader adopts the
// numbering immediately and starts outputting round numbers; once
// numbered, it re-adopts only from the leader it follows.
//
// Theorem 10: solves wireless synchronization within
// O(F/(F-t) log^2 N + F t/(F-t) log N) rounds, with high probability.
#ifndef WSYNC_TRAPDOOR_TRAPDOOR_H_
#define WSYNC_TRAPDOOR_TRAPDOOR_H_

#include <memory>
#include <optional>

#include "src/protocol/protocol.h"
#include "src/trapdoor/config.h"
#include "src/trapdoor/schedule.h"

namespace wsync {

class TrapdoorProtocol final : public Protocol {
 public:
  TrapdoorProtocol(const ProtocolEnv& env, const TrapdoorConfig& config = {});

  void on_activate(Rng& rng) override;
  RoundAction act(Rng& rng) override;
  void on_round_end(const std::optional<Message>& received,
                    Rng& rng) override;
  SyncOutput output() const override;
  Role role() const override { return role_; }
  double broadcast_probability() const override;
  int64_t resync_corrections() const override { return resync_corrections_; }

  /// Factory for Simulation.
  static ProtocolFactory factory(const TrapdoorConfig& config = {});

  // Introspection for tests and experiments.
  const TrapdoorSchedule& schedule() const { return schedule_; }
  Timestamp timestamp() const { return Timestamp{age_, env_.uid}; }
  int64_t age() const { return age_; }
  int current_epoch() const;  ///< 1-based; num_epochs()+1 once finished
  uint64_t adopted_leader_uid() const { return adopted_leader_uid_; }

 private:
  RoundAction act_contender(Rng& rng);
  RoundAction act_leader(Rng& rng);
  RoundAction act_listener(Rng& rng);
  /// Returns true iff the message caused a (re-)adoption of a numbering.
  bool handle_message(const Message& message);
  void adopt_leader(const LeaderMsg& msg);
  /// This node's local round counter at true age `age` (drift applied).
  int64_t local(int64_t age) const;

  ProtocolEnv env_;
  TrapdoorConfig config_;
  TrapdoorSchedule schedule_;

  Role role_ = Role::kInactive;
  int64_t age_ = 0;  ///< completed rounds since activation
  bool has_sync_ = false;
  int64_t sync_value_ = 0;  ///< current output when has_sync_
  uint64_t adopted_leader_uid_ = 0;
  int64_t resync_corrections_ = 0;  ///< re-adoptions while already numbered
};

}  // namespace wsync

#endif  // WSYNC_TRAPDOOR_TRAPDOOR_H_
