#include "src/radio/energy.h"

#include <algorithm>

#include "src/common/require.h"

namespace wsync {

EnergyLedger::EnergyLedger(int n) {
  WSYNC_REQUIRE(n >= 0, "node count must be non-negative");
  nodes_.resize(static_cast<size_t>(n));
  settled_.assign(static_cast<size_t>(n), 0);
  active_from_.assign(static_cast<size_t>(n), -1);
}

void EnergyLedger::settle(NodeId id) const {
  const auto i = static_cast<size_t>(id);
  const RoundId gap = rounds_ - settled_[i];
  if (gap <= 0) return;
  nodes_[i].sleep_rounds += gap;
  if (active_from_[i] >= 0) {
    const RoundId from = std::max(settled_[i], active_from_[i]);
    if (rounds_ > from) nodes_[i].active_rounds += rounds_ - from;
  }
  settled_[i] = rounds_;
}

void EnergyLedger::activate(NodeId id) {
  WSYNC_REQUIRE(id >= 0 && id < n(), "node id out of range");
  const auto i = static_cast<size_t>(id);
  WSYNC_CHECK(active_from_[i] < 0, "node activated twice");
  // Settle the pre-activation sleeps first so they stay inactive rounds.
  settle(id);
  active_from_[i] = rounds_;
}

void EnergyLedger::record(NodeId id, RadioState state) {
  WSYNC_REQUIRE(id >= 0 && id < n(), "node id out of range");
  const auto i = static_cast<size_t>(id);
  settle(id);
  WSYNC_CHECK(settled_[i] == rounds_, "node recorded twice in one round");
  if (active_from_[i] >= 0) ++nodes_[i].active_rounds;
  switch (state) {
    case RadioState::kSleep: ++nodes_[i].sleep_rounds; break;
    case RadioState::kListen: ++nodes_[i].listen_rounds; break;
    case RadioState::kBroadcast: ++nodes_[i].broadcast_rounds; break;
  }
  settled_[i] = rounds_ + 1;
  ++records_this_round_;
}

void EnergyLedger::end_round() {
  WSYNC_CHECK(records_this_round_ == n(),
              "every node needs exactly one radio state per round");
  records_this_round_ = 0;
  ++rounds_;
}

void EnergyLedger::end_round_lazy() {
  records_this_round_ = 0;
  ++rounds_;
}

const NodeEnergy& EnergyLedger::node(NodeId id) const {
  WSYNC_REQUIRE(id >= 0 && id < n(), "node id out of range");
  settle(id);
  return nodes_[static_cast<size_t>(id)];
}

int64_t EnergyLedger::max_awake_rounds() const {
  int64_t worst = 0;
  for (NodeId id = 0; id < n(); ++id) {
    worst = std::max(worst, node(id).awake_rounds());
  }
  return worst;
}

double EnergyLedger::mean_awake_rounds() const {
  if (nodes_.empty()) return 0.0;
  int64_t total = 0;
  for (NodeId id = 0; id < n(); ++id) total += node(id).awake_rounds();
  return static_cast<double>(total) / static_cast<double>(nodes_.size());
}

RunEnergy EnergyLedger::totals() const {
  RunEnergy totals;
  totals.rounds = rounds_;
  totals.max_awake_rounds = max_awake_rounds();
  totals.mean_awake_rounds = mean_awake_rounds();
  for (NodeId id = 0; id < n(); ++id) {
    const NodeEnergy& entry = node(id);
    totals.broadcast_rounds += entry.broadcast_rounds;
    totals.listen_rounds += entry.listen_rounds;
    totals.sleep_rounds += entry.sleep_rounds;
    totals.active_node_rounds += entry.active_rounds;
  }
  return totals;
}

}  // namespace wsync
