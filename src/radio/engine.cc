#include "src/radio/engine.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "src/common/require.h"
#include "src/radio/offset_tracker.h"

namespace wsync {

namespace {

// Stream-derivation tags; distinct constants so node/adversary/activation
// randomness never collides.
constexpr uint64_t kAdversaryStream = 0xADF0'0001;
constexpr uint64_t kActivationStream = 0xADF0'0002;
constexpr uint64_t kUidStream = 0xADF0'0003;
constexpr uint64_t kDriftStream = 0xADF0'0004;
constexpr uint64_t kNodeStreamBase = 0x4E0D'0000;

}  // namespace

Simulation::Simulation(const SimConfig& config, ProtocolFactory factory,
                       std::unique_ptr<Adversary> adversary,
                       std::unique_ptr<ActivationSchedule> activation,
                       TraceSink* trace)
    : config_(config),
      factory_(std::move(factory)),
      adversary_(std::move(adversary)),
      activation_(std::move(activation)),
      trace_(trace) {
  WSYNC_REQUIRE(config_.F >= 1, "need at least one frequency");
  WSYNC_REQUIRE(config_.t >= 0 && config_.t < config_.F,
                "adversary budget must satisfy 0 <= t < F");
  WSYNC_REQUIRE(config_.n >= 1, "need at least one node");
  WSYNC_REQUIRE(config_.N >= config_.n, "N must upper-bound n");
  WSYNC_REQUIRE(factory_ != nullptr, "protocol factory is required");
  WSYNC_REQUIRE(adversary_ != nullptr, "adversary is required (use None)");
  WSYNC_REQUIRE(activation_ != nullptr, "activation schedule is required");

  sparse_ = config_.engine != EngineMode::kDense;

  const Rng master(config_.seed);
  adversary_rng_ = master.fork(kAdversaryStream);
  activation_rng_ = master.fork(kActivationStream);
  uid_rng_ = master.fork(kUidStream);
  if (config_.drift.ppm > 0) {
    // Rates are fixed at construction (not at activation) so they are a
    // function of (seed, node id) alone — the same node drifts identically
    // under every activation schedule, engine and worker count.
    Rng drift_rng = master.fork(kDriftStream);
    drift_rates_ = draw_drift_rates(config_.drift, config_.n, drift_rng);
  } else {
    // Validates ppm == 0 without forking; keeps the empty-vector contract.
    WSYNC_REQUIRE(config_.drift.ppm == 0,
                  "drift ppm must lie in [0, 1'000'000)");
  }

  const auto count = static_cast<size_t>(config_.n);
  protocols_.resize(count);
  node_rng_.reserve(count);
  for (int i = 0; i < config_.n; ++i) {
    node_rng_.push_back(master.fork(kNodeStreamBase + static_cast<uint64_t>(i)));
  }
  node_active_.assign(count, 0);
  node_crashed_.assign(count, 0);
  node_activation_round_.assign(count, -1);
  node_sync_round_.assign(count, -1);
  node_last_output_.assign(count, SyncOutput{});
  node_freq_.assign(count, kNoFrequency);
  node_broadcast_.assign(count, 0);
  node_reached_.assign(count, 0);
  node_sparse_.assign(count, 0);
  node_settled_.assign(count, 0);

  view_.F_ = config_.F;
  view_.t_ = config_.t;
  view_.N_ = config_.N;
  view_.deliveries_per_freq_.assign(static_cast<size_t>(config_.F), 0);
  view_.listens_per_freq_.assign(static_cast<size_t>(config_.F), 0);

  energy_ = EnergyLedger(config_.n);

  broadcaster_count_.assign(static_cast<size_t>(config_.F), 0);
  sole_broadcaster_.assign(static_cast<size_t>(config_.F), kNoNode);
  disrupted_flag_.assign(static_cast<size_t>(config_.F), 0);
  pending_payload_.resize(static_cast<size_t>(config_.F));
}

void Simulation::activate_pending(RoundId r) {
  const std::vector<NodeId> wake = activation_->activations(r, activation_rng_);
  unvisited_activations_.clear();
  for (NodeId id : wake) {
    WSYNC_REQUIRE(id >= 0 && id < config_.n, "activation id out of range");
    const auto i = static_cast<size_t>(id);
    WSYNC_REQUIRE(node_active_[i] == 0 && node_activation_round_[i] < 0,
                  "node activated twice");
    ProtocolEnv env;
    env.F = config_.F;
    env.t = config_.t;
    env.N = config_.N;
    env.uid = uid_rng_.next_u64();
    env.node_id = id;
    env.drift_ppm_rate = drift_rates_.empty() ? 0 : drift_rates_[i];
    protocols_[i] = factory_(env);
    WSYNC_CHECK(protocols_[i] != nullptr, "factory returned null protocol");
    node_active_[i] = 1;
    node_activation_round_[i] = r;
    energy_.activate(id);
    protocols_[i]->on_activate(node_rng_[i]);
    ++active_count_;
    ++activated_total_;
    node_settled_[i] = r;
    const std::optional<int64_t> horizon =
        sparse_ ? protocols_[i]->asleep_for() : std::nullopt;
    if (!horizon.has_value()) {
      // No wake prediction (dense asks for none): keep the node on the
      // always-visited list (sorted by id; activations arrive in any order).
      always_awake_.insert(
          std::lower_bound(always_awake_.begin(), always_awake_.end(), id),
          id);
    } else {
      node_sparse_[i] = 1;
      if (*horizon != kAsleepForever) {
        wake_queue_.schedule(r, r + *horizon, id);
      }
      if (*horizon > 0) unvisited_activations_.push_back(id);
    }
    if (trace_ != nullptr) trace_->on_activation(r, id);
  }
  view_.last_round_.activations = static_cast<int>(wake.size());
}

std::vector<Frequency> Simulation::validated_disruption() {
  std::vector<Frequency> disrupted = adversary_->disrupt(view_, adversary_rng_);
  std::sort(disrupted.begin(), disrupted.end());
  disrupted.erase(std::unique(disrupted.begin(), disrupted.end()),
                  disrupted.end());
  WSYNC_REQUIRE(static_cast<int>(disrupted.size()) <= config_.t,
                "adversary exceeded its disruption budget t");
  for (Frequency f : disrupted) {
    WSYNC_REQUIRE(f >= 0 && f < config_.F,
                  "adversary disrupted a frequency outside [0, F)");
  }
  return disrupted;
}

void Simulation::build_cohort(RoundId r) {
  // Due wake events, minus events orphaned by crashes, plus the always-
  // visited nodes — in ascending node id, like the dense cohort: bit-identity
  // needs the same float-summation order, the same first-broadcaster payload
  // capture, and the same trace-event order.
  due_.clear();
  wake_queue_.collect(r, &due_);
  wake_events_popped_ += static_cast<int64_t>(due_.size());
  due_.erase(std::remove_if(
                 due_.begin(), due_.end(),
                 [&](NodeId id) {
                   return node_crashed_[static_cast<size_t>(id)] != 0;
                 }),
             due_.end());
  // Buckets accumulate ascending runs (each source round reschedules in id
  // order), so they are often already sorted.
  if (!std::is_sorted(due_.begin(), due_.end())) {
    std::sort(due_.begin(), due_.end());
  }
  cohort_.clear();
  cohort_.resize(due_.size() + always_awake_.size());
  std::merge(due_.begin(), due_.end(), always_awake_.begin(),
             always_awake_.end(), cohort_.begin());
}

void Simulation::publish_changes() {
  // changed_ holds the visited nodes, ascending; neither list below can
  // meet them (crashed nodes are never visited).
  const auto visited = static_cast<std::ptrdiff_t>(changed_.size());
  for (const NodeId id : unvisited_activations_) {
    changed_.push_back(
        NodeChange{id, protocols_[static_cast<size_t>(id)]->role()});
  }
  for (const NodeId id : crashed_since_step_) {
    changed_.push_back(NodeChange{id, Role::kCrashed});
  }
  crashed_since_step_.clear();
  if (changed_.end() - changed_.begin() > visited) {
    std::sort(changed_.begin() + visited, changed_.end());
    std::inplace_merge(changed_.begin(), changed_.begin() + visited,
                       changed_.end());
  }
}

RoundReport Simulation::step() {
  const RoundId r = view_.round_;

  // One round over the awake cohort: every live node under dense; under
  // sparse, the due wake events plus the nodes without a prediction. What a
  // non-cohort node would have done (sleep action, ++age, implicit sleep
  // charge) is replayed bit-identically when it is next visited or observed.

  // (1) Adversary commits its disruption before seeing round-r choices.
  std::vector<Frequency> disrupted = validated_disruption();

  // (2) Adversary activates nodes for this round (may schedule wake events
  // for this very round — build_cohort() below picks them up).
  activate_pending(r);
  const int activations_this_round = view_.last_round_.activations;

  // (3) Collect actions from the awake cohort.
  std::fill(broadcaster_count_.begin(), broadcaster_count_.end(), 0);
  std::fill(sole_broadcaster_.begin(), sole_broadcaster_.end(), kNoNode);
  std::fill(disrupted_flag_.begin(), disrupted_flag_.end(), 0);
  for (Frequency f : disrupted) disrupted_flag_[static_cast<size_t>(f)] = 1;

  RoundStats stats;
  stats.round = r;
  stats.per_freq.assign(static_cast<size_t>(config_.F), FreqRoundStats{});
  for (int f = 0; f < config_.F; ++f) {
    stats.per_freq[static_cast<size_t>(f)].disrupted =
        disrupted_flag_[static_cast<size_t>(f)] != 0;
  }
  stats.activations = activations_this_round;

  const bool masked = adversary_->restricts_availability();

  build_cohort(r);

  double weight = 0.0;
  int broadcasters_total = 0;
  int absences_total = 0;
  for (NodeId i : cohort_) {
    const auto ni = static_cast<size_t>(i);
    node_freq_[ni] = kNoFrequency;
    node_broadcast_[ni] = 0;
    node_reached_[ni] = 0;
    // Replay the asleep span since the node was last visited. Asleep rounds
    // contribute exactly +0.0 broadcast weight and no rng draws, so the
    // cohort-only walk stays bit-identical to the dense one.
    if (node_settled_[ni] < r) {
      protocols_[ni]->skip_rounds(r - node_settled_[ni]);
      node_settled_[ni] = r;
      // node_last_output_ still holds the pre-sleep value; has_number() is
      // invariant across asleep rounds, so the synced_live_ comparison in
      // phase (5) below stays exact, and the value itself is refreshed there.
    }

    weight += protocols_[ni]->broadcast_probability();
    RoundAction action = protocols_[ni]->act(node_rng_[ni]);
    WSYNC_REQUIRE(action.broadcast == action.payload.has_value(),
                  "broadcast implies payload and listen implies none");
    if (action.is_sleep()) {
      energy_.record(i, RadioState::kSleep);
      continue;
    }
    WSYNC_REQUIRE(action.frequency >= 0 && action.frequency < config_.F,
                  "protocol chose a frequency outside [0, F)");
    node_freq_[ni] = action.frequency;
    node_broadcast_[ni] = action.broadcast ? 1 : 0;
    energy_.record(i, action.broadcast ? RadioState::kBroadcast
                                       : RadioState::kListen);

    const auto fi = static_cast<size_t>(action.frequency);
    FreqRoundStats& fs = stats.per_freq[fi];
    node_reached_[ni] =
        (!masked || adversary_->channel_available(i, action.frequency)) ? 1
                                                                        : 0;
    if (node_reached_[ni] == 0) {
      ++fs.absent;
      ++absences_total;
      continue;
    }
    if (action.broadcast) {
      ++broadcasters_total;
      ++fs.broadcasters;
      ++broadcaster_count_[fi];
      if (broadcaster_count_[fi] == 1) {
        sole_broadcaster_[fi] = i;
        pending_payload_[fi] = std::move(*action.payload);
      } else {
        sole_broadcaster_[fi] = kNoNode;  // collision
      }
    } else {
      ++fs.listeners;
      ++view_.listens_per_freq_[fi];
    }
  }

  // (4) Per-frequency resolution: exactly one broadcaster, not disrupted.
  int collisions_this_round = 0;
  for (int f = 0; f < config_.F; ++f) {
    const auto fi = static_cast<size_t>(f);
    FreqRoundStats& fs = stats.per_freq[fi];
    fs.delivered = fs.broadcasters == 1 && !fs.disrupted;
    if (fs.broadcasters >= 2) ++collisions_this_round;
  }

  // (5) Deliver, close the round for the cohort, requeue its wake events.
  int deliveries = 0;
  changed_.clear();
  for (NodeId i : cohort_) {
    const auto ni = static_cast<size_t>(i);

    std::optional<Message> received;
    if (node_broadcast_[ni] == 0 && node_freq_[ni] != kNoFrequency &&
        node_reached_[ni] != 0) {
      const auto fi = static_cast<size_t>(node_freq_[ni]);
      if (stats.per_freq[fi].delivered) {
        Message m;
        m.sender = sole_broadcaster_[fi];
        m.frequency = node_freq_[ni];
        m.payload = pending_payload_[fi];
        received = std::move(m);
        ++deliveries;
        ++view_.deliveries_per_freq_[fi];
        if (trace_ != nullptr) {
          trace_->on_delivery(DeliveryTraceEvent{r, node_freq_[ni],
                                                 sole_broadcaster_[fi], i});
        }
      }
    }
    protocols_[ni]->on_round_end(received, node_rng_[ni]);

    const SyncOutput out = protocols_[ni]->output();
    if (out.has_number() && node_sync_round_[ni] < 0) {
      node_sync_round_[ni] = r;
      if (trace_ != nullptr) trace_->on_synchronized(r, i, out.value);
    }
    if (out.has_number() != node_last_output_[ni].has_number()) {
      synced_live_ += out.has_number() ? 1 : -1;
    }
    node_last_output_[ni] = out;
    node_settled_[ni] = r + 1;
    // Read while the protocol is hot in cache, for the verifier.
    changed_.push_back(NodeChange{i, protocols_[ni]->role()});

    if (node_sparse_[ni] != 0) {
      const std::optional<int64_t> horizon = protocols_[ni]->asleep_for();
      WSYNC_CHECK(horizon.has_value(),
                  "asleep_for() support must be a constant property of a "
                  "protocol instance");
      if (*horizon != kAsleepForever) {
        wake_queue_.schedule(r, r + 1 + *horizon, i);
      }
    }
  }
  stats.deliveries = deliveries;
  if (sparse_) {
    energy_.end_round_lazy();
  } else {
    // Strict: bill every unvisited node so end_round() checks conservation.
    for (NodeId id = 0; id < config_.n; ++id) {
      const auto ni = static_cast<size_t>(id);
      if (node_active_[ni] == 0 || node_crashed_[ni] != 0) {
        energy_.record(id, RadioState::kSleep);
      }
    }
    energy_.end_round();
  }
  publish_changes();

  // (6) Publish history for the adversary and the trace.
  view_.last_round_ = stats;
  view_.round_ = r + 1;
  view_.active_count_ = active_count_ - crashed_count_;

  if (trace_ != nullptr) {
    RoundTraceEvent event;
    event.round = r;
    event.disrupted = std::move(disrupted);
    event.stats = stats;
    event.broadcast_weight = weight;
    event.active_nodes = active_count_ - crashed_count_;
    trace_->on_round(event);
  }

  deliveries_total_ += deliveries;
  collisions_total_ += collisions_this_round;
  absences_total_ += absences_total;

  RoundReport report;
  report.round = r;
  report.activations = activations_this_round;
  report.deliveries = deliveries;
  report.broadcasters = broadcasters_total;
  report.absences = absences_total;
  report.collisions = collisions_this_round;
  report.broadcast_weight = weight;
  return report;
}

void Simulation::settle_node(NodeId id) const {
  const auto ni = static_cast<size_t>(id);
  if (node_active_[ni] == 0 || node_crashed_[ni] != 0) return;
  const RoundId now = view_.round_;
  if (node_settled_[ni] >= now) return;
  // Logically const: replaying asleep rounds reproduces exactly the state
  // the dense engine would already have materialized.
  auto* self = const_cast<Simulation*>(this);
  const RoundId skipped = now - node_settled_[ni];
  self->protocols_[ni]->skip_rounds(skipped);
  self->node_settled_[ni] = now;
  const SyncOutput out = protocols_[ni]->output();
  const SyncOutput before = node_last_output_[ni];
  WSYNC_CHECK(before.has_number() ? out.value == before.value + skipped
                                  : out.is_bottom(),
              "output() across asleep rounds must hold ⊥ or advance by one "
              "per round — the protocol violates the sparse-engine "
              "contract");
  self->node_last_output_[ni] = out;
}

Simulation::RunResult Simulation::run_until_synced(RoundId max_rounds) {
  WSYNC_REQUIRE(max_rounds >= 0, "max_rounds must be non-negative");
  while (view_.round_ < max_rounds) {
    // Liveness is checked BEFORE stepping: resuming an already-synced
    // simulation (crash-then-resume observers do this) must be a no-op.
    if (all_synced()) return RunResult{true, view_.round_};
    step();
  }
  return RunResult{all_synced(), view_.round_};
}

Simulation::MaintenanceReport Simulation::run_maintenance(
    RoundId horizon, int64_t offset_bound) {
  WSYNC_REQUIRE(horizon >= 0, "maintenance horizon must be non-negative");

  // Corrections are counted as a delta so maintenance can follow a sync
  // phase in which merges already re-adopted numberings.
  auto total_corrections = [this] {
    int64_t total = 0;
    for (int i = 0; i < config_.n; ++i) {
      const auto ni = static_cast<size_t>(i);
      // Crashed protocols still hold the corrections they made while live.
      if (node_active_[ni] != 0) total += protocols_[ni]->resync_corrections();
    }
    return total;
  };

  MaintenanceReport report;
  const int64_t corrections_before = total_corrections();
  // Output spread over live synchronized nodes, every round: a violation in
  // ANY round must be caught. Offsets are read once per node here (settling
  // sparse nodes, so both engines observe identical values) and afterwards
  // only for the nodes each step changed.
  auto offset_of = [this](NodeId id) {
    if (!is_active(id) || is_crashed(id)) return OffsetTracker::kNone;
    const SyncOutput out = output(id);
    return out.has_number() ? out.value - round() : OffsetTracker::kNone;
  };
  OffsetTracker offsets(config_.n);
  for (NodeId id = 0; id < config_.n; ++id) offsets.set(id, offset_of(id));
  for (RoundId i = 0; i < horizon; ++i) {
    step();
    ++report.rounds;
    for (const NodeChange& change : changed_) {
      offsets.set(change.id, offset_of(change.id));
    }
    if (offsets.numbered() > 0) {
      const int64_t spread = offsets.spread();
      report.max_offset_seen = std::max(report.max_offset_seen, spread);
      if (offset_bound >= 0 && spread > offset_bound) {
        ++report.offset_violations;
      }
    }
  }
  report.resync_count = total_corrections() - corrections_before;
  return report;
}

RoundId Simulation::activation_round(NodeId id) const {
  WSYNC_REQUIRE(id >= 0 && id < config_.n, "node id out of range");
  return node_activation_round_[static_cast<size_t>(id)];
}

RoundId Simulation::sync_round(NodeId id) const {
  WSYNC_REQUIRE(id >= 0 && id < config_.n, "node id out of range");
  return node_sync_round_[static_cast<size_t>(id)];
}

SyncOutput Simulation::output(NodeId id) const {
  WSYNC_REQUIRE(id >= 0 && id < config_.n, "node id out of range");
  settle_node(id);
  return node_last_output_[static_cast<size_t>(id)];
}

Role Simulation::role(NodeId id) const {
  WSYNC_REQUIRE(id >= 0 && id < config_.n, "node id out of range");
  const auto ni = static_cast<size_t>(id);
  if (node_crashed_[ni] != 0) return Role::kCrashed;
  if (node_active_[ni] == 0) return Role::kInactive;
  settle_node(id);
  return protocols_[ni]->role();
}

Protocol& Simulation::protocol(NodeId id) {
  WSYNC_REQUIRE(id >= 0 && id < config_.n, "node id out of range");
  const auto ni = static_cast<size_t>(id);
  WSYNC_REQUIRE(node_active_[ni] != 0, "node has no protocol before activation");
  settle_node(id);
  return *protocols_[ni];
}

const Protocol& Simulation::protocol(NodeId id) const {
  WSYNC_REQUIRE(id >= 0 && id < config_.n, "node id out of range");
  const auto ni = static_cast<size_t>(id);
  WSYNC_REQUIRE(node_active_[ni] != 0, "node has no protocol before activation");
  settle_node(id);
  return *protocols_[ni];
}

bool Simulation::all_synced() const {
  if (activated_total_ < config_.n) return false;
  // Liveness is a claim about surviving nodes; an execution where every
  // activated node has crashed has no witness and must not count as synced.
  const int live = active_count_ - crashed_count_;
  if (live == 0) return false;
  // has_number() is invariant across asleep rounds (sparse contract), so
  // the counter maintained at visit/crash time is exact.
  return synced_live_ == live;
}

void Simulation::crash(NodeId id) {
  WSYNC_REQUIRE(id >= 0 && id < config_.n, "node id out of range");
  const auto ni = static_cast<size_t>(id);
  WSYNC_REQUIRE(node_active_[ni] != 0, "cannot crash a node before activation");
  if (node_crashed_[ni] != 0) return;
  // Freeze the protocol at the current round first, exactly where a visit
  // every round would have left it; any queued wake event is dropped
  // lazily at collect time.
  settle_node(id);
  if (node_last_output_[ni].has_number()) --synced_live_;
  if (node_sparse_[ni] == 0) {
    always_awake_.erase(
        std::lower_bound(always_awake_.begin(), always_awake_.end(), id));
  }
  node_crashed_[ni] = 1;
  ++crashed_count_;
  // Reported by the next step, and by changed_nodes() already if a step
  // ran before this crash.
  crashed_since_step_.push_back(id);
  const NodeChange change{id, Role::kCrashed};
  const auto at = std::lower_bound(changed_.begin(), changed_.end(), change);
  if (at != changed_.end() && at->id == id) {
    at->role = Role::kCrashed;
  } else {
    changed_.insert(at, change);
  }
  if (trace_ != nullptr) trace_->on_crash(view_.round_, id);
}

}  // namespace wsync
