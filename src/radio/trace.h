// Execution tracing.
//
// The engine reports one RoundTraceEvent per round plus fine-grained
// activation/delivery/output-transition callbacks. Sinks are optional and
// must be cheap when unused (the default no-op sink costs one virtual call
// per round).
#ifndef WSYNC_RADIO_TRACE_H_
#define WSYNC_RADIO_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/radio/engine_view.h"

namespace wsync {

/// Everything that happened in one engine round.
struct RoundTraceEvent {
  RoundId round = 0;
  std::vector<Frequency> disrupted;  // sorted
  RoundStats stats;                  // per-frequency outcomes
  double broadcast_weight = 0.0;     // W(r) = sum of planned broadcast probs
  int active_nodes = 0;

  friend bool operator==(const RoundTraceEvent&,
                         const RoundTraceEvent&) = default;
};

/// A single successful delivery (one broadcaster, >=1 listeners; one event
/// per listener).
struct DeliveryTraceEvent {
  RoundId round = 0;
  Frequency frequency = 0;
  NodeId from = kNoNode;
  NodeId to = kNoNode;

  friend constexpr bool operator==(const DeliveryTraceEvent&,
                                   const DeliveryTraceEvent&) = default;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_round(const RoundTraceEvent& /*event*/) {}
  virtual void on_activation(RoundId /*round*/, NodeId /*node*/) {}
  virtual void on_delivery(const DeliveryTraceEvent& /*event*/) {}
  /// Fired when a node's output transitions from ⊥ to a number.
  virtual void on_synchronized(RoundId /*round*/, NodeId /*node*/,
                               int64_t /*number*/) {}
  virtual void on_crash(RoundId /*round*/, NodeId /*node*/) {}
};

/// Records everything in memory; for tests and small diagnostic runs.
///
/// Growth is capped: each event stream stores at most `capacity()` entries
/// (default 2^20); later events are counted in dropped_events() and
/// discarded, so a MemoryTrace left attached to a long maintenance run
/// degrades to a bounded prefix instead of exhausting memory. Tests that
/// need completeness assert dropped_events() == 0.
class MemoryTrace final : public TraceSink {
 public:
  void on_round(const RoundTraceEvent& event) override;
  void on_activation(RoundId round, NodeId node) override;
  void on_delivery(const DeliveryTraceEvent& event) override;
  void on_synchronized(RoundId round, NodeId node, int64_t number) override;
  void on_crash(RoundId round, NodeId node) override;

  struct Activation {
    RoundId round;
    NodeId node;

    friend constexpr bool operator==(const Activation&,
                                     const Activation&) = default;
  };
  struct SyncEvent {
    RoundId round;
    NodeId node;
    int64_t number;

    friend constexpr bool operator==(const SyncEvent&,
                                     const SyncEvent&) = default;
  };

  const std::vector<RoundTraceEvent>& rounds() const { return rounds_; }
  const std::vector<Activation>& activations() const { return activations_; }
  const std::vector<DeliveryTraceEvent>& deliveries() const {
    return deliveries_;
  }
  const std::vector<SyncEvent>& sync_events() const { return sync_events_; }
  const std::vector<Activation>& crashes() const { return crashes_; }

  /// Max broadcast weight observed over all rounds so far.
  double max_broadcast_weight() const;

  /// Per-stream entry cap; must be positive. Only affects events recorded
  /// after the call.
  void set_capacity(int64_t per_stream_capacity);
  int64_t capacity() const { return capacity_; }
  /// Events discarded because their stream was at capacity.
  int64_t dropped_events() const { return dropped_events_; }

 private:
  /// Default per-stream cap: generous for every diagnostic run in the test
  /// suite, small enough that a runaway maintenance run stays bounded.
  static constexpr int64_t kDefaultCapacity = int64_t{1} << 20;

  template <typename T>
  bool admit(const std::vector<T>& stream) {
    if (static_cast<int64_t>(stream.size()) < capacity_) return true;
    ++dropped_events_;
    return false;
  }

  int64_t capacity_ = kDefaultCapacity;
  int64_t dropped_events_ = 0;
  std::vector<RoundTraceEvent> rounds_;
  std::vector<Activation> activations_;
  std::vector<DeliveryTraceEvent> deliveries_;
  std::vector<SyncEvent> sync_events_;
  std::vector<Activation> crashes_;
};

}  // namespace wsync

#endif  // WSYNC_RADIO_TRACE_H_
