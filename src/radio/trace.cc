#include "src/radio/trace.h"

#include <algorithm>

#include "src/common/require.h"

namespace wsync {

void MemoryTrace::on_round(const RoundTraceEvent& event) {
  if (admit(rounds_)) rounds_.push_back(event);
}

void MemoryTrace::on_activation(RoundId round, NodeId node) {
  if (admit(activations_)) activations_.push_back(Activation{round, node});
}

void MemoryTrace::on_delivery(const DeliveryTraceEvent& event) {
  if (admit(deliveries_)) deliveries_.push_back(event);
}

void MemoryTrace::on_synchronized(RoundId round, NodeId node, int64_t number) {
  if (admit(sync_events_)) sync_events_.push_back(SyncEvent{round, node, number});
}

void MemoryTrace::on_crash(RoundId round, NodeId node) {
  if (admit(crashes_)) crashes_.push_back(Activation{round, node});
}

void MemoryTrace::set_capacity(int64_t per_stream_capacity) {
  WSYNC_REQUIRE(per_stream_capacity > 0, "trace capacity must be positive");
  capacity_ = per_stream_capacity;
}

double MemoryTrace::max_broadcast_weight() const {
  double max_weight = 0.0;
  for (const RoundTraceEvent& e : rounds_) {
    max_weight = std::max(max_weight, e.broadcast_weight);
  }
  return max_weight;
}

}  // namespace wsync
