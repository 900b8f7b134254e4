#include "src/radio/trace.h"

#include <gtest/gtest.h>

namespace wsync {
namespace {

RoundTraceEvent event_with_weight(RoundId round, double weight) {
  RoundTraceEvent event;
  event.round = round;
  event.broadcast_weight = weight;
  return event;
}

TEST(MemoryTraceTest, RecordsRounds) {
  MemoryTrace trace;
  trace.on_round(event_with_weight(0, 1.5));
  trace.on_round(event_with_weight(1, 3.0));
  trace.on_round(event_with_weight(2, 2.0));
  ASSERT_EQ(trace.rounds().size(), 3u);
  EXPECT_EQ(trace.rounds()[1].round, 1);
  EXPECT_DOUBLE_EQ(trace.max_broadcast_weight(), 3.0);
}

TEST(MemoryTraceTest, RecordsActivationsAndCrashes) {
  MemoryTrace trace;
  trace.on_activation(4, 2);
  trace.on_crash(9, 2);
  ASSERT_EQ(trace.activations().size(), 1u);
  EXPECT_EQ(trace.activations()[0].round, 4);
  EXPECT_EQ(trace.activations()[0].node, 2);
  ASSERT_EQ(trace.crashes().size(), 1u);
  EXPECT_EQ(trace.crashes()[0].round, 9);
}

TEST(MemoryTraceTest, RecordsDeliveriesAndSyncs) {
  MemoryTrace trace;
  trace.on_delivery(DeliveryTraceEvent{1, 3, 0, 5});
  trace.on_synchronized(7, 5, 42);
  ASSERT_EQ(trace.deliveries().size(), 1u);
  EXPECT_EQ(trace.deliveries()[0].frequency, 3);
  ASSERT_EQ(trace.sync_events().size(), 1u);
  EXPECT_EQ(trace.sync_events()[0].number, 42);
}

TEST(MemoryTraceTest, EmptyMaxWeightIsZero) {
  MemoryTrace trace;
  EXPECT_DOUBLE_EQ(trace.max_broadcast_weight(), 0.0);
}

TEST(TraceSinkTest, DefaultSinkIgnoresEverything) {
  TraceSink sink;
  sink.on_round(RoundTraceEvent{});
  sink.on_activation(0, 0);
  sink.on_delivery(DeliveryTraceEvent{});
  sink.on_synchronized(0, 0, 0);
  sink.on_crash(0, 0);
  // Nothing to assert: the base class must simply be callable.
}

TEST(MemoryTraceTest, CapsPerStreamGrowthAndCountsDrops) {
  MemoryTrace trace;
  trace.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    trace.on_round(event_with_weight(i, 1.0));
  }
  EXPECT_EQ(trace.rounds().size(), 3u);
  EXPECT_EQ(trace.dropped_events(), 2);
  // The cap is per stream: a different stream still admits events.
  trace.on_activation(0, 1);
  EXPECT_EQ(trace.activations().size(), 1u);
  EXPECT_EQ(trace.dropped_events(), 2);
}

TEST(MemoryTraceTest, CapAppliesToEveryStream) {
  MemoryTrace trace;
  trace.set_capacity(2);
  for (int i = 0; i < 4; ++i) {
    trace.on_activation(i, i);
    trace.on_delivery(DeliveryTraceEvent{});
    trace.on_synchronized(i, i, i);
    trace.on_crash(i, i);
  }
  EXPECT_EQ(trace.activations().size(), 2u);
  EXPECT_EQ(trace.deliveries().size(), 2u);
  EXPECT_EQ(trace.sync_events().size(), 2u);
  EXPECT_EQ(trace.crashes().size(), 2u);
  EXPECT_EQ(trace.dropped_events(), 8);
}

TEST(MemoryTraceTest, DefaultCapacityIsGenerous) {
  MemoryTrace trace;
  EXPECT_EQ(trace.capacity(), int64_t{1} << 20);
  EXPECT_EQ(trace.dropped_events(), 0);
}

}  // namespace
}  // namespace wsync
