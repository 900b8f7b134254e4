// The serial replication oracle every fan-out is walled against (one
// point over make_seeds(seeds), in order on this thread), and a PointResult
// comparison over every serialised kResultFields entry, doubles by bit
// pattern, so a new result field is compared without touching any test.
#ifndef WSYNC_TESTS_TESTING_POINT_RESULTS_H_
#define WSYNC_TESTS_TESTING_POINT_RESULTS_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/experiment/sweep.h"

namespace wsync {
namespace testing {

inline PointResult serial_point(const ExperimentPoint& point, int seeds) {
  RunSpec spec = make_run_spec(point);
  std::vector<RunOutcome> outcomes;
  for (const uint64_t seed : make_seeds(seeds)) {
    spec.sim.seed = seed;
    outcomes.push_back(run_sync_experiment(spec));
  }
  return aggregate_point(point, outcomes);
}

/// Every serialised field equal (not `point`); across engines, the
/// engine-class metrics are legitimately different and skipped.
inline void expect_same_result(const PointResult& a, const PointResult& b,
                               bool same_engine = true) {
  const auto bits = [](double value) { return std::bit_cast<uint64_t>(value); };
  for_each_coded(kResultFields, a, [&](const auto& field, const auto& value) {
    using telemetry::MetricClass;
    if (!same_engine && field.metric.cls == MetricClass::kEngineDependent) {
      return;
    }
    const auto& other = b.*field.member;
    using Value = std::remove_cvref_t<decltype(value)>;
    if constexpr (std::is_same_v<Value, Summary>) {
      EXPECT_EQ(value.count, other.count) << field.name;
      for (const auto member : kSummaryDoubles) {
        EXPECT_EQ(bits(value.*member), bits(other.*member)) << field.name;
      }
    } else if constexpr (std::is_same_v<Value, double>) {
      EXPECT_EQ(bits(value), bits(other)) << field.name;
    } else {
      EXPECT_EQ(value, other) << field.name;
    }
  });
}

}  // namespace testing
}  // namespace wsync

#endif  // WSYNC_TESTS_TESTING_POINT_RESULTS_H_
