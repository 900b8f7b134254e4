// Deterministic-metrics byte-identity wall.
//
// The "deterministic" section of the metrics document must be a pure
// function of (plan, seeds): byte-identical across worker counts, across
// the dense and sparse engines, and across one-shot vs checkpoint-resumed
// execution. The "engine" section is allowed to differ between engines
// (that is its definition) but must itself be worker-invariant per engine,
// with the dense engine reporting zero wake machinery. Timing metrics must
// never leak into either walled section.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/scenario/registry.h"
#include "src/service/checkpoint.h"
#include "src/service/run_metrics.h"
#include "src/service/streaming_sweep.h"
#include "src/telemetry/metrics.h"
#include "tests/testing/scratch_dir.h"

namespace wsync {
namespace {

// A catalog slice that exercises both engine families: always-awake
// protocols under jamming (dense-equivalent paths) and the duty-cycled
// synchronizer (sparse wake-event machinery). Small enough for an
// integration wall at 2 seeds.
constexpr const char* kCatalogSlice =
    "^(single_frequency_band|sweep_jammer_narrowband|dutycycle_jamming)$";
constexpr int kSeeds = 2;

SweepPlan slice_plan(EngineMode engine) {
  const std::vector<const Scenario*> selected =
      ScenarioRegistry::matching(kCatalogSlice);
  SweepPlan plan = make_plan(selected, kSeeds);
  for (PlannedScenario& planned : plan.scenarios) {
    for (ExperimentPoint& point : planned.scenario.grid) {
      point.engine = engine;
    }
  }
  return plan;
}

struct MetricsCapture {
  std::string deterministic;
  std::string engine;
};

MetricsCapture run_and_capture(const SweepPlan& plan, int workers,
                               CheckpointWriter* checkpoint = nullptr,
                               const CheckpointData* resume = nullptr) {
  ThreadPool pool(workers);
  telemetry::MetricsRegistry registry;
  RunMetricsCollector metrics(&registry);
  ChunkSink sink;  // the wall reads the collector, not the report stream
  StreamingSweepOptions options;
  options.metrics = &metrics;
  options.checkpoint = checkpoint;
  options.resume = resume;
  run_streaming_sweep(plan, pool, options, sink);
  return {metrics.deterministic_json(), metrics.engine_json()};
}

TEST(MetricsIdentityTest, DeterministicBlockIsWorkerAndEngineInvariant) {
  const SweepPlan dense = slice_plan(EngineMode::kDense);
  const SweepPlan sparse = slice_plan(EngineMode::kSparse);
  const MetricsCapture reference = run_and_capture(dense, /*workers=*/1);
  ASSERT_FALSE(reference.deterministic.empty());
  EXPECT_NE(reference.deterministic.find("rounds_simulated_total"),
            std::string::npos);

  EXPECT_EQ(run_and_capture(dense, /*workers=*/4).deterministic,
            reference.deterministic);
  EXPECT_EQ(run_and_capture(sparse, /*workers=*/1).deterministic,
            reference.deterministic);
  EXPECT_EQ(run_and_capture(sparse, /*workers=*/4).deterministic,
            reference.deterministic);
}

TEST(MetricsIdentityTest, EngineBlockIsWorkerInvariantPerEngine) {
  const SweepPlan dense = slice_plan(EngineMode::kDense);
  const SweepPlan sparse = slice_plan(EngineMode::kSparse);
  const MetricsCapture dense_1 = run_and_capture(dense, /*workers=*/1);
  const MetricsCapture sparse_1 = run_and_capture(sparse, /*workers=*/1);
  EXPECT_EQ(run_and_capture(dense, /*workers=*/4).engine, dense_1.engine);
  EXPECT_EQ(run_and_capture(sparse, /*workers=*/4).engine, sparse_1.engine);

  // The dense engine has no wake machinery: the counter must read 0.
  EXPECT_NE(dense_1.engine.find("\"wake_events_popped_total\": 0"),
            std::string::npos)
      << dense_1.engine;
  // Every round executes under both engines: no fast-forward count exists.
  for (const MetricsCapture* capture : {&dense_1, &sparse_1}) {
    EXPECT_EQ(capture->engine.find("fast_forwarded_rounds"),
              std::string::npos)
        << capture->engine;
  }
  // The sparse slice includes duty-cycled nodes, so wake events must have
  // been popped (otherwise the wall is not exercising the machinery).
  EXPECT_EQ(sparse_1.engine.find("\"wake_events_popped_total\": 0"),
            std::string::npos)
      << sparse_1.engine;
}

TEST(MetricsIdentityTest, TimingMetricsNeverLeakIntoWalledSections) {
  const SweepPlan plan = slice_plan(EngineMode::kSparse);
  ThreadPool pool(2);
  telemetry::MetricsRegistry registry;
  RunMetricsCollector metrics(&registry);
  ChunkSink sink;  // the wall reads the collector, not the report stream
  StreamingSweepOptions options;
  options.metrics = &metrics;
  run_streaming_sweep(plan, pool, options, sink);
  // The sweep records a chunk-latency histogram; it must stay in the
  // timing class only.
  EXPECT_NE(registry.class_json(telemetry::MetricClass::kTiming)
                .find("chunk_latency_millis"),
            std::string::npos);
  EXPECT_EQ(metrics.deterministic_json().find("chunk_latency_millis"),
            std::string::npos);
  EXPECT_EQ(metrics.engine_json().find("chunk_latency_millis"),
            std::string::npos);
}

TEST(MetricsIdentityTest, ResumedRunAccumulatesTheOneShotBlocks) {
  const SweepPlan plan = slice_plan(EngineMode::kDense);
  const MetricsCapture one_shot = run_and_capture(plan, /*workers=*/2);

  const std::string path = testing::scratch_path("metrics_identity_ckpt.txt");
  const uint64_t fingerprint = plan_fingerprint(plan);
  {
    CheckpointWriter writer(path, fingerprint, /*resume=*/false);
    run_and_capture(plan, /*workers=*/2, &writer);
  }
  CheckpointLoad load = load_checkpoint(path, fingerprint);
  ASSERT_TRUE(load.ok()) << load.error;
  ASSERT_EQ(load.chunks.size(), plan.chunk_count());

  // Full replay: zero chunks computed, identical metrics document.
  const MetricsCapture resumed =
      run_and_capture(plan, /*workers=*/4, nullptr, &load.chunks);
  EXPECT_EQ(resumed.deterministic, one_shot.deterministic);
  EXPECT_EQ(resumed.engine, one_shot.engine);

  // Partial replay — as if the first run was killed mid-catalog — must
  // accumulate the same blocks from a mix of replayed and recomputed
  // chunks.
  CheckpointData partial = load.chunks;
  partial.erase({"dutycycle_jamming", 0});
  partial.erase({"dutycycle_jamming", 1});
  const MetricsCapture mixed =
      run_and_capture(plan, /*workers=*/4, nullptr, &partial);
  EXPECT_EQ(mixed.deterministic, one_shot.deterministic);
  EXPECT_EQ(mixed.engine, one_shot.engine);
}

}  // namespace
}  // namespace wsync
