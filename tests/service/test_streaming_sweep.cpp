// Streaming sweep wall: the bounded-memory chunked execution must be
// bit-identical to the serial oracle, invariant under worker count and
// window size, and exactly resumable — a full or partial checkpoint replay
// yields the same sink sequence as computing from scratch, with zero tasks
// scheduled for replayed chunks. Results are compared through
// encode_chunk_line, so every double is compared by bit pattern.
#include "src/service/streaming_sweep.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/scenario/scenario.h"
#include "src/service/checkpoint.h"
#include "src/service/run_metrics.h"
#include "src/telemetry/metrics.h"
#include "tests/testing/point_results.h"

namespace wsync {
namespace {

ExperimentPoint trapdoor_point(int t) {
  ExperimentPoint point;
  point.F = 8;
  point.t = t;
  point.N = 32;
  point.n = 6;
  point.protocol = ProtocolKind::kTrapdoor;
  point.adversary =
      t == 0 ? AdversaryKind::kNone : AdversaryKind::kRandomSubset;
  point.activation = ActivationKind::kSimultaneous;
  return point;
}

Scenario small_scenario(const std::string& name, int points) {
  Scenario scenario;
  scenario.name = name;
  scenario.summary = "hand-built streaming-sweep fixture";
  scenario.rationale = "exercises the sweep service in isolation";
  for (int t = 0; t < points; ++t) {
    scenario.grid.push_back(trapdoor_point(t));
  }
  scenario.default_seeds = 3;
  return scenario;
}

/// Records the full sink sequence; chunk results are captured as encoded
/// chunk lines, which makes comparisons bit-exact.
class RecordingSink : public ChunkSink {
 public:
  void on_scenario_begin(size_t scenario_index,
                         const PlannedScenario& planned) override {
    events.push_back("begin " + planned.scenario.name + " @" +
                     std::to_string(scenario_index));
  }

  void on_chunk(size_t scenario_index, size_t point_index,
                const PointResult& result, bool from_checkpoint) override {
    const PlannedScenario& planned = *scenarios_at(scenario_index);
    events.push_back(
        encode_chunk_line(planned.scenario.name, point_index, result));
    if (from_checkpoint) ++replayed;
  }

  void on_scenario_end(size_t /*scenario_index*/,
                       const PlannedScenario& planned,
                       const std::vector<PointResult>& results,
                       const std::vector<std::string>& failures) override {
    events.push_back("end " + planned.scenario.name + " points=" +
                     std::to_string(results.size()) + " failures=" +
                     std::to_string(failures.size()));
  }

  void attach(const SweepPlan* plan) { plan_ = plan; }

  std::vector<std::string> events;
  size_t replayed = 0;

 private:
  const PlannedScenario* scenarios_at(size_t index) const {
    return &plan_->scenarios[index];
  }

  const SweepPlan* plan_ = nullptr;
};

SweepPlan two_scenario_plan() {
  static const Scenario alpha = small_scenario("alpha_fixture", 3);
  static const Scenario beta = small_scenario("beta_fixture", 2);
  return make_plan({&alpha, &beta}, /*seeds_override=*/0);
}

std::vector<std::string> run_and_record(const SweepPlan& plan, int workers,
                                        size_t window,
                                        SweepOutcome* outcome = nullptr) {
  ThreadPool pool(workers);
  RecordingSink sink;
  sink.attach(&plan);
  StreamingSweepOptions options;
  options.window = window;
  const SweepOutcome result = run_streaming_sweep(plan, pool, options, sink);
  if (outcome != nullptr) *outcome = result;
  return sink.events;
}

TEST(StreamingSweepTest, SinkSequenceHasStrictCatalogOrder) {
  const SweepPlan plan = two_scenario_plan();
  SweepOutcome outcome;
  const std::vector<std::string> events =
      run_and_record(plan, /*workers=*/2, /*window=*/0, &outcome);
  // begin alpha, 3 chunks, end alpha, begin beta, 2 chunks, end beta.
  ASSERT_EQ(events.size(), 9u);
  EXPECT_EQ(events[0], "begin alpha_fixture @0");
  EXPECT_EQ(events[4].substr(0, 4), "end ");
  EXPECT_EQ(events[5], "begin beta_fixture @1");
  EXPECT_EQ(events[8].substr(0, 4), "end ");
  EXPECT_EQ(outcome.computed_chunks, 5u);
  EXPECT_EQ(outcome.resumed_chunks, 0u);
}

TEST(StreamingSweepTest, BitIdenticalAcrossWorkersAndWindows) {
  const SweepPlan plan = two_scenario_plan();
  const std::vector<std::string> reference =
      run_and_record(plan, /*workers=*/1, /*window=*/1);
  for (const int workers : {2, 4}) {
    for (const size_t window : {size_t{1}, size_t{3}, size_t{0}}) {
      EXPECT_EQ(run_and_record(plan, workers, window), reference)
          << "workers=" << workers << " window=" << window;
    }
  }
}

TEST(StreamingSweepTest, MatchesTheOneShotScenarioRunner) {
  // The one-shot runner is the serial oracle: each point, seed by seed, on
  // this thread.
  const Scenario scenario = small_scenario("solo_fixture", 3);
  ThreadPool pool(4);
  const SweepPlan plan = make_plan({&scenario}, /*seeds_override=*/0);
  RecordingSink sink;
  sink.attach(&plan);
  StreamingSweepOptions options;
  run_streaming_sweep(plan, pool, options, sink);

  ASSERT_EQ(sink.events.size(), 5u);
  for (size_t pi = 0; pi < scenario.grid.size(); ++pi) {
    EXPECT_EQ(sink.events[1 + pi],
              encode_chunk_line(scenario.name, pi,
                                testing::serial_point(scenario.grid[pi],
                                                      scenario.default_seeds)));
  }
}

TEST(StreamingSweepTest, FullResumeComputesNothingAndMatches) {
  const SweepPlan plan = two_scenario_plan();
  const std::vector<std::string> reference =
      run_and_record(plan, /*workers=*/2, /*window=*/0);

  const std::string path = ::testing::TempDir() + "sweep_full_resume.txt";
  const uint64_t fingerprint = plan_fingerprint(plan);
  {
    ThreadPool pool(2);
    RecordingSink sink;
    sink.attach(&plan);
    CheckpointWriter writer(path, fingerprint, /*resume=*/false);
    StreamingSweepOptions options;
    options.checkpoint = &writer;
    run_streaming_sweep(plan, pool, options, sink);
  }
  const CheckpointLoad load = load_checkpoint(path, fingerprint);
  ASSERT_TRUE(load.ok()) << load.error;
  ASSERT_EQ(load.chunks.size(), plan.chunk_count());

  ThreadPool pool(4);
  RecordingSink sink;
  sink.attach(&plan);
  StreamingSweepOptions options;
  options.resume = &load.chunks;
  const SweepOutcome outcome = run_streaming_sweep(plan, pool, options, sink);
  EXPECT_EQ(outcome.computed_chunks, 0u);
  EXPECT_EQ(outcome.resumed_chunks, plan.chunk_count());
  EXPECT_EQ(sink.replayed, plan.chunk_count());
  EXPECT_EQ(sink.events, reference);
}

TEST(StreamingSweepTest, PartialResumeRecomputesOnlyTheRest) {
  const SweepPlan plan = two_scenario_plan();
  const std::vector<std::string> reference =
      run_and_record(plan, /*workers=*/2, /*window=*/0);

  // Build resume data from a fresh run, then forget all of beta and one
  // alpha point — as if the first run was killed mid-catalog.
  CheckpointData partial;
  {
    ThreadPool pool(2);
    RecordingSink sink;
    sink.attach(&plan);
    const std::string path =
        ::testing::TempDir() + "sweep_partial_resume.txt";
    CheckpointWriter writer(path, plan_fingerprint(plan), /*resume=*/false);
    StreamingSweepOptions options;
    options.checkpoint = &writer;
    run_streaming_sweep(plan, pool, options, sink);
    CheckpointLoad load = load_checkpoint(path, plan_fingerprint(plan));
    ASSERT_TRUE(load.ok()) << load.error;
    partial = load.chunks;
  }
  partial.erase({"alpha_fixture", 2});
  partial.erase({"beta_fixture", 0});
  partial.erase({"beta_fixture", 1});

  ThreadPool pool(4);
  RecordingSink sink;
  sink.attach(&plan);
  StreamingSweepOptions options;
  options.resume = &partial;
  const SweepOutcome outcome = run_streaming_sweep(plan, pool, options, sink);
  EXPECT_EQ(outcome.resumed_chunks, 2u);
  EXPECT_EQ(outcome.computed_chunks, 3u);
  EXPECT_EQ(sink.events, reference);
}

TEST(StreamingSweepTest, ResumeDataForUnknownChunksThrows) {
  const SweepPlan plan = two_scenario_plan();
  CheckpointData foreign;
  foreign[{"no_such_scenario", 0}] = PointResult{};
  ThreadPool pool(2);
  RecordingSink sink;
  sink.attach(&plan);
  StreamingSweepOptions options;
  options.resume = &foreign;
  EXPECT_THROW(run_streaming_sweep(plan, pool, options, sink),
               std::runtime_error);

  // A known scenario but out-of-grid point index is just as foreign.
  CheckpointData out_of_range;
  out_of_range[{"alpha_fixture", 99}] = PointResult{};
  options.resume = &out_of_range;
  EXPECT_THROW(run_streaming_sweep(plan, pool, options, sink),
               std::runtime_error);
}

TEST(StreamingSweepTest, FingerprintTracksResultAffectingParameters) {
  const SweepPlan base = two_scenario_plan();
  const uint64_t reference = plan_fingerprint(base);

  // Same plan, same fingerprint (stability).
  EXPECT_EQ(plan_fingerprint(two_scenario_plan()), reference);

  // Seeds, grid shape, point parameters, and names all change it.
  SweepPlan more_seeds = base;
  more_seeds.scenarios[0].seeds += 1;
  EXPECT_NE(plan_fingerprint(more_seeds), reference);

  SweepPlan renamed = base;
  renamed.scenarios[1].scenario.name = "renamed_fixture";
  EXPECT_NE(plan_fingerprint(renamed), reference);

  // So does every kPointFields entry but the engine mode, which is
  // deliberately not mixed in: dense and sparse are bit-identical by
  // contract, so a dense checkpoint resumes sparse.
  for_each_field(kPointFields, [&](const auto& field) {
    SweepPlan changed = base;
    auto& value = changed.scenarios[1].scenario.grid.back().*field.member;
    using Value = std::remove_reference_t<decltype(value)>;
    if constexpr (std::is_enum_v<Value>) {
      value = static_cast<Value>(static_cast<int>(value) + 1);
    } else if constexpr (std::is_same_v<Value, std::vector<CrashWave>>) {
      value.push_back(CrashWave{1, 1});
    } else {
      value += 1;
    }
    EXPECT_EQ(plan_fingerprint(changed) == reference,
              field.codec == Codec::kSkip)
        << field.name;
  });
}

TEST(StreamingSweepTest, PoolTasksMatchRunsOnACleanSweep) {
  // The sweep returns with the pool quiesced, so the timing-class task
  // count wsync_run and wsync_serve report equals the runs delivered.
  const SweepPlan plan = two_scenario_plan();
  for (int repeat = 0; repeat < 30; ++repeat) {
    ThreadPool pool(8);
    telemetry::MetricsRegistry registry;
    RunMetricsCollector metrics(&registry);
    ChunkSink sink;
    StreamingSweepOptions options;
    options.metrics = &metrics;
    run_streaming_sweep(plan, pool, options, sink);
    const auto runs = telemetry::MetricClass::kDeterministic;
    ASSERT_EQ(pool.stats().tasks_executed,
              registry.counter("runs_total", runs).value())
        << "repeat " << repeat;
  }
}

TEST(StreamingSweepTest, MakePlanValidatesAndResolvesSeeds) {
  const Scenario scenario = small_scenario("seed_fixture", 2);
  const SweepPlan defaulted = make_plan({&scenario}, /*seeds_override=*/0);
  EXPECT_EQ(defaulted.scenarios[0].seeds, scenario.default_seeds);
  const SweepPlan overridden = make_plan({&scenario}, /*seeds_override=*/7);
  EXPECT_EQ(overridden.scenarios[0].seeds, 7);
  EXPECT_EQ(overridden.chunk_count(), 2u);

  Scenario invalid = scenario;
  invalid.grid.clear();
  EXPECT_THROW(make_plan({&invalid}, 0), std::invalid_argument);
}

TEST(StreamingSweepTest, MakePlanRejectsAScenarioSelectedTwice) {
  // Checkpoint lines, resume data and metrics blocks key chunks by
  // (scenario name, point), so a repeat would collide on resume.
  const Scenario scenario = small_scenario("twice_fixture", 2);
  const Scenario other = small_scenario("other_fixture", 1);
  try {
    make_plan({&scenario, &other, &scenario}, 0);
    FAIL() << "a repeated scenario was planned";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "scenario 'twice_fixture' selected twice");
  }
}

TEST(StreamingSweepTest, ApplyOverridesSetsBudgetsAndEngine) {
  const SweepPlan base = two_scenario_plan();
  SweepPlan plan = base;
  PlanOverrides overrides;
  overrides.max_rounds = 70;
  overrides.max_rounds_by_scenario["beta_fixture"] = 90;  // wins
  overrides.engine = EngineMode::kDense;
  apply_overrides(overrides, &plan);
  for (const ExperimentPoint& point : plan.scenarios[0].scenario.grid) {
    EXPECT_EQ(point.max_rounds, 70);
    EXPECT_EQ(point.engine, EngineMode::kDense);
  }
  for (const ExperimentPoint& point : plan.scenarios[1].scenario.grid) {
    EXPECT_EQ(point.max_rounds, 90);
  }
  // The budget is fingerprinted: a checkpoint must not resume under
  // another one.
  EXPECT_NE(plan_fingerprint(plan), plan_fingerprint(base));

  // Zero and kAuto leave each point's own budget and engine.
  SweepPlan kept = base;
  ExperimentPoint& point = kept.scenarios[0].scenario.grid[0];
  point.engine = EngineMode::kDense;
  const RoundId budget = point.max_rounds;
  apply_overrides(PlanOverrides{}, &kept);
  EXPECT_EQ(point.engine, EngineMode::kDense);
  EXPECT_EQ(point.max_rounds, budget);
}

// --- run_points: the adapter against the serial oracle ---------------------
// Grid order, timeouts counted, any worker count, a reused pool, and errors
// surfacing on the caller.

using testing::expect_same_result;
using testing::serial_point;

PointResult run_one(const ExperimentPoint& point, int seeds, int workers) {
  ThreadPool pool(workers);
  return run_points({point}, seeds, pool).at(0);
}

TEST(ParallelSweepTest, RunPointParallelMatchesSerial) {
  const ExperimentPoint point = trapdoor_point(2);
  const PointResult serial = serial_point(point, 6);
  for (const int workers : {1, 4}) {
    expect_same_result(serial, run_one(point, 6, workers));
  }
}

TEST(ParallelSweepTest, RunPointsParallelMatchesSerialPointwise) {
  const std::vector<ExperimentPoint> points = {
      trapdoor_point(0), trapdoor_point(1), trapdoor_point(2)};
  ThreadPool pool(4);
  const std::vector<PointResult> parallel = run_points(points, 4, pool);
  ASSERT_EQ(parallel.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    // Results must land at the index of their point, not completion order.
    EXPECT_EQ(parallel[i].point.t, points[i].t);
    expect_same_result(serial_point(points[i], 4), parallel[i]);
  }
}

TEST(ParallelSweepTest, EmptyGridYieldsEmptyResults) {
  ThreadPool pool(2);
  EXPECT_TRUE(run_points({}, 4, pool).empty());
}

TEST(ParallelSweepTest, TimeoutRunsAreCountedNotDropped) {
  ExperimentPoint point = trapdoor_point(2);
  point.N = 1024;
  point.n = 8;
  point.max_rounds = 3;  // nothing can synchronize in 3 rounds
  const PointResult result = serial_point(point, 5);
  EXPECT_EQ(result.runs, 5);
  EXPECT_EQ(result.synced_runs, 0);
  EXPECT_EQ(result.timeout_runs, 5);
  // The summaries hold no samples — timeout_runs is the only trace of the
  // five runs, which is exactly why it must exist.
  EXPECT_EQ(result.rounds_to_live.count, 0u);
  EXPECT_EQ(result.max_node_latency.count, 0u);
  expect_same_result(result, run_one(point, 5, 2));
}

TEST(ParallelSweepTest, MixedOutcomePointSplitsSyncedAndTimeout) {
  // A budget between the fast and slow seeds' needs: some runs sync, the
  // rest time out, and the counters must partition runs exactly.
  ExperimentPoint point = trapdoor_point(2);
  const PointResult unbounded = run_one(point, 6, 2);
  ASSERT_EQ(unbounded.synced_runs, 6);
  point.max_rounds = static_cast<RoundId>(unbounded.rounds_to_live.p50);
  const PointResult bounded = run_one(point, 6, 2);
  EXPECT_EQ(bounded.synced_runs + bounded.timeout_runs, bounded.runs);
  EXPECT_GT(bounded.timeout_runs, 0);
}

TEST(ParallelRunnerTest, BitIdenticalToSerialAcrossWorkerCounts) {
  ExperimentPoint point = trapdoor_point(2);
  point.extra_rounds = 64;
  const PointResult serial = serial_point(point, 8);
  for (const int workers : {1, 4, ThreadPool::default_workers()}) {
    expect_same_result(serial, run_one(point, 8, workers));
  }
}

TEST(ParallelRunnerTest, SharedPoolOverloadMatchesSerial) {
  ExperimentPoint point = trapdoor_point(2);
  point.n = 4;
  const PointResult serial = serial_point(point, 4);
  ThreadPool pool(4);
  // Re-using one pool across calls must not perturb results either.
  for (int repeat = 0; repeat < 3; ++repeat) {
    expect_same_result(serial, run_points({point}, 4, pool).at(0));
  }
}

TEST(ParallelRunnerTest, UnsyncedRunsSurviveParallelReplication) {
  ExperimentPoint point = trapdoor_point(2);
  point.N = 1024;
  point.n = 4;
  point.max_rounds = 3;
  const PointResult result = run_one(point, 3, 4);
  EXPECT_EQ(result.runs, 3);
  EXPECT_EQ(result.timeout_runs, 3);
  EXPECT_EQ(result.rounds_simulated, 3 * 3);
}

TEST(ParallelRunnerTest, InvalidSpecPropagatesException) {
  ExperimentPoint point = trapdoor_point(2);
  point.n = 0;  // make_run_spec rejects n < 1
  ThreadPool pool(2);
  EXPECT_THROW(run_points({trapdoor_point(2), point}, 2, pool),
               std::invalid_argument);
  EXPECT_THROW(run_points({trapdoor_point(2)}, 0, pool), std::invalid_argument);
}

}  // namespace
}  // namespace wsync
