#include "src/service/streaming_sweep.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "src/service/job_queue.h"
#include "src/sync/runner.h"
#include "src/telemetry/stopwatch.h"

namespace wsync {

namespace {

/// Maps a flat chunk index to its (scenario, point) coordinates.
struct ChunkMap {
  explicit ChunkMap(const SweepPlan& plan) {
    size_t base = 0;
    for (const PlannedScenario& planned : plan.scenarios) {
      starts.push_back(base);
      base += planned.scenario.grid.size();
    }
    total = base;
  }

  std::pair<size_t, size_t> locate(size_t chunk) const {
    // Last scenario whose first chunk is <= chunk. starts is nonempty and
    // starts[0] == 0 (validate() rejects empty grids), so the upper_bound
    // is never begin().
    const auto it = std::upper_bound(starts.begin(), starts.end(), chunk);
    const size_t scenario = static_cast<size_t>(it - starts.begin()) - 1;
    return {scenario, chunk - starts[scenario]};
  }

  std::vector<size_t> starts;
  size_t total = 0;
};

void mix(uint64_t* hash, uint64_t value) {
  // FNV-1a over the value's bytes, little-endian.
  for (int i = 0; i < 8; ++i) {
    *hash ^= value >> i * 8 & 0xff;
    *hash *= 0x100000001b3;
  }
}

void mix_string(uint64_t* hash, const std::string& text) {
  mix(hash, text.size());
  *hash = fnv1a64(text, *hash);
}

/// Keeps the one scenario's results for run_points.
class CollectingSink final : public ChunkSink {
 public:
  void on_scenario_end(size_t, const PlannedScenario&,
                       const std::vector<PointResult>& scenario_results,
                       const std::vector<std::string>&) override {
    results = scenario_results;
  }

  std::vector<PointResult> results;
};

}  // namespace

size_t SweepPlan::chunk_count() const {
  size_t total = 0;
  for (const PlannedScenario& planned : scenarios) {
    total += planned.scenario.grid.size();
  }
  return total;
}

SweepPlan make_plan(const std::vector<const Scenario*>& selected,
                    int seeds_override) {
  SweepPlan plan;
  plan.scenarios.reserve(selected.size());
  for (const Scenario* scenario : selected) {
    validate(*scenario);
    for (const PlannedScenario& earlier : plan.scenarios) {
      if (earlier.scenario.name == scenario->name) {
        throw std::invalid_argument("scenario '" + scenario->name +
                                    "' selected twice");
      }
    }
    PlannedScenario planned;
    planned.scenario = *scenario;
    planned.seeds =
        seeds_override > 0 ? seeds_override : scenario->default_seeds;
    plan.scenarios.push_back(std::move(planned));
  }
  return plan;
}

void apply_overrides(const PlanOverrides& overrides, SweepPlan* plan) {
  const auto& by_name = overrides.max_rounds_by_scenario;
  for (PlannedScenario& planned : plan->scenarios) {
    const auto named = by_name.find(planned.scenario.name);
    const long rounds =
        named != by_name.end() ? named->second : overrides.max_rounds;
    for (ExperimentPoint& point : planned.scenario.grid) {
      if (rounds != 0) point.max_rounds = rounds;
      if (overrides.engine != EngineMode::kAuto) {
        point.engine = overrides.engine;
      }
    }
  }
}

uint64_t plan_fingerprint(const SweepPlan& plan) {
  // v2: the drift/maintenance point fields joined the mix. Point fields
  // go in kPointFields order: integers and enums as 64 bits, crash waves
  // as their count, then (round, count) per wave.
  uint64_t hash = fnv1a64("wsync-sweep-plan-v2");
  mix(&hash, plan.scenarios.size());
  for (const PlannedScenario& planned : plan.scenarios) {
    const Scenario& s = planned.scenario;
    mix_string(&hash, s.name);
    mix(&hash, static_cast<uint64_t>(planned.seeds));
    mix(&hash, s.grid.size());
    for (const ExperimentPoint& p : s.grid) {
      for_each_coded(kPointFields, p, [&](const auto&, const auto& value) {
        using Value = std::remove_cvref_t<decltype(value)>;
        if constexpr (std::is_same_v<Value, std::vector<CrashWave>>) {
          mix(&hash, value.size());
          for (const CrashWave& wave : value) {
            mix(&hash, static_cast<uint64_t>(wave.round));
            mix(&hash, static_cast<uint64_t>(wave.count));
          }
        } else {
          mix(&hash, static_cast<uint64_t>(value));
        }
      });
    }
  }
  return hash;
}

SweepOutcome run_streaming_sweep(const SweepPlan& plan, ThreadPool& pool,
                                 const StreamingSweepOptions& options,
                                 ChunkSink& sink) {
  const ChunkMap map(plan);
  if (options.resume != nullptr) {
    // Belt and braces on top of the fingerprint: every resumed chunk must
    // exist in this plan.
    for (const auto& [key, result] : *options.resume) {
      bool known = false;
      for (const PlannedScenario& planned : plan.scenarios) {
        if (planned.scenario.name == key.first &&
            key.second < planned.scenario.grid.size()) {
          known = true;
          break;
        }
      }
      if (!known) {
        throw std::runtime_error(
            "checkpoint covers unknown chunk: scenario '" + key.first +
            "' point " + std::to_string(key.second));
      }
    }
  }

  // Per-scenario seed vectors, computed once.
  std::vector<std::vector<uint64_t>> seeds;
  seeds.reserve(plan.scenarios.size());
  for (const PlannedScenario& planned : plan.scenarios) {
    seeds.push_back(make_seeds(planned.seeds));
  }

  const size_t window =
      options.window > 0
          ? options.window
          : 2 * static_cast<size_t>(pool.worker_count());

  // Ring storage, indexed chunk % window: the spec and per-seed outcomes of
  // every admitted chunk. Freed (assign of empty) as soon as the chunk is
  // aggregated, which is what bounds peak memory per-chunk.
  struct ChunkState {
    RunSpec spec;
    std::vector<RunOutcome> outcomes;
    bool from_checkpoint = false;
    /// Admission-to-delivery latency meter (kTiming only; never a result).
    telemetry::Stopwatch stopwatch;
  };
  std::vector<ChunkState> ring(window);

  SweepOutcome outcome;
  std::vector<PointResult> scenario_results;

  // The one chunk whose first seed carries options.trace: the first chunk
  // admitted that is actually computed. Admission happens in chunk order on
  // this thread, so the choice is deterministic.
  std::optional<size_t> traced_chunk;

  auto tasks_in_chunk = [&](size_t chunk) -> size_t {
    const auto [si, pi] = map.locate(chunk);
    const PlannedScenario& planned = plan.scenarios[si];
    ChunkState& state = ring[chunk % window];
    state.stopwatch.reset();
    state.from_checkpoint =
        options.resume != nullptr &&
        options.resume->count({planned.scenario.name, pi}) > 0;
    if (state.from_checkpoint) {
      state.outcomes.clear();
      return 0;
    }
    if (options.trace != nullptr && !traced_chunk.has_value()) {
      traced_chunk = chunk;
    }
    state.spec = make_run_spec(planned.scenario.grid[pi]);
    state.outcomes.assign(seeds[si].size(), RunOutcome{});
    return seeds[si].size();
  };

  auto run_task = [&](size_t chunk, size_t task) {
    const auto [si, pi] = map.locate(chunk);
    ChunkState& state = ring[chunk % window];
    RunSpec seeded = state.spec;
    seeded.sim.seed = seeds[si][task];
    if (task == 0 && traced_chunk == chunk) seeded.trace = options.trace;
    state.outcomes[task] = run_sync_experiment(seeded);
  };

  auto on_chunk = [&](size_t chunk) {
    const auto [si, pi] = map.locate(chunk);
    const PlannedScenario& planned = plan.scenarios[si];
    ChunkState& state = ring[chunk % window];

    if (pi == 0) sink.on_scenario_begin(si, planned);

    PointResult result;
    if (state.from_checkpoint) {
      result = options.resume->at({planned.scenario.name, pi});
      result.point = planned.scenario.grid[pi];
      ++outcome.resumed_chunks;
    } else {
      result = aggregate_point(planned.scenario.grid[pi], state.outcomes);
      // Free the heavy per-seed state now: this is what bounds peak memory
      // per-chunk instead of per-catalog.
      state.outcomes.clear();
      state.outcomes.shrink_to_fit();
      if (options.throttle_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.throttle_ms));
      }
      if (options.checkpoint != nullptr) {
        options.checkpoint->append(planned.scenario.name, pi, result);
      }
      ++outcome.computed_chunks;
    }

    if (options.metrics != nullptr) {
      options.metrics->add_chunk(planned.scenario.name, pi, result);
      if (!state.from_checkpoint) {
        options.metrics->registry()
            .histogram("chunk_latency_millis",
                       telemetry::MetricClass::kTiming,
                       {1.0, 10.0, 100.0, 1000.0, 10000.0})
            .record(state.stopwatch.elapsed_millis());
      }
    }

    sink.on_chunk(si, pi, result, state.from_checkpoint);
    scenario_results.push_back(std::move(result));

    if (pi + 1 == planned.scenario.grid.size()) {
      const std::vector<std::string> failures =
          check_expectations(planned.scenario, scenario_results);
      sink.on_scenario_end(si, planned, scenario_results, failures);
      if (!failures.empty()) ++outcome.failed_scenarios;
      scenario_results.clear();
    }
  };

  OrderedChunkQueue::run(pool, map.total, tasks_in_chunk, run_task, on_chunk,
                         window);
  return outcome;
}

std::vector<PointResult> run_points(const std::vector<ExperimentPoint>& points,
                                    int seeds_per_point, ThreadPool& pool) {
  if (points.empty()) return {};
  PlannedScenario planned{Scenario{}, seeds_per_point};
  planned.scenario.name = "run_points";
  planned.scenario.grid = points;
  CollectingSink sink;
  run_streaming_sweep(SweepPlan{{planned}}, pool, {}, sink);
  return std::move(sink.results);
}

}  // namespace wsync
