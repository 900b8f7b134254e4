// The streaming sharded sweep: bounded-memory, checkpointable catalog
// execution on top of OrderedChunkQueue.
//
// A *plan* is an ordered list of scenarios with resolved seed counts; a
// *chunk* is one (scenario, point) pair; a *task* is one (scenario, point,
// seed) run. run_streaming_sweep schedules tasks over the shared
// ThreadPool, aggregates each chunk's outcomes in seed order the moment its
// last task lands, and delivers chunks to the sink in strict catalog order
// — then frees the chunk's run outcomes, so peak memory is
// O(window x seeds), never the catalog. The sink sequence (and therefore
// every byte the report writers emit) is identical across worker counts,
// window sizes, engines, and one-shot vs kill-and-resume execution: that is
// the contract the crash/resume and serve walls in tests/service/ pin.
//
// Checkpointing: pass a CheckpointWriter to append every freshly computed
// chunk, and/or resume data whose chunks are replayed (zero tasks
// scheduled) instead of recomputed. A resumed PointResult gets its
// ExperimentPoint refilled from the regenerated grid; the plan fingerprint
// (see checkpoint.h) guarantees the grids agree.
#ifndef WSYNC_SERVICE_STREAMING_SWEEP_H_
#define WSYNC_SERVICE_STREAMING_SWEEP_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/scenario/scenario.h"
#include "src/service/checkpoint.h"
#include "src/service/run_metrics.h"

namespace wsync {

class TraceSink;

/// One scenario of a sweep plan, seeds resolved (never 0).
struct PlannedScenario {
  Scenario scenario;
  int seeds = 1;
};

struct SweepPlan {
  std::vector<PlannedScenario> scenarios;

  /// Total chunk count (sum of grid sizes).
  size_t chunk_count() const;
};

/// Builds a validated plan: `seeds_override > 0` replaces every scenario's
/// default_seeds. Throws std::invalid_argument on an invalid scenario or
/// on a scenario selected twice (chunks are keyed by scenario name).
SweepPlan make_plan(const std::vector<const Scenario*>& selected,
                    int seeds_override);

/// The per-point overrides a front end takes: wsync_run's --max-rounds and
/// --engine flags, or a served job's max_rounds= and engine= options.
struct PlanOverrides {
  /// Liveness budget for every point; 0 = each point keeps its own.
  long max_rounds = 0;
  /// Per-scenario budgets (wsync_run's NAME=K); these win over max_rounds.
  std::map<std::string, long> max_rounds_by_scenario;
  /// Engine policy for every point; kAuto = each point keeps its own.
  EngineMode engine = EngineMode::kAuto;
};

/// Applies `overrides` to the plan's own scenario copies. Call it before
/// plan_fingerprint: max_rounds is a fingerprinted point field.
void apply_overrides(const PlanOverrides& overrides, SweepPlan* plan);

/// Fingerprint binding a checkpoint to this plan: scenario names, seed
/// counts, and every kPointFields entry not marked kSkip. That leaves out
/// the engine mode (dense/sparse are bit-identical by contract) and
/// anything about workers or windows — a checkpoint taken at --workers 1
/// --engine dense resumes under --workers 8 --engine sparse.
uint64_t plan_fingerprint(const SweepPlan& plan);

/// Streaming consumer. Callbacks arrive on the caller thread, in catalog
/// order: begin(s), chunk(s, 0..), end(s), begin(s+1), ... Each defaults to
/// a no-op, so a sink overrides only what it consumes.
class ChunkSink {
 public:
  virtual ~ChunkSink() = default;

  virtual void on_scenario_begin(size_t /*scenario_index*/,
                                 const PlannedScenario& /*planned*/) {}

  /// One completed chunk; `from_checkpoint` marks replayed (not
  /// recomputed) results.
  virtual void on_chunk(size_t /*scenario_index*/, size_t /*point_index*/,
                        const PointResult& /*result*/,
                        bool /*from_checkpoint*/) {}

  /// After the scenario's last chunk: its full result row set (small — one
  /// aggregate per point) and the unmet expectations.
  virtual void on_scenario_end(
      size_t /*scenario_index*/, const PlannedScenario& /*planned*/,
      const std::vector<PointResult>& /*results*/,
      const std::vector<std::string>& /*failures*/) {}
};

struct StreamingSweepOptions {
  /// Max chunks admitted past the flush frontier; 0 = 2 x pool workers.
  size_t window = 0;
  /// When set, every freshly computed chunk is appended (and flushed).
  CheckpointWriter* checkpoint = nullptr;
  /// When set, chunks present here are replayed instead of recomputed.
  const CheckpointData* resume = nullptr;
  /// Test-only throttle: sleep this long before flushing each computed
  /// chunk, so the crash/resume harnesses can kill a run mid-grid
  /// deterministically. Never affects results, only pacing.
  int throttle_ms = 0;
  /// When set, records one deterministic metrics block per delivered chunk
  /// (on the delivery thread, in catalog order — computed and resumed
  /// chunks alike, so a resumed sweep accumulates the one-shot blocks) plus
  /// a chunk-latency timing histogram for computed chunks.
  RunMetricsCollector* metrics = nullptr;
  /// When set, attached to the first seed of the FIRST freshly computed
  /// chunk — a single task owns the sink, and every round executes with or
  /// without it, so every result stays byte-identical to the untraced
  /// sweep.
  TraceSink* trace = nullptr;
};

struct SweepOutcome {
  int failed_scenarios = 0;
  size_t computed_chunks = 0;
  size_t resumed_chunks = 0;
};

/// Runs the plan. Throws std::runtime_error when resume data names a chunk
/// the plan does not contain (a checkpoint/plan mismatch the fingerprint
/// should have caught), or when a task fails. Returns with the pool idle,
/// so pool.stats() is exact.
SweepOutcome run_streaming_sweep(const SweepPlan& plan, ThreadPool& pool,
                                 const StreamingSweepOptions& options,
                                 ChunkSink& sink);

/// The adapter for benches and tests: `points` as one unvalidated scenario
/// at make_seeds(seeds_per_point), through run_streaming_sweep on `pool`.
/// Results match `points` index for index, bit-identical at any worker
/// count to the serial run_sync_experiment + aggregate_point loop.
std::vector<PointResult> run_points(const std::vector<ExperimentPoint>& points,
                                    int seeds_per_point, ThreadPool& pool);

}  // namespace wsync

#endif  // WSYNC_SERVICE_STREAMING_SWEEP_H_
