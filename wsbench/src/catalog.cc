// catalog_sweep: the whole scenario catalog through the sweep service, as
// `wsync_run --all --seeds 6 --workers 4` runs it (make_plan ->
// run_streaming_sweep on a 4-worker pool, JSON and CSV writers and a
// CheckpointWriter attached). The workload seed permutes the scenario
// order of the plan; the per-run seeds stay make_seeds(6).
//
// Correctness: every chunk's CSV row must equal the row the dense engine
// computes on one worker (write_catalog_reference, made once per build),
// and no chunk may fail check_expectations. At 8 seeds the catalog fails
// today (whitespace_crash_stress's 7th seed breaks correctness), hence 6.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/experiment/sweep.h"
#include "src/scenario/registry.h"
#include "src/scenario/report.h"
#include "src/scenario/scenario.h"
#include "src/service/checkpoint.h"
#include "src/service/job_queue.h"
#include "src/service/streaming_sweep.h"
#include "wsbench/src/traced_runner.h"
#include "wsbench/src/tracer.h"
#include "wsbench/src/workloads.h"

namespace wsbench {
namespace {

using wsync::PointResult;
using wsync::Scenario;
using wsync::SweepPlan;

constexpr int kSeeds = 6;
constexpr int kWorkers = 4;
/// Set-ups measured before the passes, on top of each pass's own.
constexpr int kExtraSetupSamples = 50;

std::vector<const Scenario*> catalog_in_order() {
  std::vector<const Scenario*> order;
  for (const Scenario& scenario : wsync::ScenarioRegistry::all()) {
    order.push_back(&scenario);
  }
  return order;
}

std::vector<const Scenario*> permuted_catalog(uint64_t seed) {
  std::vector<const Scenario*> order = catalog_in_order();
  wsync::Rng rng(seed);
  rng.shuffle(order);
  return order;
}

std::string chunk_key(const std::string& scenario, size_t point) {
  return scenario + "#" + std::to_string(point);
}

/// What one sweep writes to and runs on: the plan, the export writers,
/// the checkpoint and the pool. Building it is the pass's set-up.
struct SweepRig {
  SweepRig(const std::vector<const Scenario*>& order,
           const std::string& prefix, int workers, wsync::EngineMode engine)
      : plan(wsync::make_plan(order, kSeeds)),
        json_path(prefix + ".json"),
        csv_path(prefix + ".csv"),
        checkpoint_path(prefix + ".ck"),
        json_file(json_path),
        csv_file(csv_path),
        json(json_file),
        csv(csv_file),
        checkpoint(checkpoint_path, wsync::plan_fingerprint(plan), false),
        pool(workers) {
    if (!json_file || !csv_file || !checkpoint.ok()) {
      throw std::runtime_error("cannot write sweep outputs at " + prefix);
    }
    for (wsync::PlannedScenario& planned : plan.scenarios) {
      for (wsync::ExperimentPoint& point : planned.scenario.grid) {
        point.engine = engine;
      }
    }
  }

  int64_t run_count() const {
    int64_t runs = 0;
    for (const wsync::PlannedScenario& planned : plan.scenarios) {
      runs += static_cast<int64_t>(planned.scenario.grid.size()) *
              planned.seeds;
    }
    return runs;
  }

  SweepPlan plan;
  std::string json_path;
  std::string csv_path;
  std::string checkpoint_path;
  std::ofstream json_file;
  std::ofstream csv_file;
  wsync::StreamingJsonWriter json;
  wsync::StreamingCsvWriter csv;
  wsync::CheckpointWriter checkpoint;
  wsync::ThreadPool pool;
};

struct Chunk {
  std::string scenario;
  size_t point = 0;
  PointResult result;
};

/// Feeds the writers like wsync_run's sink and keeps every chunk.
class CollectingSink : public wsync::ChunkSink {
 public:
  explicit CollectingSink(SweepRig* rig) : rig_(rig) {}

  void on_scenario_begin(size_t /*scenario_index*/,
                         const wsync::PlannedScenario& /*planned*/) override {}

  void on_chunk(size_t scenario_index, size_t point_index,
                const PointResult& result, bool /*from_checkpoint*/) override {
    chunks.push_back(
        {rig_->plan.scenarios[scenario_index].scenario.name, point_index,
         result});
  }

  void on_scenario_end(size_t /*scenario_index*/,
                       const wsync::PlannedScenario& planned,
                       const std::vector<PointResult>& results,
                       const std::vector<std::string>& failed) override {
    rig_->json.add_scenario(planned.scenario, planned.seeds, results, failed);
    rig_->csv.add(planned.scenario, results);
    failures.insert(failures.end(), failed.begin(), failed.end());
  }

  std::vector<Chunk> chunks;
  std::vector<std::string> failures;  ///< check_expectations lines

 private:
  SweepRig* rig_;
};

struct SweepPass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<Chunk> chunks;
  std::vector<std::string> failures;
  int64_t runs = 0;
  wsync::ThreadPool::Stats pool;
  double node_rounds = 0.0;
  double export_bytes = 0.0;
  double checkpoint_bytes = 0.0;
};

double file_bytes(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path));
}

/// One production sweep, timed from the first line of set-up until the
/// outputs are closed and the pool has joined.
SweepPass production_pass(const std::vector<const Scenario*>& order,
                          const std::string& prefix, int workers,
                          wsync::EngineMode engine) {
  SweepPass pass;
  const double start = now_s();
  auto rig = std::make_unique<SweepRig>(order, prefix, workers, engine);
  pass.setup_s = now_s() - start;
  CollectingSink sink(rig.get());
  wsync::StreamingSweepOptions options;
  options.checkpoint = &rig->checkpoint;
  wsync::run_streaming_sweep(rig->plan, rig->pool, options, sink);
  rig->json.finish();
  // Quiesce before reading the counters: a worker may still be between
  // finishing its last task and counting it.
  rig->pool.wait_idle();
  pass.pool = rig->pool.stats();
  pass.runs = rig->run_count();
  const std::string json_path = rig->json_path;
  const std::string csv_path = rig->csv_path;
  const std::string checkpoint_path = rig->checkpoint_path;
  rig.reset();
  pass.wall_s = now_s() - start;

  pass.chunks = std::move(sink.chunks);
  pass.failures = std::move(sink.failures);
  for (const Chunk& chunk : pass.chunks) {
    pass.node_rounds += static_cast<double>(chunk.result.point.n) *
                        static_cast<double>(chunk.result.rounds_simulated);
  }
  pass.export_bytes = file_bytes(json_path) + file_bytes(csv_path);
  pass.checkpoint_bytes = file_bytes(checkpoint_path);
  return pass;
}

/// Set-up alone: build the rig and tear it down (untimed).
double setup_seconds(const std::vector<const Scenario*>& order,
                     const std::string& prefix) {
  const double start = now_s();
  const SweepRig rig(order, prefix, kWorkers, wsync::EngineMode::kAuto);
  return now_s() - start;
}

std::string csv_row(const Chunk& chunk) {
  return wsync::csv_point_row(wsync::ScenarioRegistry::get(chunk.scenario),
                              chunk.point, chunk.result);
}

std::map<std::string, std::string> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::map<std::string, std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    rows[line.substr(0, tab)] = line.substr(tab + 1);
  }
  if (rows.size() != wsync::make_plan(catalog_in_order(), kSeeds)
                         .chunk_count()) {
    throw std::runtime_error("reference " + path + " is incomplete");
  }
  return rows;
}

/// Tallies one pass's checks into `report`: each chunk is an operation;
/// it fails when its row differs from the reference or check_expectations
/// flags it. Returns the failed chunk keys.
std::set<std::string> check_pass(
    const SweepPass& pass, const std::map<std::string, std::string>& reference,
    std::set<std::string>* reported, Report* report) {
  std::set<std::string> bad;
  auto fail = [&](const std::string& key, const std::string& why) {
    bad.insert(key);
    if (reported->insert(key + why).second) {
      report->failures.push_back("catalog_sweep: " + key + ": " + why);
    }
  };
  for (const Chunk& chunk : pass.chunks) {
    const std::string key = chunk_key(chunk.scenario, chunk.point);
    const auto it = reference.find(key);
    if (it == reference.end() || it->second != csv_row(chunk)) {
      fail(key, "row differs from the dense one-worker reference");
    }
  }
  // check_expectations lines read "scenario 'NAME' point I: what".
  for (const std::string& line : pass.failures) {
    const size_t open = line.find('\'');
    const size_t close = line.find('\'', open + 1);
    const size_t point = line.find(" point ", close);
    if (open == std::string::npos || close == std::string::npos ||
        point == std::string::npos) {
      fail(line, "unattributed expectation failure");
      continue;
    }
    const std::string key =
        chunk_key(line.substr(open + 1, close - open - 1),
                  std::stoul(line.substr(point + 7)));
    fail(key, line.substr(line.find(": ", point) + 2));
  }
  if (pass.pool.tasks_executed != pass.runs) {
    fail("thread_pool", "tasks_executed " +
                            std::to_string(pass.pool.tasks_executed) +
                            " != runs " + std::to_string(pass.runs));
  }
  report->attempted += static_cast<int64_t>(pass.chunks.size());
  report->failed += static_cast<int64_t>(bad.size());
  return bad;
}

Report measure(const Options& options,
               const std::map<std::string, std::string>& reference) {
  Report report;
  const std::vector<const Scenario*> order = permuted_catalog(options.seed);
  const std::string prefix = options.out_dir + "/catalog";
  std::vector<double> setups;
  for (int i = 0; i < kExtraSetupSamples; ++i) {
    setups.push_back(setup_seconds(order, prefix));
  }
  std::vector<double> walls;
  double node_rounds = 0.0;
  std::set<std::string> reported;
  const double start = now_s();
  do {
    const SweepPass pass =
        production_pass(order, prefix, kWorkers, wsync::EngineMode::kAuto);
    setups.push_back(pass.setup_s);
    walls.push_back(pass.wall_s);
    node_rounds = pass.node_rounds;
    check_pass(pass, reference, &reported, &report);
  } while (now_s() - start < options.seconds);
  print_passes("catalog_sweep", walls);

  report.values["wall_s"] = median(walls);
  report.values["node_rounds_per_s"] = node_rounds / median(walls);
  report.values["setup_s"] = median(setups);
  return report;
}

/// The traced pass: the same plan through OrderedChunkQueue, the sweep
/// service's fan-out, with the benchmark's own task and delivery steps so
/// every layer call gets a span.
struct TracedSweep {
  SpanLog log;
  RunStats stats;
  std::vector<Chunk> chunks;
  double wall_s = 0.0;
};

TracedSweep traced_pass(const std::vector<const Scenario*>& order,
                        const std::string& prefix) {
  TracedSweep traced;
  SpanLog& log = traced.log;
  const int root = log.open("bench.pass", -1);
  std::optional<SweepRig> rig;
  {
    const ScopedSpan span(log, "service.setup", root);
    rig.emplace(order, prefix, kWorkers, wsync::EngineMode::kAuto);
  }
  const SweepPlan& plan = rig->plan;

  std::vector<size_t> starts;
  std::vector<std::vector<uint64_t>> seeds;
  size_t chunk_count = 0;
  for (const wsync::PlannedScenario& planned : plan.scenarios) {
    starts.push_back(chunk_count);
    chunk_count += planned.scenario.grid.size();
    seeds.push_back(wsync::make_seeds(planned.seeds));
  }
  auto locate = [&](size_t chunk) {
    const size_t si = static_cast<size_t>(
        std::upper_bound(starts.begin(), starts.end(), chunk) -
        starts.begin() - 1);
    return std::pair<size_t, size_t>{si, chunk - starts[si]};
  };

  struct Slot {
    wsync::RunSpec spec;
    std::vector<wsync::RunOutcome> outcomes;
  };
  const size_t window = 2 * kWorkers;
  std::vector<Slot> ring(window);
  SpanLog worker_log;
  std::mutex worker_mutex;  // guards worker_log and traced.stats
  std::vector<PointResult> scenario_results;

  auto tasks_in_chunk = [&](size_t chunk) -> size_t {
    const auto [si, pi] = locate(chunk);
    Slot& slot = ring[chunk % window];
    {
      const ScopedSpan span(log, "experiment.make_run_spec", root);
      slot.spec = wsync::make_run_spec(plan.scenarios[si].scenario.grid[pi]);
    }
    slot.outcomes.assign(seeds[si].size(), wsync::RunOutcome{});
    return seeds[si].size();
  };

  auto run_task = [&](size_t chunk, size_t task) {
    const auto [si, pi] = locate(chunk);
    Slot& slot = ring[chunk % window];
    wsync::RunSpec seeded = slot.spec;
    seeded.sim.seed = seeds[si][task];
    SpanLog local;
    RunStats local_stats;
    slot.outcomes[task] = traced_run(seeded, local, -1,
                                     /*per_round_spans=*/false, &local_stats);
    const std::lock_guard<std::mutex> lock(worker_mutex);
    worker_log.append(std::move(local), -1);
    traced.stats.merge(std::move(local_stats));
  };

  auto on_chunk = [&](size_t chunk) {
    const auto [si, pi] = locate(chunk);
    const wsync::PlannedScenario& planned = plan.scenarios[si];
    Slot& slot = ring[chunk % window];
    PointResult result;
    {
      const ScopedSpan span(log, "experiment.aggregate_point", root);
      result = wsync::aggregate_point(planned.scenario.grid[pi],
                                      slot.outcomes);
    }
    slot.outcomes.clear();
    slot.outcomes.shrink_to_fit();
    {
      const ScopedSpan span(log, "service.checkpoint", root);
      rig->checkpoint.append(planned.scenario.name, pi, result);
    }
    traced.chunks.push_back({planned.scenario.name, pi, result});
    scenario_results.push_back(std::move(result));
    if (pi + 1 == planned.scenario.grid.size()) {
      std::vector<std::string> failures;
      {
        const ScopedSpan span(log, "scenario.check_expectations", root);
        failures = wsync::check_expectations(planned.scenario,
                                             scenario_results);
      }
      {
        const ScopedSpan span(log, "scenario.report", root);
        rig->json.add_scenario(planned.scenario, planned.seeds,
                               scenario_results, failures);
        rig->csv.add(planned.scenario, scenario_results);
      }
      scenario_results.clear();
    }
  };

  wsync::OrderedChunkQueue::run(rig->pool, chunk_count, tasks_in_chunk,
                                run_task, on_chunk, window);
  {
    const ScopedSpan span(log, "scenario.report", root);
    rig->json.finish();
  }
  {
    const ScopedSpan span(log, "service.teardown", root);
    rig.reset();
  }
  log.close(root);
  traced.wall_s = log.spans()[0].dur_s;
  log.append(std::move(worker_log), root);
  return traced;
}

Report trace(const Options& options,
             const std::map<std::string, std::string>& reference) {
  Report report;
  const std::vector<const Scenario*> order = permuted_catalog(options.seed);
  const SweepPass pass = production_pass(order, options.out_dir + "/catalog",
                                         kWorkers, wsync::EngineMode::kAuto);
  std::set<std::string> reported;
  std::set<std::string> bad = check_pass(pass, reference, &reported, &report);

  const TracedSweep traced =
      traced_pass(order, options.out_dir + "/traced_catalog");
  // A second untraced pass after the traced one, so warm-up does not land
  // on one side of the overhead.
  const SweepPass pass_after = production_pass(
      order, options.out_dir + "/catalog", kWorkers, wsync::EngineMode::kAuto);
  bad.merge(check_pass(pass_after, reference, &reported, &report));
  const double untraced_wall = median({pass.wall_s, pass_after.wall_s});
  std::map<std::string, std::string> untraced_lines;
  for (const Chunk& chunk : pass.chunks) {
    untraced_lines[chunk_key(chunk.scenario, chunk.point)] =
        wsync::encode_chunk_line(chunk.scenario, chunk.point, chunk.result);
  }
  for (const Chunk& chunk : traced.chunks) {
    const std::string key = chunk_key(chunk.scenario, chunk.point);
    if (untraced_lines[key] !=
        wsync::encode_chunk_line(chunk.scenario, chunk.point, chunk.result)) {
      report.failures.push_back("catalog_sweep: " + key +
                                ": traced aggregate differs from untraced");
      if (bad.insert(key).second) ++report.failed;
    }
  }

  add_layer_metrics(traced.stats, 0.0, traced.log.spans(), traced.wall_s,
                    untraced_wall, &report);
  auto& v = report.values;
  const std::vector<Span>& spans = traced.log.spans();
  v["experiment.aggregate_s"] =
      total_seconds(spans, "experiment.aggregate_point");
  v["scenario.report_s"] = total_seconds(spans, "scenario.report");
  v["scenario.export_bytes"] = pass.export_bytes;
  v["service.checkpoint_s"] = total_seconds(spans, "service.checkpoint");
  v["service.checkpoint_bytes"] = pass.checkpoint_bytes;
  const double busy_s = static_cast<double>(pass.pool.busy_nanos) / 1e9;
  v["thread_pool.busy_s"] = busy_s;
  v["thread_pool.utilization"] =
      ratio(busy_s, pass.wall_s * static_cast<double>(pass.pool.workers));
  v["thread_pool.tasks_executed"] =
      static_cast<double>(pass.pool.tasks_executed);
  v["thread_pool.tasks_stolen"] = static_cast<double>(pass.pool.tasks_stolen);

  std::ofstream out(options.out_dir + "/trace_catalog_sweep.json");
  write_chrome_trace(spans, out);
  return report;
}

}  // namespace

Report run_catalog_sweep(const Options& options) {
  const std::map<std::string, std::string> reference =
      load_reference(options.reference);
  return options.trace ? trace(options, reference)
                       : measure(options, reference);
}

void write_catalog_reference(const std::string& path,
                             const std::string& out_dir) {
  const SweepPass pass = production_pass(
      catalog_in_order(), out_dir + "/reference", 1, wsync::EngineMode::kDense);
  std::ofstream out(path);
  for (const Chunk& chunk : pass.chunks) {
    out << chunk_key(chunk.scenario, chunk.point) << '\t' << csv_row(chunk)
        << '\n';
  }
  if (!out) throw std::runtime_error("cannot write reference " + path);
}

}  // namespace wsbench
