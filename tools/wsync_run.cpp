// wsync_run — the scenario catalog driver.
//
//   wsync_run --list [--filter REGEX]    # catalog overview
//   wsync_run --all [--seeds K] [--workers W] [--json PATH] [--csv PATH]
//   wsync_run NAME [NAME...] [options]   # run a subset by name
//   wsync_run --filter REGEX [options]   # run scenarios matching a pattern
//   wsync_run ... --max-rounds [NAME=]K  # override per-point round budgets
//   wsync_run ... --checkpoint PATH [--resume]  # checkpointable execution
//   wsync_run ... --metrics-out PATH     # export the metrics document
//   wsync_run ... --trace-out PATH       # Chrome trace
//
// Every selected scenario runs through the streaming sweep service
// (src/service/): (scenario, point, seed)-granular jobs on one shared pool,
// chunks merged back in catalog order, and the JSON/CSV exports streamed to
// disk as scenarios complete — peak memory is bounded by the scheduling
// window, never the catalog. stdout gets a markdown table per scenario.
// Exports contain only deterministic aggregates (never worker counts or
// wall-clock), so two runs at different --workers must produce
// byte-identical files — CI diffs exactly that, and the same guarantee
// extends to one-shot vs kill-and-resume vs served execution.
//
// --checkpoint PATH appends every completed chunk to a self-checksummed
// checkpoint file; --resume (requires --checkpoint) replays the chunks a
// previous, possibly killed, run already completed and computes only the
// rest, producing byte-identical exports. --max-rounds overrides the
// liveness budget of every point (bare K) or of one scenario's points
// (NAME=K, repeatable; the per-scenario form wins). Exit status: 0 when
// every scenario met its expected invariants (including per-point energy
// budgets), 1 otherwise, 2 on usage errors (a scenario named twice
// included) or when a write fails: an export file, the --checkpoint log or
// stdout, --list included.
//
// --metrics-out PATH writes the wsync-metrics-v1 JSON document (see
// src/service/run_metrics.h): the "deterministic" section is
// byte-identical across --workers, --engine, and one-shot vs resumed
// execution — CI diffs it the same way it diffs the exports — while
// "engine" and "timing" carry the per-engine and wall-clock observations.
// --trace-out PATH streams a Chrome trace-event JSON array (load it in
// Perfetto / chrome://tracing) of the first computed chunk's first seed;
// attaching the sink never changes any result.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/common/types.h"
#include "src/scenario/registry.h"
#include "src/scenario/report.h"
#include "src/scenario/scenario.h"
#include "src/service/checkpoint.h"
#include "src/service/output_set.h"
#include "src/service/run_metrics.h"
#include "src/service/serve_protocol.h"
#include "src/service/streaming_sweep.h"
#include "src/stats/table.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/stopwatch.h"
#include "src/telemetry/trace_writer.h"

namespace wsync {
namespace {

struct Options {
  bool list = false;
  bool all = false;
  int seeds = 0;    // 0 = per-scenario default
  int workers = 0;  // 0 = ThreadPool::default_workers()
  std::string json_path;
  std::string csv_path;
  std::string filter;  // regex over scenario names; empty = unused
  std::vector<std::string> names;
  PlanOverrides overrides;  // --max-rounds and --engine
  std::string checkpoint_path;  // empty = no checkpointing
  bool resume = false;
  int throttle_ms = 0;  // sleep per computed chunk (test/ops pacing)
  std::string metrics_path;  // empty = no metrics export
  std::string trace_path;    // empty = no Chrome trace export
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: wsync_run --list [--filter REGEX]\n"
               "       wsync_run (--all | --filter REGEX | NAME...)"
               " [--seeds K] [--workers W]\n"
               "                 [--json PATH] [--csv PATH]"
               " [--max-rounds [NAME=]K]...\n"
               "                 [--checkpoint PATH [--resume]]"
               " [--throttle-ms MS]\n"
               "\n"
               "  --list       list the scenario catalog and exit\n"
               "  --all        run every scenario in the catalog\n"
               "  --filter REGEX\n"
               "               select scenarios whose name matches REGEX\n"
               "               (unanchored search; anchor with ^/$)\n"
               "  --seeds K    seeds per experiment point"
               " (default: each scenario's own)\n"
               "  --workers W  thread-pool size (default: hardware)\n"
               "  --json PATH  stream per-scenario JSON summaries to PATH\n"
               "  --csv PATH   stream one flat CSV row per grid point to"
               " PATH\n"
               "  --max-rounds [NAME=]K\n"
               "               override every point's liveness budget (bare"
               " K),\n"
               "               or one scenario's (NAME=K; repeatable,"
               " wins)\n"
               "  --engine dense|sparse|auto\n"
               "               engine policy (default auto ="
               " sparse);\n"
               "               results are bit-identical by contract, so"
               " exports\n"
               "               from the two engines must diff empty\n"
               "  --checkpoint PATH\n"
               "               append every completed chunk (one grid"
               " point) to a\n"
               "               self-checksummed checkpoint file\n"
               "  --resume     skip the chunks PATH already records"
               " (requires\n"
               "               --checkpoint; exports stay byte-identical"
               " to an\n"
               "               uninterrupted run)\n"
               "  --throttle-ms MS\n"
               "               sleep MS after each computed chunk (pacing"
               " for the\n"
               "               crash/resume harnesses; never affects"
               " results)\n"
               "  --metrics-out PATH\n"
               "               write the wsync-metrics-v1 JSON document:"
               " the\n"
               "               \"deterministic\" section is byte-identical"
               " across\n"
               "               --workers/--engine/resume; \"timing\" is"
               " wall-clock\n"
               "  --trace-out PATH\n"
               "               stream a Chrome trace-event JSON array"
               " (Perfetto /\n"
               "               chrome://tracing) of the first computed"
               " chunk's\n"
               "               first seed; never affects results\n");
}

/// Parses `flag`'s value into [min, max]; false after printing why not.
template <typename Int>
bool parse_number_flag(const std::string& flag, const char* value, long min,
                       long max, Int* out) {
  if (value == nullptr) {
    std::fprintf(stderr, "wsync_run: %s needs a value\n", flag.c_str());
    return false;
  }
  long parsed = 0;
  if (!parse_bounded(value, min, max, &parsed)) {
    std::fprintf(stderr, "wsync_run: bad value for %s: '%s'\n", flag.c_str(),
                 value);
    return false;
  }
  *out = static_cast<Int>(parsed);
  return true;
}

/// --max-rounds K sets every point's budget, --max-rounds NAME=K one
/// scenario's.
bool parse_max_rounds(const char* value, Options* options) {
  if (value == nullptr) {
    std::fprintf(stderr, "wsync_run: --max-rounds needs a value\n");
    return false;
  }
  const std::string text = value;
  const size_t eq = text.find('=');
  const bool named = eq != std::string::npos;
  const std::string number = named ? text.substr(eq + 1) : text;
  long rounds = 0;
  if (eq == 0 || !parse_bounded(number, 1, 1L << 40, &rounds)) {
    std::fprintf(stderr, "wsync_run: bad value for --max-rounds: '%s'\n",
                 value);
    return false;
  }
  if (named) {
    options->overrides.max_rounds_by_scenario[text.substr(0, eq)] = rounds;
  } else {
    options->overrides.max_rounds = rounds;
  }
  return true;
}

/// The Options field a path-valued flag sets, or nullptr.
std::string* path_field(const std::string& flag, Options* options) {
  if (flag == "--json") return &options->json_path;
  if (flag == "--csv") return &options->csv_path;
  if (flag == "--checkpoint") return &options->checkpoint_path;
  if (flag == "--metrics-out") return &options->metrics_path;
  if (flag == "--trace-out") return &options->trace_path;
  return nullptr;
}

bool parse_args(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      std::exit(0);
    } else if (arg == "--list") {
      options->list = true;
    } else if (arg == "--all") {
      options->all = true;
    } else if (arg == "--seeds") {
      if (!parse_number_flag(arg, next, 1, 1 << 20, &options->seeds)) {
        return false;
      }
      ++i;
    } else if (arg == "--workers") {
      if (!parse_number_flag(arg, next, 1, ThreadPool::kMaxWorkers,
                          &options->workers)) {
        return false;
      }
      ++i;
    } else if (arg == "--throttle-ms") {
      if (!parse_number_flag(arg, next, 0, 1 << 20, &options->throttle_ms)) {
        return false;
      }
      ++i;
    } else if (std::string* path = path_field(arg, options)) {
      if (next == nullptr) {
        std::fprintf(stderr, "wsync_run: %s needs a path\n", arg.c_str());
        return false;
      }
      *path = next;
      ++i;
    } else if (arg == "--resume") {
      options->resume = true;
    } else if (arg == "--filter") {
      if (next == nullptr || *next == '\0') {
        std::fprintf(stderr, "wsync_run: --filter needs a regex\n");
        return false;
      }
      options->filter = next;
      ++i;
    } else if (arg == "--max-rounds") {
      if (!parse_max_rounds(next, options)) return false;
      ++i;
    } else if (arg == "--engine") {
      if (next == nullptr) {
        std::fprintf(stderr, "wsync_run: --engine needs a value\n");
        return false;
      }
      if (!parse_engine_mode(next, &options->overrides.engine)) {
        std::fprintf(stderr,
                     "wsync_run: bad value for --engine: '%s' (want %s, %s "
                     "or %s)\n",
                     next, to_string(EngineMode::kDense),
                     to_string(EngineMode::kSparse),
                     to_string(EngineMode::kAuto));
        return false;
      }
      ++i;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "wsync_run: unknown flag '%s'\n", arg.c_str());
      return false;
    } else {
      options->names.push_back(arg);
    }
  }
  if (options->list) return true;
  const int selectors = (options->all ? 1 : 0) +
                        (options->names.empty() ? 0 : 1) +
                        (options->filter.empty() ? 0 : 1);
  if (selectors != 1) {
    std::fprintf(stderr,
                 "wsync_run: pass exactly one of --all, --filter REGEX, or "
                 "scenario names (see --list)\n");
    return false;
  }
  if (options->resume && options->checkpoint_path.empty()) {
    std::fprintf(stderr, "wsync_run: --resume requires --checkpoint PATH\n");
    return false;
  }
  for (const auto& [name, rounds] :
       options->overrides.max_rounds_by_scenario) {
    if (ScenarioRegistry::find(name) == nullptr) {
      std::fprintf(stderr,
                   "wsync_run: --max-rounds names unknown scenario '%s' "
                   "(see --list)\n",
                   name.c_str());
      return false;
    }
  }
  return true;
}

/// The --filter selection, or nullopt after printing an error (bad regex or
/// nothing matched).
std::optional<std::vector<const Scenario*>> filtered_selection(
    const std::string& filter) {
  std::vector<const Scenario*> selected;
  try {
    selected = ScenarioRegistry::matching(filter);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "wsync_run: %s\n", error.what());
    return std::nullopt;
  }
  if (selected.empty()) {
    std::fprintf(stderr,
                 "wsync_run: --filter '%s' matches no scenario (see "
                 "--list)\n",
                 filter.c_str());
    return std::nullopt;
  }
  return selected;
}

int list_catalog(const Options& options) {
  std::vector<const Scenario*> listed;
  if (!options.filter.empty()) {
    const auto selected = filtered_selection(options.filter);
    if (!selected.has_value()) return 2;
    listed = *selected;
  } else {
    for (const Scenario& scenario : ScenarioRegistry::all()) {
      listed.push_back(&scenario);
    }
  }
  Table table({"name", "points", "seeds", "expects", "summary"});
  for (const Scenario* scenario_ptr : listed) {
    const Scenario& scenario = *scenario_ptr;
    std::string expects;
    auto expect = [&expects](bool on, const char* what) {
      if (!on) return;
      if (!expects.empty()) expects += "+";
      expects += what;
    };
    expect(scenario.expect_all_synced, "synced");
    expect(scenario.expect_agreement_clean, "agreement");
    expect(scenario.expect_correctness_clean, "correctness");
    if (expects.empty()) expects = "commit-only";
    table.row()
        .cell(scenario.name)
        .cell(static_cast<int64_t>(scenario.grid.size()))
        .cell(static_cast<int64_t>(scenario.default_seeds))
        .cell(expects)
        .cell(scenario.summary);
  }
  std::printf("%zu scenarios:\n\n%s", listed.size(),
              table.markdown().c_str());
  std::printf(
      "\nAll scenarios additionally expect zero synch-commit violations\n"
      "(no output is ever retracted to bottom) and zero energy-budget\n"
      "violations on points that set one.\n");
  return OutputSet("wsync_run").finish() ? 0 : 2;
}

/// Streams the CLI's per-scenario stdout report and feeds the exports, all
/// in catalog order as the sweep service merges chunks.
class CliSink : public ChunkSink {
 public:
  explicit CliSink(OutputSet* outputs) : outputs_(outputs) {}

  void on_scenario_begin(size_t /*scenario_index*/,
                         const PlannedScenario& planned) override {
    std::printf("## %s — %s\n\n", planned.scenario.name.c_str(),
                planned.scenario.summary.c_str());
    std::printf("%zu points x %d seeds\n\n", planned.scenario.grid.size(),
                planned.seeds);
    std::fflush(stdout);
  }

  void on_scenario_end(size_t /*scenario_index*/,
                       const PlannedScenario& planned,
                       const std::vector<PointResult>& results,
                       const std::vector<std::string>& failures) override {
    const Table table = results_table(planned.scenario, results);
    std::printf("%s\n", table.markdown().c_str());
    for (const std::string& failure : failures) {
      std::printf("EXPECTATION FAILED: %s\n", failure.c_str());
    }
    std::printf("%s\n\n", failures.empty() ? "ok" : "FAILED");
    std::fflush(stdout);
    outputs_->add_scenario(planned, results, failures);
  }

 private:
  OutputSet* outputs_;
};

int run_selection(const Options& options) {
  std::vector<const Scenario*> selected;
  if (options.all) {
    for (const Scenario& scenario : ScenarioRegistry::all()) {
      selected.push_back(&scenario);
    }
  } else if (!options.filter.empty()) {
    const auto filtered = filtered_selection(options.filter);
    if (!filtered.has_value()) return 2;
    selected = *filtered;
  } else {
    for (const std::string& name : options.names) {
      const Scenario* scenario = ScenarioRegistry::find(name);
      if (scenario == nullptr) {
        std::fprintf(stderr,
                     "wsync_run: unknown scenario '%s' (see --list)\n",
                     name.c_str());
        return 2;
      }
      selected.push_back(scenario);
    }
  }

  SweepPlan plan;
  try {
    plan = make_plan(selected, options.seeds);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "wsync_run: %s\n", error.what());
    return 2;
  }
  apply_overrides(options.overrides, &plan);
  const uint64_t fingerprint = plan_fingerprint(plan);

  CheckpointData resumed;
  if (options.resume) {
    CheckpointLoad load = load_checkpoint(options.checkpoint_path,
                                          fingerprint);
    if (!load.ok()) {
      std::fprintf(stderr, "wsync_run: %s\n", load.error.c_str());
      return 2;
    }
    if (load.dropped_partial_tail) {
      std::fprintf(stderr,
                   "wsync_run: checkpoint '%s': dropped an interrupted "
                   "partial tail line\n",
                   options.checkpoint_path.c_str());
    }
    resumed = std::move(load.chunks);
  }

  // Every output opens up front, so an unwritable path fails fast instead
  // of after the whole run.
  OutputSet outputs("wsync_run");
  if (!outputs.open_checkpoint(options.checkpoint_path, fingerprint,
                               options.resume) ||
      !outputs.open("--json", options.json_path) ||
      !outputs.open("--csv", options.csv_path) ||
      !outputs.open("--metrics-out", options.metrics_path) ||
      !outputs.open("--trace-out", options.trace_path)) {
    return 2;
  }
  std::ostream* metrics_file = outputs.file("--metrics-out");
  std::optional<telemetry::ChromeTraceWriter> trace_writer;
  std::optional<telemetry::TelemetrySink> trace_sink;
  if (std::ostream* trace_file = outputs.file("--trace-out")) {
    trace_writer.emplace(*trace_file);
    trace_sink.emplace(&*trace_writer);
  }

  telemetry::MetricsRegistry registry;
  RunMetricsCollector metrics(&registry);

  ThreadPool pool(options.workers);
  CliSink sink(&outputs);
  StreamingSweepOptions sweep_options;
  sweep_options.checkpoint = outputs.checkpoint();
  sweep_options.resume = options.resume ? &resumed : nullptr;
  sweep_options.throttle_ms = options.throttle_ms;
  sweep_options.metrics = metrics_file != nullptr ? &metrics : nullptr;
  sweep_options.trace = trace_sink.has_value() ? &*trace_sink : nullptr;

  const telemetry::Stopwatch sweep_watch;
  SweepOutcome outcome;
  try {
    outcome = run_streaming_sweep(plan, pool, sweep_options, sink);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "wsync_run: %s\n", error.what());
    return 2;
  }
  if (trace_writer.has_value()) trace_writer->close();

  if (metrics_file != nullptr) {
    // Timing metrics land in the "timing" section only — the walls and CI
    // diff "deterministic" alone, so wall-clock and pool-schedule noise
    // here is harmless by construction.
    const auto timing = telemetry::MetricClass::kTiming;
    const ThreadPool::Stats pool_stats = pool.stats();
    const double sweep_millis = sweep_watch.elapsed_millis();
    registry.gauge("stage_sweep_millis", timing).set(sweep_millis);
    registry.counter("pool_tasks_executed", timing)
        .add(pool_stats.tasks_executed);
    registry.gauge("pool_busy_millis", timing)
        .set(static_cast<double>(pool_stats.busy_nanos) / 1e6);
    registry.gauge("pool_peak_pending", timing)
        .set(static_cast<double>(pool_stats.peak_pending));
    registry.gauge("pool_workers", timing)
        .set(static_cast<double>(pool_stats.workers));
    // Fraction of worker wall time spent inside tasks over the sweep.
    const double capacity_millis = sweep_millis * pool_stats.workers;
    registry.gauge("pool_utilization", timing)
        .set(capacity_millis > 0.0
                 ? static_cast<double>(pool_stats.busy_nanos) / 1e6 /
                       capacity_millis
                 : 0.0);
    metrics.write_json(*metrics_file);
  }

  std::printf("%zu scenario(s), %d failed\n", plan.scenarios.size(),
              outcome.failed_scenarios);
  if (!outputs.finish()) return 2;
  return outcome.failed_scenarios == 0 ? 0 : 1;
}

}  // namespace
}  // namespace wsync

int main(int argc, char** argv) {
  wsync::Options options;
  if (!wsync::parse_args(argc, argv, &options)) {
    wsync::print_usage(stderr);
    return 2;
  }
  if (options.list) return wsync::list_catalog(options);
  return wsync::run_selection(options);
}
