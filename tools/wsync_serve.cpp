// wsync_serve — the line-oriented scenario job server.
//
//   wsync_serve [--jobs PATH] [--workers W] [--json PATH] [--csv PATH]
//               [--deadline-ms MS]
//
// Reads jobs one per line from --jobs (default: stdin) and streams results
// back on stdout, so a driver can feed a long grid through one warm process
// instead of one wsync_run invocation per scenario. The grammar lives in
// src/service/serve_protocol.h:
//
//   run NAME [seeds=K] [max_rounds=K] [engine=dense|sparse|auto]
//   all [seeds=K] [max_rounds=K] [engine=dense|sparse|auto]
//   ping                         # answered with "pong"
//   quit                         # stop reading, shut down cleanly
//
// Per scenario the server emits `begin NAME points=P seeds=K`, one
// `point <csv row>` line per grid point the moment the streaming sweep
// merges it (catalog order, same bytes as the --csv export rows), any
// `fail <expectation>` lines, and `end NAME ok|FAILED`. Jobs run on one
// shared ThreadPool through the same sweep service as wsync_run, and the
// optional --json/--csv exports use the same streaming writers — a served
// `all seeds=K` must produce byte-identical export files to
// `wsync_run --all --seeds K`, which CI diffs.
//
// After each executed job the server prints one telemetry line:
//
//   stat jobs=N failed=M job_millis=X pool_busy_millis=Y pool_tasks=T
//
// job_millis is the just-finished job's wall time (telemetry Stopwatch);
// the pool_* figures are cumulative since startup. stat lines are
// operational observability only — they never appear in the exports, and
// drivers parsing point/end lines can ignore them.
//
// --deadline-ms arms an operational watchdog, a telemetry Stopwatch started
// before `serve: ready`: once it reads past the deadline the server stops
// accepting jobs after the current one and prints `serve: deadline
// reached`. It gates acceptance only — results never depend on it. Expiry
// is latched at every shutdown path (loop top, after a job drains, stdin
// EOF, quit), so a deadline that fires while a job is draining or while
// getline blocks is still reported and still reflected in the exit status.
//
// Exit status: 0 when every executed job met its expectations, 1 when any
// scenario FAILED, 2 on a malformed job line, an unknown scenario name, a
// bad flag (stderr says which; nothing after the bad line executes) or a
// failed write to stdout or the --json/--csv export (checked at shutdown:
// a write error such as a full disk surfaces only when the stream
// flushes), 3 when the --deadline-ms watchdog fired (and no executed job
// FAILED — job failures keep exit 1).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/scenario/registry.h"
#include "src/scenario/report.h"
#include "src/scenario/scenario.h"
#include "src/service/output_set.h"
#include "src/service/serve_protocol.h"
#include "src/service/streaming_sweep.h"
#include "src/telemetry/stopwatch.h"

namespace wsync {
namespace {

struct Options {
  std::string jobs_path;  // empty = stdin
  int workers = 0;        // 0 = ThreadPool::default_workers()
  std::string json_path;
  std::string csv_path;
  long deadline_ms = -1;  // < 0 = no watchdog
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: wsync_serve [--jobs PATH] [--workers W]"
               " [--json PATH] [--csv PATH]\n"
               "                   [--deadline-ms MS]\n"
               "\n"
               "  --jobs PATH      read job lines from PATH instead of"
               " stdin\n"
               "  --workers W      thread-pool size (default: hardware)\n"
               "  --json PATH      stream per-scenario JSON summaries to"
               " PATH\n"
               "  --csv PATH       stream one flat CSV row per grid point"
               " to PATH\n"
               "  --deadline-ms MS stop accepting jobs once MS ms have"
               " elapsed\n"
               "                   (operational watchdog; never affects"
               " results;\n"
               "                   exit 3 when it fires)\n"
               "\n"
               "job lines (one per line; # comments and blanks ignored):\n"
               "  run NAME [seeds=K] [max_rounds=K]"
               " [engine=dense|sparse|auto]\n"
               "  all [seeds=K] [max_rounds=K]"
               " [engine=dense|sparse|auto]\n"
               "  ping\n"
               "  quit\n");
}

/// Parses `flag`'s value into [min, max]; false after printing why not.
template <typename Int>
bool parse_number_flag(const std::string& flag, const char* value, long min,
                       long max, Int* out) {
  if (value == nullptr) {
    std::fprintf(stderr, "wsync_serve: %s needs a value\n", flag.c_str());
    return false;
  }
  long parsed = 0;
  if (!parse_bounded(value, min, max, &parsed)) {
    std::fprintf(stderr, "wsync_serve: bad value for %s: '%s'\n",
                 flag.c_str(), value);
    return false;
  }
  *out = static_cast<Int>(parsed);
  return true;
}

/// The Options field a path-valued flag sets, or nullptr.
std::string* path_field(const std::string& flag, Options* options) {
  if (flag == "--jobs") return &options->jobs_path;
  if (flag == "--json") return &options->json_path;
  if (flag == "--csv") return &options->csv_path;
  return nullptr;
}

bool parse_args(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      std::exit(0);
    } else if (std::string* path = path_field(arg, options)) {
      if (next == nullptr) {
        std::fprintf(stderr, "wsync_serve: %s needs a path\n", arg.c_str());
        return false;
      }
      *path = next;
      ++i;
    } else if (arg == "--workers") {
      if (!parse_number_flag(arg, next, 1, ThreadPool::kMaxWorkers,
                             &options->workers)) {
        return false;
      }
      ++i;
    } else if (arg == "--deadline-ms") {
      if (!parse_number_flag(arg, next, 0, 1L << 40, &options->deadline_ms)) {
        return false;
      }
      ++i;
    } else {
      std::fprintf(stderr, "wsync_serve: unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Streams the protocol's begin/point/fail/end lines and feeds the
/// exports. Every line is flushed so a pipe-connected driver sees progress
/// the moment a chunk merges.
class ServeSink : public ChunkSink {
 public:
  explicit ServeSink(OutputSet* outputs) : outputs_(outputs) {}

  void on_scenario_begin(size_t /*scenario_index*/,
                         const PlannedScenario& planned) override {
    std::printf("begin %s points=%zu seeds=%d\n",
                planned.scenario.name.c_str(), planned.scenario.grid.size(),
                planned.seeds);
    std::fflush(stdout);
  }

  void on_chunk(size_t scenario_index, size_t point_index,
                const PointResult& result,
                bool /*from_checkpoint*/) override {
    const PlannedScenario& planned = plan_->scenarios[scenario_index];
    std::printf("point %s\n",
                csv_point_row(planned.scenario, point_index, result).c_str());
    std::fflush(stdout);
  }

  void on_scenario_end(size_t /*scenario_index*/,
                       const PlannedScenario& planned,
                       const std::vector<PointResult>& results,
                       const std::vector<std::string>& failures) override {
    for (const std::string& failure : failures) {
      std::printf("fail %s\n", failure.c_str());
    }
    std::printf("end %s %s\n", planned.scenario.name.c_str(),
                failures.empty() ? "ok" : "FAILED");
    std::fflush(stdout);
    outputs_->add_scenario(planned, results, failures);
  }

  /// on_chunk receives only indices; the serve loop points the sink at
  /// each job's plan before running it.
  void set_plan(const SweepPlan* plan) { plan_ = plan; }

 private:
  OutputSet* outputs_;
  const SweepPlan* plan_ = nullptr;
};

int serve(const Options& options, std::istream& jobs) {
  OutputSet outputs("wsync_serve");
  if (!outputs.open("--json", options.json_path) ||
      !outputs.open("--csv", options.csv_path)) {
    return 2;
  }

  ThreadPool pool(options.workers);
  ServeSink sink(&outputs);
  const telemetry::Stopwatch since_ready;

  std::printf("serve: ready\n");
  std::fflush(stdout);

  size_t executed_jobs = 0;
  int failed_jobs = 0;
  // Latched, not re-read at exit-code time: the watchdog can fire while a
  // job drains or while getline() blocks, and every shutdown path must
  // agree on whether it did. Re-reading the clock independently per path
  // let an EOF arriving after the fire report a clean exit 0.
  // --deadline-ms is at most 2^40, so its nanoseconds fit in 64 bits.
  bool deadline_fired = false;
  const auto check_deadline = [&]() {
    if (!deadline_fired && options.deadline_ms >= 0 &&
        since_ready.elapsed_nanos() >= options.deadline_ms * 1'000'000) {
      deadline_fired = true;
      std::printf("serve: deadline reached\n");
      std::fflush(stdout);
    }
    return deadline_fired;
  };
  std::string line;
  while (true) {
    if (check_deadline()) break;
    if (!std::getline(jobs, line)) {  // EOF shuts down like quit...
      check_deadline();  // ...but a deadline that fired first still reports
      break;
    }

    std::optional<ServeJob> job;
    try {
      job = parse_job_line(line);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "wsync_serve: %s\n", error.what());
      return 2;
    }
    if (!job.has_value()) continue;  // blank or comment
    if (job->kind == ServeJob::Kind::kQuit) {
      check_deadline();
      break;
    }
    if (job->kind == ServeJob::Kind::kPing) {
      std::printf("pong\n");
      std::fflush(stdout);
      continue;
    }

    std::vector<const Scenario*> selected;
    if (job->kind == ServeJob::Kind::kRun) {
      const Scenario* scenario = ScenarioRegistry::find(job->name);
      if (scenario == nullptr) {
        std::fprintf(stderr,
                     "wsync_serve: unknown scenario '%s' (see wsync_run "
                     "--list)\n",
                     job->name.c_str());
        return 2;
      }
      selected.push_back(scenario);
    } else {
      for (const Scenario& scenario : ScenarioRegistry::all()) {
        selected.push_back(&scenario);
      }
    }

    SweepOutcome outcome;
    const telemetry::Stopwatch job_watch;
    try {
      SweepPlan plan = make_plan(selected, job->seeds);
      PlanOverrides overrides;
      overrides.max_rounds = job->max_rounds;
      overrides.engine = job->engine;
      apply_overrides(overrides, &plan);
      sink.set_plan(&plan);
      outcome = run_streaming_sweep(plan, pool, StreamingSweepOptions{}, sink);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "wsync_serve: %s\n", error.what());
      return 2;
    }
    ++executed_jobs;
    if (outcome.failed_scenarios > 0) ++failed_jobs;
    const ThreadPool::Stats pool_stats = pool.stats();
    std::printf("stat jobs=%zu failed=%d job_millis=%.3f "
                "pool_busy_millis=%.3f pool_tasks=%lld\n",
                executed_jobs, failed_jobs, job_watch.elapsed_millis(),
                static_cast<double>(pool_stats.busy_nanos) / 1e6,
                static_cast<long long>(pool_stats.tasks_executed));
    std::fflush(stdout);
    // Deadline-fires-during-drain: latch before blocking on the next line.
    if (check_deadline()) break;
  }

  std::printf("serve: done (%zu job(s), %d failed)\n", executed_jobs,
              failed_jobs);
  if (!outputs.finish()) return 2;
  if (failed_jobs > 0) return 1;
  return deadline_fired ? 3 : 0;
}

}  // namespace
}  // namespace wsync

int main(int argc, char** argv) {
  wsync::Options options;
  if (!wsync::parse_args(argc, argv, &options)) {
    wsync::print_usage(stderr);
    return 2;
  }
  if (options.jobs_path.empty()) return wsync::serve(options, std::cin);
  std::ifstream jobs(options.jobs_path);
  if (!jobs) {
    std::fprintf(stderr, "wsync_serve: cannot read --jobs '%s'\n",
                 options.jobs_path.c_str());
    return 2;
  }
  return wsync::serve(options, jobs);
}
