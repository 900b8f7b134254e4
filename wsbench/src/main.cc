// wsync_bench — the benchmark driver behind wsbench/run.py.
//
//   wsync_bench --workload NAME --seed N --seconds S --trace 0|1
//               --out-dir DIR [--reference PATH]
//   wsync_bench --make-reference PATH --out-dir DIR
//
// Prints one JSON object as its last stdout line: {"correct", "attempted",
// "failed", "metrics"}; with --trace 0 the metrics are the end-to-end
// ones, with --trace 1 the per-layer ones. Failed checks are listed on
// stderr. All timing goes through bench::Stopwatch (bench/bench_util.h);
// the only randomness is the seeded wsync::Rng.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "wsbench/src/workloads.h"

namespace wsbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// peak_rss_mb, the fourth end-to-end metric, is measured by run.py from
// outside the process.
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"node_rounds_per_s", "node_rounds/s"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"radio.step_s", "s"},
    {"radio.node_visits", "count"},
    {"radio.awake_node_rounds", "count"},
    {"radio.visit_yield", "ratio"},
    {"radio.ns_per_visit", "ns"},
    {"radio.round_p50_us", "us"},
    {"radio.round_p99_us", "us"},
    {"radio.maintenance_s", "s"},
    {"radio.maintenance_scan_s", "s"},
    {"radio.fast_forwarded_rounds", "count"},
    {"radio.setup_s", "s"},
    {"radio.self_s", "s"},
    {"dutycycle.asleep_for_ns", "ns"},
    {"dutycycle.self_s", "s"},
    {"sync.observe_s", "s"},
    {"sync.node_checks", "count"},
    {"sync.runner_over_engine", "ratio"},
    {"sync.run_p50_ms", "ms"},
    {"sync.run_p98_ms", "ms"},
    {"sync.run_max_ms", "ms"},
    {"sync.self_s", "s"},
    {"experiment.aggregate_s", "s"},
    {"experiment.self_s", "s"},
    {"scenario.report_s", "s"},
    {"scenario.export_bytes", "bytes"},
    {"scenario.self_s", "s"},
    {"service.checkpoint_s", "s"},
    {"service.checkpoint_bytes", "bytes"},
    {"service.self_s", "s"},
    {"thread_pool.busy_s", "s"},
    {"thread_pool.utilization", "ratio"},
    {"thread_pool.tasks_executed", "count"},
    {"thread_pool.tasks_stolen", "count"},
    {"bench.trace_overhead_s", "s"},
    {"error_rate", "ratio"},
};

void usage() {
  std::fprintf(stderr,
               "usage: wsync_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--reference PATH]\n"
               "       wsync_bench --make-reference PATH --out-dir DIR\n"
               "workloads: catalog_sweep, wakeup_large_n, drift_hold\n");
}

bool parse(int argc, char** argv, Options* options, std::string* make_ref) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else if (flag == "--reference") {
      options->reference = value;
    } else if (flag == "--make-reference") {
      *make_ref = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (!options->workload.empty() || !make_ref->empty());
}

void print_result(const Report& report, bool trace) {
  std::string metrics;
  auto emit = [&](const MetricSpec& spec, double value) {
    char text[256];
    std::snprintf(text, sizeof text, "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += text;
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = report.values.find(spec.name);
      emit(spec, it == report.values.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      emit(spec, report.values.at(spec.name));
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              report.failed == 0 ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
}

int run(int argc, char** argv) {
  Options options;
  std::string make_reference;
  if (!parse(argc, argv, &options, &make_reference)) {
    usage();
    return 2;
  }
  if (!make_reference.empty()) {
    write_catalog_reference(make_reference, options.out_dir);
    return 0;
  }
  Report report;
  if (options.workload == "catalog_sweep") {
    report = run_catalog_sweep(options);
  } else if (options.workload == "wakeup_large_n") {
    report = run_wakeup_large_n(options);
  } else if (options.workload == "drift_hold") {
    report = run_drift_hold(options);
  } else {
    std::fprintf(stderr, "wsync_bench: unknown workload '%s'\n",
                 options.workload.c_str());
    usage();
    return 2;
  }
  report.values["error_rate"] =
      ratio(static_cast<double>(report.failed),
            static_cast<double>(report.attempted));
  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "FAILED %s\n", failure.c_str());
  }
  print_result(report, options.trace);
  return 0;
}

}  // namespace
}  // namespace wsbench

int main(int argc, char** argv) {
  try {
    return wsbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "wsync_bench: %s\n", error.what());
    return 1;
  }
}
