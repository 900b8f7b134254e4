// The benchmark's workloads and what they report.
//
// Each workload runs in one of two modes. The measured mode (trace 0)
// repeats untraced passes through the production path for the requested
// number of seconds and reports the end-to-end metrics as medians over the
// passes. The traced mode (trace 1) runs an untraced pass, a traced pass
// that drives the same work through the benchmark's own spans, and a
// second untraced pass, and reports the per-layer metrics; the traced time
// minus the median untraced time is the tracing overhead.
#ifndef WSBENCH_SRC_WORKLOADS_H_
#define WSBENCH_SRC_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace wsbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the files a pass writes (exports, checkpoint, trace).
  std::string out_dir = ".";
  /// catalog_sweep: the dense one-worker reference rows (see catalog.h).
  std::string reference;
};

/// What one invocation measured. `values` holds metrics by their
/// BENCHMARK.json name; an operation is a catalog chunk or a single run.
struct Report {
  std::map<std::string, double> values;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One line per failed check, printed to stderr.
  std::vector<std::string> failures;
};

Report run_catalog_sweep(const Options& options);
Report run_wakeup_large_n(const Options& options);
Report run_drift_hold(const Options& options);

/// Writes the catalog's reference rows (dense engine, one worker) to
/// `path`; the sweep's own exports go under `out_dir`.
void write_catalog_reference(const std::string& path,
                             const std::string& out_dir);

// --- small statistics helpers ---------------------------------------------

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
template <typename T>
double quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto last = static_cast<double>(values.size() - 1);
  return static_cast<double>(
      values[static_cast<size_t>(q * last + 0.5)]);
}

inline double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

/// Lists every pass's wall time on stderr, so a noisy run can be read.
inline void print_passes(const char* workload,
                         const std::vector<double>& walls) {
  std::fprintf(stderr, "%s: %zu passes, wall_s", workload, walls.size());
  for (double wall : walls) std::fprintf(stderr, " %.4f", wall);
  std::fprintf(stderr, "\n");
}

inline double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace wsbench

#endif  // WSBENCH_SRC_WORKLOADS_H_
