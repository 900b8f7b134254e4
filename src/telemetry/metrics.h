// The run-telemetry metrics registry.
//
// Named counters, gauges and fixed-bucket histograms, strictly separated
// into three classes (MetricClass) so that observability never erodes the
// repo's determinism contract:
//
//   * kDeterministic — pure functions of (spec, seed): rounds simulated,
//     deliveries, collisions, whitespace absences, knockouts, resync
//     corrections. Byte-identical across worker counts AND across the
//     dense/sparse engines; diffed by the bit-identity walls.
//   * kEngineDependent — pure functions of (spec, seed, engine): wake
//     events popped. Reproducible — and diffed across worker counts — per
//     engine, but legitimately different between dense and sparse (the
//     dense engine never pops a wake event).
//   * kTiming — wall-clock observations (stage stopwatches, thread-pool
//     utilization, chunk latency). Excluded from every bit-identity wall;
//     values must come only from the sanctioned telemetry Stopwatch.
//
// Metric names are snake_case (enforced at registration, checked repo-wide
// by wsync_lint's `metrics-naming` rule) and every name must be listed in
// docs/ARCHITECTURE.md. Registration is idempotent: asking again for the
// same name and class returns the same instrument; re-registering a name
// under a different class or instrument kind throws.
//
// The registry is externally synchronized: all mutation in this repo
// happens on the sweep's chunk-delivery thread (deterministic metrics) or
// after wait_idle() (timing roll-ups), so no locking is needed on the hot
// path.
#ifndef WSYNC_TELEMETRY_METRICS_H_
#define WSYNC_TELEMETRY_METRICS_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace wsync::telemetry {

enum class MetricClass {
  kDeterministic,
  kEngineDependent,
  kTiming,
};

/// Stable lowercase section key used in the JSON export
/// ("deterministic" / "engine" / "timing").
const char* to_string(MetricClass cls);

/// Monotone non-decreasing sum.
class Counter {
 public:
  void add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Last-write-wins level.
class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i], the
/// implicit final bucket counts the overflow. Bounds are set at first
/// registration and immutable after.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double value);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// upper_bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<int64_t>& counts() const { return counts_; }
  int64_t total_count() const { return total_count_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> upper_bounds_;
  std::vector<int64_t> counts_;
  int64_t total_count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, MetricClass cls);
  Gauge& gauge(const std::string& name, MetricClass cls);
  Histogram& histogram(const std::string& name, MetricClass cls,
                       std::vector<double> upper_bounds);

  /// Writes one class section as a JSON object:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// Iteration is over std::map, so the byte stream is a pure function of
  /// the registered names and values — the deterministic and engine
  /// sections are diffable across runs.
  void write_class_json(std::ostream& out, MetricClass cls,
                        const std::string& indent = "") const;

  /// Convenience for tests and walls: the section rendered to a string.
  std::string class_json(MetricClass cls) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Registration {
    MetricClass cls;
    Kind kind;
  };

  void check_registration(const std::string& name, MetricClass cls,
                          Kind kind);

  std::map<std::string, Registration> registrations_;
  // node-based maps: references handed out stay stable across registration.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// True iff `name` is a valid metric name: ^[a-z][a-z0-9_]*$.
bool is_snake_case(const std::string& name);

/// Deterministic JSON rendering of a double: integral values print without
/// an exponent or trailing zeros ("3"), others via %.17g round-tripping.
std::string json_double(double value);

}  // namespace wsync::telemetry

#endif  // WSYNC_TELEMETRY_METRICS_H_
