// Deterministic per-chunk run metrics for the streaming sweep.
//
// Every metric here is a PointResult field with a Metric entry in
// kResultFields (src/experiment/sweep.h), read at chunk-delivery time
// (caller thread, catalog order). PointResults
// round-trip the checkpoint codec bit-exactly, so a resumed run replays the
// same chunk blocks and totals as the one-shot run — metrics accumulation
// is checkpoint-safe by construction, with no extra state to persist.
//
// The exported document separates the three metric classes
// (src/telemetry/metrics.h):
//   * "deterministic" — engine- and worker-invariant; diffed byte-for-byte
//     by the identity walls and CI;
//   * "engine" — worker-invariant per engine (wake events popped; the
//     dense engine reports 0);
//   * "timing" — wall-clock stage/pool observations, never diffed.
#ifndef WSYNC_SERVICE_RUN_METRICS_H_
#define WSYNC_SERVICE_RUN_METRICS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/experiment/sweep.h"
#include "src/telemetry/metrics.h"

namespace wsync {

/// Folds delivered chunks into per-chunk blocks plus registry totals, and
/// renders the metrics document. Externally synchronized (all calls happen
/// on the sweep's delivery thread).
class RunMetricsCollector {
 public:
  /// `registry` must outlive the collector. Timing metrics registered by
  /// the caller (stage stopwatches, pool stats) are exported alongside.
  explicit RunMetricsCollector(telemetry::MetricsRegistry* registry);

  /// Renders one delivered chunk's blocks from the Metric entries of
  /// kResultFields (each column also adds into its `<key>_total` counter).
  /// Call for computed AND checkpoint-replayed chunks alike: a resumed
  /// sweep then accumulates exactly the one-shot run's blocks.
  void add_chunk(const std::string& scenario, size_t point_index,
                 const PointResult& result);

  telemetry::MetricsRegistry& registry() { return *registry_; }

  /// The engine- and worker-invariant block alone (totals + chunks):
  /// what the byte-identity walls compare.
  std::string deterministic_json() const;

  /// Worker-invariant-per-engine block (totals + chunks).
  std::string engine_json() const;

  /// Full document: {"schema": "wsync-metrics-v1", "deterministic": ...,
  /// "engine": ..., "timing": ...}.
  void write_json(std::ostream& out) const;

 private:
  telemetry::MetricsRegistry* registry_;  // not owned
  /// Rendered per-chunk JSON objects of the two walled sections, in
  /// delivery order (the chunk index is the position).
  std::vector<std::string> deterministic_chunks_;
  std::vector<std::string> engine_chunks_;
};

}  // namespace wsync

#endif  // WSYNC_SERVICE_RUN_METRICS_H_
