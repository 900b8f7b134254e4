// Scenario result rendering, shared by wsync_run and the tests.
//
// One Table schema serves three sinks: the CLI's stdout markdown, the
// per-scenario JSON summaries, and the catalog-wide CSV export. Keeping the
// schema here (instead of inside the tool) lets the test suite pin the
// header and assert that rendered rows are bit-identical across worker
// counts — the same determinism contract CI enforces end to end by diffing
// wsync_run's JSON and CSV outputs between --workers 1 and --workers 4.
#ifndef WSYNC_SCENARIO_REPORT_H_
#define WSYNC_SCENARIO_REPORT_H_

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "src/scenario/scenario.h"
#include "src/stats/table.h"

namespace wsync {

/// Column names of results_table(), in order. The CSV/JSON consumers treat
/// this as a stable interface; tests pin it.
const std::vector<std::string>& result_columns();

/// Per-point result rows for one scenario, one row per grid point. All
/// cells are deterministic aggregates (never wall-clock or worker counts).
Table results_table(const Scenario& scenario,
                    const std::vector<PointResult>& results);

/// One catalog-wide CSV row for a single grid point ("scenario" prepended
/// to result_columns()), rendered exactly as the CSV exports render it, no
/// trailing newline. wsync_serve streams these as `point` lines.
std::string csv_point_row(const Scenario& scenario, size_t point_index,
                          const PointResult& result);

// --- streaming writers ----------------------------------------------------
// The sweep service emits results chunk by chunk; these writers append to
// an already-open stream as scenarios complete, and are the single source
// of the export formats: the one-shot, resumed, and served paths all drive
// the same writer sequence, which is what makes their outputs
// byte-identical (the contract tests/service/ pins). CSV rows are
// csv_point_row(), so the served `point` lines and the export cannot drift.

/// Catalog-wide CSV, header written on construction.
class StreamingCsvWriter {
 public:
  explicit StreamingCsvWriter(std::ostream& out);

  /// Appends one row per grid point of `scenario`.
  void add(const Scenario& scenario, const std::vector<PointResult>& results);

 private:
  std::ostream& out_;
};

/// The wsync_run JSON document ({"scenarios": [...]}), streamed one
/// scenario object at a time. finish() closes the document (idempotent;
/// also run by the destructor so a dropped writer still emits valid JSON).
class StreamingJsonWriter {
 public:
  explicit StreamingJsonWriter(std::ostream& out);
  ~StreamingJsonWriter();

  StreamingJsonWriter(const StreamingJsonWriter&) = delete;
  StreamingJsonWriter& operator=(const StreamingJsonWriter&) = delete;

  void add_scenario(const Scenario& scenario, int seeds,
                    const std::vector<PointResult>& results,
                    const std::vector<std::string>& failures);
  void finish();

 private:
  std::ostream& out_;
  size_t scenarios_ = 0;
  bool finished_ = false;
};

}  // namespace wsync

#endif  // WSYNC_SCENARIO_REPORT_H_
