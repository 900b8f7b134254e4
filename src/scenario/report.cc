#include "src/scenario/report.h"

#include <string>

namespace wsync {

const std::vector<std::string>& result_columns() {
  static const std::vector<std::string> columns = {
      "protocol",      "adversary",      "activation",   "F",
      "t",             "t_actual",       "N",            "n",
      "runs",          "synced",         "timeout",      "p50_rounds",
      "p90_rounds",    "agreement_viol", "max_leaders",  "awake_p50",
      "awake_max",     "awake_frac",     "bcast_rounds", "listen_rounds",
      "energy_budget", "energy_viol",    "drift_ppm",    "max_offset",
      "offset_viol",   "resyncs"};
  return columns;
}

namespace {

/// Fills the result_columns() cells of the already-opened current row.
void fill_point_cells(Table& table, const ExperimentPoint& p,
                      const PointResult& r) {
  const int jam = p.jam_count < 0 ? p.t : p.jam_count;
  table.cell(std::string(to_string(p.protocol)))
      .cell(std::string(to_string(p.adversary)))
      .cell(std::string(to_string(p.activation)))
      .cell(static_cast<int64_t>(p.F))
      .cell(static_cast<int64_t>(p.t))
      .cell(static_cast<int64_t>(jam))
      .cell(p.N)
      .cell(static_cast<int64_t>(p.n))
      .cell(static_cast<int64_t>(r.runs))
      .cell(static_cast<int64_t>(r.synced_runs))
      .cell(static_cast<int64_t>(r.timeout_runs))
      .cell(r.synced_runs > 0 ? r.rounds_to_live.p50 : -1.0, 1)
      .cell(r.synced_runs > 0 ? r.rounds_to_live.p90 : -1.0, 1)
      .cell(r.agreement_violations)
      .cell(static_cast<int64_t>(r.max_leaders))
      .cell(r.max_awake_rounds.p50, 1)
      .cell(r.max_awake_rounds.max, 0)
      .cell(r.awake_fraction.p50, 4)
      .cell(r.broadcast_rounds)
      .cell(r.listen_rounds)
      .cell(p.energy_budget)
      .cell(static_cast<int64_t>(r.energy_budget_violations))
      .cell(static_cast<int64_t>(p.drift_ppm))
      .cell(r.max_offset.max, 0)
      .cell(r.offset_violations)
      .cell(r.resync_count);
}

/// The catalog-wide CSV schema ("scenario" + result_columns()).
std::vector<std::string> csv_columns() {
  std::vector<std::string> columns = {"scenario"};
  columns.insert(columns.end(), result_columns().begin(),
                 result_columns().end());
  return columns;
}

}  // namespace

std::string csv_point_row(const Scenario& scenario, size_t point_index,
                          const PointResult& result) {
  Table table(csv_columns());
  table.row().cell(scenario.name);
  fill_point_cells(table, scenario.grid[point_index], result);
  const std::string document = table.csv();  // header line, then the row
  std::string row = document.substr(document.find('\n') + 1);
  if (!row.empty() && row.back() == '\n') row.pop_back();
  return row;
}

StreamingCsvWriter::StreamingCsvWriter(std::ostream& out) : out_(out) {
  // An empty table renders as just the header line.
  out_ << Table(csv_columns()).csv();
}

void StreamingCsvWriter::add(const Scenario& scenario,
                             const std::vector<PointResult>& results) {
  for (size_t i = 0; i < results.size(); ++i) {
    out_ << csv_point_row(scenario, i, results[i]) << '\n';
  }
}

StreamingJsonWriter::StreamingJsonWriter(std::ostream& out) : out_(out) {
  out_ << "{\n  \"scenarios\": [";
}

StreamingJsonWriter::~StreamingJsonWriter() { finish(); }

void StreamingJsonWriter::add_scenario(
    const Scenario& scenario, int seeds,
    const std::vector<PointResult>& results,
    const std::vector<std::string>& failures) {
  out_ << (scenarios_ == 0 ? "\n" : ",\n");
  out_ << "    {\"name\": " << json_escaped(scenario.name);
  out_ << ", \"seeds\": " << seeds << ", \"ok\": ";
  out_ << (failures.empty() ? "true" : "false");
  out_ << ", \"failures\": [";
  for (size_t f = 0; f < failures.size(); ++f) {
    if (f > 0) out_ << ", ";
    out_ << json_escaped(failures[f]);
  }
  out_ << "],\n     \"points\":\n";
  out_ << results_table(scenario, results).json(5);
  out_ << "}";
  ++scenarios_;
}

void StreamingJsonWriter::finish() {
  if (finished_) return;
  finished_ = true;
  out_ << (scenarios_ == 0 ? "]\n}\n" : "\n  ]\n}\n");
}

Table results_table(const Scenario& scenario,
                    const std::vector<PointResult>& results) {
  Table table(result_columns());
  for (size_t i = 0; i < results.size(); ++i) {
    table.row();
    fill_point_cells(table, scenario.grid[i], results[i]);
  }
  return table;
}

}  // namespace wsync
