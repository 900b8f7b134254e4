#include "src/scenario/scenario.h"

#include <cctype>
#include <stdexcept>
#include <string>

#include "src/common/require.h"

namespace wsync {

namespace {

[[noreturn]] void fail(const Scenario& scenario, const std::string& what) {
  throw std::invalid_argument("scenario '" + scenario.name + "': " + what);
}

void validate_point(const Scenario& scenario, size_t index,
                    const ExperimentPoint& point) {
  const std::string where = "point " + std::to_string(index) + ": ";
  if (point.F < 1) fail(scenario, where + "need F >= 1");
  if (point.t < 0 || point.t >= point.F) fail(scenario, where + "need 0 <= t < F");
  if (point.n < 1 || point.N < point.n) fail(scenario, where + "need 1 <= n <= N");
  if (point.jam_count > point.t) {
    fail(scenario, where + "jam_count must not exceed t");
  }
  if (point.activation_window < 0) {
    fail(scenario, where + "activation_window must be non-negative");
  }
  if (point.max_rounds < 0 || point.extra_rounds < 0) {
    fail(scenario, where + "round budgets must be non-negative");
  }
  if (point.adversary == AdversaryKind::kDutyCycle &&
      (point.duty_period < 1 || point.duty_on < 0 ||
       point.duty_on > point.duty_period)) {
    fail(scenario, where + "need 0 <= duty_on <= duty_period");
  }
  if (point.adversary == AdversaryKind::kWhitespace) {
    const int available = effective_whitespace_available(point);
    if (available > point.F) {
      fail(scenario, where + "whitespace_available must not exceed F");
    }
    if (point.whitespace_shared < 1 || point.whitespace_shared > available) {
      fail(scenario,
           where + "need 1 <= whitespace_shared <= whitespace_available");
    }
  }
  if (point.drift_ppm < 0 || point.drift_ppm >= 1'000'000) {
    fail(scenario, where + "drift_ppm must lie in [0, 1'000'000)");
  }
  if (point.maintenance_rounds < 0) {
    fail(scenario, where + "maintenance_rounds must be non-negative");
  }
  if (point.offset_bound >= 0 && point.maintenance_rounds == 0) {
    fail(scenario,
         where + "offset_bound requires maintenance_rounds > 0 "
                 "(the bound is only checked during maintenance)");
  }
  if (point.resync_awake_slots < 0) {
    fail(scenario, where + "resync_awake_slots must be non-negative");
  }
  int crash_total = 0;
  for (const CrashWave& wave : point.crash_waves) {
    if (wave.round < 0 || wave.count < 1) {
      fail(scenario, where + "crash waves need round >= 0 and count >= 1");
    }
    crash_total += wave.count;
  }
  if (crash_total >= point.n) {
    fail(scenario,
         where + "crash waves must leave at least one node alive");
  }
}

}  // namespace

void validate(const Scenario& scenario) {
  if (scenario.name.empty()) {
    throw std::invalid_argument("scenario with empty name");
  }
  for (const char c : scenario.name) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
      fail(scenario, "name must match [a-z0-9_]+");
    }
  }
  if (scenario.summary.empty()) fail(scenario, "summary is required");
  if (scenario.grid.empty()) fail(scenario, "grid must be nonempty");
  if (scenario.default_seeds < 1) fail(scenario, "need default_seeds >= 1");
  for (size_t i = 0; i < scenario.grid.size(); ++i) {
    validate_point(scenario, i, scenario.grid[i]);
  }
}

std::vector<std::string> check_expectations(
    const Scenario& scenario, const std::vector<PointResult>& results) {
  std::vector<std::string> failures;
  auto complain = [&](size_t index, const std::string& what) {
    failures.push_back("scenario '" + scenario.name + "' point " +
                       std::to_string(index) + ": " + what);
  };
  if (results.size() != scenario.grid.size()) {
    failures.push_back("scenario '" + scenario.name + "': expected " +
                       std::to_string(scenario.grid.size()) +
                       " point results, got " +
                       std::to_string(results.size()));
    return failures;
  }
  for (size_t i = 0; i < results.size(); ++i) {
    const PointResult& r = results[i];
    // Synch commit is never excusable: no protocol in the repo may retract
    // an output (crash-recovery resyncs are excluded by the verifier).
    if (r.commit_violations != 0) {
      complain(i, std::to_string(r.commit_violations) +
                      " synch-commit violations");
    }
    if (scenario.expect_correctness_clean && r.correctness_violations != 0) {
      complain(i, std::to_string(r.correctness_violations) +
                      " correctness violations");
    }
    if (scenario.expect_all_synced && r.synced_runs != r.runs) {
      complain(i, std::to_string(r.timeout_runs) + " of " +
                      std::to_string(r.runs) + " runs timed out");
    }
    if (scenario.expect_agreement_clean && r.agreement_violations != 0) {
      complain(i, std::to_string(r.agreement_violations) +
                      " agreement violations");
    }
    // An energy budget is an explicit per-point opt-in, so a violation is
    // always a failure — no scenario-level flag can excuse it.
    if (r.point.energy_budget >= 0 && r.energy_budget_violations != 0) {
      complain(i, std::to_string(r.energy_budget_violations) + " of " +
                      std::to_string(r.runs) +
                      " runs exceeded the energy budget of " +
                      std::to_string(r.point.energy_budget) +
                      " awake rounds");
    }
    // Likewise an offset bound: the maintenance phase's hold-the-sync
    // criterion is an explicit opt-in, never excusable by a flag.
    if (r.point.offset_bound >= 0 && r.offset_violations != 0) {
      complain(i, std::to_string(r.offset_violations) +
                      " maintenance rounds exceeded the offset bound of " +
                      std::to_string(r.point.offset_bound));
    }
  }
  return failures;
}

}  // namespace wsync
