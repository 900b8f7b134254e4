// Declarative scenarios: named, replayable families of executions.
//
// A Scenario composes an ExperimentPoint grid with replication defaults and
// expected-invariant metadata, so a workload is data instead of a bespoke
// main(). The registry (src/scenario/registry.h) is the catalog; the
// wsync_run tool, the benches, and the test suites all pull their grids from
// it, which keeps "what we run" in exactly one place.
#ifndef WSYNC_SCENARIO_SCENARIO_H_
#define WSYNC_SCENARIO_SCENARIO_H_

#include <string>
#include <vector>

#include "src/experiment/sweep.h"

namespace wsync {

struct Scenario {
  /// Registry key: lowercase [a-z0-9_], unique across the catalog.
  std::string name;
  /// One line for `wsync_run --list` and docs/SCENARIOS.md.
  std::string summary;
  /// Paper section reproduced, or the stress rationale.
  std::string rationale;

  /// The experiment grid; every point is replicated across the same seeds.
  std::vector<ExperimentPoint> grid;

  /// Seeds per point when the caller does not override (`wsync_run --seeds`).
  int default_seeds = 4;

  // --- expected-invariant metadata ----------------------------------------
  // Synch commit (no retraction to ⊥) is always expected to hold, and any
  // point that sets an energy_budget expects zero budget violations; these
  // flags cover the outcome claims that legitimately vary by scenario.

  /// Every run reaches liveness within its budget. False for stress
  /// scenarios where timeouts are the interesting measurement.
  bool expect_all_synced = true;

  /// Zero agreement violations across all runs. False for the baseline
  /// protocols, whose multi-leader elections are the paper's negative
  /// result, and for whp-marginal parameter choices.
  bool expect_agreement_clean = true;

  /// Zero correctness violations (output i in round r then i+1 in r+1).
  /// False only for the baseline strawmen, whose nodes hop between rival
  /// leaders' numbering schemes — the failure mode the paper's protocols
  /// are designed to rule out.
  bool expect_correctness_clean = true;
};

/// Structural validation: nonempty grid, well-formed name, and per point
/// t < F, n <= N, jam_count <= t, duty/window sanity, crash waves that leave
/// at least one node alive. Throws std::invalid_argument with the scenario
/// and point index on failure.
void validate(const Scenario& scenario);

/// Expectation check against measured results (separate from running, so
/// tests can feed synthetic results). Hard-property violations are always
/// failures; the expect_* flags gate the rest. Returns human-readable
/// failure lines, empty when everything held.
std::vector<std::string> check_expectations(
    const Scenario& scenario, const std::vector<PointResult>& results);

}  // namespace wsync

#endif  // WSYNC_SCENARIO_SCENARIO_H_
