// Full-scan test oracles for the event-driven observers.
//
// SyncVerifier and Simulation::run_maintenance read only the nodes each
// step changed (Simulation::changed_nodes()), and Simulation::all_synced()
// reads a counter. The oracles here read every node every round, so the
// walls can run a dense twin through the oracle and the sparse simulation
// through the production observer and demand identical answers round by
// round.
#ifndef WSYNC_TESTS_TESTING_FULL_SCAN_ORACLE_H_
#define WSYNC_TESTS_TESTING_FULL_SCAN_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/radio/engine.h"
#include "src/sync/verifier.h"

namespace wsync {
namespace testing {

/// The Section 3 checks by a scan of all n nodes per observe(): every live
/// node's output is compared with the one it showed at the previous call.
class FullScanVerifier {
 public:
  explicit FullScanVerifier(VerifierConfig config = {}) : config_(config) {}

  void observe(const Simulation& sim) {
    const int n = sim.config().n;
    if (prev_.empty()) prev_.assign(static_cast<size_t>(n), SyncOutput{});
    ++report_.rounds_observed;

    bool any_number = false;
    int64_t round_number = 0;
    int leaders = 0;
    for (NodeId id = 0; id < n; ++id) {
      if (!sim.is_active(id) || sim.is_crashed(id)) continue;
      const SyncOutput current = sim.output(id);
      const SyncOutput previous = prev_[static_cast<size_t>(id)];
      // Synch Commit: non-⊥ may never be followed by ⊥.
      if (previous.has_number() && current.is_bottom()) {
        if (config_.allow_resync) {
          ++report_.resyncs_observed;
        } else {
          ++report_.synch_commit_violations;
        }
      }
      // Correctness: numbers increment by exactly one round-over-round.
      if (previous.has_number() && current.has_number() &&
          current.value != previous.value + 1 && !config_.allow_resync) {
        ++report_.correctness_violations;
      }
      // Agreement: every number that differs from the first one seen.
      if (current.has_number()) {
        if (!any_number) {
          any_number = true;
          round_number = current.value;
        } else if (current.value != round_number) {
          ++report_.agreement_violations;
        }
      }
      if (sim.role(id) == Role::kLeader) ++leaders;
      prev_[static_cast<size_t>(id)] = current;
    }
    report_.max_simultaneous_leaders =
        std::max(report_.max_simultaneous_leaders, leaders);
  }

  const SyncVerifier::Report& report() const { return report_; }

 private:
  VerifierConfig config_;
  SyncVerifier::Report report_;
  std::vector<SyncOutput> prev_;
};

/// Largest minus smallest output over live numbered nodes, by a scan of all
/// n nodes; nullopt when no live node outputs a number.
inline std::optional<int64_t> full_scan_spread(const Simulation& sim) {
  std::optional<int64_t> lowest;
  std::optional<int64_t> highest;
  for (NodeId id = 0; id < sim.config().n; ++id) {
    if (!sim.is_active(id) || sim.is_crashed(id)) continue;
    const SyncOutput out = sim.output(id);
    if (!out.has_number()) continue;
    lowest = std::min(lowest.value_or(out.value), out.value);
    highest = std::max(highest.value_or(out.value), out.value);
  }
  if (!lowest.has_value()) return std::nullopt;
  return *highest - *lowest;
}

/// The liveness condition (Simulation::all_synced()) by a scan of all n
/// nodes. Both engines answer all_synced() from one counter, so only this
/// scan can catch it drifting. Scan the dense twin: output() reads on a
/// sparse one settle every node every round and would hide replay bugs.
inline bool full_scan_all_synced(const Simulation& sim) {
  if (sim.activated_total() < sim.config().n) return false;
  bool live = false;
  for (NodeId id = 0; id < sim.config().n; ++id) {
    if (!sim.is_active(id) || sim.is_crashed(id)) continue;
    if (!sim.output(id).has_number()) return false;
    live = true;
  }
  return live;
}

/// Field-by-field Report comparison that names every field that differs.
inline ::testing::AssertionResult same_report(
    const SyncVerifier::Report& expected, const SyncVerifier::Report& actual) {
  ::testing::AssertionResult result = ::testing::AssertionSuccess();
  bool same = true;
  auto field = [&](const char* name, int64_t a, int64_t b) {
    if (a == b) return;
    if (same) result = ::testing::AssertionFailure();
    same = false;
    result << name << ": oracle " << a << " vs verifier " << b << "; ";
  };
  field("rounds_observed", expected.rounds_observed, actual.rounds_observed);
  field("synch_commit_violations", expected.synch_commit_violations,
        actual.synch_commit_violations);
  field("correctness_violations", expected.correctness_violations,
        actual.correctness_violations);
  field("agreement_violations", expected.agreement_violations,
        actual.agreement_violations);
  field("max_simultaneous_leaders", expected.max_simultaneous_leaders,
        actual.max_simultaneous_leaders);
  field("resyncs_observed", expected.resyncs_observed,
        actual.resyncs_observed);
  return result;
}

}  // namespace testing
}  // namespace wsync

#endif  // WSYNC_TESTS_TESTING_FULL_SCAN_ORACLE_H_
