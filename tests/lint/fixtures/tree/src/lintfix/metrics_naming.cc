// Metrics-naming fixtures: registered metric names must be snake_case and
// documented in docs/ARCHITECTURE.md (this fixture tree carries its own
// one documenting only `documented_metric_total`).
//
// Field-list twins: a Metric{"key"} entry is checked as "key_total".
//
// Expected findings: four metrics-naming violations (a CamelCase and an
// undocumented name, as registry calls and as field-list entries). The
// documented, suppressed and commented-out ones must stay clean.
#include <string>

namespace wsync::lintfix {

struct Registry {
  int& counter(const std::string& name);
  double& gauge(const std::string& name);
};

struct Metric {
  const char* key;
};

constexpr Metric kListedMetrics[] = {
    Metric{"documented_metric"},  // clean: documented_metric_total
    Metric{"ListedCamel"},        // VIOLATION: CamelCase
    Metric{"orphan_listed"},      // VIOLATION: orphan_listed_total undocumented
    // wsync-lint: allow(metrics-naming)
    Metric{"suppressed_listed"},
    // Metric{"CommentedOutListed"},  -- comments never flag
};

void register_metrics(Registry& registry) {
  registry.counter("documented_metric_total") += 1;  // clean: documented
  registry.counter("RoundsSimulated") += 1;          // VIOLATION: CamelCase
  registry.gauge("orphan_metric_total") = 0.0;       // VIOLATION: undocumented
  // wsync-lint: allow(metrics-naming)
  registry.counter("suppressed_metric_total") += 1;
  // registry.counter("CommentedOutMetric") += 1;  -- comments never flag
}

}  // namespace wsync::lintfix
