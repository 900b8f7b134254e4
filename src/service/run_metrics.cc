#include "src/service/run_metrics.h"

#include <sstream>
#include <type_traits>

#include "src/common/require.h"
#include "src/stats/table.h"

namespace wsync {

namespace {

using telemetry::MetricClass;

/// One walled section: the class's registry totals, then its chunk blocks.
std::string section_json(const telemetry::MetricsRegistry& registry,
                         MetricClass cls,
                         const std::vector<std::string>& chunks) {
  std::ostringstream os;
  os << "{\n  \"totals\": ";
  registry.write_class_json(os, cls, "  ");
  os << ",\n  \"chunks\": [";
  for (size_t i = 0; i < chunks.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ") << chunks[i];
  }
  os << (chunks.empty() ? "" : "\n  ") << "]\n}";
  return os.str();
}

}  // namespace

RunMetricsCollector::RunMetricsCollector(telemetry::MetricsRegistry* registry)
    : registry_(registry) {
  WSYNC_REQUIRE(registry_ != nullptr, "metrics collector needs a registry");
}

void RunMetricsCollector::add_chunk(const std::string& scenario,
                                    size_t point_index,
                                    const PointResult& result) {
  const std::string head = "{\"scenario\": " + json_escaped(scenario) +
                           ", \"chunk_index\": " +
                           std::to_string(deterministic_chunks_.size());
  std::string deterministic =
      head + ", \"point_index\": " + std::to_string(point_index);
  std::string engine = head;
  registry_->counter("chunks_total", MetricClass::kDeterministic).add(1);
  for_each_field(kResultFields, [&](const auto& field) {
    using Member = std::remove_cvref_t<decltype(result.*field.member)>;
    if constexpr (std::is_integral_v<Member>) {
      if (field.metric.key == nullptr) return;
      const int64_t value = result.*field.member;
      std::string& block =
          field.metric.cls == MetricClass::kDeterministic ? deterministic
                                                          : engine;
      block += ", \"" + std::string(field.metric.key) +
               "\": " + std::to_string(value);
      registry_->counter(std::string(field.metric.key) + "_total",
                         field.metric.cls)
          .add(value);
    }
  });
  deterministic_chunks_.push_back(deterministic + "}");
  engine_chunks_.push_back(engine + "}");
}

std::string RunMetricsCollector::deterministic_json() const {
  return section_json(*registry_, MetricClass::kDeterministic,
                      deterministic_chunks_);
}

std::string RunMetricsCollector::engine_json() const {
  return section_json(*registry_, MetricClass::kEngineDependent,
                      engine_chunks_);
}

void RunMetricsCollector::write_json(std::ostream& out) const {
  out << "{\n\"schema\": \"wsync-metrics-v1\",\n\"deterministic\": "
      << deterministic_json() << ",\n\"engine\": " << engine_json()
      << ",\n\"timing\": ";
  registry_->write_class_json(out, MetricClass::kTiming);
  out << "\n}\n";
}

}  // namespace wsync
