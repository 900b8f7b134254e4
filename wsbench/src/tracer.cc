#include "wsbench/src/tracer.h"

#include <atomic>
#include <cstdio>
#include <utility>

#include "bench/bench_util.h"
#include "src/stats/table.h"
#include "src/telemetry/trace_writer.h"

namespace wsbench {

double now_s() {
  static const wsync::bench::Stopwatch clock;
  return clock.seconds();
}

int thread_track() {
  static std::atomic<int> next{0};
  thread_local const int track = next.fetch_add(1);
  return track;
}

int SpanLog::open(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.tid = thread_track();
  span.start_s = now_s();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.dur_s = now_s() - span.start_s;
}

void SpanLog::record(const std::string& name, int parent, double start_s,
                     double end_s) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.tid = thread_track();
  span.start_s = start_s;
  span.dur_s = end_s - start_s;
  spans_.push_back(std::move(span));
}

int SpanLog::aggregate(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.tid = thread_track();
  span.start_s = now_s();
  span.calls = 0;
  span.aggregate = true;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::append(SpanLog&& other, int parent) {
  const int base = static_cast<int>(spans_.size());
  for (Span& span : other.spans_) {
    span.parent = span.parent < 0 ? parent : span.parent + base;
    spans_.push_back(std::move(span));
  }
  other.spans_.clear();
}

namespace {

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans) {
  std::vector<double> child_seconds(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_seconds[static_cast<size_t>(span.parent)] += span.dur_s;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    self[layer_of(spans[i].name)] += spans[i].dur_s - child_seconds[i];
  }
  return self;
}

double total_seconds(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  for (const Span& span : spans) {
    if (span.name == name) total += span.dur_s;
  }
  return total;
}

void write_chrome_trace(const std::vector<Span>& spans, std::ostream& out) {
  // Aggregates ride on their parent's event as "<name>_ms"/"<name>_calls".
  std::vector<std::string> extra_args(spans.size());
  for (const Span& span : spans) {
    if (!span.aggregate || span.parent < 0) continue;
    char text[160];
    std::snprintf(text, sizeof text, ", \"%s_ms\": %.6f, \"%s_calls\": %lld",
                  span.name.c_str(), span.dur_s * 1e3, span.name.c_str(),
                  static_cast<long long>(span.calls));
    extra_args[static_cast<size_t>(span.parent)] += text;
  }
  wsync::telemetry::ChromeTraceWriter writer(out);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.aggregate) continue;
    const std::string parent =
        span.parent >= 0 ? spans[static_cast<size_t>(span.parent)].name : "";
    char timing[128];
    std::snprintf(timing, sizeof timing,
                  "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                  "\"tid\": %d",
                  span.start_s * 1e6, span.dur_s * 1e6, span.tid);
    writer.write_event("{\"name\": " + wsync::json_escaped(span.name) +
                       ", \"cat\": " +
                       wsync::json_escaped(layer_of(span.name)) + ", " +
                       timing + ", \"args\": {\"parent\": " +
                       wsync::json_escaped(parent) + extra_args[i] + "}}");
  }
  writer.close();
}

}  // namespace wsbench
