// In-memory span tracer for the benchmark's traced pass.
//
// A span records one call into a layer's public function: its name
// ("<layer>.<call>", e.g. "radio.step"), the span that caused it, and its
// start and end on the benchmark clock. Calls repeated thousands of times
// inside one run (a catalog run's per-round step and observe) are folded
// into one *aggregate* span per parent, which carries the summed duration
// and the call count. Spans stay in memory until the pass ends; then the
// per-layer self times are computed from them and they are written out
// through telemetry::ChromeTraceWriter, so the file loads in Perfetto next
// to `wsync_run --trace-out` output.
#ifndef WSBENCH_SRC_TRACER_H_
#define WSBENCH_SRC_TRACER_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace wsbench {

/// Seconds on the benchmark clock (a bench::Stopwatch started once per
/// process).
double now_s();

/// Small per-thread id for span tracks: 0 for the first thread that asks
/// (the main thread), then 1, 2, ... for pool workers.
int thread_track();

struct Span {
  std::string name;  ///< "<layer>.<call>"
  int parent = -1;   ///< index of the causing span in the same log, or -1
  int tid = 0;
  double start_s = 0.0;
  double dur_s = 0.0;
  int64_t calls = 1;
  bool aggregate = false;  ///< folded repeated calls; start_s = first call
};

class SpanLog {
 public:
  /// Opens a span starting now; returns its index.
  int open(const std::string& name, int parent);
  /// Ends span `index` now.
  void close(int index);
  /// Records an already-timed call as its own span.
  void record(const std::string& name, int parent, double start_s,
              double end_s);
  /// Opens an aggregate span (no calls yet) for repeated calls under
  /// `parent`; feed it with add().
  int aggregate(const std::string& name, int parent);
  void add(int index, double dur_s) {
    spans_[static_cast<size_t>(index)].dur_s += dur_s;
    ++spans_[static_cast<size_t>(index)].calls;
  }
  /// Moves `other`'s spans into this log; a root span of `other` becomes a
  /// child of `parent`.
  void append(SpanLog&& other, int parent);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Closes a span when the scope ends.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, int parent)
      : log_(log), index_(log.open(name, parent)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Self time per layer: each span's duration minus the durations of its
/// direct children, summed by the layer prefix of the span name.
std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans);

/// Summed duration of every span named `name`.
double total_seconds(const std::vector<Span>& spans, const std::string& name);

/// Writes every span as a Chrome trace event: plain spans as complete
/// ("X") events, aggregate spans as arguments of their parent's event.
void write_chrome_trace(const std::vector<Span>& spans, std::ostream& out);

}  // namespace wsbench

#endif  // WSBENCH_SRC_TRACER_H_
