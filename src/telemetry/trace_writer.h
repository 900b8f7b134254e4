// Streaming Chrome-trace-event export.
//
// ChromeTraceWriter renders a valid Chrome trace-event JSON array — one
// event object per line, loadable by Perfetto (ui.perfetto.dev) and
// chrome://tracing — to any std::ostream, in constant memory. TelemetrySink
// adapts the engine's TraceSink callbacks onto it:
//
//   * one "C" (counter) event per executed round, carrying deliveries,
//     active nodes and the broadcast weight W(r);
//   * "i" (instant) events for node activation, delivery, first
//     synchronization and crash, on a per-node track (tid = node id).
//
// Every round executes under both engines, so a sparse trace has the same
// events as a dense one, and attaching the sink perturbs no result the
// bit-identity walls compare.
//
// Timestamps are simulation rounds encoded as microseconds (round r -> ts
// r), never wall-clock: a trace of a seeded run is itself deterministic and
// is walled by a golden file. Consecutive runs replayed into one sink (seed
// replication) are separated by pid: round numbers restart from 0, and the
// sink opens a new process track whenever time would run backwards.
#ifndef WSYNC_TELEMETRY_TRACE_WRITER_H_
#define WSYNC_TELEMETRY_TRACE_WRITER_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "src/radio/trace.h"

namespace wsync::telemetry {

/// Streams `[\n {event},\n ...\n]` to an ostream. Events are pre-rendered
/// JSON objects; close() (or destruction) terminates the array so the file
/// is always valid JSON.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& out);
  ~ChromeTraceWriter();

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// Appends one event. `json_object` must be a complete JSON object
  /// without trailing newline.
  void write_event(const std::string& json_object);

  void close();

  int64_t events_written() const { return events_written_; }

 private:
  std::ostream& out_;
  bool closed_ = false;
  int64_t events_written_ = 0;
};

/// TraceSink that renders engine callbacks as Chrome trace events.
class TelemetrySink final : public wsync::TraceSink {
 public:
  explicit TelemetrySink(ChromeTraceWriter* writer);

  void on_round(const RoundTraceEvent& event) override;
  void on_activation(RoundId round, NodeId node) override;
  void on_delivery(const DeliveryTraceEvent& event) override;
  void on_synchronized(RoundId round, NodeId node, int64_t number) override;
  void on_crash(RoundId round, NodeId node) override;

 private:
  /// Detects a replayed run (time running backwards), advances the pid
  /// track and emits its process_name metadata.
  void advance_run(RoundId ts);
  void emit(const char* name, const char* ph, RoundId ts, int64_t tid,
            const std::string& args_json, const std::string& extra = "");

  ChromeTraceWriter* writer_;  // not owned
  int64_t run_ = -1;  // pid of the current replayed run; -1 = none started
  RoundId last_ts_ = 0;
};

}  // namespace wsync::telemetry

#endif  // WSYNC_TELEMETRY_TRACE_WRITER_H_
