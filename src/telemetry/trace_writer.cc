#include "src/telemetry/trace_writer.h"

#include <sstream>

#include "src/common/require.h"
#include "src/telemetry/metrics.h"

namespace wsync::telemetry {

ChromeTraceWriter::ChromeTraceWriter(std::ostream& out) : out_(out) {
  out_ << "[";
}

ChromeTraceWriter::~ChromeTraceWriter() { close(); }

void ChromeTraceWriter::write_event(const std::string& json_object) {
  WSYNC_REQUIRE(!closed_, "trace writer already closed");
  out_ << (events_written_ == 0 ? "\n" : ",\n") << json_object;
  ++events_written_;
}

void ChromeTraceWriter::close() {
  if (closed_) return;
  closed_ = true;
  out_ << "\n]\n";
  out_.flush();
}

TelemetrySink::TelemetrySink(ChromeTraceWriter* writer) : writer_(writer) {
  WSYNC_REQUIRE(writer_ != nullptr, "telemetry sink needs a writer");
}

void TelemetrySink::advance_run(RoundId ts) {
  if (run_ >= 0 && ts >= last_ts_) {
    last_ts_ = ts;
    return;
  }
  // First event ever, or time ran backwards: a new replayed run begins.
  ++run_;
  last_ts_ = ts;
  std::ostringstream os;
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << run_
     << ", \"tid\": 0, \"args\": {\"name\": \"wsync run " << run_ << "\"}}";
  writer_->write_event(os.str());
}

void TelemetrySink::emit(const char* name, const char* ph, RoundId ts,
                         int64_t tid, const std::string& args_json,
                         const std::string& extra) {
  advance_run(ts);
  std::ostringstream os;
  os << "{\"name\": \"" << name << "\", \"ph\": \"" << ph
     << "\", \"ts\": " << ts << ", \"pid\": " << run_ << ", \"tid\": " << tid;
  if (!extra.empty()) os << ", " << extra;
  if (!args_json.empty()) os << ", \"args\": {" << args_json << "}";
  os << "}";
  writer_->write_event(os.str());
}

void TelemetrySink::on_round(const RoundTraceEvent& event) {
  std::ostringstream args;
  args << "\"deliveries\": " << event.stats.deliveries
       << ", \"activations\": " << event.stats.activations
       << ", \"active_nodes\": " << event.active_nodes
       << ", \"disrupted\": " << event.disrupted.size()
       << ", \"broadcast_weight\": " << json_double(event.broadcast_weight);
  emit("round", "C", event.round, 0, args.str());
}

void TelemetrySink::on_activation(RoundId round, NodeId node) {
  std::ostringstream args;
  args << "\"node\": " << node;
  emit("activate", "i", round, node, args.str(), "\"s\": \"t\"");
}

void TelemetrySink::on_delivery(const DeliveryTraceEvent& event) {
  std::ostringstream args;
  args << "\"from\": " << event.from << ", \"frequency\": " << event.frequency;
  emit("delivery", "i", event.round, event.to, args.str(), "\"s\": \"t\"");
}

void TelemetrySink::on_synchronized(RoundId round, NodeId node,
                                    int64_t number) {
  std::ostringstream args;
  args << "\"number\": " << number;
  emit("sync", "i", round, node, args.str(), "\"s\": \"t\"");
}

void TelemetrySink::on_crash(RoundId round, NodeId node) {
  emit("crash", "i", round, node, "", "\"s\": \"t\"");
}

}  // namespace wsync::telemetry
