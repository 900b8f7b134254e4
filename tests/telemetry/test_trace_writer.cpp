// Chrome-trace export wall: the streaming writer must always terminate a
// valid JSON array, the TelemetrySink must render every TraceSink callback
// with the Perfetto-required keys (name/ph/ts/pid/tid), and a full seeded
// engine run is pinned byte-for-byte by a golden file — identical under the
// dense and sparse engines, which execute the same rounds.
#include "src/telemetry/trace_writer.h"

#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/adversary/basic.h"
#include "src/radio/engine.h"
#include "src/radio/trace.h"
#include "src/trapdoor/trapdoor.h"
#include "tests/golden/golden_compare.h"

namespace wsync::telemetry {
namespace {

using wsync::testing::compare_with_golden;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Structural check that `text` is a Chrome trace: a JSON array with one
/// complete event object per line, each carrying the keys Perfetto needs.
/// (Full json.load validation runs in the Python CTest gates; this keeps
/// the C++ wall self-contained.)
void expect_chrome_trace_shape(const std::string& text) {
  const std::vector<std::string> lines = split_lines(text);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines.front(), "[");
  EXPECT_EQ(lines.back(), "]");
  const std::regex event_line(R"(^\{"name": ".*\},?$)");
  for (size_t i = 1; i + 1 < lines.size(); ++i) {
    EXPECT_TRUE(std::regex_search(lines[i], event_line)) << lines[i];
    EXPECT_NE(lines[i].find("\"ph\": \""), std::string::npos) << lines[i];
    EXPECT_NE(lines[i].find("\"pid\": "), std::string::npos) << lines[i];
    // Every line but the last is comma-terminated; the last is not.
    EXPECT_EQ(lines[i].back() == ',', i + 2 < lines.size()) << lines[i];
  }
}

TEST(ChromeTraceWriterTest, StreamsACommaSeparatedArray) {
  std::ostringstream out;
  ChromeTraceWriter writer(out);
  writer.write_event("{\"name\": \"a\"}");
  writer.write_event("{\"name\": \"b\"}");
  EXPECT_EQ(writer.events_written(), 2);
  writer.close();
  EXPECT_EQ(out.str(), "[\n{\"name\": \"a\"},\n{\"name\": \"b\"}\n]\n");
}

TEST(ChromeTraceWriterTest, EmptyTraceIsStillValidJson) {
  std::ostringstream out;
  { ChromeTraceWriter writer(out); }  // destructor closes
  EXPECT_EQ(out.str(), "[\n]\n");
}

TEST(ChromeTraceWriterTest, CloseIsIdempotentAndWriteAfterCloseThrows) {
  std::ostringstream out;
  ChromeTraceWriter writer(out);
  writer.close();
  writer.close();
  EXPECT_EQ(out.str(), "[\n]\n");
  EXPECT_THROW(writer.write_event("{}"), std::invalid_argument);
}

TEST(TelemetrySinkTest, RendersEveryCallbackWithPerfettoKeys) {
  std::ostringstream out;
  {
    ChromeTraceWriter writer(out);
    TelemetrySink sink(&writer);
    RoundTraceEvent round;
    round.round = 3;
    round.broadcast_weight = 1.5;
    round.active_nodes = 2;
    sink.on_round(round);
    sink.on_activation(4, 1);
    sink.on_delivery(DeliveryTraceEvent{5, 2, 0, 1});
    sink.on_synchronized(6, 1, 42);
    sink.on_crash(7, 0);
  }
  const std::string text = out.str();
  expect_chrome_trace_shape(text);
  // One metadata event (process_name) plus the five callbacks.
  EXPECT_NE(text.find("\"name\": \"process_name\", \"ph\": \"M\""),
            std::string::npos);
  EXPECT_NE(text.find("\"name\": \"round\", \"ph\": \"C\", \"ts\": 3"),
            std::string::npos);
  EXPECT_NE(text.find("\"broadcast_weight\": 1.5"), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"activate\", \"ph\": \"i\", \"ts\": 4"),
            std::string::npos);
  EXPECT_NE(text.find("\"name\": \"delivery\", \"ph\": \"i\", \"ts\": 5"),
            std::string::npos);
  EXPECT_NE(text.find("\"name\": \"sync\", \"ph\": \"i\", \"ts\": 6"),
            std::string::npos);
  EXPECT_NE(text.find("\"number\": 42"), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"crash\", \"ph\": \"i\", \"ts\": 7"),
            std::string::npos);
}

TEST(TelemetrySinkTest, ReplayedRunsGetFreshPidTracks) {
  std::ostringstream out;
  {
    ChromeTraceWriter writer(out);
    TelemetrySink sink(&writer);
    sink.on_activation(5, 0);  // run 0 ends at ts 5
    sink.on_activation(2, 0);  // time runs backwards: a replayed run
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("\"name\": \"wsync run 0\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"wsync run 1\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\": 2, \"pid\": 1"), std::string::npos);
}

/// A full seeded engine run rendered through the sink: Trapdoor under a
/// random jammer with a mid-run crash, so the trace exercises round
/// counters, activations, deliveries, syncs and the crash instant.
std::string render_traced_run(EngineMode engine) {
  constexpr uint64_t kSeed = 0xE17;
  constexpr RoundId kRounds = 32;
  std::ostringstream out;
  ChromeTraceWriter writer(out);
  TelemetrySink sink(&writer);
  SimConfig config;
  config.F = 4;
  config.t = 1;
  config.N = 8;
  config.n = 3;
  config.seed = kSeed;
  config.engine = engine;
  Simulation sim(config, TrapdoorProtocol::factory(),
                 std::make_unique<RandomSubsetAdversary>(1),
                 std::make_unique<SequentialActivation>(3, 2), &sink);
  for (RoundId r = 0; r < kRounds; ++r) {
    if (r == 16) sim.crash(2);
    sim.step();
  }
  writer.close();
  return out.str();
}

TEST(TelemetrySinkTest, GoldenSeededRun) {
  const std::string dense = render_traced_run(EngineMode::kDense);
  // Both engines execute every round, so the sparse engine must replay the
  // exact same event stream.
  ASSERT_EQ(dense, render_traced_run(EngineMode::kSparse));
  expect_chrome_trace_shape(dense);
  compare_with_golden("telemetry_trace_run.golden", dense);
}

}  // namespace
}  // namespace wsync::telemetry
