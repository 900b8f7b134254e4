// Checkpoint wall: bit-exact chunk round-trips of every kResultFields entry
// (doubles travel as IEEE bit patterns, so -0.0, denormals, infinities and
// NaN all survive), and the strict-rejection contract — a corrupted,
// truncated, negative, duplicated, other-format or foreign-fingerprint
// checkpoint must never resume, while a newline-less partial tail (the
// kill-mid-append signature) is dropped with a notice.
#include "src/service/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>

#include "tests/testing/point_results.h"
#include "tests/testing/scratch_dir.h"

namespace wsync {
namespace {

/// A PointResult with every serialised kResultFields entry set to a
/// distinct non-zero value, and awkward doubles in two summaries.
PointResult fancy_result() {
  PointResult r;
  double next = 12;  // runs = 12, which the file tests below key on
  for_each_coded(kResultFields, r, [&](const auto&, auto& value) {
    using Value = std::remove_reference_t<decltype(value)>;
    if constexpr (std::is_same_v<Value, Summary>) {
      value.count = static_cast<size_t>(next++);
      for (const auto member : kSummaryDoubles) value.*member = next++ + 0.5;
    } else {
      value = static_cast<Value>(next++);
      if constexpr (std::is_same_v<Value, double>) value += 0.25;
    }
  });
  r.rounds_to_live = {11, 1.5, 0.25, -0.0, 1e300, 2.5, 3.5, 4.5};
  r.max_node_latency = {11, std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::denorm_min(),
                        -std::numeric_limits<double>::infinity(), 0.1, 0.2,
                        0.3};
  return r;
}

/// `payload` (a chunk line without its checksum) re-sealed with a valid
/// checksum, as a hand-edited file would be.
std::string sealed(const std::string& payload) {
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), " #%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  return payload + checksum;
}

TEST(CheckpointCodec, ChunkLineRoundTripsBitExactly) {
  const PointResult original = fancy_result();
  const std::string line = encode_chunk_line("fancy_scenario", 17, original);

  std::string scenario;
  size_t point_index = 0;
  PointResult decoded;
  ASSERT_EQ(decode_chunk_line(line, &scenario, &point_index, &decoded), "");
  EXPECT_EQ(scenario, "fancy_scenario");
  EXPECT_EQ(point_index, 17u);
  // Every field was distinct and non-zero, so a field the line dropped
  // would decode as zero and fail here.
  testing::expect_same_result(decoded, original);
}

TEST(CheckpointCodec, FlippedByteFailsTheChecksum) {
  std::string line = encode_chunk_line("s", 0, fancy_result());
  const size_t digit = line.find(" 12 ") + 1;  // runs field
  line[digit] = '9';
  std::string scenario;
  size_t point_index = 0;
  PointResult decoded;
  EXPECT_EQ(decode_chunk_line(line, &scenario, &point_index, &decoded),
            "checksum mismatch");
}

TEST(CheckpointCodec, MissingAndMalformedChecksumsAreDistinctErrors) {
  const std::string line = encode_chunk_line("s", 0, fancy_result());
  std::string scenario;
  size_t point_index = 0;
  PointResult decoded;
  EXPECT_EQ(decode_chunk_line("chunk s 0 1 2 3", &scenario, &point_index,
                              &decoded),
            "missing checksum");
  const std::string bad = line.substr(0, line.size() - 16) + "nothexnothexnoth";
  EXPECT_EQ(decode_chunk_line(bad, &scenario, &point_index, &decoded),
            "malformed checksum");
}

TEST(CheckpointCodec, TruncatedFieldsAreRejectedEvenWithValidChecksum) {
  // Re-checksum a field-truncated payload: the checksum passes, the field
  // parse must still fail.
  const std::string line = encode_chunk_line("s", 3, fancy_result());
  std::string payload = line.substr(0, line.rfind(" #"));
  payload = payload.substr(0, payload.rfind(' '));  // drop the last field
  std::string scenario;
  size_t point_index = 0;
  PointResult decoded;
  EXPECT_EQ(decode_chunk_line(sealed(payload), &scenario, &point_index,
                              &decoded),
            "malformed chunk fields");
}

TEST(CheckpointCodec, NegativeCountsAndPointIndicesAreRejected) {
  // Negate each count (every token after the scenario but the 16-digit
  // doubles: the point index, the integer fields, the summaries' counts)
  // and re-seal the line: the checksum passes, the decode must not.
  const PointResult original = fancy_result();
  const std::string line = encode_chunk_line("s", 2, original);
  const std::string payload = line.substr(0, line.rfind(" #"));
  size_t negated = 0;
  for (size_t space = payload.find(' ', 6); space != std::string::npos;
       space = payload.find(' ', space + 1)) {
    const size_t end = std::min(payload.find(' ', space + 1), payload.size());
    if (end - space - 1 == 16) continue;
    std::string scenario;
    size_t point_index = 0;
    PointResult decoded;
    EXPECT_EQ(decode_chunk_line(sealed(payload.substr(0, space + 1) + "-" +
                                       payload.substr(space + 1)),
                                &scenario, &point_index, &decoded),
              "malformed chunk fields")
        << "token at " << space + 1 << " negated";
    ++negated;
  }
  size_t counts = 1;  // the point index, then one per non-double field
  for_each_coded(kResultFields, original,
                 [&](const auto&, const auto& value) {
                   counts += !std::is_same_v<decltype(value), const double&>;
                 });
  EXPECT_EQ(negated, counts);
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  // Each process writes in its own scratch directory; the file name
  // carries the case name so cases run in one process never share a path.
  std::string path_ = testing::scratch_path(
      std::string("checkpoint_test_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".txt");

  void write_file(const std::string& content) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << content;
  }
};

TEST_F(CheckpointFileTest, WriterOutputLoadsBack) {
  constexpr uint64_t kFingerprint = 0x1234abcd5678ef00;
  {
    CheckpointWriter writer(path_, kFingerprint, /*resume=*/false);
    ASSERT_TRUE(writer.ok());
    writer.append("alpha", 0, fancy_result());
    writer.append("alpha", 1, fancy_result());
    writer.append("beta", 0, fancy_result());
  }
  const CheckpointLoad load = load_checkpoint(path_, kFingerprint);
  ASSERT_TRUE(load.ok()) << load.error;
  EXPECT_FALSE(load.dropped_partial_tail);
  EXPECT_EQ(load.chunks.size(), 3u);
  EXPECT_EQ(load.chunks.count({"alpha", 1}), 1u);
  EXPECT_EQ(load.chunks.at({"beta", 0}).runs, 12);

  // Resume mode appends below the validated content instead of truncating.
  {
    CheckpointWriter writer(path_, kFingerprint, /*resume=*/true);
    writer.append("beta", 1, fancy_result());
  }
  const CheckpointLoad more = load_checkpoint(path_, kFingerprint);
  ASSERT_TRUE(more.ok()) << more.error;
  EXPECT_EQ(more.chunks.size(), 4u);
}

TEST_F(CheckpointFileTest, ForeignFingerprintIsRejected) {
  CheckpointWriter writer(path_, 0x1111, /*resume=*/false);
  writer.append("alpha", 0, fancy_result());
  const CheckpointLoad load = load_checkpoint(path_, 0x2222);
  EXPECT_FALSE(load.ok());
  EXPECT_NE(load.error.find("different run configuration"),
            std::string::npos);
  EXPECT_TRUE(load.chunks.empty());
}

TEST_F(CheckpointFileTest, CorruptedChunkLineRejectsTheWholeFile) {
  {
    CheckpointWriter writer(path_, 0x42, /*resume=*/false);
    writer.append("alpha", 0, fancy_result());
  }
  std::string content;
  {
    std::ifstream in(path_, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  const size_t digit = content.find(" 12 ") + 1;
  content[digit] = '9';
  write_file(content);
  const CheckpointLoad load = load_checkpoint(path_, 0x42);
  EXPECT_FALSE(load.ok());
  EXPECT_NE(load.error.find("checksum mismatch"), std::string::npos);
}

TEST_F(CheckpointFileTest, DuplicateChunkIsRejected) {
  CheckpointWriter writer(path_, 0x42, /*resume=*/false);
  writer.append("alpha", 0, fancy_result());
  writer.append("alpha", 0, fancy_result());
  const CheckpointLoad load = load_checkpoint(path_, 0x42);
  EXPECT_FALSE(load.ok());
  EXPECT_NE(load.error.find("duplicate chunk"), std::string::npos);
}

TEST_F(CheckpointFileTest, NewlinelessTailIsDroppedNotRejected) {
  {
    CheckpointWriter writer(path_, 0x42, /*resume=*/false);
    writer.append("alpha", 0, fancy_result());
    writer.append("alpha", 1, fancy_result());
  }
  std::string content;
  {
    std::ifstream in(path_, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  // A SIGKILL mid-append leaves a prefix of the last line and no newline.
  write_file(content.substr(0, content.size() - 25));
  const CheckpointLoad load = load_checkpoint(path_, 0x42);
  ASSERT_TRUE(load.ok()) << load.error;
  EXPECT_TRUE(load.dropped_partial_tail);
  EXPECT_EQ(load.chunks.size(), 1u);
  EXPECT_EQ(load.chunks.count({"alpha", 0}), 1u);
}

TEST_F(CheckpointFileTest, OtherFormatsAreRejectedByName) {
  // The pre-field-list "v3" files, and any file whose chunk lines follow
  // another field list, fail on the header with both formats named.
  ASSERT_EQ(checkpoint_format().rfind("fields-", 0), 0u);
  write_file("wsync-checkpoint v3 fingerprint 0000000000000042\n");
  const CheckpointLoad load = load_checkpoint(path_, 0x42);
  EXPECT_FALSE(load.ok());
  EXPECT_NE(load.error.find("format 'v3'"), std::string::npos) << load.error;
  EXPECT_NE(load.error.find(checkpoint_format()), std::string::npos)
      << load.error;
}

TEST_F(CheckpointFileTest, GarbageAndMissingHeadersAreRejected) {
  write_file("not a checkpoint at all\n");
  EXPECT_FALSE(load_checkpoint(path_, 0x42).ok());

  write_file("");
  const CheckpointLoad empty = load_checkpoint(path_, 0x42);
  EXPECT_FALSE(empty.ok());
  EXPECT_NE(empty.error.find("no complete header"), std::string::npos);

  const CheckpointLoad missing =
      load_checkpoint(path_ + ".does-not-exist", 0x42);
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.error.find("cannot open"), std::string::npos);
}

TEST_F(CheckpointFileTest, HeaderOnlyFileResumesToNothing) {
  {
    CheckpointWriter writer(path_, 0x42, /*resume=*/false);
  }
  const CheckpointLoad load = load_checkpoint(path_, 0x42);
  ASSERT_TRUE(load.ok()) << load.error;
  EXPECT_TRUE(load.chunks.empty());
}

}  // namespace
}  // namespace wsync
