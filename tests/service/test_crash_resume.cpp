// Crash/resume byte-identity wall (integration): run a multi-scenario grid
// through the real wsync_run binary, SIGKILL it after a few checkpointed
// chunks, resume with --resume, and byte-compare the final JSON + CSV
// against an uninterrupted run. Also pins the CLI-level rejection of
// corrupted, negative, other-format and foreign checkpoints (exit 2,
// nothing resumed).
//
// The child is paced with --throttle-ms so the kill reliably lands
// mid-grid; progress is observed by re-reading the checkpoint file
// (iteration-capped sleep loop — no wall-clock reads, per the wsync_lint
// contract).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "src/service/checkpoint.h"
#include "tests/testing/scratch_dir.h"

namespace wsync {
namespace {

// Four small catalog scenarios (10 grid points total) — enough chunks to
// kill in the middle of, small enough to run in well under a second.
const char* const kScenarios[] = {"sweep_jammer_narrowband",
                                  "near_capacity_jam",
                                  "single_frequency_band",
                                  "fprime_degenerate_band"};
constexpr size_t kTotalChunks = 10;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

size_t count_chunk_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  size_t chunks = 0;
  while (std::getline(in, line)) {
    if (line.rfind("chunk ", 0) == 0) ++chunks;
  }
  return chunks;
}

/// Launches wsync_run with `extra_args`, stdout+stderr to `output_path`.
pid_t spawn_run(const std::vector<std::string>& extra_args,
                const std::string& output_path) {
  std::vector<std::string> args = {WSYNC_RUN_BINARY};
  for (const char* scenario : kScenarios) args.push_back(scenario);
  args.insert(args.end(), {"--seeds", "2", "--workers", "2"});
  args.insert(args.end(), extra_args.begin(), extra_args.end());

  const pid_t pid = fork();
  if (pid != 0) return pid;

  // Child: redirect stdout/stderr, then exec.
  std::freopen(output_path.c_str(), "w", stdout);
  std::freopen(output_path.c_str(), "w", stderr);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  execv(argv[0], argv.data());
  _exit(127);
}

/// Waits for the child and returns its exit code (-1 on signal death).
int wait_exit(pid_t pid) {
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Polls `path` until it holds >= want chunk lines. Iteration-capped so a
/// hung child fails the test instead of hanging it.
bool await_chunks(const std::string& path, size_t want) {
  for (int i = 0; i < 3000; ++i) {
    if (count_chunk_lines(path) >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// The walled prefix of a metrics document: everything before the
/// "timing" section (schema + deterministic + engine). Wall-clock figures
/// legitimately differ between runs; every byte before them must not.
std::string walled_metrics_prefix(const std::string& document) {
  const size_t timing = document.find("\"timing\":");
  return timing == std::string::npos ? document : document.substr(0, timing);
}

class CrashResumeTest : public ::testing::Test {
 protected:
  std::string tmp_ = testing::scratch_dir();

  /// One uninterrupted reference run; returns exit code.
  int baseline(const std::string& tag) {
    return wait_exit(spawn_run({"--json", tmp_ + tag + ".json", "--csv",
                                tmp_ + tag + ".csv", "--metrics-out",
                                tmp_ + tag + ".metrics.json"},
                               tmp_ + tag + ".out"));
  }
};

TEST_F(CrashResumeTest, KillAfterCheckpointedChunksThenResumeIsByteIdentical) {
  ASSERT_EQ(baseline("ref"), 0);
  const std::string ref_json = read_file(tmp_ + "ref.json");
  const std::string ref_csv = read_file(tmp_ + "ref.csv");
  ASSERT_FALSE(ref_json.empty());
  ASSERT_FALSE(ref_csv.empty());

  // Throttled checkpointed run, killed once 3 chunks are on disk. The
  // scratch directory is fresh per process, so no leftover checkpoint can
  // satisfy await_chunks before the child even truncates it.
  const std::string ck = tmp_ + "kill.ck";
  const pid_t pid = spawn_run({"--checkpoint", ck, "--throttle-ms", "150",
                               "--json", tmp_ + "kill.json", "--csv",
                               tmp_ + "kill.csv"},
                              tmp_ + "kill.out");
  ASSERT_TRUE(await_chunks(ck, 3)) << "child never checkpointed 3 chunks";
  kill(pid, SIGKILL);
  ASSERT_EQ(wait_exit(pid), -1) << "child was not killed";

  const size_t at_kill = count_chunk_lines(ck);
  ASSERT_GE(at_kill, 3u);
  ASSERT_LT(at_kill, kTotalChunks)
      << "child finished before the kill; raise --throttle-ms";

  // Resume into fresh export paths; the merged output must be byte-equal
  // to the uninterrupted run.
  const int resumed = wait_exit(
      spawn_run({"--checkpoint", ck, "--resume", "--json",
                 tmp_ + "resumed.json", "--csv", tmp_ + "resumed.csv",
                 "--metrics-out", tmp_ + "resumed.metrics.json"},
                tmp_ + "resumed.out"));
  ASSERT_EQ(resumed, 0) << read_file(tmp_ + "resumed.out");
  EXPECT_EQ(read_file(tmp_ + "resumed.json"), ref_json);
  EXPECT_EQ(read_file(tmp_ + "resumed.csv"), ref_csv);

  // Metrics accumulation is checkpoint-safe: the killed-and-resumed run's
  // deterministic and engine metric sections are byte-equal to the
  // uninterrupted run's (only the trailing timing section may differ).
  const std::string ref_metrics = read_file(tmp_ + "ref.metrics.json");
  ASSERT_FALSE(ref_metrics.empty());
  EXPECT_EQ(walled_metrics_prefix(read_file(tmp_ + "resumed.metrics.json")),
            walled_metrics_prefix(ref_metrics));

  // The resumed checkpoint now covers the whole grid; a second resume
  // recomputes nothing and still matches.
  ASSERT_EQ(count_chunk_lines(ck), kTotalChunks);
  const int replayed = wait_exit(
      spawn_run({"--checkpoint", ck, "--resume", "--json",
                 tmp_ + "replayed.json", "--csv", tmp_ + "replayed.csv"},
                tmp_ + "replayed.out"));
  ASSERT_EQ(replayed, 0);
  EXPECT_EQ(read_file(tmp_ + "replayed.json"), ref_json);
  EXPECT_EQ(read_file(tmp_ + "replayed.csv"), ref_csv);
}

TEST_F(CrashResumeTest, CorruptedCheckpointIsRejectedWithExitTwo) {
  const std::string ck = tmp_ + "corrupt.ck";
  ASSERT_EQ(wait_exit(spawn_run({"--checkpoint", ck}, tmp_ + "c1.out")), 0);

  // Flip one digit inside a chunk line: the line checksum must catch it.
  std::string content = read_file(ck);
  const size_t chunk_pos = content.find("\nchunk ");
  ASSERT_NE(chunk_pos, std::string::npos);
  const size_t digit = content.find(" 2 ", chunk_pos);  // runs field
  ASSERT_NE(digit, std::string::npos);
  content[digit + 1] = '7';
  write_file(ck, content);

  const int code =
      wait_exit(spawn_run({"--checkpoint", ck, "--resume"}, tmp_ + "c2.out"));
  EXPECT_EQ(code, 2);
  EXPECT_NE(read_file(tmp_ + "c2.out").find("checksum mismatch"),
            std::string::npos);
}

TEST_F(CrashResumeTest, TruncatedHeaderIsRejectedWithExitTwo) {
  const std::string ck = tmp_ + "trunc.ck";
  ASSERT_EQ(wait_exit(spawn_run({"--checkpoint", ck}, tmp_ + "t1.out")), 0);

  // Keep only half the header line, without its newline: the file has no
  // complete header, which is a rejection (the partial-tail tolerance only
  // applies below a valid header).
  write_file(ck, read_file(ck).substr(0, 10));
  const int code =
      wait_exit(spawn_run({"--checkpoint", ck, "--resume"}, tmp_ + "t2.out"));
  EXPECT_EQ(code, 2);
  EXPECT_NE(read_file(tmp_ + "t2.out").find("no complete header"),
            std::string::npos);
}

TEST_F(CrashResumeTest, HandEditedCheckpointsAreRejectedWithExitTwo) {
  const std::string ck = tmp_ + "edited.ck";
  ASSERT_EQ(wait_exit(spawn_run({"--checkpoint", ck}, tmp_ + "e1.out")), 0);
  const std::string good = read_file(ck);
  auto expect_rejected = [&](const std::string& content,
                             const std::string& why) {
    write_file(ck, content);
    const pid_t pid = spawn_run({"--checkpoint", ck, "--resume"}, tmp_ + "e2");
    EXPECT_EQ(wait_exit(pid), 2);
    EXPECT_NE(read_file(tmp_ + "e2").find(why), std::string::npos);
  };

  // A negative runs count (after "chunk <scenario> <index>"), re-sealed.
  const size_t begin = good.find("\nchunk ") + 1;
  const std::string line = good.substr(begin, good.find('\n', begin) - begin);
  std::string payload = line.substr(0, line.rfind(" #"));
  const size_t runs =
      payload.find(' ', payload.find(' ', payload.find(' ') + 1) + 1) + 1;
  payload = payload.substr(0, runs) + "-" + payload.substr(runs);
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), " #%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  std::string content = good;
  content.replace(begin, line.size(), payload + checksum);
  expect_rejected(content, "malformed chunk fields");

  // A header naming another chunk-line format: the pre-field-list "v3".
  content = good;
  content.replace(content.find(checkpoint_format()),
                  checkpoint_format().size(), "v3");
  expect_rejected(content, "format 'v3'");
}

TEST_F(CrashResumeTest, ForeignFingerprintIsRejectedWithExitTwo) {
  // Checkpoint taken at --seeds 2 (via the fixture args), resumed by a run
  // whose plan differs (--max-rounds override changes the fingerprint).
  const std::string ck = tmp_ + "foreign.ck";
  ASSERT_EQ(wait_exit(spawn_run({"--checkpoint", ck}, tmp_ + "f1.out")), 0);

  const int code = wait_exit(spawn_run(
      {"--checkpoint", ck, "--resume", "--max-rounds", "9999"},
      tmp_ + "f2.out"));
  EXPECT_EQ(code, 2);
  EXPECT_NE(read_file(tmp_ + "f2.out").find("different run configuration"),
            std::string::npos);
}

}  // namespace
}  // namespace wsync
