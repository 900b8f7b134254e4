// Serve-protocol grammar wall: the exact line grammar wsync_serve accepts,
// pinned at the parser level (the CTest CLI cases pin the tool's exit codes
// and error text on top of this), the bounded-integer parser behind every
// numeric flag and option, and a seeded mutation wall over job lines.
#include "src/service/serve_protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace wsync {
namespace {

ServeJob parse_or_die(const std::string& line) {
  const auto job = parse_job_line(line);
  EXPECT_TRUE(job.has_value()) << line;
  return *job;
}

void expect_malformed(const std::string& line) {
  try {
    parse_job_line(line);
    FAIL() << "expected malformed: " << line;
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()).rfind("malformed job line", 0), 0u)
        << error.what();
  }
}

TEST(ServeProtocolTest, RunJobWithAllOptions) {
  const ServeJob job = parse_or_die(
      "run trapdoor_basic seeds=5 max_rounds=2000 engine=dense");
  EXPECT_EQ(job.kind, ServeJob::Kind::kRun);
  EXPECT_EQ(job.name, "trapdoor_basic");
  EXPECT_EQ(job.seeds, 5);
  EXPECT_EQ(job.max_rounds, 2000);
  EXPECT_EQ(job.engine, EngineMode::kDense);
}

TEST(ServeProtocolTest, DefaultsWhenOptionsOmitted) {
  const ServeJob job = parse_or_die("run trapdoor_basic");
  EXPECT_EQ(job.seeds, 0);
  EXPECT_EQ(job.max_rounds, 0);
  EXPECT_EQ(job.engine, EngineMode::kAuto);
}

TEST(ServeProtocolTest, AllPingAndQuit) {
  EXPECT_EQ(parse_or_die("all seeds=2").kind, ServeJob::Kind::kAll);
  EXPECT_EQ(parse_or_die("all seeds=2").seeds, 2);
  EXPECT_EQ(parse_or_die("ping").kind, ServeJob::Kind::kPing);
  EXPECT_EQ(parse_or_die("quit").kind, ServeJob::Kind::kQuit);
  EXPECT_EQ(parse_or_die("  all\tengine=sparse  ").engine,
            EngineMode::kSparse);
}

TEST(ServeProtocolTest, BlankAndCommentLinesAreSkipped) {
  EXPECT_FALSE(parse_job_line("").has_value());
  EXPECT_FALSE(parse_job_line("   \t  ").has_value());
  EXPECT_FALSE(parse_job_line("# a comment").has_value());
  EXPECT_FALSE(parse_job_line("#all seeds=2").has_value());
}

TEST(ServeProtocolTest, MalformedLinesThrowWithThePinnedPrefix) {
  expect_malformed("launch trapdoor_basic");     // unknown command
  expect_malformed("run");                       // missing scenario name
  expect_malformed("run seeds=2");               // option where name goes
  expect_malformed("run x seeds=2 seeds=3");     // duplicate option
  expect_malformed("run x seeds=zero");          // non-numeric value
  expect_malformed("run x seeds=0");             // below minimum
  expect_malformed("run x seeds=9999999");       // above maximum
  expect_malformed("run x max_rounds=-5");       // negative budget
  expect_malformed("run x engine=warp");         // unknown engine
  expect_malformed("run x turbo=yes");           // unknown option
  expect_malformed("run x extra");               // junk token
  expect_malformed("ping now");                  // ping takes no options
  expect_malformed("quit seeds=2");              // quit takes no options
}

TEST(ServeProtocolTest, EngineModeParserCoversEveryEnumerator) {
  EngineMode mode = EngineMode::kAuto;
  ASSERT_TRUE(parse_engine_mode("dense", &mode));
  EXPECT_EQ(mode, EngineMode::kDense);
  ASSERT_TRUE(parse_engine_mode("sparse", &mode));
  EXPECT_EQ(mode, EngineMode::kSparse);
  ASSERT_TRUE(parse_engine_mode("auto", &mode));
  EXPECT_EQ(mode, EngineMode::kAuto);
  EXPECT_FALSE(parse_engine_mode("Dense", &mode));
  EXPECT_FALSE(parse_engine_mode("", &mode));
}

constexpr long kMaxSeeds = 1L << 20;
constexpr long kMaxRounds = 1L << 40;

TEST(ServeProtocolTest, ParseBoundedPinsTheAcceptedSet) {
  struct Case {
    std::string text;
    long min;
    long max;
    std::optional<long> parsed;  // nullopt = rejected
  };
  const std::vector<Case> cases = {
      {"", 1, kMaxSeeds, std::nullopt},
      {"5x", 1, kMaxSeeds, std::nullopt},
      {"0", 1, kMaxSeeds, std::nullopt},
      {"1", 1, kMaxSeeds, 1},
      {"0", 0, kMaxSeeds, 0},  // --throttle-ms and --deadline-ms allow 0
      {"-1", 0, kMaxSeeds, std::nullopt},
      {"1048576", 1, kMaxSeeds, kMaxSeeds},
      {"1048577", 1, kMaxSeeds, std::nullopt},
      {"1099511627776", 1, kMaxRounds, kMaxRounds},
      {"1099511627777", 1, kMaxRounds, std::nullopt},
      {"9223372036854775808", 1, kMaxRounds, std::nullopt},  // overflows
      {"-9223372036854775809", 0, kMaxRounds, std::nullopt},
      // strtol syntax: leading whitespace and one sign, nothing after.
      {" 7", 1, kMaxSeeds, 7},
      {"+7", 1, kMaxSeeds, 7},
      {"7 ", 1, kMaxSeeds, std::nullopt},
      {"0x10", 1, kMaxSeeds, std::nullopt},
      {"1e3", 1, kMaxSeeds, std::nullopt},
      {"+", 1, kMaxSeeds, std::nullopt},
      {std::string("7\0", 2), 1, kMaxSeeds, std::nullopt},
  };
  for (const Case& c : cases) {
    long out = -42;
    EXPECT_EQ(parse_bounded(c.text, c.min, c.max, &out), c.parsed.has_value())
        << "'" << c.text << "' in [" << c.min << ", " << c.max << "]";
    EXPECT_EQ(out, c.parsed.value_or(-42)) << "'" << c.text << "'";
  }
}

// --- Seeded mutation wall ---------------------------------------------------
// Every mutant of a grammar example or a fixture line either parses to a
// job inside the grammar's bounds or throws std::invalid_argument with the
// pinned prefix: never another exception, a crash (the asan preset runs
// this suite too), or a silently out-of-range value.

std::vector<std::string> seed_corpus() {
  std::vector<std::string> corpus = {
      "run trapdoor_basic seeds=5 max_rounds=2000 engine=dense",
      "run x seeds=1048576 max_rounds=1099511627776 engine=sparse",
      "all seeds=1 max_rounds=1 engine=auto",
      "ping",
      "quit",
      "# comment",
  };
  std::vector<std::filesystem::path> fixtures;
  for (const auto& entry :
       std::filesystem::directory_iterator(WSYNC_SERVE_FIXTURES)) {
    if (entry.path().extension() == ".jobs") fixtures.push_back(entry.path());
  }
  std::sort(fixtures.begin(), fixtures.end());  // a seeded, fixed corpus
  for (const std::filesystem::path& path : fixtures) {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) corpus.push_back(line);
  }
  return corpus;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  size_t at = 0;
  while ((at = line.find_first_not_of(" \t", at)) != std::string::npos) {
    const size_t end = std::min(line.find_first_of(" \t", at), line.size());
    tokens.push_back(line.substr(at, end - at));
    at = end;
  }
  return tokens;
}

std::string join_tokens(const std::vector<std::string>& tokens) {
  std::string line;
  for (const std::string& token : tokens) {
    if (!line.empty()) line += ' ';
    line += token;
  }
  return line;
}

/// One random edit: a byte flip, insert or delete, a dropped or duplicated
/// token, or an option value moved to a bound (or one past it).
std::string mutate(std::string line, Rng& rng) {
  // Bytes the grammar cares about, a NUL included.
  static const std::string kBytes("=# \t+-0123456789x\xff\0", 19);
  // Option values at and one past each bound, and two engine words.
  static const char* const kValues[] = {
      "",              "0",             "1",
      "-1",            "1048575",       "1048576",
      "1048577",       "1099511627775", "1099511627776",
      "1099511627777", "9223372036854775808",
      "dense",         "warp"};
  const auto any_byte = [&]() {
    return rng.bernoulli(0.5)
               ? kBytes[rng.next_below(kBytes.size())]
               : static_cast<char>(rng.next_below(256));
  };
  std::vector<std::string> tokens = split_tokens(line);
  switch (rng.next_below(6)) {
    case 0:  // flip a byte
      if (!line.empty()) line[rng.next_below(line.size())] = any_byte();
      return line;
    case 1: {  // insert a byte (draws sequenced: the mutants are seeded)
      const size_t at = rng.next_below(line.size() + 1);
      line.insert(at, 1, any_byte());
      return line;
    }
    case 2:  // delete a byte
      if (!line.empty()) line.erase(rng.next_below(line.size()), 1);
      return line;
    case 3:  // drop a token
      if (tokens.empty()) return line;
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(
                                        rng.next_below(tokens.size())));
      return join_tokens(tokens);
    case 4: {  // duplicate a token
      if (tokens.empty()) return line;
      const size_t at = rng.next_below(tokens.size());
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                    tokens[at]);
      return join_tokens(tokens);
    }
    default: {  // move an option's value to a bound
      std::vector<size_t> options;
      for (size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].find('=') != std::string::npos) options.push_back(i);
      }
      if (options.empty()) return line;
      std::string& option = tokens[options[rng.next_below(options.size())]];
      option = option.substr(0, option.find('=') + 1) +
               kValues[rng.next_below(std::size(kValues))];
      return join_tokens(tokens);
    }
  }
}

/// Empty when `line` parses within bounds (counted in `*parsed`) or is
/// rejected with the pinned prefix; otherwise what went wrong.
std::string check_job_line(const std::string& line, size_t* parsed) {
  std::optional<ServeJob> job;
  try {
    job = parse_job_line(line);
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    return what.rfind("malformed job line", 0) == 0 ? ""
                                                     : "unpinned: " + what;
  }
  ++*parsed;
  if (!job.has_value()) return "";  // blank or comment
  if (job->seeds < 0 || job->seeds > kMaxSeeds) return "seeds out of range";
  if (job->max_rounds < 0 || job->max_rounds > kMaxRounds) {
    return "max_rounds out of range";
  }
  if (job->name.find('=') != std::string::npos) return "'=' in the name";
  if (job->kind != ServeJob::Kind::kRun && !job->name.empty()) {
    return "a name on a non-run job";
  }
  return "";
}

TEST(ServeProtocolTest, MutatedJobLinesParseInBoundsOrThrowThePinnedPrefix) {
  const std::vector<std::string> corpus = seed_corpus();
  ASSERT_GT(corpus.size(), 6u) << "no fixture lines under "
                               << WSYNC_SERVE_FIXTURES;
  Rng rng(0x5eed'10b5);
  constexpr size_t kMutants = 10'000;
  size_t parsed = 0;
  for (size_t i = 0; i < kMutants; ++i) {
    std::string line = corpus[rng.next_below(corpus.size())];
    for (uint64_t edits = 1 + rng.next_below(3); edits > 0; --edits) {
      line = mutate(line, rng);
    }
    ASSERT_EQ(check_job_line(line, &parsed), "")
        << "mutant " << i << ": '" << line << "'";
  }
  // Both outcomes occur, so the mutants probe the boundary from each side.
  EXPECT_GT(parsed, kMutants / 10);
  EXPECT_GT(kMutants - parsed, kMutants / 10);
}

}  // namespace
}  // namespace wsync
