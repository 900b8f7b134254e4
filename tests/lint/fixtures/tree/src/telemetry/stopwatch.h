// Whitelist fixture: src/telemetry/stopwatch.h is the one sanctioned
// wall-clock site, so these steady_clock reads must NOT be flagged —
// asserted by this file's absence from expected.txt.
#ifndef WSYNC_LINTFIX_TELEMETRY_STOPWATCH_H_
#define WSYNC_LINTFIX_TELEMETRY_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace wsync::lintfix {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  int64_t elapsed_nanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace wsync::lintfix

#endif  // WSYNC_LINTFIX_TELEMETRY_STOPWATCH_H_
