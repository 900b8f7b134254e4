// Shared helpers for the benchmark/table binaries.
#ifndef WSYNC_BENCH_BENCH_UTIL_H_
#define WSYNC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>

#include "src/telemetry/stopwatch.h"

namespace wsync::bench {

/// Prints a section header in the style used by every table binary.
inline void section(const std::string& title) {
  std::printf("\n## %s\n\n", title.c_str());
}

inline void note(const std::string& text) {
  std::printf("%s\n", text.c_str());
}

/// The bench clock: the telemetry Stopwatch, the repo's one sanctioned
/// wall-clock site (the `wallclock` rule in tools/wsync_lint), read in
/// seconds. Results must be a function of (spec, seed) only, never of wall
/// time.
class Stopwatch : public telemetry::Stopwatch {
 public:
  /// Seconds elapsed since construction or the last reset().
  double seconds() const { return elapsed_seconds(); }
};

/// Compiler barrier: keeps `value` (and everything feeding it) alive in a
/// timed loop without the cost of a volatile store.
template <typename T>
inline void keep(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

}  // namespace wsync::bench

#endif  // WSYNC_BENCH_BENCH_UTIL_H_
