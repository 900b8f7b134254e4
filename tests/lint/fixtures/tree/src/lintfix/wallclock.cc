// Seeded violation: a wall-clock read outside src/telemetry/stopwatch.h.
// Results must never depend on wall time; only the Stopwatch may measure it.
#include <chrono>
#include <cstdint>

namespace wsync::lintfix {

int64_t wall_nanos() {
  const auto now = std::chrono::steady_clock::now();  // VIOLATION
  return now.time_since_epoch().count();
}

}  // namespace wsync::lintfix
