// Seeded violation: a wall-clock read in src/service/. Service code has no
// clock of its own; a watchdog reads the telemetry Stopwatch API.
#include <chrono>
#include <cstdint>

namespace wsync::lintfix {

int64_t poll_started_nanos() {
  const auto now = std::chrono::steady_clock::now();  // VIOLATION
  return now.time_since_epoch().count();
}

}  // namespace wsync::lintfix
