// E15 — Section 8, "Unsynchronized rounds": the slotted -> unslotted
// transform costs only a constant factor. We run the Trapdoor protocol
// through the unslotted adapters (one Simulation round per tick, random
// phases) and compare ticks-to-synchronization against the slotted run.
#include <cstdio>

#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/adversary/basic.h"
#include "src/radio/engine.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"
#include "src/trapdoor/trapdoor.h"
#include "src/unslotted/unslotted.h"

namespace wsync {
namespace {

double median_ticks(int F, int t, int n, int64_t N, int ticks_per_slot,
                    int seeds) {
  std::vector<double> ticks;
  for (int i = 0; i < seeds; ++i) {
    SimConfig config;
    config.F = F;
    config.t = t;
    config.N = N;
    config.n = n;
    config.seed = 0x51D3 + static_cast<uint64_t>(i) * 977;
    Simulation sim(config,
                   UnslottedProtocol::factory(TrapdoorProtocol::factory(),
                                              ticks_per_slot),
                   std::make_unique<RandomSubsetAdversary>(t),
                   std::make_unique<SlotActivation>(
                       std::make_unique<SimultaneousActivation>(n),
                       ticks_per_slot));
    const auto result = sim.run_until_synced(100000000);
    if (result.synced) ticks.push_back(static_cast<double>(result.rounds));
  }
  return ticks.empty() ? -1.0 : quantile(ticks, 0.5);
}

}  // namespace
}  // namespace wsync

int main() {
  using namespace wsync;
  bench::section(
      "Section 8 extension — unslotted execution (random phase offsets) "
      "costs a constant factor");
  std::printf("Trapdoor protocol, one engine round per tick, 8 seeds per "
              "cell; T = ticks per logical round (transmissions repeat "
              "T times; T = 1 is the aligned/slotted baseline).\n\n");

  Table table({"F", "t", "n", "N", "T=1 (slotted) ticks", "T=2 ticks",
               "T=3 ticks", "T=2 cost factor", "T=3 cost factor"});
  struct Case {
    int F;
    int t;
    int n;
    int64_t N;
  };
  for (const Case c : {Case{8, 2, 4, 16}, Case{8, 2, 8, 16},
                       Case{16, 8, 6, 32}}) {
    const double t1 = median_ticks(c.F, c.t, c.n, c.N, 1, 8);
    const double t2 = median_ticks(c.F, c.t, c.n, c.N, 2, 8);
    const double t3 = median_ticks(c.F, c.t, c.n, c.N, 3, 8);
    table.row()
        .cell(static_cast<int64_t>(c.F))
        .cell(static_cast<int64_t>(c.t))
        .cell(static_cast<int64_t>(c.n))
        .cell(c.N)
        .cell(t1, 0)
        .cell(t2, 0)
        .cell(t3, 0)
        .cell(t2 / t1, 2)
        .cell(t3 / t1, 2);
  }
  std::printf("%s", table.markdown().c_str());
  bench::note(
      "\nShape check: the unchanged slotted protocol synchronizes "
      "phase-shifted nodes\nat ~T times the tick cost — the constant "
      "multiplicative overhead the paper\npredicts for the ALOHA-style "
      "transform. Numbered outputs within one tick\nspread by at most 0/1/2 "
      "at T = 1/2/3: interleaved phases cost one, and from\nT = 3 on a "
      "logical round can straddle two leader rounds (see tests/unslotted).");
  return 0;
}
