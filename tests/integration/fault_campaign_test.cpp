// Fault campaigns through the gcsweep library: a small campaign must complete
// every non-fail-stop cell cleanly under gcverify, attribute recovery cost
// under gctrace, and render a CSV that is byte-identical across worker
// counts and reruns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "sweep.hpp"
#include "util/status.hpp"

namespace gangcomm::sweep {
namespace {

SweepConfig smallCampaign() {
  SweepConfig cfg;
  cfg.nodes = 2;
  cfg.jobs = 2;
  cfg.rounds = 6;
  cfg.msg_bytes = 2048;
  cfg.quantum_ms = 10;
  cfg.salts = {0};
  cfg.loss = {0.0, 0.1};
  cfg.jitter_ns = {0};
  cfg.corrupt = {0.0, 0.05};
  cfg.fail_stops = {"none", "link"};
  cfg.seeds = {1};
  return cfg;
}

/// The campaign's first cell with the given fault settings.
Cell cellWith(double loss, double corrupt, const char* fail_stop) {
  for (const Cell& c : expand(smallCampaign()))
    if (c.loss == loss && c.corrupt == corrupt && c.fail_stop == fail_stop)
      return c;
  ADD_FAILURE() << "no such cell";
  return Cell{};
}

TEST(FaultCampaign, CellsExpandInDeterministicOrder) {
  const std::vector<Cell> specs = expand(smallCampaign());
  ASSERT_EQ(specs.size(), 8u);  // 2 loss x 1 jitter x 2 corrupt x 2 failstop
  EXPECT_EQ(specs.front().loss, 0.0);
  EXPECT_EQ(specs.front().fail_stop, "none");
  EXPECT_EQ(specs.back().loss, 0.1);
  EXPECT_EQ(specs.back().fail_stop, "link");
  // Faults are armed, so every cell (fault-free ones included) retransmits.
  for (const Cell& c : specs) EXPECT_TRUE(c.retransmit);

  SweepConfig cfg = smallCampaign();
  cfg.salts = {0, 1, 2, 3};
  const std::vector<Cell> grid = expand(cfg);
  ASSERT_EQ(grid.size(), 32u);
  EXPECT_EQ(grid[0].loss, 0.0);  // loss outermost
  EXPECT_EQ(grid[1].salt, 1u);   // salt innermost
  EXPECT_EQ(grid[16].loss, 0.1);
}

// The gang-loss interaction in one cell: jobs time-share the nodes while the
// fabric drops 10% of data packets, and every job must still complete with
// the invariant engine armed (runCell aborts on any violation).  This is the
// regression net for retransmit timers interacting with gang suspension —
// livelock here shows up as jobs_done < jobs.
TEST(FaultCampaign, LossyGangCellCompletesAllJobs) {
  const Cell cell = cellWith(0.1, 0.0, "none");
  const CellResult r = runCell(cell);
  EXPECT_EQ(r.jobs_done, cell.jobs);
  EXPECT_GT(r.lost, 0u);           // the fault model actually fired
  EXPECT_GT(r.retransmitted, 0u);  // and recovery actually ran
  // With the retransmission layer armed a dropped data packet's credit is
  // not written off — the original reservation stands and a later copy is
  // accepted against it — and control refills are exempt from probabilistic
  // loss, so conservation holds with an empty write-off ledger.
  EXPECT_EQ(r.lost_credits, 0L);
  EXPECT_GT(r.traced_packets, 0u);
  EXPECT_GT(r.end_to_end_us, 0.0);
}

TEST(FaultCampaign, CorruptCellShedsAndRecovers) {
  const Cell cell = cellWith(0.0, 0.05, "none");
  const CellResult r = runCell(cell);
  EXPECT_EQ(r.jobs_done, cell.jobs);
  EXPECT_GT(r.corrupted, 0u);
  // Corrupt packets are delivered-then-shed by the FM checksum path, never
  // silently consumed.
  EXPECT_GT(r.checksum_dropped, 0u);
}

TEST(FaultCampaign, FailStopCellStopsAtTheHorizonWithJobsIncomplete) {
  Cell cell = cellWith(0.0, 0.0, "link");
  cell.failstop_horizon_ns = sim::msToNs(60.0);
  const CellResult r = runCell(cell);
  EXPECT_LT(r.jobs_done, cell.jobs);  // the dead link starves someone
  EXPECT_GT(r.failstop_dropped, 0u);
}

TEST(FaultCampaign, CsvIsIdenticalAcrossWorkerCountsAndReruns) {
  // Four salts ride along: cells run on worker threads whatever the axes,
  // and the oracle must hold over the whole 32-cell grid.
  SweepConfig cfg = smallCampaign();
  cfg.salts = {0, 1, 2, 3};
  ASSERT_EQ(setenv("GANGCOMM_JOBS", "1", 1), 0);
  const std::vector<CellResult> serial_results = runSweep(cfg);
  const std::string serial = renderCsv(serial_results);
  ASSERT_EQ(setenv("GANGCOMM_JOBS", "8", 1), 0);
  const std::string parallel = renderCsv(runSweep(cfg));
  const std::string again = renderCsv(runSweep(cfg));
  ASSERT_EQ(unsetenv("GANGCOMM_JOBS"), 0);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(parallel, again);
  // Sanity: one row per cell plus the header.
  const auto rows = static_cast<std::size_t>(
      std::count(serial.begin(), serial.end(), '\n'));
  EXPECT_EQ(rows, expand(cfg).size() + 1);
  const std::vector<std::string> divergences = checkOracle(serial_results);
  EXPECT_TRUE(divergences.empty())
      << (divergences.empty() ? "" : divergences.front());
}

TEST(FaultCampaign, ValidateRejectsBadSweepInput) {
  struct Case {
    const char* name;
    void (*edit)(SweepConfig&);
    bool ok;
  };
  const Case cases[] = {
      {"defaults", [](SweepConfig&) {}, true},
      {"campaign grid", [](SweepConfig& c) { c = smallCampaign(); }, true},
      {"loss just below 1", [](SweepConfig& c) { c.loss = {0.0, 0.999}; },
       true},
      {"loss 1 drops every packet", [](SweepConfig& c) { c.loss = {1.0}; },
       false},
      {"negative loss", [](SweepConfig& c) { c.loss = {-0.1}; }, false},
      {"NaN loss", [](SweepConfig& c) { c.loss = {std::nan("")}; }, false},
      {"corrupt 1", [](SweepConfig& c) { c.corrupt = {0.0, 1.0}; }, false},
      {"negative corrupt", [](SweepConfig& c) { c.corrupt = {-1.0}; }, false},
      {"jitter INT64_MAX",
       [](SweepConfig& c) {
         c.jitter_ns = {static_cast<std::uint64_t>(
             std::numeric_limits<std::int64_t>::max())};
       },
       true},
      {"jitter above INT64_MAX",
       [](SweepConfig& c) {
         c.jitter_ns = {static_cast<std::uint64_t>(
                            std::numeric_limits<std::int64_t>::max()) +
                        1};
       },
       false},
      {"every fail-stop name",
       [](SweepConfig& c) { c.fail_stops = {"none", "link", "nic", "node"}; },
       true},
      {"unknown fail-stop",
       [](SweepConfig& c) { c.fail_stops = {"none", "bogus"}; }, false},
      {"one node", [](SweepConfig& c) { c.nodes = 1; }, false},
      {"no jobs", [](SweepConfig& c) { c.jobs = 0; }, false},
      {"no salts", [](SweepConfig& c) { c.salts.clear(); }, false},
      {"no loss rates", [](SweepConfig& c) { c.loss.clear(); }, false},
      {"no jitters", [](SweepConfig& c) { c.jitter_ns.clear(); }, false},
      {"no corrupt rates", [](SweepConfig& c) { c.corrupt.clear(); }, false},
      {"no fail-stops", [](SweepConfig& c) { c.fail_stops.clear(); }, false},
      {"no seeds", [](SweepConfig& c) { c.seeds.clear(); }, false},
  };
  for (const Case& tc : cases) {
    SweepConfig cfg;
    tc.edit(cfg);
    std::string why;
    const util::Status s = validate(cfg, &why);
    EXPECT_EQ(util::ok(s), tc.ok) << tc.name;
    EXPECT_EQ(why.empty(), tc.ok) << tc.name << ": " << why;
  }
}

}  // namespace
}  // namespace gangcomm::sweep
