// Interleaving tests through the gcsweep library: permuting same-timestamp
// order must not change any application-visible outcome, and the oracle
// itself must notice when outcomes do differ.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sweep.hpp"

namespace gangcomm::sweep {
namespace {

SweepConfig smallConfig() {
  SweepConfig cfg;
  cfg.nodes = 2;
  cfg.jobs = 2;
  cfg.rounds = 10;
  cfg.msg_bytes = 4096;
  cfg.salts = {0, 1, 2, 3};
  return cfg;
}

std::string firstOf(const std::vector<std::string>& v) {
  return v.empty() ? std::string() : v.front();
}

TEST(Explore, TwoJobsTwoNodesAgreeAcrossInterleavings) {
  const std::vector<CellResult> res = runSweep(smallConfig());
  ASSERT_EQ(res.size(), 4u);
  const std::vector<std::string> divergences = checkOracle(res);
  EXPECT_TRUE(divergences.empty()) << firstOf(divergences);
  for (const CellResult& run : res) {
    EXPECT_FALSE(run.cell.retransmit);  // no fault armed anywhere
    EXPECT_EQ(run.jobs_done, 2);
    // 2 ranks x 1 peer x 10 rounds sent and received per process.
    for (const ProcessOutcome& p : run.processes) {
      EXPECT_EQ(p.messages_sent, 10u);
      EXPECT_EQ(p.messages_received, 10u);
      EXPECT_EQ(p.payload_bytes_sent, 10u * 4096u);
      EXPECT_EQ(p.payload_bytes_received, 10u * 4096u);
    }
  }
}

TEST(Explore, PermutedOrderIsItselfDeterministic) {
  // Re-running one salt must reproduce the run bit-for-bit: every salted
  // order is still a total order, so the oracle compares apples to apples.
  Cell cell = expand(smallConfig()).front();
  cell.salt = 1;
  const CellResult a = runCell(cell);
  const CellResult b = runCell(cell);
  EXPECT_TRUE(checkOracle({a, b}).empty());
  EXPECT_EQ(renderCsv({a}), renderCsv({b}));
}

TEST(Explore, LossyCellsAgreeOnAppOutcomes) {
  // Under per-link loss the wire totals differ cell to cell (each seed draws
  // a different drop pattern, each salt consumes a link's stream in a
  // different order), but the retransmission layer must hand every
  // application the same completed result in every cell.
  SweepConfig cfg = smallConfig();
  cfg.rounds = 6;
  cfg.salts = {0, 1, 2};
  cfg.loss = {0.1};
  cfg.seeds = {1, 2};
  const std::vector<CellResult> res = runSweep(cfg);
  ASSERT_EQ(res.size(), 6u);  // seeds x salts
  const std::vector<std::string> divergences = checkOracle(res);
  EXPECT_TRUE(divergences.empty()) << firstOf(divergences);
  for (const CellResult& run : res) {
    EXPECT_TRUE(run.cell.retransmit);
    EXPECT_EQ(run.jobs_done, 2);
    for (const ProcessOutcome& p : run.processes) {
      EXPECT_EQ(p.messages_received, 6u);
      EXPECT_EQ(p.payload_bytes_received, 6u * 4096u);
    }
  }
}

TEST(Explore, ComparatorFlagsDivergentOutcomes) {
  CellResult a;
  a.jobs_done = 2;
  a.data_packets = 100;
  a.processes.push_back({0, 0, 10, 10, 40960, 40960});
  CellResult b = a;
  b.cell.salt = 1;
  EXPECT_TRUE(checkOracle({a, b}).empty());

  // Fault-free cells must agree on wire totals ...
  b.data_packets = 99;
  EXPECT_EQ(checkOracle({a, b}).size(), 1u);
  // ... but not across seeds, nor under a fault, nor after a fail-stop.
  CellResult other_seed = b;
  other_seed.cell.seed = 2;
  EXPECT_TRUE(checkOracle({a, other_seed}).empty());
  CellResult lossy_a = a;
  lossy_a.cell.loss = 0.1;
  CellResult lossy_b = b;
  lossy_b.cell.loss = 0.1;
  EXPECT_TRUE(checkOracle({lossy_a, lossy_b}).empty());
  CellResult stopped_a = a;
  stopped_a.cell.fail_stop = "nic";
  CellResult stopped_b = b;
  stopped_b.cell.fail_stop = "nic";
  stopped_b.jobs_done = 1;
  EXPECT_TRUE(checkOracle({stopped_a, stopped_b}).empty());

  // App outcomes must agree across salt and seed, lossy or not.
  lossy_b.processes.push_back({});
  EXPECT_EQ(checkOracle({lossy_a, lossy_b}).size(), 1u);
  other_seed.jobs_done = 1;
  EXPECT_EQ(checkOracle({a, other_seed}).size(), 1u);
  b = a;
  b.processes[0].messages_received = 9;
  EXPECT_EQ(checkOracle({a, b}).size(), 1u);
  // Cells with different fault settings are never compared.
  lossy_a.jobs_done = 0;
  EXPECT_TRUE(checkOracle({a, lossy_a}).empty());
}

}  // namespace
}  // namespace gangcomm::sweep
