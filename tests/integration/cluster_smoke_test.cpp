// End-to-end: full ParPar cluster, single job, no context switches — the
// configuration of the paper's Figure 5 measurements.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "app/workloads.hpp"
#include "core/cluster.hpp"

namespace gangcomm::core {
namespace {

using app::BandwidthReceiver;
using app::BandwidthSender;
using app::PingPongWorker;
using app::Process;

Cluster::ProcessFactory bandwidthFactory(std::uint32_t msg_bytes,
                                         std::uint64_t count) {
  return [msg_bytes, count](Process::Env env) -> std::unique_ptr<Process> {
    if (env.rank == 0)
      return std::make_unique<BandwidthSender>(std::move(env), 1, msg_bytes,
                                               count);
    return std::make_unique<BandwidthReceiver>(std::move(env), 0, count);
  };
}

TEST(ClusterSmoke, SingleBandwidthJobCompletes) {
  ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.policy = glue::BufferPolicy::kSwitchedValidOnly;
  Cluster cluster(cfg);

  const net::JobId job = cluster.submit(2, bandwidthFactory(16384, 500));
  ASSERT_NE(job, net::kNoJob);
  cluster.run();

  EXPECT_EQ(cluster.jobsDone(), 1);
  auto procs = cluster.processes(job);
  ASSERT_EQ(procs.size(), 2u);
  auto* sender = dynamic_cast<BandwidthSender*>(procs[0]);
  auto* receiver = dynamic_cast<BandwidthReceiver*>(procs[1]);
  ASSERT_NE(sender, nullptr);
  ASSERT_NE(receiver, nullptr);
  EXPECT_EQ(sender->messagesSent(), 500u);
  EXPECT_EQ(receiver->messagesReceived(), 500u);
  EXPECT_FALSE(sender->sawDeadlock());

  // Peak FM bandwidth on the modeled hardware is ~75 MB/s (host PIO bound).
  EXPECT_GT(sender->bandwidthMBps(), 50.0);
  EXPECT_LT(sender->bandwidthMBps(), 85.0);

  // Protocol hygiene: nothing dropped anywhere.
  for (int n = 0; n < cfg.nodes; ++n) {
    EXPECT_EQ(cluster.nic(n).stats().drops_no_context, 0u);
    EXPECT_EQ(cluster.nic(n).stats().drops_wrong_job, 0u);
  }
}

TEST(ClusterSmoke, SmallMessagesDeliverLowerBandwidth) {
  ClusterConfig cfg;
  cfg.nodes = 16;
  Cluster cluster(cfg);
  const net::JobId job = cluster.submit(2, bandwidthFactory(64, 2000));
  cluster.run();
  auto* sender =
      dynamic_cast<BandwidthSender*>(cluster.processes(job)[0]);
  ASSERT_NE(sender, nullptr);
  // Per-message overhead dominates 64 B messages.
  EXPECT_LT(sender->bandwidthMBps(), 20.0);
  EXPECT_GT(sender->bandwidthMBps(), 1.0);
}

TEST(ClusterSmoke, PingPongLatencyIsMicroseconds) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  Cluster cluster(cfg);
  const net::JobId job = cluster.submit(
      2, [](Process::Env env) -> std::unique_ptr<Process> {
        return std::make_unique<PingPongWorker>(std::move(env), 16, 200);
      });
  cluster.run();
  EXPECT_EQ(cluster.jobsDone(), 1);
  auto* p0 = dynamic_cast<PingPongWorker*>(cluster.processes(job)[0]);
  ASSERT_NE(p0, nullptr);
  EXPECT_EQ(p0->rttStats().count(), 200u);
  // FM-era short-message round trips: tens of microseconds.
  EXPECT_GT(p0->rttStats().mean(), 10.0);
  EXPECT_LT(p0->rttStats().mean(), 200.0);
}

TEST(ClusterSmoke, DeterministicAcrossRuns) {
  auto run = [] {
    ClusterConfig cfg;
    cfg.nodes = 8;
    cfg.seed = 7;
    Cluster cluster(cfg);
    const net::JobId job = cluster.submit(2, bandwidthFactory(4096, 300));
    cluster.run();
    auto* sender =
        dynamic_cast<app::BandwidthSender*>(cluster.processes(job)[0]);
    return std::pair(cluster.sim().now(), sender->bandwidthMBps());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(ClusterSmoke, SeedChangesControlPlaneTiming) {
  auto run = [](std::uint64_t seed) {
    ClusterConfig cfg;
    cfg.nodes = 8;
    cfg.seed = seed;
    Cluster cluster(cfg);
    cluster.submit(2, bandwidthFactory(4096, 100));
    cluster.run();
    return cluster.sim().now();
  };
  EXPECT_NE(run(1), run(2));
}

TEST(ClusterSmoke, TwoConcurrentJobsInOneSlot) {
  // Four-node cluster, two disjoint 2-process jobs share gang slot 0 and
  // run truly concurrently.
  ClusterConfig cfg;
  cfg.nodes = 4;
  Cluster cluster(cfg);
  const net::JobId j1 = cluster.submit(2, bandwidthFactory(8192, 300));
  const net::JobId j2 = cluster.submit(2, bandwidthFactory(8192, 300));
  ASSERT_NE(j1, net::kNoJob);
  ASSERT_NE(j2, net::kNoJob);
  cluster.run();
  EXPECT_EQ(cluster.jobsDone(), 2);
  EXPECT_EQ(cluster.master().switchesInitiated(), 0u);  // same slot
}

TEST(ClusterSmoke, NoPacketEverCorrupted) {
  // The FmLib extract path GC_CHECKs every tag; surviving the run with a
  // non-trivial packet count is the assertion.
  ClusterConfig cfg;
  cfg.nodes = 16;
  Cluster cluster(cfg);
  cluster.submit(2, bandwidthFactory(65536, 200));
  cluster.run();
  EXPECT_GT(cluster.fabric().stats().data_packets, 8000u);
}

TEST(ClusterSmoke, SubmitRejectsOversizedJob) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.submit(5, bandwidthFactory(64, 1)), net::kNoJob);
}

// Spawn order is whatever the control network's jitter makes it: at seed 22
// rank 1 of this job spawns first.  processes() still lists ranks in order,
// so callers may take processes(job)[0] as rank 0 (the sender).
TEST(ClusterSmoke, ProcessesAreListedInRankOrder) {
  ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.policy = glue::BufferPolicy::kPartitioned;
  cfg.seed = 22;
  Cluster cluster(cfg);
  const net::JobId job = cluster.submit(2, bandwidthFactory(4096, 100));
  cluster.run();
  const auto procs = cluster.processes(job);
  ASSERT_EQ(procs.size(), 2u);
  for (int r = 0; r < 2; ++r)
    EXPECT_EQ(procs[static_cast<std::size_t>(r)]->rank(), r);
  EXPECT_NE(dynamic_cast<BandwidthSender*>(procs[0]), nullptr);
}

}  // namespace
}  // namespace gangcomm::core
