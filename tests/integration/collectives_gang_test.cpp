// Collectives across gang switches: MPI-layer allreduce/barrier iterations
// keep exact arithmetic while two jobs time-share the cluster with buffer
// switching — the end-to-end statement of the paper's correctness claim.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "app/collective_worker.hpp"
#include "core/cluster.hpp"

namespace gangcomm::core {
namespace {

using app::CollectiveWorker;
using app::Process;

Cluster::ProcessFactory collectiveFactory(std::uint64_t iters) {
  return [iters](Process::Env env) -> std::unique_ptr<Process> {
    return std::make_unique<CollectiveWorker>(std::move(env), iters);
  };
}

TEST(CollectivesGang, SingleJobVerifiesEverySum) {
  ClusterConfig cfg;
  cfg.nodes = 8;
  Cluster cluster(cfg);
  const net::JobId job = cluster.submit(8, collectiveFactory(50));
  cluster.run();
  EXPECT_EQ(cluster.jobsDone(), 1);
  for (auto* p : cluster.processes(job)) {
    auto* w = dynamic_cast<CollectiveWorker*>(p);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->iterationsDone(), 50u);
    EXPECT_EQ(w->verifiedSums(), 50u);
    EXPECT_FALSE(w->sawMismatch());
  }
}

TEST(CollectivesGang, TwoJobsSwitchingStayExact) {
  ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.policy = glue::BufferPolicy::kSwitchedValidOnly;
  cfg.max_contexts = 2;
  cfg.quantum = 10 * sim::kMillisecond;  // force many switches mid-collective
  Cluster cluster(cfg);
  const net::JobId j1 = cluster.submit(8, collectiveFactory(400));
  const net::JobId j2 = cluster.submit(8, collectiveFactory(400));
  cluster.run();

  EXPECT_EQ(cluster.jobsDone(), 2);
  EXPECT_GT(cluster.master().switchesInitiated(), 2u);
  for (net::JobId j : {j1, j2}) {
    for (auto* p : cluster.processes(j)) {
      auto* w = dynamic_cast<CollectiveWorker*>(p);
      EXPECT_EQ(w->verifiedSums(), 400u);
      EXPECT_FALSE(w->sawMismatch());
    }
  }
  for (int n = 0; n < cfg.nodes; ++n)
    EXPECT_EQ(cluster.nic(n).stats().drops_no_context, 0u);
}

TEST(CollectivesGang, FullCopyPolicyAlsoExact) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.policy = glue::BufferPolicy::kSwitchedFull;
  cfg.max_contexts = 2;
  cfg.quantum = 150 * sim::kMillisecond;
  Cluster cluster(cfg);
  const net::JobId j1 = cluster.submit(4, collectiveFactory(80));
  const net::JobId j2 = cluster.submit(4, collectiveFactory(80));
  cluster.run();
  EXPECT_EQ(cluster.jobsDone(), 2);
  for (net::JobId j : {j1, j2})
    for (auto* p : cluster.processes(j))
      EXPECT_FALSE(dynamic_cast<CollectiveWorker*>(p)->sawMismatch());
}

TEST(CollectivesGang, ShareModeWithRetransmitStaysExact) {
  // Even the lossy SHARE ablation preserves collective semantics — the
  // retransmission layer repairs what the id-check discards.
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.max_contexts = 2;
  cfg.quantum = 20 * sim::kMillisecond;
  cfg.flush_protocol = glue::FlushProtocol::kLocalOnly;
  cfg.fm.enable_retransmit = true;
  Cluster cluster(cfg);
  const net::JobId j1 = cluster.submit(4, collectiveFactory(60));
  const net::JobId j2 = cluster.submit(4, collectiveFactory(60));
  cluster.run();
  EXPECT_EQ(cluster.jobsDone(), 2);
  for (net::JobId j : {j1, j2})
    for (auto* p : cluster.processes(j)) {
      auto* w = dynamic_cast<CollectiveWorker*>(p);
      EXPECT_EQ(w->verifiedSums(), 60u);
    }
}

}  // namespace
}  // namespace gangcomm::core
