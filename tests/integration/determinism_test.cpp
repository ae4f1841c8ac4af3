// Whole-stack determinism: identical configurations — including gang
// switching, retransmission, and the no-flush protocols — must reproduce
// bit-identical results.  The figure benches depend on this.
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
using app::Process;

struct Fingerprint {
  sim::SimTime end_time = 0;
  std::uint64_t events = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t control_packets = 0;
  std::size_t switch_records = 0;
  sim::Duration switch_ns_sum = 0;
  double bw = 0;
  std::uint64_t past_schedule_clamps = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint runOnce(glue::FlushProtocol flush, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.nodes = 6;
  cfg.policy = glue::BufferPolicy::kSwitchedValidOnly;
  cfg.max_contexts = 2;
  cfg.quantum = 30 * sim::kMillisecond;
  cfg.seed = seed;
  cfg.flush_protocol = flush;
  cfg.fm.enable_retransmit =
      flush != glue::FlushProtocol::kBroadcast;  // required by no-flush modes
  Cluster cluster(cfg);

  auto factory = [](Process::Env env) -> std::unique_ptr<Process> {
    if (env.rank == 0)
      return std::make_unique<BandwidthSender>(std::move(env), 1, 8192, 800);
    return std::make_unique<BandwidthReceiver>(std::move(env), 0, 800);
  };
  const net::JobId j1 = cluster.submit(2, factory, {0, 1});
  cluster.submit(2, factory, {0, 1});
  cluster.run();

  Fingerprint fp;
  fp.end_time = cluster.sim().now();
  fp.events = cluster.sim().firedEvents();
  fp.data_packets = cluster.fabric().stats().data_packets;
  fp.control_packets = cluster.fabric().stats().control_packets;
  fp.switch_records = cluster.switchRecords().size();
  for (const auto& rec : cluster.switchRecords())
    fp.switch_ns_sum += rec.report.halt_ns + rec.report.switch_ns +
                        rec.report.release_ns;
  fp.bw = dynamic_cast<BandwidthSender*>(cluster.processes(j1)[0])
              ->bandwidthMBps();
  fp.past_schedule_clamps = cluster.sim().pastScheduleClamps();
  return fp;
}

class DeterminismSweep
    : public testing::TestWithParam<glue::FlushProtocol> {};

TEST_P(DeterminismSweep, IdenticalConfigsReproduceBitIdentically) {
  const Fingerprint a = runOnce(GetParam(), 11);
  const Fingerprint b = runOnce(GetParam(), 11);
  EXPECT_EQ(a, b);
  // No event is ever scheduled into the past, under every flush protocol.
  EXPECT_EQ(a.past_schedule_clamps, 0u);
}

TEST_P(DeterminismSweep, SeedsActuallyMatter) {
  const Fingerprint a = runOnce(GetParam(), 11);
  const Fingerprint b = runOnce(GetParam(), 12);
  EXPECT_NE(a.end_time, b.end_time);
}

INSTANTIATE_TEST_SUITE_P(Protocols, DeterminismSweep,
                         testing::Values(glue::FlushProtocol::kBroadcast,
                                         glue::FlushProtocol::kAckQuiesce,
                                         glue::FlushProtocol::kLocalOnly));

TEST(Determinism, NoEventEverScheduledIntoThePast) {
  ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.max_contexts = 2;
  cfg.quantum = 25 * sim::kMillisecond;
  Cluster cluster(cfg);
  auto factory = [](Process::Env env) -> std::unique_ptr<Process> {
    if (env.rank == 0)
      return std::make_unique<BandwidthSender>(std::move(env), 1, 8192, 500);
    return std::make_unique<BandwidthReceiver>(std::move(env), 0, 500);
  };
  cluster.submit(2, factory, {0, 1});
  cluster.submit(2, factory, {0, 1});
  cluster.run();
  EXPECT_EQ(cluster.sim().pastScheduleClamps(), 0u);
}

}  // namespace
}  // namespace gangcomm::core
