// Shared sweep for the context-switch overhead figures (7, 8, 9).
//
// Paper setup (§4.2): an all-to-all benchmark stresses the buffers while the
// gang scheduler alternates two applications; every noded reports the time
// spent in each of the three switch stages and the queue occupancy it found.
// The sweep runs that experiment for every cluster size 2..16 and averages
// across nodes and switches.
//
// Measurement source: the masterd's SwitchRecords.  Each carries the
// reporting node's SwitchReport — the three stage durations and the queue
// occupancy the buffer switch found — so the sample set (and therefore
// every reported number) is exactly the set of reported switches.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bench/common.hpp"
#include "util/stats.hpp"

namespace gangcomm::bench {

struct SweepPoint {
  int nodes = 0;
  util::Stats halt_cycles;
  util::Stats switch_cycles;
  util::Stats release_cycles;
  util::Stats valid_send_pkts;
  util::Stats valid_recv_pkts;
};

inline SweepPoint runSwitchSweep(int nodes, glue::BufferPolicy policy,
                                 int switches_wanted,
                                 std::uint32_t msg_bytes = 4096) {
  core::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.policy = policy;
  cfg.max_contexts = 2;
  // Quantum just long enough to reach traffic steady state between
  // switches; stage costs do not depend on it.
  cfg.quantum = fullScale() ? sim::kSecond : 40 * sim::kMillisecond;
  core::Cluster cluster(cfg);
  for (int j = 0; j < 2; ++j) cluster.submit(nodes, allToAllFactory(msg_bytes));

  // Run until enough switches were reported by every node.
  const std::size_t want =
      static_cast<std::size_t>(switches_wanted) *
      static_cast<std::size_t>(nodes);
  sim::SimTime horizon = cfg.quantum * static_cast<sim::Duration>(
                                           switches_wanted + 2) +
                         sim::secToNs(0.2);
  while (cluster.switchRecords().size() < want) {
    cluster.runUntil(cluster.sim().now() + cfg.quantum);
    if (cluster.sim().now() > horizon * 4) break;  // safety valve
  }

  perf().addEvents(cluster.sim().firedEvents());

  SweepPoint pt;
  pt.nodes = nodes;
  for (const auto& rec : cluster.switchRecords()) {
    const parpar::SwitchReport& r = rec.report;
    pt.halt_cycles.add(static_cast<double>(sim::nsToCycles(r.halt_ns)));
    pt.switch_cycles.add(static_cast<double>(sim::nsToCycles(r.switch_ns)));
    pt.release_cycles.add(static_cast<double>(sim::nsToCycles(r.release_ns)));
    pt.valid_send_pkts.add(static_cast<double>(r.valid_send_pkts));
    pt.valid_recv_pkts.add(static_cast<double>(r.valid_recv_pkts));
  }
  return pt;
}

}  // namespace gangcomm::bench
