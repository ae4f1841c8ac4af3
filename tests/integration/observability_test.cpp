// End-to-end observability: a traced cluster run yields gang-stage spans and
// packet events from several subsystems, the metrics registry sees every
// layer, and every observer stays behaviourally invisible — the identical
// run with it off produces bit-identical simulation state, event count
// included, with delivery batching on or off.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "app/workloads.hpp"
#include "bench/common.hpp"
#include "core/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gangcomm::core {
namespace {

ClusterConfig switchedConfig(bool trace) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.policy = glue::BufferPolicy::kSwitchedValidOnly;
  cfg.max_contexts = 2;
  cfg.quantum = 20 * sim::kMillisecond;
  cfg.trace = trace;
  return cfg;
}

Cluster::ProcessFactory allToAll() {
  return [](app::Process::Env env) -> std::unique_ptr<app::Process> {
    return std::make_unique<app::AllToAllWorker>(
        std::move(env), 2048, std::numeric_limits<std::uint64_t>::max());
  };
}

struct RunDigest {
  sim::SimTime end = 0;
  std::uint64_t fired = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t control_bytes = 0;
  std::size_t switches = 0;

  bool operator==(const RunDigest&) const = default;
};

RunDigest runSwitched(bool trace, bool batch) {
  ClusterConfig cfg = switchedConfig(trace);
  cfg.fabric.batch_delivery = batch;
  Cluster cluster(std::move(cfg));
  cluster.submit(4, allToAll());
  cluster.submit(4, allToAll());
  cluster.runUntil(sim::msToNs(100.0));
  return {cluster.sim().now(), cluster.sim().firedEvents(),
          cluster.fabric().stats().data_bytes,
          cluster.fabric().stats().control_bytes,
          cluster.switchRecords().size()};
}

TEST(Observability, TracedRunEmitsGangStagesAndPacketEvents) {
  Cluster cluster(switchedConfig(/*trace=*/true));
  cluster.submit(4, allToAll());
  cluster.submit(4, allToAll());
  cluster.runUntil(sim::msToNs(100.0));

  const obs::TraceRecorder& tr = cluster.trace();
  ASSERT_GT(tr.size(), 0u);

  // All three switch stages plus the enclosing span, one set per reported
  // switch per node.
  const std::size_t switches = cluster.switchRecords().size();
  ASSERT_GT(switches, 0u);
  EXPECT_GE(tr.count("gang", "halt"), switches);
  EXPECT_GE(tr.count("gang", "buffer_switch"), switches);
  EXPECT_GE(tr.count("gang", "release"), switches);
  EXPECT_GE(tr.count("gang", "switch"), switches);

  // Stage spans nest inside the enclosing switch span.
  const auto outer = tr.select("gang", "switch");
  const auto halts = tr.select("gang", "halt");
  ASSERT_EQ(outer.size(), halts.size());
  for (std::size_t i = 0; i < outer.size(); ++i) {
    EXPECT_EQ(outer[i]->ts, halts[i]->ts);
    EXPECT_LE(halts[i]->dur, outer[i]->dur);
  }

  // Packet-level events from at least three distinct subsystems.
  std::set<std::string> tracks;
  for (const obs::TraceEvent& ev : tr.events()) tracks.insert(ev.track);
  EXPECT_TRUE(tracks.contains("fabric"));
  EXPECT_TRUE(tracks.contains("nic"));
  EXPECT_TRUE(tracks.contains("gang"));
  EXPECT_GE(tracks.size(), 3u);
  EXPECT_GT(tr.count("fabric", "DATA"), 0u);     // wire spans
  EXPECT_GT(tr.count("nic", "dma"), 0u);         // DMA delivery spans
  EXPECT_GT(tr.count("glue", "copy_out"), 0u);   // buffer-switch host copies

  // The export is non-trivial and structurally a Chrome trace.
  const std::string json = tr.chromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// Covers both delivery paths: observers never touch the batching decision.
TEST(Observability, TracingIsBehaviourallyInvisible) {
  for (const bool batch : {true, false}) {
    SCOPED_TRACE(batch ? "batched delivery" : "exact delivery");
    const RunDigest off = runSwitched(false, batch);
    const RunDigest on = runSwitched(true, batch);
    EXPECT_EQ(off, on);
    EXPECT_GT(off.switches, 0u);  // the comparison exercised real switching
  }
}

// Batched wire delivery coalesces per-packet delivery events, so the raw
// event count legitimately drops.  In this 4-node cell nothing
// simulation-visible (clock, wire bytes, switch count) moves; that is not
// true of every cell, since fewer events can reorder same-instant ties
// (see EveryObserverLeavesTheScheduleUnchanged).
TEST(Observability, BatchedDeliveryIsBehaviourallyInvisible) {
  auto digest = [](bool batch) {
    ClusterConfig cfg = switchedConfig(/*trace=*/false);
    cfg.fabric.batch_delivery = batch;
    Cluster cluster(std::move(cfg));
    cluster.submit(4, allToAll());
    cluster.submit(4, allToAll());
    cluster.runUntil(sim::msToNs(100.0));
    return RunDigest{cluster.sim().now(), cluster.sim().firedEvents(),
                     cluster.fabric().stats().data_bytes,
                     cluster.fabric().stats().control_bytes,
                     cluster.switchRecords().size()};
  };
  RunDigest batched = digest(true);
  const RunDigest exact = digest(false);
  EXPECT_GT(batched.switches, 0u);
  EXPECT_LT(batched.fired, exact.fired);  // the batching actually engaged
  batched.fired = exact.fired;
  EXPECT_EQ(batched, exact);  // ...and changed nothing else
}

/// What an observer must not move: the clock, the event count, wire traffic,
/// and every node's switch measurements.
struct ScheduleDigest {
  sim::SimTime end = 0;
  std::uint64_t fired = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t control_packets = 0;
  // node, halt_ns, switch_ns, release_ns, valid send pkts, valid recv pkts
  std::vector<std::array<std::uint64_t, 6>> switches;

  bool operator==(const ScheduleDigest&) const = default;
};

// perfbench's gang_alltoall point n14_valid at seed 5, run as perfbench
// runs it: eighth-quantum steps until every node reported four switches.
// At t = 91,685,421 ns nodes 5 and 6 inject toward node 7 in the same
// nanosecond, so the run depends on the order of same-instant events; an
// observer that changed the delivery path (say, by turning batching off)
// would shift every later send.
ScheduleDigest runN14Valid(const std::function<void(ClusterConfig&)>& observe) {
  ClusterConfig cfg;
  cfg.nodes = 14;
  cfg.policy = glue::BufferPolicy::kSwitchedValidOnly;
  cfg.max_contexts = 2;
  cfg.quantum = 40 * sim::kMillisecond;
  cfg.seed = 5;
  cfg.verify = false;
  observe(cfg);
  const sim::Duration quantum = cfg.quantum;
  Cluster cluster(std::move(cfg));
  for (int j = 0; j < 2; ++j) cluster.submit(14, bench::allToAllFactory(4096));
  const std::size_t want = 4 * 14;
  while (cluster.switchRecords().size() < want &&
         cluster.sim().now() < sim::secToNs(2.0)) {
    const sim::SimTime start = cluster.sim().now();
    for (int k = 1; k <= 8; ++k) cluster.runUntil(start + quantum * k / 8);
  }
  ScheduleDigest d{cluster.sim().now(), cluster.sim().firedEvents(),
                   cluster.fabric().stats().data_packets,
                   cluster.fabric().stats().control_packets,
                   {}};
  for (const SwitchRecord& r : cluster.switchRecords())
    d.switches.push_back({static_cast<std::uint64_t>(r.node),
                          r.report.halt_ns, r.report.switch_ns,
                          r.report.release_ns, r.report.valid_send_pkts,
                          r.report.valid_recv_pkts});
  return d;
}

TEST(Observability, EveryObserverLeavesTheScheduleUnchanged) {
  const ScheduleDigest bare = runN14Valid([](ClusterConfig&) {});
  ASSERT_GE(bare.switches.size(), 4u * 14u);
  const std::vector<std::pair<const char*,
                              std::function<void(ClusterConfig&)>>>
      observers = {
          {"trace", [](ClusterConfig& c) { c.trace = true; }},
          {"packet_trace", [](ClusterConfig& c) { c.packet_trace = true; }},
          {"verify", [](ClusterConfig& c) { c.verify = true; }},
          {"causality_trace",
           [](ClusterConfig& c) {
             c.causality_trace = true;
             c.causality_dump_path.clear();  // keep the records in memory
           }},
          {"flight_recorder",
           [](ClusterConfig& c) { c.flight_recorder_depth = 1024; }},
      };
  for (const auto& [name, observe] : observers) {
    SCOPED_TRACE(name);
    EXPECT_EQ(runN14Valid(observe), bare);
  }
}

TEST(Observability, CollectMetricsCoversEveryLayer) {
  Cluster cluster(switchedConfig(/*trace=*/true));
  cluster.submit(4, allToAll());
  cluster.submit(4, allToAll());
  cluster.runUntil(sim::msToNs(100.0));

  obs::MetricsRegistry reg;
  cluster.collectMetrics(reg);

  EXPECT_EQ(reg.counter("sim.events_fired"), cluster.sim().firedEvents());
  EXPECT_EQ(reg.counter("cluster.switch_records"),
            cluster.switchRecords().size());
  EXPECT_EQ(reg.counter("obs.trace_events"), cluster.trace().size());
  EXPECT_EQ(reg.counter("fabric.data_bytes"),
            cluster.fabric().stats().data_bytes);
  EXPECT_GT(reg.counter("fabric.control_packets"), 0u);
  for (int n = 0; n < 4; ++n) {
    const std::string nic = "nic." + std::to_string(n) + ".";
    const std::string glue = "glue." + std::to_string(n) + ".";
    const std::string noded = "noded." + std::to_string(n) + ".";
    EXPECT_TRUE(reg.has(nic + "data_sent")) << nic;
    EXPECT_GT(reg.counter(glue + "context_switches"), 0u) << glue;
    EXPECT_GT(reg.counter(noded + "switches_done"), 0u) << noded;
  }
  // Both jobs' FM endpoints published under their job/rank prefix.
  EXPECT_TRUE(reg.has("fm.j1.r0.messages_sent"));
  EXPECT_TRUE(reg.has("fm.j2.r0.messages_sent"));

  // A second collection into a fresh registry is idempotent.
  obs::MetricsRegistry reg2;
  cluster.collectMetrics(reg2);
  EXPECT_EQ(reg2.size(), reg.size());
  EXPECT_EQ(reg2.counter("fabric.packets"), reg.counter("fabric.packets"));
}

}  // namespace
}  // namespace gangcomm::core
