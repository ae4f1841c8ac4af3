// End-to-end gctrace: a packet-traced cluster run produces a Chrome trace
// whose flow events pair up, whose per-packet stage sums equal the
// end-to-end latency exactly, and whose flight-recorder dump replays to the
// same attribution; packet tracing itself is behaviourally invisible, and a
// gcverify abort leaves a parseable post-mortem dump behind.
//
// The offline side goes through tools/gctrace's reader library — the same
// code path the CLI uses — so this doubles as the CLI's acceptance test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "app/workloads.hpp"
#include "core/cluster.hpp"
#include "obs/gctrace.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "verify/invariant_engine.hpp"

namespace gangcomm::core {
namespace {

using gctrace_tool::PacketRecord;
using gctrace_tool::TraceReport;

ClusterConfig tracedConfig(bool packet_trace) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.policy = glue::BufferPolicy::kSwitchedValidOnly;
  cfg.max_contexts = 2;
  cfg.quantum = 20 * sim::kMillisecond;
  cfg.trace = packet_trace;
  cfg.packet_trace = packet_trace;
  return cfg;
}

Cluster::ProcessFactory allToAll(std::uint64_t rounds) {
  return [rounds](app::Process::Env env) -> std::unique_ptr<app::Process> {
    return std::make_unique<app::AllToAllWorker>(std::move(env), 2048,
                                                 rounds);
  };
}

/// A finite two-job gang-scheduled run, drained to completion so every
/// traced packet reaches dispatch.
void runToCompletion(Cluster& cluster) {
  cluster.submit(4, allToAll(20));
  cluster.submit(4, allToAll(20));
  cluster.run();
  ASSERT_EQ(cluster.jobsDone(), 2);
}

TEST(GctraceIntegration, FlowEventsPairAndStagesSumToEndToEnd) {
  Cluster cluster(tracedConfig(true));
  runToCompletion(cluster);

  ASSERT_NE(cluster.packetTracer(), nullptr);
  const obs::LatencyAttribution& live = cluster.packetTracer()->attribution();
  ASSERT_GT(live.packets(), 0u);
  EXPECT_EQ(cluster.packetTracer()->openJourneys(), 0u);

  const TraceReport report =
      gctrace_tool::parseJson(cluster.trace().chromeTraceJson());
  EXPECT_FALSE(report.from_flight);

  // Every flow start has a matching finish with the same id, and vice
  // versa: the run drained, so no packet is left mid-flight.
  EXPECT_TRUE(report.unmatched_starts.empty());
  EXPECT_TRUE(report.unmatched_finishes.empty());
  ASSERT_EQ(report.packets.size(), live.packets());

  // The acceptance property: for every packet the seven stages partition
  // the end-to-end latency exactly — ns for ns, through the microsecond
  // formatting of the Chrome JSON and back.
  for (const PacketRecord& r : report.packets) {
    ASSERT_TRUE(r.has_stages) << "packet " << r.id;
    ASSERT_GE(r.start_ns, 0) << "packet " << r.id;
    ASSERT_GE(r.finish_ns, r.start_ns) << "packet " << r.id;
    EXPECT_EQ(r.stageSumNs(), r.finish_ns - r.start_ns)
        << "stage sums diverge from the flow span for packet " << r.id;
  }

  // The offline attribution rebuilt from the trace matches the live one
  // byte for byte.
  EXPECT_EQ(gctrace_tool::buildAttribution(report).table().render(),
            live.table().render());

  // The rendered report leads with the per-stage attribution table.
  const std::string text =
      gctrace_tool::renderReport(report, gctrace_tool::ReportOptions{});
  EXPECT_NE(text.find("Latency attribution"), std::string::npos);
  EXPECT_NE(text.find("credit_wait"), std::string::npos);
  EXPECT_NE(text.find("end_to_end"), std::string::npos);
  EXPECT_NE(text.find("Slowest"), std::string::npos);
}

TEST(GctraceIntegration, FlightDumpReplaysToTheSameAttribution) {
  ClusterConfig cfg = tracedConfig(true);
  // Deep enough that no dispatch event rolls off: the ring then contains
  // the complete stage record and must replay to the identical aggregate.
  cfg.flight_recorder_depth = 1 << 16;
  Cluster cluster(cfg);
  runToCompletion(cluster);

  ASSERT_NE(cluster.packetTracer()->flight(), nullptr);
  const TraceReport flight = gctrace_tool::parseJson(
      cluster.packetTracer()->flight()->jsonString());
  EXPECT_TRUE(flight.from_flight);
  EXPECT_EQ(flight.flight_depth, static_cast<std::uint64_t>(1 << 16));

  const TraceReport chrome =
      gctrace_tool::parseJson(cluster.trace().chromeTraceJson());
  ASSERT_EQ(flight.packets.size(), chrome.packets.size());
  EXPECT_EQ(gctrace_tool::buildAttribution(flight).table().render(),
            gctrace_tool::buildAttribution(chrome).table().render());
  EXPECT_EQ(gctrace_tool::buildAttribution(flight).table().render(),
            cluster.packetTracer()->attribution().table().render());

  // The census sees sends, dispatches, and the halt/release protocol pulse
  // of every gang switch.
  bool saw_dispatch = false;
  bool saw_halt = false;
  for (const auto& [kind, count] : flight.event_kinds) {
    saw_dispatch = saw_dispatch || (kind == "dispatch" && count > 0);
    saw_halt = saw_halt || (kind == "halt" && count > 0);
  }
  EXPECT_TRUE(saw_dispatch);
  EXPECT_TRUE(saw_halt);
}

TEST(GctraceIntegration, PacketTracingIsBehaviourallyInvisible) {
  struct RunDigest {
    sim::SimTime end = 0;
    std::uint64_t fired = 0;
    std::uint64_t data_bytes = 0;
    std::size_t switches = 0;
    bool operator==(const RunDigest&) const = default;
  };
  // Both delivery paths: the tracer never touches the batching decision.
  auto digest = [](bool packet_trace, bool batch) {
    ClusterConfig cfg = tracedConfig(packet_trace);
    cfg.fabric.batch_delivery = batch;
    Cluster cluster(std::move(cfg));
    cluster.submit(4, allToAll(20));
    cluster.submit(4, allToAll(20));
    cluster.run();
    return RunDigest{cluster.sim().now(), cluster.sim().firedEvents(),
                     cluster.fabric().stats().data_bytes,
                     cluster.switchRecords().size()};
  };
  for (const bool batch : {true, false}) {
    SCOPED_TRACE(batch ? "batched delivery" : "exact delivery");
    const RunDigest off = digest(false, batch);
    const RunDigest on = digest(true, batch);
    EXPECT_EQ(off, on);
    EXPECT_GT(on.switches, 0u);
  }
}

TEST(GctraceIntegration, MetricsCarryTheAttribution) {
  Cluster cluster(tracedConfig(true));
  runToCompletion(cluster);

  obs::MetricsRegistry reg;
  cluster.collectMetrics(reg);
  EXPECT_EQ(reg.counter("gctrace.packets"),
            cluster.packetTracer()->attribution().packets());
  EXPECT_TRUE(reg.has("gctrace.stage.credit_wait_ns"));
  EXPECT_TRUE(reg.has("gctrace.stage.switch_stall.share_pct"));
  EXPECT_TRUE(reg.has("gctrace.end_to_end.p99_us"));
  EXPECT_EQ(reg.gauge("gctrace.open_journeys"), 0.0);
}

TEST(GctraceIntegrationDeath, VerifierAbortWritesAParseableFlightDump) {
  const std::string dump = ::testing::TempDir() + "gctrace_abort_flight.json";
  std::remove(dump.c_str());

  // The violation is injected in the death-test child; the dump file it
  // writes on the way down survives for the parent to inspect.
  EXPECT_DEATH(
      {
        ClusterConfig cfg = tracedConfig(true);
        cfg.verify = true;
        cfg.flight_recorder_depth = 4096;
        cfg.flight_dump_path = dump;
        Cluster cluster(cfg);
        cluster.submit(4, allToAll(20));
        cluster.run();
        // A release by a non-owner is a buffer-ownership violation; the
        // kAbort engine dumps the flight ring, then aborts.
        cluster.verifier()->onBufferRelease(0,
                                            verify::BufferOwner::kSwitcher);
      },
      "gcverify");

  const TraceReport report = gctrace_tool::loadFile(dump);
  EXPECT_TRUE(report.from_flight);
  EXPECT_GT(report.flight_recorded, 0u);
  EXPECT_FALSE(report.event_kinds.empty());
  EXPECT_GT(report.packets.size(), 0u);  // dispatches with stage vectors
  std::remove(dump.c_str());
}

}  // namespace
}  // namespace gangcomm::core
