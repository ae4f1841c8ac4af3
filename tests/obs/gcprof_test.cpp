// CausalityRecorder tests: in-memory recording, cancelled-event dropping,
// the gcprof-v1 dump format (spill + trailer, round-tripped through the
// tools/gcprof reader), LP naming, the Cluster metrics surface (gcprof.* +
// the sim.* engine counters), and the determinism contract: a sim-mode dump
// and its analysis are pure functions of the simulated run.
#include "obs/gcprof.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analyze.hpp"
#include "app/workloads.hpp"
#include "bench/sweep_runner.hpp"
#include "core/cluster.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace gangcomm::obs {
namespace {

TEST(CausalityRecorder, RecordsFiredEventsInOrderWithParents) {
  sim::Simulator s;
  CausalityConfig cfg;
  cfg.dump_path = "";  // in-memory only
  CausalityRecorder rec(std::move(cfg));
  s.setCausalitySink(&rec);

  {
    sim::LpScope lp(s, sim::lpTag(sim::LpDomain::kNode, 2));
    s.schedule(10, [&s] {
      sim::LpScope inner(s, sim::lpTag(sim::LpDomain::kNic, 2));
      s.schedule(5, [] {});
    });
  }
  s.run();
  rec.finish();

  ASSERT_EQ(rec.records().size(), 2u);
  EXPECT_EQ(rec.recorded(), 2u);
  const CausalityRecord& root = rec.records()[0];
  const CausalityRecord& child = rec.records()[1];
  EXPECT_EQ(root.parent, 0u);
  EXPECT_EQ(root.lp, sim::lpTag(sim::LpDomain::kNode, 2));
  EXPECT_EQ(root.fire, 10);
  EXPECT_EQ(child.parent, root.id);
  EXPECT_EQ(child.lp, sim::lpTag(sim::LpDomain::kNic, 2));
  EXPECT_EQ(child.sched, 10);
  EXPECT_EQ(child.fire, 15);
}

TEST(CausalityRecorder, CancelledEventsAreDroppedNotEmitted) {
  sim::Simulator s;
  CausalityConfig cfg;
  cfg.dump_path = "";
  CausalityRecorder rec(std::move(cfg));
  s.setCausalitySink(&rec);

  const sim::EventHandle doomed = s.schedule(10, [] {});
  s.schedule(5, [] {});
  EXPECT_TRUE(s.cancel(doomed));
  s.run();
  rec.finish();

  EXPECT_EQ(rec.cancelledDropped(), 1u);
  ASSERT_EQ(rec.records().size(), 1u);
  EXPECT_NE(rec.records()[0].id, doomed.id);
  EXPECT_EQ(rec.openPending(), 0u);
}

TEST(CausalityRecorder, DumpSpillsAndRoundTripsThroughReader) {
  const std::string path = testing::TempDir() + "gcprof_dump_test.json";
  sim::Simulator s;
  CausalityConfig cfg;
  cfg.dump_path = path;
  cfg.buffer_records = 2;  // force multiple spills
  CausalityRecorder rec(std::move(cfg));
  s.setCausalitySink(&rec);

  {
    sim::LpScope lp(s, sim::lpTag(sim::LpDomain::kLink));
    for (int i = 1; i <= 7; ++i)
      s.schedule(static_cast<sim::Duration>(i), [] {});
  }
  const sim::EventHandle doomed = s.schedule(100, [] {});
  s.cancel(doomed);
  s.run();
  EXPECT_TRUE(rec.finish());
  EXPECT_TRUE(rec.finish());  // idempotent
  EXPECT_GE(rec.spilled(), 7u);

  const gcprof_tool::Dump dump = gcprof_tool::loadDump(path);
  ASSERT_EQ(dump.records.size(), 7u);
  EXPECT_EQ(dump.total, 7u);
  EXPECT_EQ(dump.cancelled, 1u);
  EXPECT_EQ(dump.pending, 0u);
  for (const gcprof_tool::DumpRecord& r : dump.records)
    EXPECT_EQ(r.lp, sim::lpTag(sim::LpDomain::kLink));
  EXPECT_EQ(dump.records.front().fire, 1);
  EXPECT_EQ(dump.records.back().fire, 7);
}

TEST(CausalityRecorder, LpNamesFollowTheGcpartTaxonomy) {
  EXPECT_EQ(CausalityRecorder::lpName(sim::kLpUnscoped), "sim");
  EXPECT_EQ(CausalityRecorder::lpName(sim::lpTag(sim::LpDomain::kNode, 3)),
            "node.3");
  EXPECT_EQ(CausalityRecorder::lpName(sim::lpTag(sim::LpDomain::kNic, 0)),
            "nic.0");
  EXPECT_EQ(CausalityRecorder::lpName(sim::lpTag(sim::LpDomain::kLink)),
            "link");
  EXPECT_EQ(CausalityRecorder::lpName(sim::lpTag(sim::LpDomain::kGlobal)),
            "global");
  // Non-instanced domains still disambiguate a nonzero index.
  EXPECT_EQ(CausalityRecorder::lpName(sim::lpTag(sim::LpDomain::kLink, 2)),
            "link.2");
}

TEST(CausalityRecorder, ClusterPublishesGcprofAndSimCounters) {
  const std::string path = testing::TempDir() + "gcprof_cluster_test.json";
  core::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.causality_trace = true;
  cfg.causality_dump_path = path;
  core::Cluster cluster(cfg);
  cluster.submit(2, [](app::Process::Env env)
                        -> std::unique_ptr<app::Process> {
    if (env.rank == 0)
      return std::make_unique<app::BandwidthSender>(std::move(env), 1, 1024,
                                                    64);
    return std::make_unique<app::BandwidthReceiver>(std::move(env), 0, 64);
  });
  cluster.run();
  EXPECT_TRUE(cluster.finishCausality());

  MetricsRegistry reg;
  cluster.collectMetrics(reg);
  EXPECT_GT(reg.counter("gcprof.records"), 0u);
  EXPECT_GT(reg.gauge("gcprof.lps"), 1.0);
  EXPECT_GT(reg.counter("sim.events_fired"), 0u);
  EXPECT_GT(reg.counter("sim.queue_depth_high_water"), 0u);
  EXPECT_EQ(reg.counter("sim.past_schedule_clamps"), 0u);
  ASSERT_TRUE(reg.has("sim.events_cancelled"));
  // Recorder totals and engine totals agree on what fired while hooked.
  EXPECT_EQ(reg.counter("gcprof.records"),
            cluster.causalityRecorder()->recorded());

  const gcprof_tool::Dump dump = gcprof_tool::loadDump(path);
  EXPECT_EQ(dump.total, cluster.causalityRecorder()->recorded());
  EXPECT_GT(dump.records.size(), 100u);
}

struct GangedRun {
  std::string dump;  // raw gcprof-v1 bytes
  std::size_t switches = 0;
};

/// One small two-job ganged run under the causality hook: both jobs share
/// nodes 0 and 1, so the gang scheduler switches between them mid-transfer.
GangedRun gangedRun(const std::string& name) {
  const std::string path = testing::TempDir() + "gcprof_det_" + name + ".json";
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.max_contexts = 2;
  cfg.quantum = sim::kMillisecond;
  cfg.causality_trace = true;
  cfg.causality_dump_path = path;
  GangedRun out;
  {
    core::Cluster cluster(cfg);
    const auto factory = [](app::Process::Env env)
        -> std::unique_ptr<app::Process> {
      if (env.rank == 0)
        return std::make_unique<app::BandwidthSender>(std::move(env), 1, 1024,
                                                      300);
      return std::make_unique<app::BandwidthReceiver>(std::move(env), 0, 300);
    };
    cluster.submit(2, factory, {0, 1});
    cluster.submit(2, factory, {0, 1});
    cluster.run();
    if (!cluster.finishCausality()) return out;
    out.switches = cluster.switchRecords().size();
  }
  std::ifstream in(path, std::ios::binary);
  out.dump.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  return out;
}

std::string analysisOf(const std::string& dump) {
  return gcprof_tool::analysisJson(
      gcprof_tool::analyze(gcprof_tool::parseDump(dump)));
}

TEST(CausalityRecorder, SimModeDumpIsAPureFunctionOfTheRun) {
  const GangedRun a = gangedRun("a");
  const GangedRun b = gangedRun("b");
  ASSERT_FALSE(a.dump.empty());
  EXPECT_GT(a.switches, 0u) << "the run must exercise gang switching";
  EXPECT_EQ(a.dump, b.dump);
  const std::string analysis = analysisOf(a.dump);
  EXPECT_EQ(analysisOf(b.dump), analysis);

  // The same run through the sweep runner, one and two workers at a time.
  for (const char* jobs : {"1", "2"}) {
    ASSERT_EQ(setenv("GANGCOMM_JOBS", jobs, 1), 0);
    const std::vector<GangedRun> runs =
        bench::parallelMap<GangedRun>(2, [&](std::size_t i) {
          return gangedRun(std::string("jobs") + jobs + "_" +
                           std::to_string(i));
        });
    for (const GangedRun& r : runs) {
      EXPECT_EQ(r.dump, a.dump) << "GANGCOMM_JOBS=" << jobs;
      EXPECT_EQ(analysisOf(r.dump), analysis) << "GANGCOMM_JOBS=" << jobs;
    }
  }
  unsetenv("GANGCOMM_JOBS");
}

}  // namespace
}  // namespace gangcomm::obs
