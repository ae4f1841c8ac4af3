// Analyzer tests for tools/gcprof: dump parsing, DAG metrics (critical
// path, ideal speedup, per-LP counts), and output determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "analyze.hpp"
#include "sim/simulator.hpp"

namespace gangcomm::gcprof_tool {
namespace {

std::uint32_t tag(sim::LpDomain d, std::uint32_t i = 0) {
  return sim::lpTag(d, i);
}

/// Hand-built six-event dump: two roots, one five-event causal chain that
/// walks node.0 -> nic.0 -> link -> nic.1 -> node.1.
std::string syntheticDump() {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"gcprof\":\"gcprof-v1\",\"mode\":\"sim\",\n"
      "\"records\":[\n"
      "[1,0,0,10,%u],\n"
      "[6,0,0,20,%u],\n"
      "[2,1,10,110,%u],\n"
      "[3,2,110,160,%u],\n"
      "[4,3,160,260,%u],\n"
      "[5,4,260,261,%u]\n"
      "],\n"
      "\"lps\":[],\"total\":6,\"cancelled\":0,\"pending\":0}\n",
      tag(sim::LpDomain::kNode, 0), tag(sim::LpDomain::kNode, 1),
      tag(sim::LpDomain::kNic, 0), tag(sim::LpDomain::kLink),
      tag(sim::LpDomain::kNic, 1), tag(sim::LpDomain::kNode, 1));
  return buf;
}

TEST(GcprofDump, ParsesRecordsAndTrailer) {
  const Dump d = parseDump(syntheticDump());
  ASSERT_EQ(d.records.size(), 6u);
  EXPECT_EQ(d.total, 6u);
  EXPECT_EQ(d.cancelled, 0u);
  EXPECT_EQ(d.records[0].id, 1u);
  EXPECT_EQ(d.records[2].parent, 1u);
  EXPECT_EQ(d.records[2].sched, 10);
  EXPECT_EQ(d.records[2].fire, 110);
  EXPECT_EQ(d.records[2].lp, tag(sim::LpDomain::kNic, 0));
}

TEST(GcprofDump, RejectsTruncationAndForeignFiles) {
  std::string text = syntheticDump();
  const auto pos = text.find("\"total\":6");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "\"total\":9");
  EXPECT_THROW(parseDump(text), std::runtime_error);
  EXPECT_THROW(parseDump("{\"foo\":1}"), std::runtime_error);
  // Only sim-mode dumps are read; any other mode is refused, not guessed.
  std::string wall = syntheticDump();
  const auto mode = wall.find("\"mode\":\"sim\"");
  ASSERT_NE(mode, std::string::npos);
  wall.replace(mode, 12, "\"mode\":\"wall\"");
  EXPECT_THROW(parseDump(wall), std::runtime_error);
}

TEST(GcprofAnalyze, ComputesCriticalPathAndSpeedups) {
  const Analysis a = analyze(parseDump(syntheticDump()));
  EXPECT_EQ(a.events, 6u);
  EXPECT_EQ(a.edges, 4u);
  EXPECT_EQ(a.roots, 2u);
  EXPECT_EQ(a.span_ns, 251);  // fire 10..261

  // Longest chain is 1->2->3->4->5: five events of six total.
  EXPECT_EQ(a.critical_len, 5u);
  EXPECT_DOUBLE_EQ(a.ideal_speedup, 6.0 / 5.0);
  ASSERT_EQ(a.critical_ids.size(), 5u);
  EXPECT_EQ(a.critical_ids.front(), 1u);
  EXPECT_EQ(a.critical_ids.back(), 5u);

  ASSERT_EQ(a.lps.size(), 5u);  // node.0, node.1, nic.0, nic.1, link
  EXPECT_EQ(a.lps[0].name, "node.0");
  EXPECT_EQ(a.lps[1].events, 2u);  // node.1: the second root and event 5
}

TEST(GcprofOutputs, JsonAndReportAreDeterministic) {
  const Dump d = parseDump(syntheticDump());
  const Analysis a1 = analyze(d);
  const Analysis a2 = analyze(d);
  EXPECT_EQ(analysisJson(a1), analysisJson(a2));
  EXPECT_EQ(renderReport(a1), renderReport(a2));
  EXPECT_NE(analysisJson(a1).find("\"critical_path_events\":5"),
            std::string::npos);
  EXPECT_NE(analysisJson(a1).find("\"ideal_speedup\":1.200"),
            std::string::npos);
}

TEST(GcprofOutputs, CsvAndChromeTraceWriteExpectedShapes) {
  const Dump d = parseDump(syntheticDump());
  const Analysis a = analyze(d);

  const std::string csv = testing::TempDir() + "gcprof_tool_test.csv";
  ASSERT_TRUE(writeCsv(a, csv));
  std::FILE* f = std::fopen(csv.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_STREQ(line, "lp_tag,name,domain,events,share_pct\n");
  int rows = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) ++rows;
  std::fclose(f);
  EXPECT_EQ(rows, 5);  // one per LP

  const std::string trace = testing::TempDir() + "gcprof_tool_test_trace.json";
  ASSERT_TRUE(writeChromeTrace(d, a, trace));
  f = std::fopen(trace.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  while (std::fgets(line, sizeof(line), f) != nullptr) text += line;
  std::fclose(f);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("thread_name"), std::string::npos);
  // The critical path rides along as a flow chain: start + end phases.
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"critical\""), std::string::npos);
}

}  // namespace
}  // namespace gangcomm::gcprof_tool
