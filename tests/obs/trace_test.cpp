// TraceRecorder: enable gating, selection, args, Chrome JSON export.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace gangcomm::obs {
namespace {

TEST(TraceRecorder, DisabledByDefaultAndRecordsNothing) {
  TraceRecorder r;
  EXPECT_FALSE(r.enabled());
  r.instant(0, "nic", "rx:halt", 100);
  r.span(0, "gang", "halt", 100, 200);
  TraceEvent ev;
  r.record(ev);
  EXPECT_EQ(r.size(), 0u);
}

// The guard is the component's probe pointer (tested by the invisibility
// tests) plus the recorder gate: a TraceProbe records only while enabled.
TEST(TraceRecorder, TracingGuardChecksPointerAndGate) {
  TraceRecorder r;
  TraceProbe probe(r);
  probe.onNicStage(0, SwitchStage::kHaltBegin, HaltKind::kFlush, 3, 100);
  EXPECT_EQ(r.size(), 0u);
  r.setEnabled(true);
  probe.onNicStage(0, SwitchStage::kHaltBegin, HaltKind::kFlush, 3, 100);
  EXPECT_EQ(r.size(), 1u);
  r.setEnabled(false);
  probe.onNicStage(0, SwitchStage::kHaltBegin, HaltKind::kFlush, 3, 100);
  EXPECT_EQ(r.size(), 1u);
}

TEST(TraceRecorder, SpanBuilderFillsFields) {
  TraceRecorder r;
  r.setEnabled(true);
  r.span(3, "gang", "buffer_switch", 1000, 4500,
         {{"send_pkts", 7}, {"recv_pkts", 12}});
  ASSERT_EQ(r.size(), 1u);
  const TraceEvent& ev = r.events()[0];
  EXPECT_STREQ(ev.name, "buffer_switch");
  EXPECT_STREQ(ev.track, "gang");
  EXPECT_EQ(ev.phase, TracePhase::kSpan);
  EXPECT_EQ(ev.node, 3);
  EXPECT_EQ(ev.ts, 1000u);
  EXPECT_EQ(ev.dur, 3500u);
  EXPECT_EQ(ev.argCount(), 2u);
  EXPECT_EQ(ev.arg("send_pkts"), 7);
  EXPECT_EQ(ev.arg("recv_pkts"), 12);
  EXPECT_EQ(ev.arg("missing", -1), -1);
}

TEST(TraceRecorder, BackwardsSpanClampsToZeroDuration) {
  TraceRecorder r;
  r.setEnabled(true);
  r.span(0, "t", "n", 500, 400);
  EXPECT_EQ(r.events()[0].dur, 0u);
}

TEST(TraceRecorder, InstantBuilderFillsFields) {
  TraceRecorder r;
  r.setEnabled(true);
  r.instant(1, "fm", "credit:debit", 250, {{"dst_rank", 4}});
  ASSERT_EQ(r.size(), 1u);
  const TraceEvent& ev = r.events()[0];
  EXPECT_EQ(ev.phase, TracePhase::kInstant);
  EXPECT_EQ(ev.ts, 250u);
  EXPECT_EQ(ev.dur, 0u);
  EXPECT_EQ(ev.arg("dst_rank"), 4);
}

TEST(TraceRecorder, SelectFiltersByTrackAndName) {
  TraceRecorder r;
  r.setEnabled(true);
  r.span(0, "gang", "halt", 0, 1);
  r.span(0, "gang", "release", 1, 2);
  r.span(1, "gang", "halt", 0, 1);
  r.instant(0, "nic", "halt", 5);

  EXPECT_EQ(r.select("gang", "halt").size(), 2u);
  EXPECT_EQ(r.count("gang", "halt"), 2u);
  EXPECT_EQ(r.select("gang", nullptr).size(), 3u);   // any name on the track
  EXPECT_EQ(r.select(nullptr, "halt").size(), 3u);   // any track
  EXPECT_EQ(r.select(nullptr, nullptr).size(), 4u);  // everything
  EXPECT_EQ(r.count("fm", "halt"), 0u);

  // Record order is preserved.
  const auto halts = r.select("gang", "halt");
  EXPECT_EQ(halts[0]->node, 0);
  EXPECT_EQ(halts[1]->node, 1);
}

TEST(TraceRecorder, ClearEmptiesButKeepsGate) {
  TraceRecorder r;
  r.setEnabled(true);
  r.instant(0, "t", "n", 1);
  r.clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_TRUE(r.enabled());
  r.instant(0, "t", "n", 2);
  EXPECT_EQ(r.size(), 1u);
}

TEST(TraceRecorder, ChromeJsonHasMetadataSpansAndInstants) {
  TraceRecorder r;
  r.setEnabled(true);
  r.span(0, "gang", "halt", 1500, 2500, {{"from_slot", 1}});
  r.instant(2, "nic", "rx:halt", 3000);
  const std::string json = r.chromeTraceJson();

  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // process/thread naming metadata for both nodes and both tracks.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 2\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // The span: ns timestamps become microseconds with a fractional part.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"from_slot\":1"), std::string::npos);
  // The instant carries a thread scope marker.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
}

TEST(TraceRecorder, ChromeJsonEscapesNames) {
  TraceRecorder r;
  r.setEnabled(true);
  r.instant(0, "t", "quote\"back\\slash", 1);
  const std::string json = r.chromeTraceJson();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(TraceRecorder, WriteChromeTraceRoundTrips) {
  TraceRecorder r;
  r.setEnabled(true);
  r.span(0, "gang", "switch", 0, 10);
  const std::string path = testing::TempDir() + "gc_trace_test.json";
  ASSERT_TRUE(r.writeChromeTrace(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), r.chromeTraceJson());
  std::remove(path.c_str());
}

TEST(TraceRecorder, WriteChromeTraceFailsOnBadPath) {
  TraceRecorder r;
  EXPECT_FALSE(r.writeChromeTrace("/nonexistent-dir/trace.json"));
}

TEST(TraceRecorder, ArgListTruncatesAtCapacity) {
  // Capacity is 8: gctrace's pkt:stages instant carries id + 7 stage args.
  TraceRecorder r;
  r.setEnabled(true);
  r.instant(0, "t", "n", 1,
            {{"a", 1},
             {"b", 2},
             {"c", 3},
             {"d", 4},
             {"e", 5},
             {"f", 6},
             {"g", 7},
             {"h", 8},
             {"i", 9}});
  const TraceEvent& ev = r.events()[0];
  EXPECT_EQ(ev.argCount(), 8u);
  EXPECT_EQ(ev.arg("h"), 8);
  EXPECT_EQ(ev.arg("i", -1), -1);
}

}  // namespace
}  // namespace gangcomm::obs
