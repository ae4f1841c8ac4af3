// Unit tests for the causality hook (CausalitySink + LpScope): parent
// tracking at schedule time, LP tagging, cancel/reschedule semantics, the
// EventObserver coexistence contract, and the engine counters collectMetrics
// exports as sim.*.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace gangcomm::sim {
namespace {

/// Minimal recording sink: every transition verbatim, no buffering.
struct TestSink final : CausalitySink {
  struct Rec {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    SimTime sched = 0;
    SimTime fire = 0;
    std::uint32_t lp = kLpUnscoped;
  };

  std::map<std::uint64_t, Rec> pending;
  std::vector<std::uint64_t> cancelled;
  std::vector<Rec> fired;
  std::uint64_t unknown_fires = 0;

  void onSchedule(std::uint64_t id, std::uint64_t parent, SimTime sched_at,
                  SimTime, std::uint32_t lp) override {
    Rec r;
    r.id = id;
    r.parent = parent;
    r.sched = sched_at;
    r.lp = lp;
    pending.emplace(id, r);
  }
  void onCancel(std::uint64_t id) override {
    cancelled.push_back(id);
    pending.erase(id);
  }
  void onFireBegin(std::uint64_t id, SimTime t) override {
    const auto it = pending.find(id);
    if (it == pending.end()) {
      ++unknown_fires;
      return;
    }
    it->second.fire = t;
    fired.push_back(it->second);
    pending.erase(it);
  }
  void onFireEnd(std::uint64_t) override {}
};

TEST(Causality, ChildRecordsParentAndScheduleTime) {
  Simulator s;
  TestSink sink;
  s.setCausalitySink(&sink);
  s.schedule(10, [&] { s.schedule(5, [] {}); });
  s.run();

  ASSERT_EQ(sink.fired.size(), 2u);
  const TestSink::Rec& root = sink.fired[0];
  const TestSink::Rec& child = sink.fired[1];
  EXPECT_EQ(root.parent, 0u);          // scheduled outside any event
  EXPECT_EQ(child.parent, root.id);    // scheduled while root was firing
  EXPECT_EQ(root.sched, 0u);
  EXPECT_EQ(root.fire, 10u);
  EXPECT_EQ(child.sched, 10u);         // sched time = parent's fire time
  EXPECT_EQ(child.fire, 15u);
  EXPECT_EQ(sink.unknown_fires, 0u);
}

TEST(Causality, LpScopeTagsAtScheduleTimeAndNests) {
  Simulator s;
  TestSink sink;
  s.setCausalitySink(&sink);

  const std::uint32_t node3 = lpTag(LpDomain::kNode, 3);
  const std::uint32_t nic7 = lpTag(LpDomain::kNic, 7);
  {
    LpScope outer(s, node3);
    s.schedule(1, [] {});  // tagged node.3
    {
      LpScope inner(s, nic7);
      s.schedule(2, [] {});  // tagged nic.7
    }
    s.schedule(3, [] {});  // back to node.3 after inner scope exit
  }
  s.schedule(4, [] {});  // unscoped
  s.run();

  ASSERT_EQ(sink.fired.size(), 4u);
  EXPECT_EQ(sink.fired[0].lp, node3);
  EXPECT_EQ(sink.fired[1].lp, nic7);
  EXPECT_EQ(sink.fired[2].lp, node3);
  EXPECT_EQ(sink.fired[3].lp, kLpUnscoped);
}

TEST(Causality, LpScopeIsInertWithoutSink) {
  Simulator s;
  {
    LpScope lp(s, lpTag(LpDomain::kLink));
    EXPECT_EQ(s.currentLp(), lpTag(LpDomain::kLink));
    s.schedule(1, [] {});
  }
  // No sink: the tag save/restore is branch-free engine state, nothing else.
  EXPECT_EQ(s.currentLp(), kLpUnscoped);
  EXPECT_EQ(s.run(), 1u);
}

TEST(Causality, CancelledEventIsNotADagNode) {
  Simulator s;
  TestSink sink;
  s.setCausalitySink(&sink);
  const EventHandle h = s.schedule(10, [] { FAIL() << "cancelled event ran"; });
  s.schedule(5, [] {});
  EXPECT_TRUE(s.cancel(h));
  s.run();

  ASSERT_EQ(sink.cancelled.size(), 1u);
  EXPECT_EQ(sink.cancelled[0], h.id);
  ASSERT_EQ(sink.fired.size(), 1u);
  EXPECT_NE(sink.fired[0].id, h.id);
  EXPECT_TRUE(sink.pending.empty());
}

TEST(Causality, RescheduleAppearsOnceUnderNewParent) {
  // Cancel + re-add (the retransmit-timer idiom): the DAG must contain the
  // event exactly once, with a fresh id and the rescheduler as parent.
  Simulator s;
  TestSink sink;
  s.setCausalitySink(&sink);

  bool payload_ran = false;
  const EventHandle first = s.schedule(50, [&] { payload_ran = true; });
  std::uint64_t rescheduler_id = 0;
  s.schedule(10, [&] {
    EXPECT_TRUE(s.cancel(first));
    s.schedule(20, [&] { payload_ran = true; });
  });
  s.run();

  EXPECT_TRUE(payload_ran);
  ASSERT_EQ(sink.fired.size(), 2u);  // the rescheduler + one payload firing
  const TestSink::Rec& rescheduler = sink.fired[0];
  const TestSink::Rec& payload = sink.fired[1];
  rescheduler_id = rescheduler.id;
  EXPECT_EQ(sink.cancelled.size(), 1u);
  EXPECT_NE(payload.id, first.id);            // fresh id, not the cancelled one
  EXPECT_EQ(payload.parent, rescheduler_id);  // re-parented to the rescheduler
  EXPECT_EQ(payload.fire, 30u);
}

TEST(Causality, CoexistsWithEventObserver) {
  struct Counter final : EventObserver {
    std::uint64_t boundaries = 0;
    SimTime last = 0;
    void onEventBoundary(SimTime now, std::uint64_t) override {
      ++boundaries;
      last = now;
    }
  };
  Simulator s;
  TestSink sink;
  Counter obs;
  s.setCausalitySink(&sink);
  s.setObserver(&obs);
  for (int i = 1; i <= 5; ++i)
    s.schedule(static_cast<Duration>(i), [&s] { s.schedule(100, [] {}); });
  s.run();

  EXPECT_EQ(obs.boundaries, 10u);
  EXPECT_EQ(sink.fired.size(), 10u);
  EXPECT_EQ(obs.last, 105u);
  EXPECT_EQ(sink.fired.back().fire, 105u);
}

TEST(Causality, SinkInstalledMidRunSkipsPreexistingEvents) {
  Simulator s;
  TestSink sink;
  s.schedule(10, [] {});  // scheduled before the hook: fires unrecorded
  s.setCausalitySink(&sink);
  s.schedule(20, [] {});
  s.run();
  EXPECT_EQ(sink.unknown_fires, 1u);
  ASSERT_EQ(sink.fired.size(), 1u);
  EXPECT_EQ(sink.fired[0].fire, 20u);
}

// ---- Engine counters (collectMetrics exports these as sim.*) ----------------

TEST(SimCounters, CancelledEventsCountsOnlySuccessfulCancels) {
  Simulator s;
  const EventHandle h = s.schedule(10, [] {});
  EXPECT_EQ(s.cancelledEvents(), 0u);
  EXPECT_TRUE(s.cancel(h));
  EXPECT_EQ(s.cancelledEvents(), 1u);
  EXPECT_FALSE(s.cancel(h));  // double-cancel is a no-op
  EXPECT_EQ(s.cancelledEvents(), 1u);
  s.run();
  EXPECT_EQ(s.cancelledEvents(), 1u);
}

TEST(SimCounters, QueueDepthHighWaterTracksPeakPending) {
  Simulator s;
  for (int i = 0; i < 17; ++i) s.schedule(static_cast<Duration>(i + 1), [] {});
  EXPECT_EQ(s.queueDepthHighWater(), 17u);
  s.run();
  // Draining does not lower the high-water mark.
  EXPECT_EQ(s.queueDepthHighWater(), 17u);
  s.schedule(1, [] {});
  EXPECT_EQ(s.queueDepthHighWater(), 17u);
}

TEST(SimCounters, PastScheduleClampsCount) {
  Simulator s;
  s.schedule(10, [&] {
    // now() is 10; scheduling at absolute time 5 clamps and counts.
    s.scheduleAt(5, [] {});
  });
  s.run();
  EXPECT_EQ(s.pastScheduleClamps(), 1u);
}

}  // namespace
}  // namespace gangcomm::sim
