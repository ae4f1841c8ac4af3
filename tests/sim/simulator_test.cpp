// Unit tests for the discrete-event core.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace gangcomm::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, FiresEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(30, [&] { order.push_back(3); });
  s.schedule(10, [&] { order.push_back(1); });
  s.schedule(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Simulator, StableTieBreakAtSameInstant) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    s.schedule(5, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedSchedulingFromCallbacks) {
  Simulator s;
  std::vector<int> order;
  s.schedule(10, [&] {
    order.push_back(1);
    s.schedule(5, [&] { order.push_back(3); });
    s.schedule(0, [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 15u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  EventHandle h = s.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(h));
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(Simulator, CancelTwiceIsNoop) {
  Simulator s;
  EventHandle h = s.schedule(10, [] {});
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.cancel(h));
  s.run();
}

TEST(Simulator, CancelInvalidHandleIsNoop) {
  Simulator s;
  EXPECT_FALSE(s.cancel(EventHandle{}));
  EXPECT_FALSE(s.cancel(EventHandle{999}));
}

// Regression: cancelling a handle whose event already fired used to return
// true and decrement the live-event count, making empty()/pendingEvents()
// lie about a genuinely pending event.
TEST(Simulator, CancelAfterFireIsNoopAndKeepsLiveCountExact) {
  Simulator s;
  bool b_fired = false;
  EventHandle a = s.schedule(1, [] {});
  s.schedule(2, [&] { b_fired = true; });
  ASSERT_EQ(s.runSteps(1), 1u);  // fires only A
  EXPECT_FALSE(s.cancel(a));
  EXPECT_EQ(s.pendingEvents(), 1u);
  EXPECT_FALSE(s.empty());
  s.run();
  EXPECT_TRUE(b_fired);
  EXPECT_TRUE(s.empty());
}

// Regression: a fired handle's id also used to be parked in the cancelled
// set forever.  Repeated stale cancels must stay no-ops and never affect
// later events.
TEST(Simulator, RepeatedStaleCancelsLeaveSchedulingIntact) {
  Simulator s;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(s.schedule(1, [] {}));
  s.run();
  for (const EventHandle& h : handles) EXPECT_FALSE(s.cancel(h));
  int late = 0;
  s.schedule(1, [&] { ++late; });
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_EQ(late, 1);
  EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(Simulator, CancelInterleavedWithFiresStaysConsistent) {
  Simulator s;
  int fired = 0;
  EventHandle a = s.schedule(1, [&] { ++fired; });
  EventHandle b = s.schedule(2, [&] { ++fired; });
  EventHandle c = s.schedule(3, [&] { ++fired; });
  EXPECT_TRUE(s.cancel(b));
  ASSERT_EQ(s.runSteps(1), 1u);   // fires A (B is skipped lazily)
  EXPECT_FALSE(s.cancel(a));      // already fired
  EXPECT_FALSE(s.cancel(b));      // already cancelled
  EXPECT_EQ(s.pendingEvents(), 1u);
  EXPECT_TRUE(s.cancel(c));
  EXPECT_TRUE(s.empty());
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator s;
  int count = 0;
  s.schedule(10, [&] { ++count; });
  s.schedule(20, [&] { ++count; });
  s.schedule(21, [&] { ++count; });
  s.runUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 20u);
  s.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAdvancesTimeEvenWithoutEvents) {
  Simulator s;
  s.runUntil(500);
  EXPECT_EQ(s.now(), 500u);
}

TEST(Simulator, RunStepsLimitsEventCount) {
  Simulator s;
  int count = 0;
  for (int i = 0; i < 5; ++i)
    s.schedule(static_cast<Duration>(i), [&] { ++count; });
  EXPECT_EQ(s.runSteps(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pendingEvents(), 2u);
}

TEST(Simulator, RequestStopHaltsRun) {
  Simulator s;
  int count = 0;
  s.schedule(1, [&] {
    ++count;
    s.requestStop();
  });
  s.schedule(2, [&] { ++count; });
  s.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_EQ(count, 2);
}

// runUntil() only advances the clock to the target when the run was not
// stopped early; a requestStop() mid-run must leave now() at the stopping
// event so the caller can resume from the real point of interruption.
TEST(Simulator, RunUntilDoesNotAdvanceClockPastRequestStop) {
  Simulator s;
  s.schedule(10, [&] { s.requestStop(); });
  s.runUntil(100);
  EXPECT_EQ(s.now(), 10u);
  EXPECT_TRUE(s.empty());
  s.runUntil(100);  // resumed run with nothing left: clock advances
  EXPECT_EQ(s.now(), 100u);
}

TEST(Simulator, PastSchedulingClampsAndCounts) {
  Simulator s;
  s.schedule(100, [&] { s.scheduleAt(50, [] {}); });
  s.run();
  EXPECT_EQ(s.pastScheduleClamps(), 1u);
  EXPECT_EQ(s.now(), 100u);
}

TEST(Simulator, FiredEventCountAccumulates) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(1, [] {});
  s.run();
  EXPECT_EQ(s.firedEvents(), 7u);
}

// Randomized stress of the indexed-heap engine against a trivially correct
// reference model (a flat pending list fired in (time, seq) order — the old
// engine's semantics).  Interleaves schedule / past-clamped scheduleAt /
// cancel (live, fired, and stale handles) / runSteps / runUntil / run and
// asserts the firing order, clock, live count, and every cancel() verdict
// match exactly.  `horizon` bounds how far ahead events are scheduled and
// runUntil() reaches: 2 makes nearly every event a same-instant tie, 2^40
// spreads a deep backlog thinly.  `cancel_pct` is the share of operations
// that cancel a handle.
void randomizedStressMatchesReferenceModel(std::uint64_t seed,
                                           SimTime horizon, int cancel_pct) {
  struct RefEvent {
    SimTime time;
    std::uint64_t seq;
  };
  std::mt19937_64 rng(seed);
  Simulator s;
  std::vector<RefEvent> ref;  // reference pending set
  SimTime ref_now = 0;
  std::uint64_t ref_seq = 1, ref_clamps = 0;
  std::vector<std::uint64_t> fired_real, fired_ref;
  std::vector<std::pair<EventHandle, std::uint64_t>> handles;  // all ever made

  const auto refFireNext = [&] {
    auto it = std::min_element(ref.begin(), ref.end(),
                               [](const RefEvent& a, const RefEvent& b) {
                                 return a.time != b.time ? a.time < b.time
                                                         : a.seq < b.seq;
                               });
    ref_now = it->time;
    fired_ref.push_back(it->seq);
    ref.erase(it);
  };

  const auto scheduleBoth = [&](SimTime at) {
    SimTime t = at;
    if (t < ref_now) {
      ++ref_clamps;
      t = ref_now;
    }
    // The callback must record its own seq, which is only known once
    // scheduleAt returns; route it through a shared cell.
    auto cell = std::make_shared<std::uint64_t>(0);
    EventHandle h = s.scheduleAt(
        at, [cell, &fired_real] { fired_real.push_back(*cell); });
    *cell = h.id;
    EXPECT_EQ(h.id, ref_seq);
    ref.push_back({t, ref_seq});
    handles.emplace_back(h, ref_seq);
    ++ref_seq;
  };

  for (int round = 0; round < 4000; ++round) {
    // Cancels (case 20) take cancel_pct of the rounds.  The rest is cut in
    // 20 slices, 14 of which schedule ahead, so the pending set grows deep
    // between the runs that drain it.
    const int op = static_cast<int>(rng() % 100);
    const int slice =
        op < cancel_pct ? 20 : (op - cancel_pct) * 20 / (100 - cancel_pct);
    switch (slice) {
      default:  // schedule at a future instant (ties are common)
        scheduleBoth(ref_now + rng() % horizon);
        break;
      case 14:
      case 15:  // schedule into the past: clamped and counted
        scheduleBoth(ref_now > 10 ? ref_now - 1 - rng() % 9 : 0);
        break;
      case 16:
      case 17: {  // fire a few events
        const std::uint64_t want = rng() % 4;
        const std::uint64_t n = s.runSteps(want);
        EXPECT_EQ(n, std::min<std::uint64_t>(want, ref.size()));
        for (std::uint64_t i = 0; i < n; ++i) refFireNext();
        break;
      }
      case 18: {  // run up to a horizon
        const SimTime t = ref_now + rng() % horizon;
        const std::uint64_t n = s.runUntil(t);
        std::uint64_t ref_n = 0;
        while (!ref.empty()) {
          const auto it = std::min_element(
              ref.begin(), ref.end(),
              [](const RefEvent& a, const RefEvent& b) {
                return a.time != b.time ? a.time < b.time : a.seq < b.seq;
              });
          if (it->time > t) break;
          refFireNext();
          ++ref_n;
        }
        if (ref_now < t) ref_now = t;
        EXPECT_EQ(n, ref_n);
        break;
      }
      case 19:  // occasionally drain completely
        if (rng() % 10 == 0) {
          s.run();
          while (!ref.empty()) refFireNext();
        }
        break;
      case 20: {  // cancel a random handle: may be live, fired, or cancelled
        if (handles.empty()) break;
        const auto& [h, seq] = handles[rng() % handles.size()];
        const auto it = std::find_if(
            ref.begin(), ref.end(),
            [seq = seq](const RefEvent& e) { return e.seq == seq; });
        const bool ref_live = it != ref.end();
        if (ref_live) ref.erase(it);
        EXPECT_EQ(s.cancel(h), ref_live);
        break;
      }
    }
    ASSERT_EQ(s.now(), ref_now);
    ASSERT_EQ(s.pendingEvents(), ref.size());
    ASSERT_EQ(s.empty(), ref.empty());
  }
  s.run();
  while (!ref.empty()) refFireNext();
  EXPECT_EQ(fired_real, fired_ref);
  EXPECT_EQ(s.firedEvents(), fired_real.size());
  EXPECT_EQ(s.pastScheduleClamps(), ref_clamps);
}

TEST(Simulator, RandomizedStressMatchesReferenceModel) {
  struct Shape {
    std::uint64_t seed;
    SimTime horizon;
    int cancel_pct;
  };
  for (const Shape& c : {Shape{0xC0FFEE, 50, 12}, Shape{1, 5000, 20},
                         Shape{2, 5000, 20}, Shape{0xBADC0DE, 5000, 20},
                         Shape{7, 2000, 60}, Shape{0xFEED, 2000, 60},
                         Shape{11, 2, 25}, Shape{3, 300, 20},
                         Shape{5, SimTime{1} << 40, 15}}) {
    SCOPED_TRACE(testing::Message() << "seed " << c.seed << " horizon "
                                    << c.horizon << " cancel% "
                                    << c.cancel_pct);
    ASSERT_NO_FATAL_FAILURE(
        randomizedStressMatchesReferenceModel(c.seed, c.horizon,
                                              c.cancel_pct));
  }
}

// Slab recycling: cancelling and firing must return nodes to the free list,
// so a schedule/fire steady state never grows the slab (no leak of slots),
// and a handle to a recycled slot is stale, not live.
TEST(Simulator, RecycledSlotInvalidatesOldHandles) {
  Simulator s;
  EventHandle a = s.schedule(1, [] {});
  ASSERT_TRUE(s.cancel(a));
  // The next event reuses A's slab slot (free list is LIFO); A's handle
  // must still read as dead.
  int fired = 0;
  EventHandle b = s.schedule(2, [&] { ++fired; });
  EXPECT_FALSE(s.cancel(a));
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.cancel(b));
}

// Callbacks that schedule (growing the slab mid-fire) and cancel other
// pending events exercise the in-place removal paths from inside fireNext.
TEST(Simulator, CancelAndScheduleFromCallback) {
  Simulator s;
  std::vector<int> order;
  EventHandle doomed = s.schedule(10, [&] { order.push_back(99); });
  s.schedule(5, [&] {
    order.push_back(1);
    EXPECT_TRUE(s.cancel(doomed));
    for (int i = 0; i < 64; ++i)  // force slab growth during a fire
      s.schedule(static_cast<Duration>(6 + i), [&order, i] {
        if (i == 0) order.push_back(2);
      });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.firedEvents(), 65u);  // the t=5 event + 64 nested; doomed died
}

// The action runs in place in its slab slot; scheduling more events than one
// action chunk holds while it runs must leave its captures where they were
// (under ASan, an action relocated mid-run reads freed memory here).
TEST(Simulator, RunningActionSurvivesSlabGrowth) {
  struct Seen {
    Simulator s;
    std::uint64_t seq = 0;
    std::uint32_t bytes = 0;
    int children = 0;
  } seen;
  net::Packet p{};
  p.payload_bytes = 1234;
  p.seq = 0xfeedfacecafebeefull;
  p.dst_node = 7;
  auto action = [&seen, p] {
    for (int i = 0; i < 1000; ++i)
      seen.s.schedule(0, [&seen] { ++seen.children; });
    seen.seq = p.seq;
    seen.bytes = p.payload_bytes + p.dst_node;
  };
  // Inline in the slot, not heap-held: otherwise the test proves nothing.
  static_assert(sizeof(action) <= 112);  // Simulator::Action's capacity
  seen.s.schedule(1, std::move(action));
  seen.s.run();
  EXPECT_EQ(seen.seq, 0xfeedfacecafebeefull);
  EXPECT_EQ(seen.bytes, 1241u);
  EXPECT_EQ(seen.children, 1000);
}

// A running event is already fired: cancelling its own handle from inside
// its action is a no-op, on the heap path and the same-instant lane, and at
// any tie salt.
TEST(Simulator, CancellingOwnHandleWhileFiringReturnsFalse) {
  for (const std::uint64_t salt : {0ull, 0x5eedull}) {
    for (const Duration delay : {Duration{0}, Duration{5}}) {
      Simulator s;
      s.setTieSalt(salt);
      EventHandle self;
      int verdicts = 0;
      bool cancelled = true;
      self = s.schedule(delay, [&] {
        cancelled = s.cancel(self);
        ++verdicts;
      });
      s.schedule(delay, [] {});  // a same-instant sibling stays pending
      s.run();
      EXPECT_EQ(verdicts, 1);
      EXPECT_FALSE(cancelled);
      EXPECT_EQ(s.cancelledEvents(), 0u);
      EXPECT_EQ(s.firedEvents(), 2u);
      EXPECT_FALSE(s.cancel(self));  // and stays dead afterwards
    }
  }
}

// Lockstep reference model for callbacks that schedule and cancel: every
// fired event must be the reference's earliest pending one under the
// documented order — (time, seq) at salt 0, (time, splitmix64(seq ^ salt))
// otherwise.  Callbacks schedule zero-delay and same-instant children,
// past-clamped ones and near-future ones, and cancel recent siblings in the
// middle of an instant, so the same-instant lane, its lazy cancel and its
// interleaving with heap events due at the same instant all get exercised.
class CallbackStress {
 public:
  explicit CallbackStress(std::uint64_t salt)
      : salt_(salt), rng_(0xC0FFEE ^ salt) {
    s_.setTieSalt(salt);
  }

  void run() {
    for (int round = 0; round < 300; ++round) {
      for (std::uint64_t roots = rng_() % 3; roots > 0; --roots)
        schedule(s_.now() + rng_() % 20, false);
      switch (rng_() % 4) {
        case 0:
          s_.runSteps(rng_() % 16);
          break;
        case 1: {
          const SimTime before = s_.now();
          const SimTime t = before + rng_() % 30;
          s_.runUntil(t);
          for (const RefEvent& e : ref_) ASSERT_GT(e.time, t);
          ASSERT_EQ(s_.now(), std::max(before, t));
          break;
        }
        case 2:
          cancelRecent();
          break;
        default:
          if (rng_() % 8 == 0) s_.run();
          break;
      }
      ASSERT_EQ(s_.pendingEvents(), ref_.size());
      ASSERT_EQ(s_.empty(), ref_.empty());
    }
    s_.run();
    EXPECT_TRUE(ref_.empty());
    EXPECT_TRUE(s_.empty());
    EXPECT_EQ(s_.firedEvents(), fired_);
    EXPECT_EQ(s_.pastScheduleClamps(), clamps_);
    EXPECT_GT(fired_, 2000u);  // the workload really ran
  }

 private:
  struct RefEvent {
    SimTime time;
    std::uint64_t key;
    std::uint64_t seq;
  };

  std::uint64_t key(std::uint64_t seq) const {
    if (salt_ == 0) return seq;
    std::uint64_t z = (seq ^ salt_) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // `relative` goes through schedule(delay) instead of scheduleAt().
  void schedule(SimTime at, bool relative) {
    const std::uint64_t seq = next_seq_++;
    SimTime t = at;
    if (t < s_.now()) {
      ++clamps_;
      t = s_.now();
    }
    const auto fire = [this, seq] { onFire(seq); };
    const EventHandle h = relative ? s_.schedule(at - s_.now(), fire)
                                   : s_.scheduleAt(at, fire);
    ASSERT_EQ(h.id, seq);
    ref_.push_back({t, key(seq), seq});
    handles_.push_back(h);
  }

  // Cancels one of the last few handles: often a pending sibling at the
  // current instant, sometimes a fired or already-cancelled one.
  void cancelRecent() {
    if (handles_.empty()) return;
    const std::size_t back = std::min<std::size_t>(handles_.size(), 6);
    const EventHandle h = handles_[handles_.size() - 1 - rng_() % back];
    const auto it =
        std::find_if(ref_.begin(), ref_.end(),
                     [&h](const RefEvent& e) { return e.seq == h.id; });
    const bool live = it != ref_.end();
    if (live) ref_.erase(it);
    EXPECT_EQ(s_.cancel(h), live);
  }

  void onFire(std::uint64_t seq) {
    const auto it = std::min_element(
        ref_.begin(), ref_.end(), [](const RefEvent& a, const RefEvent& b) {
          return a.time != b.time ? a.time < b.time : a.key < b.key;
        });
    ASSERT_NE(it, ref_.end());
    ASSERT_EQ(it->seq, seq);
    ASSERT_EQ(it->time, s_.now());
    ref_.erase(it);
    ++fired_;
    EXPECT_FALSE(s_.cancel(handles_[seq - 1]));  // already fired
    if (next_seq_ > 6000) return;  // bound the cascade
    for (std::uint64_t n = rng_() % 4; n > 0; --n) {
      const SimTime now = s_.now();
      switch (rng_() % 6) {
        case 0:
          schedule(now, true);  // zero delay
          break;
        case 1:
          schedule(now, false);  // same instant, absolute
          break;
        case 2:
          schedule(now > 3 ? now - 3 : 0, false);  // past: clamped
          break;
        case 3:
          cancelRecent();
          break;
        default:
          schedule(now + 1 + rng_() % 10, rng_() % 2 == 0);
          break;
      }
    }
  }

  Simulator s_;
  std::uint64_t salt_;
  std::mt19937_64 rng_;
  std::vector<RefEvent> ref_;
  std::vector<EventHandle> handles_;  // index seq - 1; every one ever made
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::uint64_t clamps_ = 0;
};

TEST(Simulator, CallbackStressMatchesReferenceModel) {
  for (const std::uint64_t salt : {0ull, 0xA5A5F00Dull}) {
    SCOPED_TRACE(salt);
    CallbackStress(salt).run();
  }
}

// ---- Same-timestamp tiebreak (setTieSalt) -----------------------------------

namespace {
// Schedules `n` events at one instant and returns the order they fired in.
std::vector<int> tieOrder(std::uint64_t salt, int n) {
  Simulator s;
  s.setTieSalt(salt);
  std::vector<int> order;
  for (int i = 0; i < n; ++i)
    s.scheduleAt(100, [&order, i] { order.push_back(i); });
  s.run();
  return order;
}
}  // namespace

TEST(Simulator, ZeroSaltKeepsSchedulingOrderAtTies) {
  EXPECT_EQ(tieOrder(0, 8), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulator, TieSaltIsDeterministicPerSalt) {
  for (std::uint64_t salt : {1ull, 2ull, 0xdeadbeefull})
    EXPECT_EQ(tieOrder(salt, 16), tieOrder(salt, 16)) << "salt " << salt;
}

TEST(Simulator, TieSaltPermutesWithoutLosingEvents) {
  const std::vector<int> fifo = tieOrder(0, 16);
  bool any_differs = false;
  for (std::uint64_t salt = 1; salt <= 4; ++salt) {
    std::vector<int> order = tieOrder(salt, 16);
    ASSERT_EQ(order.size(), 16u);
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, fifo);  // a permutation: every event fired exactly once
    if (order != fifo) any_differs = true;
  }
  // The permutation is not a no-op: some salt reorders the ties.
  EXPECT_TRUE(any_differs);
}

TEST(Simulator, TieSaltNeverReordersAcrossTimestamps) {
  Simulator s;
  s.setTieSalt(0x5a5a5a5aull);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    s.scheduleAt(static_cast<SimTime>(10 * (i + 1)),
                 [&order, i] { order.push_back(i); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SimulatorDeathTest, TieSaltRejectsPopulatedQueue) {
  Simulator s;
  s.schedule(5, [] {});
  EXPECT_DEATH(s.setTieSalt(1), "tie salt must be set");
}

TEST(Simulator, FiresDeepBacklogInTimeSeqOrder) {
  // A deep backlog scheduled up front, drained in one pass.  Order must be
  // (time, seq) exactly.
  Simulator s;
  std::mt19937_64 rng(99);
  std::vector<std::pair<SimTime, int>> expect;
  std::vector<int> fired;
  for (int i = 0; i < 10000; ++i) {
    const SimTime t = rng() % 1000;
    expect.emplace_back(t, i);
    s.scheduleAt(t, [&fired, i] { fired.push_back(i); });
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  s.run();
  ASSERT_EQ(fired.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_EQ(fired[i], expect[i].second) << "position " << i;
}

TEST(SimTime, CycleConversionsMatch200MHz) {
  EXPECT_EQ(cyclesToNs(1), 5u);
  EXPECT_EQ(nsToCycles(5), 1u);
  EXPECT_EQ(nsToCycles(cyclesToNs(2'500'000)), 2'500'000u);  // 12.5 ms
}

TEST(SimTime, TransferCostMatchesBandwidth) {
  // 1 MB at 45 MB/s ~ 22.2 ms (the paper's memcpy calibration).
  const Duration ns = transferNs(1024 * 1024, 45.0);
  EXPECT_NEAR(nsToMs(ns), 23.3, 0.4);
  // 400 KB WC read at 14 MB/s ~ 28.6 ms.
  EXPECT_NEAR(nsToMs(transferNs(400 * 1024, 14.0)), 29.3, 0.4);
}

TEST(SimTime, BandwidthInverse) {
  const Duration ns = transferNs(1'000'000, 80.0);
  EXPECT_NEAR(bandwidthMBps(1'000'000, ns), 80.0, 0.01);
}

}  // namespace
}  // namespace gangcomm::sim
