// Discrete-event simulation core.
//
// A Simulator owns a time-ordered queue of events.  Events scheduled for the
// same instant fire in the order they were scheduled (a stable tie-break via
// a monotonically increasing sequence number), which makes every run fully
// deterministic.  Events may be cancelled via the EventHandle returned at
// scheduling time.
//
// Engine layout: event state lives in a structure-of-arrays slab indexed by
// slot — a seqs column, a links column, and the actions, which sit in fixed
// 256-slot chunks that never move once allocated.  Slots are recycled
// through a free list threaded across the links column, so steady-state
// scheduling performs no allocation.  Each pending slot is queued in one of
// two places:
//   * the heap — an indexed 4-ary min-heap of packed (time, key, slot)
//     entries.  The key is the event's tie key (its seq, or a salted
//     bijection of it; see setTieSalt), stored inline, so the sift loops
//     order entries without touching the slab.  The slot's links entry
//     remembers its heap position, so cancel() removes it in place in
//     O(log n) — no tombstones and no hash lookups on the firing path;
//   * the same-instant lane — an append-only FIFO of (seq, slot) for events
//     scheduled at now() (past-clamped ones included) while the tie salt is
//     0.  They skip the heap entirely.  The model's two commonest
//     same-instant hops, the NIC send scan and the wake of a process whose
//     CPU is free, are direct calls, so the lane carries only the remaining
//     zero-delay events.  Every heap event due at now() was scheduled
//     before the clock reached now(), so its seq is smaller than any lane
//     entry's: the lane fires only once nothing else is due at now(), which
//     is exactly the (time, seq) order.
// The heap is the only queue discipline: the modelled clusters keep at most
// a few hundred events pending, too few for a bucketed queue to pay.
// The lane cancels lazily: the slot is freed at once and the stale entry
// (its seq no longer matches the slot) is skipped later.  A handle is live
// exactly when the slot it points at still carries its sequence number, an
// O(1) check.  scheduleAt() constructs the action
// directly in its slab slot (util::SboFunction::emplace), keeping packet-
// forwarding closures inline instead of behind a per-event heap allocation,
// and fireNext() invokes it where it lies: the slot's seq is cleared first,
// so the running event is already fired to cancel(), and the slot is only
// recycled after the action returns — chunks never move, so the action may
// schedule freely while it runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/sbo_function.hpp"

namespace gangcomm::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
/// `id` is the event's unique sequence number; `slot` is an internal slab
/// hint that lets the simulator find the event without a lookup table.
struct EventHandle {
  std::uint64_t id = 0;
  std::uint32_t slot = 0;
  bool valid() const { return id != 0; }
};

/// Observer notified at every event boundary (immediately after an event's
/// action returns, before the next one is popped).  Used by the gcverify
/// invariant engine to audit global state between events.  Observers must
/// never schedule or cancel events and never charge simulated time: they are
/// read-only instrumentation, like obs::TraceRecorder.
class EventObserver {
 public:
  virtual ~EventObserver() = default;
  /// `now` is the timestamp of the event that just fired; `fired` is the
  /// total number of events fired so far (including this one).
  virtual void onEventBoundary(SimTime now, std::uint64_t fired) = 0;
};

/// Logical-process domains for causality profiling (gcprof): node, nic, and
/// link are the per-machine and wire domains; sim is the engine itself (and
/// the default tag for unscoped events); global covers the control plane
/// (parpar daemons, control network, timeline observers).
enum class LpDomain : std::uint8_t {
  kSim = 0,
  kNode = 1,
  kNic = 2,
  kLink = 3,
  kGlobal = 4,
};

/// Pack an LP identity into the 32-bit tag carried per event: domain in the
/// top byte, instance index (node id, nic id, ...) in the low 24 bits.
constexpr std::uint32_t lpTag(LpDomain d, std::uint32_t index = 0) {
  return (static_cast<std::uint32_t>(d) << 24) | (index & 0xffffffu);
}

constexpr LpDomain lpTagDomain(std::uint32_t tag) {
  return static_cast<LpDomain>(tag >> 24);
}

constexpr std::uint32_t lpTagIndex(std::uint32_t tag) {
  return tag & 0xffffffu;
}

/// Tag of events scheduled outside any LpScope (setup code, the engine).
inline constexpr std::uint32_t kLpUnscoped = lpTag(LpDomain::kSim, 0);

/// Causality hook: installed with Simulator::setCausalitySink(), it sees
/// every schedule/cancel/fire transition plus the LP scope active at each
/// scheduleAt() call site (via LpScope).  All calls are behind the same
/// single-pointer-test guard as EventObserver, so the hook costs one
/// predictable branch per transition when disabled.  Sinks must never
/// schedule or cancel events: they are read-only instrumentation.
class CausalitySink {
 public:
  virtual ~CausalitySink() = default;
  /// A new event `id` was scheduled while event `parent` was firing
  /// (parent 0 = scheduled outside any event, e.g. during setup), under the
  /// LP tag `lp` active at the scheduleAt() call site (see LpScope).
  virtual void onSchedule(std::uint64_t id, std::uint64_t parent,
                          SimTime sched_at, SimTime fire_at,
                          std::uint32_t lp) = 0;
  /// Event `id` was cancelled while still pending.
  virtual void onCancel(std::uint64_t id) = 0;
  /// Event `id` is about to run at simulated time `t`.
  virtual void onFireBegin(std::uint64_t id, SimTime t) = 0;
  /// Event `id`'s action returned.
  virtual void onFireEnd(std::uint64_t id) = 0;
};

class Simulator {
 public:
  // Sized so the dominant hot-path closure — `this` plus a net::Packet by
  // value — stays inline in the event node.
  using Action = util::SboFunction<void(), 112>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `t`.  Scheduling into the past is
  /// a programming error; the event is clamped to now() and counted in
  /// pastScheduleClamps() so tests can assert none occurred.  `fn` is any
  /// void() callable, constructed directly in the event's slab slot; an
  /// Action rvalue is moved in.
  template <typename F>
  EventHandle scheduleAt(SimTime t, F&& fn) {
    const std::uint32_t slot = allocSlot();
    action(slot).emplace(std::forward<F>(fn));
    return enqueue(t, slot);
  }

  /// Schedule `fn` to run `delay` ns from now.
  template <typename F>
  EventHandle schedule(Duration delay, F&& fn) {
    return scheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a pending event.  Returns true if the event was still pending;
  /// cancelling an already-fired or already-cancelled handle is a no-op that
  /// returns false.
  bool cancel(EventHandle h);

  /// Run until the event queue drains.  Returns the number of events fired.
  std::uint64_t run();

  /// Run until simulated time reaches `t` (events at exactly `t` fire) or the
  /// queue drains, whichever comes first.  now() advances to `t` if the run
  /// was not stopped early.
  std::uint64_t runUntil(SimTime t);

  /// Run at most `n` further events.
  std::uint64_t runSteps(std::uint64_t n);

  /// True if no live events are pending.
  bool empty() const {
    return heap_.empty() && lane_live_ == 0;
  }

  /// Number of pending (non-cancelled) events.
  std::uint64_t pendingEvents() const {
    return heap_.size() + lane_live_;
  }

  /// Total events fired since construction.
  std::uint64_t firedEvents() const { return fired_; }

  /// Times scheduleAt() was called with a time in the past.
  std::uint64_t pastScheduleClamps() const { return past_clamps_; }

  /// Pending events successfully cancelled since construction.
  std::uint64_t cancelledEvents() const { return cancels_; }

  /// High-water mark of pendingEvents() observed at schedule time.
  std::uint64_t queueDepthHighWater() const { return depth_hwm_; }

  /// Abort a run() in progress from within an event callback; the queue is
  /// left intact so the caller can inspect or resume.
  void requestStop() { stop_requested_ = true; }

  /// Install (or clear, with nullptr) the event-boundary observer.  The
  /// pointer is not owned and must outlive any run with it installed.
  void setObserver(EventObserver* obs) { observer_ = obs; }

  /// Install (or clear, with nullptr) the causality sink.  The pointer is
  /// not owned and must outlive any run with it installed.  Install before
  /// scheduling workload events: events already pending are unknown to the
  /// sink and fire unrecorded.
  void setCausalitySink(CausalitySink* sink) { causality_ = sink; }

  /// The active causality sink (nullptr when profiling is off).
  CausalitySink* causalitySink() const { return causality_; }

  /// The LP tag events scheduled right now would carry (see LpScope).
  std::uint32_t currentLp() const { return cur_lp_; }

  /// The same-timestamp tiebreak key is the scheduling sequence number:
  /// events at equal times fire in the order they were scheduled.  A
  /// non-zero salt deterministically permutes that order — ties compare by
  /// splitmix64(seq ^ salt), a bijection, so keys never collide — and
  /// tools/gcsweep can exercise alternative legal orderings of logically
  /// concurrent events.  Every salt still
  /// yields a total order and hence a fully reproducible run; salt 0
  /// restores FIFO (and enables the same-instant lane).  Must be called
  /// while the queue is empty (changing the keys under a populated heap
  /// would corrupt it).
  void setTieSalt(std::uint64_t salt);

  /// The active same-timestamp permutation salt (0 = natural FIFO order).
  std::uint64_t tieSalt() const { return tie_salt_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  // links_ sentinel for "queued in the lane".
  static constexpr std::uint32_t kInLane = 0xfffffffdu;
  // Actions live in fixed chunks of 2^kChunkShift slots; a chunk never
  // moves, so an action can run in place while the slab grows.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  // Packed heap entry: the sift loops compare (time, key) without touching
  // the slab.
  struct HeapEntry {
    SimTime time;
    std::uint64_t key;
    std::uint32_t slot;
  };

  // Same-instant lane entry; `seq` revalidates the slot (stale after a lazy
  // cancel).
  struct LaneEntry {
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // (time, key) strict weak order between heap entries; keys are unique, so
  // this is a total order and the firing sequence is fully deterministic.
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  // The heap key of event `seq`, computed once when it enters the heap.
  std::uint64_t tieKey(std::uint64_t seq) const {
    return tie_salt_ == 0 ? seq : mixSeq(seq);
  }

  // splitmix64 finalizer over (seq ^ salt): a cheap bijective mixer, so
  // distinct seqs keep distinct keys and the salted order stays total.
  std::uint64_t mixSeq(std::uint64_t seq) const {
    std::uint64_t z = seq ^ tie_salt_;
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  Action& action(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  // Take a slot off the free list, growing the slab when it is empty.  The
  // slot's action is empty and its seq is 0 until enqueue().
  std::uint32_t allocSlot() {
    if (free_head_ == kNil) return growSlab();
    const std::uint32_t slot = free_head_;
    free_head_ = links_[slot];
    return slot;
  }
  // Append a slot to the slab (and, every 256 slots, an action chunk).
  std::uint32_t growSlab();
  // Stamp `slot` with the next seq and queue it at `t`.
  EventHandle enqueue(SimTime t, std::uint32_t slot);
  void siftUp(std::size_t i);
  void siftDown(std::size_t i);
  // Remove the heap entry at position `pos`, restoring the heap property.
  void removeAt(std::size_t pos);
  // Release a slot's action and return the slot to the free list.  The
  // caller has already zeroed its seq.
  void recycle(std::uint32_t slot);
  // Earliest pending event time (kNever when drained).
  SimTime nextEventTime() const;
  // Pops the lane's oldest live entry.  Precondition: lane_live_ > 0.
  std::uint32_t popLane();
  // Fires the earliest live event.  Precondition: !empty().
  void fireNext();

  // Slab columns (structure-of-arrays), indexed by slot.  seqs_[s] == 0
  // marks a free slot or the one whose action is running.  links_[s] is the
  // slot's heap position while queued in the heap, kInLane while queued in
  // the lane, and the next free slot index while on the free list.
  std::vector<std::uint64_t> seqs_;
  std::vector<std::uint32_t> links_;
  std::vector<std::unique_ptr<Action[]>> chunks_;

  std::vector<HeapEntry> heap_;  // 4-ary min-heap by before()
  std::vector<LaneEntry> lane_;          // same-instant FIFO (salt 0 only)
  std::size_t lane_head_ = 0;            // next lane_ entry to fire
  std::uint64_t lane_live_ = 0;          // non-cancelled lane entries
  std::uint32_t free_head_ = kNil;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::uint64_t past_clamps_ = 0;
  std::uint64_t cancels_ = 0;
  std::uint64_t depth_hwm_ = 0;
  std::uint64_t tie_salt_ = 0;
  // Sequence number of the event whose action is currently running; 0
  // between events.  Only read when causality_ is installed: it is the
  // parent id stamped on events scheduled from inside the running action.
  std::uint64_t firing_seq_ = 0;
  // LP tag stamped on events scheduled right now; LpScope saves/restores it
  // unconditionally (two stores beat a branch at two dozen hot call sites).
  std::uint32_t cur_lp_ = kLpUnscoped;
  bool stop_requested_ = false;
  EventObserver* observer_ = nullptr;  // not owned; null-checked per event
  CausalitySink* causality_ = nullptr;  // not owned; null-checked per call

  friend class LpScope;
};

/// RAII LP scope for causality profiling.  Construction marks every event
/// scheduled until destruction as belonging to logical process `lp`
/// (see lpTag()); scopes nest and restore the enclosing tag on exit.  The
/// tag is a plain save/restore of one engine word — branch-free whether or
/// not a sink is installed — so scopes stay on hot paths permanently; the
/// tag is only *read* behind scheduleAt()'s sink null-check.
class LpScope {
 public:
  LpScope(Simulator& sim, std::uint32_t lp) : sim_(sim), prev_(sim.cur_lp_) {
    sim.cur_lp_ = lp;
  }
  ~LpScope() { sim_.cur_lp_ = prev_; }
  LpScope(const LpScope&) = delete;
  LpScope& operator=(const LpScope&) = delete;

 private:
  Simulator& sim_;
  const std::uint32_t prev_;
};

}  // namespace gangcomm::sim
