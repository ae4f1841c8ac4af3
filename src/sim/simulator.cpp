#include "sim/simulator.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/check.hpp"

namespace gangcomm::sim {

void Simulator::setTieSalt(std::uint64_t salt) {
  GC_CHECK_MSG(empty(),
               "tie salt must be set while the event queue is empty");
  tie_salt_ = salt;
}

std::uint32_t Simulator::growSlab() {
  const auto slot = static_cast<std::uint32_t>(seqs_.size());
  if ((slot & kChunkMask) == 0) {
    // gclint: allow(hot-make-shared): one chunk per 256 new slots; the slab
    // never shrinks, so a steady state allocates nothing
    chunks_.push_back(std::make_unique<Action[]>(kChunkMask + 1));
  }
  seqs_.emplace_back();
  links_.emplace_back();
  return slot;
}

EventHandle Simulator::enqueue(SimTime t, std::uint32_t slot) {
  if (t < now_) {
    ++past_clamps_;
    t = now_;
  }
  const std::uint64_t seq = next_seq_++;
  seqs_[slot] = seq;
  if (t == now_ && tie_salt_ == 0) {
    // Fires after everything already due at now(): see the header comment.
    links_[slot] = kInLane;
    lane_.push_back(LaneEntry{seq, slot});
    ++lane_live_;
  } else {
    heap_.push_back(HeapEntry{t, tieKey(seq), slot});
    siftUp(heap_.size() - 1);
  }
  const std::uint64_t depth = pendingEvents();
  if (depth > depth_hwm_) depth_hwm_ = depth;
  if (causality_ != nullptr)
    causality_->onSchedule(seq, firing_seq_, now_, t, cur_lp_);
  return EventHandle{seq, slot};
}

bool Simulator::cancel(EventHandle h) {
  if (!h.valid()) return false;
  // A handle is live exactly when the slab slot it points at still carries
  // its sequence number: a fired or cancelled event's slot has seq 0 (or a
  // later event's seq once recycled), so stale cancels are exact no-ops.
  if (h.slot >= seqs_.size()) return false;
  if (seqs_[h.slot] != h.id) return false;
  const std::uint32_t link = links_[h.slot];
  if (link == kInLane) {
    // Lazy cancel: free the slot now; popLane() skips the stale entry.
    if (--lane_live_ == 0) {
      lane_.clear();
      lane_head_ = 0;
    }
  } else {
    removeAt(link);
  }
  seqs_[h.slot] = 0;
  recycle(h.slot);
  ++cancels_;
  if (causality_ != nullptr) causality_->onCancel(h.id);
  return true;
}

void Simulator::siftUp(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    links_[heap_[i].slot] = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = e;
  links_[e.slot] = static_cast<std::uint32_t>(i);
}

void Simulator::siftDown(std::size_t i) {
  const HeapEntry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * 4 + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    links_[heap_[i].slot] = static_cast<std::uint32_t>(i);
    i = best;
  }
  heap_[i] = e;
  links_[e.slot] = static_cast<std::uint32_t>(i);
}

void Simulator::removeAt(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    heap_[pos] = last;
    links_[last.slot] = static_cast<std::uint32_t>(pos);
    // The displaced tail entry may belong above or below `pos`; at the
    // root there is nothing above it.
    siftDown(pos);
    if (pos > 0 && heap_[pos].slot == last.slot) siftUp(pos);
  }
}

void Simulator::recycle(std::uint32_t slot) {
  action(slot).reset();
  links_[slot] = free_head_;
  free_head_ = slot;
}

SimTime Simulator::nextEventTime() const {
  if (lane_live_ != 0) return now_;
  return heap_.empty() ? kNever : heap_[0].time;
}

std::uint32_t Simulator::popLane() {
  for (;;) {
    const LaneEntry e = lane_[lane_head_++];
    if (seqs_[e.slot] != e.seq) continue;  // lazily-cancelled entry
    if (--lane_live_ == 0) {
      lane_.clear();
      lane_head_ = 0;
    }
    return e.slot;
  }
}

void Simulator::fireNext() {
  std::uint32_t slot;
  if (lane_live_ != 0 && (heap_.empty() || heap_[0].time != now_)) {
    slot = popLane();
  } else {
    slot = heap_[0].slot;
    now_ = heap_[0].time;
    removeAt(0);
  }
  // The slot's seq is gone once cleared; latch it only when profiling.
  const std::uint64_t seq = causality_ != nullptr ? seqs_[slot] : 0;
  // The action runs where it lies.  Clearing the seq first makes the event
  // already fired to cancel(); the slot stays off the free list until the
  // action returns, and its chunk never moves, so the action may schedule
  // (growing the slab) or cancel while it runs.
  seqs_[slot] = 0;
  ++fired_;
  Action& fn = action(slot);
  if (causality_ != nullptr) {
    // Stamp this event as the parent of everything its action schedules.
    firing_seq_ = seq;
    causality_->onFireBegin(seq, now_);
    fn();
    causality_->onFireEnd(seq);
    firing_seq_ = 0;
  } else {
    fn();
  }
  recycle(slot);
  // Event boundary: the action (and everything it ran synchronously) is
  // done, the next event has not started.  Observers are read-only.
  if (observer_ != nullptr) observer_->onEventBoundary(now_, fired_);
}

std::uint64_t Simulator::run() {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!empty() && !stop_requested_) {
    fireNext();
    ++n;
  }
  return n;
}

std::uint64_t Simulator::runUntil(SimTime t) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!empty() && !stop_requested_ && nextEventTime() <= t) {
    fireNext();
    ++n;
  }
  if (!stop_requested_ && now_ < t) now_ = t;
  return n;
}

std::uint64_t Simulator::runSteps(std::uint64_t steps) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (n < steps && !empty() && !stop_requested_) {
    fireNext();
    ++n;
  }
  return n;
}

}  // namespace gangcomm::sim
