// Ladder queue: the far-future band of the event engine.
//
// The classic DES priority-queue bottleneck is that bursty workloads (a NIC
// injecting a packet train schedules dozens of events a few microseconds
// out) pay O(log n) heap churn per event against a deep backlog.  The ladder
// queue (Tang, Goh, Thng 2005 — itself a refinement of R. Brown's calendar
// queue) makes those inserts O(1): events far in the future land in an
// unsorted overflow band ("top"), the near future is partitioned into an
// array of constant-width time buckets (one "rung"), and only the bucket
// currently being drained is handed to an exact comparison sort.
//
// This implementation keeps exactly one rung and reuses the simulator's
// indexed 4-ary heap as the "bottom" sorting tier, which preserves the
// (time, tie-salt, seq) total order bit-for-bit: a bucket is a pure
// time-range partition (integer timestamps, so equal-time events can never
// be split across buckets), and the heap comparator alone decides every
// intra-bucket ordering.  The structure is therefore an accelerator, not an
// approximation — any run fires in the identical sequence under either
// queue at any tie salt.
//
// Ownership split with sim::Simulator: the ladder stores (time, seq, slot)
// triples and never looks inside the slab.  Cancellation is lazy — the
// simulator frees the slab slot immediately and the stale entry (whose seq
// no longer matches the slot) is filtered out when its bucket transfers to
// the heap.  Seqs are globally unique and never reused, so a recycled slot
// can never masquerade as a cancelled event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace gangcomm::sim {

/// One deferred event as the ladder stores it.  `seq` revalidates the slab
/// slot at transfer time (stale after a lazy cancel).
struct LadderEntry {
  SimTime time;
  std::uint64_t seq;
  std::uint32_t slot;
};

class LadderQueue {
 public:
  /// Events at or after this time may be inserted into the ladder; events
  /// before it belong in the caller's bottom heap.  Monotonically
  /// non-decreasing: it advances to the end of each bucket as the bucket
  /// transfers out, so the ladder never holds an event that should fire
  /// before something already handed to the heap.
  SimTime bottomLimit() const { return bottom_limit_; }

  /// True while any entry (live or stale) is stored.
  bool hasEntries() const { return entries_ != 0; }

  /// Insert an event.  Precondition: `t >= bottomLimit()`.  O(1): either a
  /// bucket append (t inside the active rung) or an overflow-band append.
  void insert(SimTime t, std::uint64_t seq, std::uint32_t slot);

  /// Pop the earliest non-empty time span — one rung bucket, or the whole
  /// overflow band when it is small or degenerate — appending its entries
  /// (stale included; the caller filters by seq) to `out` and advancing
  /// bottomLimit() past the span.  Returns false when the ladder is empty.
  bool transferNext(std::vector<LadderEntry>& out);

  /// Drop every stored entry.  Only correct when the caller knows all
  /// entries are stale (its live count hit zero).  bottomLimit() is kept —
  /// it must never move backwards.
  void clear();

 private:
  // Rebuild the rung from the overflow band.  Precondition: the band is
  // non-empty, spans more than one timestamp, and is large enough to be
  // worth bucketing.
  void buildRungFromTop();

  // Bucket-count cap: bounds rung memory; a bucket that ends up oversized
  // is still exact (the heap sorts it), just less incremental.
  static constexpr std::size_t kMaxBuckets = 1024;
  // Bands at or below this size skip the rung and go straight to the heap:
  // heapifying a handful of entries beats bucketing them.
  static constexpr std::size_t kSmallTop = 64;

  SimTime bottom_limit_ = 0;
  std::uint64_t entries_ = 0;  // live + stale

  // Active rung: buckets_[i] covers [rung_start_ + i*w, rung_start_ + (i+1)*w).
  bool rung_active_ = false;
  SimTime rung_start_ = 0;
  Duration bucket_width_ = 1;
  std::size_t cur_bucket_ = 0;
  std::vector<std::vector<LadderEntry>> buckets_;

  // Overflow band beyond the active rung (unsorted).  min/max are tracked
  // over inserts — stale entries can widen them, which only affects bucket
  // sizing, never ordering.
  std::vector<LadderEntry> top_;
  SimTime top_min_ = kNever;
  SimTime top_max_ = 0;

  std::vector<std::vector<LadderEntry>> pool_;  // recycled bucket storage
};

}  // namespace gangcomm::sim
