// Host CPU serialization and accounting.
//
// Each node has one CPU (a 200 MHz Pentium-Pro in the paper's testbed).  A
// HostCpu serializes the work charged by whoever holds it — the running
// application process filling FM send queues, or the node daemon performing
// the buffer switch while the application is SIGSTOPped — and tracks busy
// time for utilization reporting.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace gangcomm::host {

/// Host work one batch may book ahead before it yields the CPU: a process
/// step (app::Process::batchExhausted) and a go-back-N resend burst
/// (fm::FmLib) each stop once the CPU is this far behind, so the noded's
/// flag writes and the extract loop interleave with them.
inline constexpr sim::Duration kBatchBudget = 200 * sim::kMicrosecond;

class HostCpu {
 public:
  /// Earliest time at or after `now` the CPU can accept new work.
  sim::SimTime availableAt(sim::SimTime now) const {
    return busy_until_ > now ? busy_until_ : now;
  }

  /// Reserve `work` ns of CPU starting no earlier than `now`; returns the
  /// completion time.  Work is non-preemptive at this granularity (callers
  /// charge in small batches).
  sim::SimTime acquire(sim::SimTime now, sim::Duration work) {
    const sim::SimTime start = availableAt(now);
    busy_until_ = start + work;
    busy_total_ += work;
    return busy_until_;
  }

  /// True if the CPU is idle at `now`.
  bool idleAt(sim::SimTime now) const { return busy_until_ <= now; }

  /// Total busy nanoseconds since construction.
  sim::Duration busyTotal() const { return busy_total_; }

  /// Busy fraction over [0, now].
  double utilization(sim::SimTime now) const {
    return now == 0 ? 0.0
                    : static_cast<double>(busy_total_) /
                          static_cast<double>(now);
  }

 private:
  sim::SimTime busy_until_ = 0;
  sim::Duration busy_total_ = 0;
};

}  // namespace gangcomm::host
