// The buffer-switch algorithms of paper §3.2 / §4.2 (Figure 4).
//
// Full copy: the whole send queue is pulled off the NIC (write-combining
// *read*, the 14 MB/s slow path) and the whole pinned receive queue is
// memcpy'd out; then the incoming job's images are written back (WC write at
// 80 MB/s, memcpy at 45 MB/s).  Cost is capacity-determined and independent
// of occupancy — the flat ~14 Mcycle band of Figure 7.
//
// Valid-only copy: the queue head/tail pointers bound the occupied region,
// so only valid packets move; cost is occupancy-determined — the < 2.5
// Mcycle, packet-count-correlated band of Figure 9.
#pragma once

#include <cstdint>

#include "glue/backing_store.hpp"
#include "glue/policy.hpp"
#include "host/memory_model.hpp"
#include "net/nic.hpp"
#include "sim/time.hpp"

namespace gangcomm::glue {

struct SwitcherConfig {
  /// Fixed bookkeeping per copy direction in the valid-only scheme: reading
  /// queue pointers over PIO, descriptor setup.
  sim::Duration valid_scan_base_ns = 10 * sim::kMicrosecond;
};

struct CopyOutcome {
  // Never negative: copy costs never run the clock backwards.
  sim::Duration cost_ns = 0;
  std::uint32_t send_pkts = 0;
  std::uint32_t recv_pkts = 0;
  std::uint64_t bytes = 0;
};

class BufferSwitcher {
 public:
  explicit BufferSwitcher(const host::MemoryModel& mem, SwitcherConfig cfg = {})
      : mem_(mem), cfg_(cfg) {}

  /// Move the live context's queue contents + credit state + host bindings
  /// into `saved`, returning the modeled cost.  The network must be flushed
  /// (no DMA in flight) and the owning process stopped.
  CopyOutcome copyOut(net::ContextSlot& live, SavedContext& saved,
                      BufferPolicy policy) const;

  /// Restore `saved` into the live context (the caller retags the slot).
  CopyOutcome copyIn(SavedContext& saved, net::ContextSlot& live,
                     BufferPolicy policy) const;

 private:
  const host::MemoryModel& mem_;
  SwitcherConfig cfg_;
};

}  // namespace gangcomm::glue
