// Host memory-system cost model.
//
// The paper's buffer-switch overhead (§4.2, Figs 7 & 9) is entirely
// determined by three measured copy bandwidths on the 200 MHz Pentium-Pro
// testbed:
//
//   * regular (cacheable) memcpy:            ~45 MB/s
//   * write-combining *read* (NIC SRAM PIO): ~14 MB/s
//   * write-combining *write*:               ~80 MB/s
//
// The FM send queue lives in NIC SRAM mapped write-combining, so pulling it
// off the card is the slow path even though the receive queue is 2.5x
// larger — exactly the asymmetry the paper reports.  We encode the costs as
// a (source-region, destination-region) table.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace gangcomm::host {

/// Where a buffer physically lives.
enum class MemRegion {
  kHost,      // ordinary cacheable DRAM (includes the pinned DMA buffer)
  kNicSram,   // NIC on-card memory, mapped write-combining over PIO
};

struct MemoryModelConfig {
  double host_to_host_mbps = 45.0;   // regular memcpy
  double nic_to_host_mbps = 14.0;    // WC read dominates
  double host_to_nic_mbps = 80.0;    // WC write
  double nic_to_nic_mbps = 12.0;     // staged via host; never on a hot path
  // Pure reads used by the valid-packet header scan: a cacheable read stream
  // runs at roughly twice the memcpy rate; a WC read is the same 14 MB/s.
  double host_read_mbps = 90.0;
  double nic_read_mbps = 14.0;
};

class MemoryModel {
 public:
  MemoryModel() = default;
  explicit MemoryModel(const MemoryModelConfig& cfg) : cfg_(cfg) {}

  const MemoryModelConfig& config() const { return cfg_; }

  /// Cost (ns of host CPU) to copy `bytes` from `src` to `dst`.
  sim::Duration copyCost(MemRegion src, MemRegion dst,
                         std::uint64_t bytes) const;

  /// Cost (ns) to read `bytes` from `region` without writing them anywhere
  /// (header scans during the improved buffer switch).
  sim::Duration readCost(MemRegion region, std::uint64_t bytes) const;

  /// Effective bandwidth (MB/s) of a src->dst copy; exposed for benches.
  double copyBandwidth(MemRegion src, MemRegion dst) const;

 private:
  MemoryModelConfig cfg_;
};

}  // namespace gangcomm::host
