// FM library configuration and the credit arithmetic at the heart of the
// paper.
//
// Flow control (paper §2.2): every sender holds C0 credits toward every
// other node; a credit is one packet of guaranteed space in the receiver's
// queue.  C0 is sized for the worst case — all p nodes blasting one victim:
//
//   partitioned (original FM):  per-context queue Br' = Br/n, shared among
//                               n*p potential senders  =>  C0 = Br / (n^2 p)
//   buffer switching (paper):   whole queue Br, p potential senders
//                                                        =>  C0 = Br / p
//
// The n^2 collapse of the first formula produces Figure 5; the second
// formula's independence from n produces Figure 6.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.hpp"

namespace gangcomm::fm {

struct FmConfig {
  // Host-side costs (200 MHz Pentium-Pro, FM 2.0-era constants).
  sim::Duration host_per_message_ns = 2000;  // fm_send call overhead
  // Configs keep the per-packet host cost within [100 ns, 1 ms].
  sim::Duration host_per_packet_ns = 1500;   // per-fragment bookkeeping
  double pio_write_mbps = 80.0;              // write-combining fill of the
                                             // NIC send queue (paper §4.2)
  sim::Duration extract_per_packet_ns = 1000;
  sim::Duration handler_base_ns = 500;
  double recv_touch_mbps = 0.0;  // >0: handler streams over the payload
  // Configs keep the refill cost within [100 ns, 1 ms].
  sim::Duration refill_send_ns = 1000;  // host cost to emit a refill packet

  /// Receiver refills a sender once it has consumed this fraction of the
  /// sender's credit allotment (the "low water mark" policy).
  double refill_fraction = 0.5;

  /// Optional go-back-N retransmission layer (NOT part of FM — the paper is
  /// explicit that FM has none, §2.2).  It exists to quantify what FM saves
  /// by assuming a lossless SAN, and to make the SHARE-style no-flush
  /// ablation (related work §5) able to complete jobs despite its id-check
  /// discards.  When enabled:
  ///   * every data packet carries a cumulative ack; refills always carry
  ///     one and are sent per delivered packet,
  ///   * retransmissions spend no new credit (the original reservation
  ///     stands) and receivers refill only in-order deliveries,
  ///   * out-of-order and duplicate packets are shed by the receiver.
  bool enable_retransmit = false;
  /// Base retransmit timeout.  Must exceed the drain time of a full credit
  /// window (C0 packets x ~21 us service, kFullSlotServiceNs) or every deep
  /// burst produces spurious retransmissions; consecutive timeouts back off
  /// exponentially (x2 up to x8) and reset on ack progress.  Enforced by
  /// FmLib::validateConfig at construction.
  sim::Duration retransmit_timeout_ns = 10 * sim::kMillisecond;
  /// Packets per host burst of a go-back-N sweep.  A timeout can owe a full
  /// C0-deep window; pushing every PIO at one instant would book
  /// milliseconds of host CPU in a single event and stall everything behind
  /// it (notably the noded's halt flag write at a gang switch).  The sweep
  /// instead issues this many packets (fewer once the CPU is booked
  /// host::kBatchBudget ahead), then continues when the CPU has drained
  /// them — the serial cost is identical, but other host work interleaves.
  /// Must be >= 1 (validateConfig).
  int rtx_burst_packets = 16;
  /// Shed delivered packets whose integrity tag fails re-derivation at
  /// extract() instead of treating them as a protocol bug (the FM checksum
  /// path).  Required when the fabric's corruption faults are armed; the
  /// Cluster turns it on automatically.  A shed packet never advances the
  /// receive window and never earns a refill — without a retransmission
  /// layer its credit is lost exactly like a wire drop.
  bool checksum_shed = false;
};

/// Worst-case per-packet service time (wire serialization + DMA + extract
/// of one full 1560-byte slot at the paper's constants, ~21 us) used to
/// size retransmit timeouts against the drain time of a C0-deep window.
inline constexpr sim::Duration kFullSlotServiceNs = 21'000;

struct CreditMath {
  /// Receive-queue slots each context gets when the arena is divided among
  /// `max_contexts` contexts (Figure 1).
  static int partitionedRecvSlots(int total_recv_slots, int max_contexts) {
    return total_recv_slots / std::max(1, max_contexts);
  }
  static int partitionedSendSlots(int total_send_slots, int max_contexts) {
    return total_send_slots / std::max(1, max_contexts);
  }

  /// Original FM: C0 = (Br/n) / (n*p).
  static int partitionedCredits(int total_recv_slots, int max_contexts,
                                int processors) {
    const int per_ctx = partitionedRecvSlots(total_recv_slots, max_contexts);
    return per_ctx / std::max(1, max_contexts * processors);
  }

  /// Buffer switching: C0 = Br / p.
  static int switchedCredits(int total_recv_slots, int processors) {
    return total_recv_slots / std::max(1, processors);
  }

  /// Refill threshold: consumed packets per peer before a refill is owed.
  static int refillThreshold(int c0, double fraction) {
    const int t = static_cast<int>(static_cast<double>(c0) * fraction);
    return std::max(1, t);
  }
};

}  // namespace gangcomm::fm
