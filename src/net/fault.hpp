// Per-link fault model for the simulated Myrinet SAN.
//
// The paper's flow control (§2.2) assumes an essentially lossless network;
// everything here exists to take that assumption away in a controlled,
// reproducible way.  Each *directed* (src, dst) hop carries its own fault
// configuration and its own seeded RNG stream, so the fate of a flow's
// packets depends only on (fault seed, link, that link's traffic) — adding
// unrelated traffic on other links can never shift which packets a flow
// loses, and the same seed regenerates the same fault pattern at any
// sweep-runner thread count.
//
// Four probabilistic fault classes apply to data packets (control packets
// are hardware-consumed in the paper's design and are only lost to
// fail-stop):
//
//   * loss       — the packet vanishes on the wire (credit-loss hazard),
//   * corrupt    — the packet is delivered with a poisoned integrity tag
//                  (payload damage; header routing/ack fields stay intact),
//   * jitter     — bounded uniform extra switch latency,
//   * reorder    — the packet takes an alternate path around the blocking
//                  input link and may overtake earlier traffic.
//
// Fail-stop events kill a directed link, a NIC (both directions), or a
// whole node at a given simulated time; dead links drop *everything*,
// control packets included.  At the fabric level a node failure is its NIC
// going dark — a fail-stopped node is silent on the SAN.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace gangcomm::net {

/// Probabilistic fault knobs for one directed link (loss / latency /
/// max_jitter per path, after the nckernel simulator's path shape).
struct LinkFaults {
  double loss = 0.0;     // P(drop) per data packet
  double corrupt = 0.0;  // P(deliver with a poisoned tag) per data packet
  double reorder = 0.0;  // P(overtake the input-link FIFO) per data packet
  /// Uniform extra switch latency in [0, max_jitter_ns] per data packet.
  sim::Duration max_jitter_ns = 0;
  /// Extra detour delay in [0, max_reorder_ns] for a reordered packet.
  sim::Duration max_reorder_ns = 0;

  bool any() const {
    return loss > 0.0 || corrupt > 0.0 || reorder > 0.0 || max_jitter_ns > 0;
  }
};

enum class FailStopKind : std::uint8_t {
  kLink,  // one directed (src, dst) hop goes dark
  kNic,   // a node's NIC: both directions of its SAN links
  kNode,  // whole node; on the SAN indistinguishable from kNic (silent)
};

constexpr const char* failStopKindName(FailStopKind k) {
  switch (k) {
    case FailStopKind::kLink: return "link";
    case FailStopKind::kNic: return "nic";
    case FailStopKind::kNode: return "node";
  }
  return "?";
}

/// One scheduled fail-stop.  Packets injected at or after `at` on a dead
/// link are dropped, control packets included.
struct FailStopEvent {
  FailStopKind kind = FailStopKind::kLink;
  NodeId src = kNoNode;  // kLink: link source; kNic/kNode: the node
  NodeId dst = kNoNode;  // kLink only
  sim::SimTime at = 0;
};

/// Fault-injection outcome counters, split by cause.  `Fabric::
/// droppedPackets()` stays the total wire-drop count across all causes.
struct FaultStats {
  std::uint64_t lost = 0;              // probabilistic loss
  std::uint64_t corrupted = 0;         // delivered with a poisoned tag
  std::uint64_t jittered = 0;          // nonzero extra latency drawn
  std::uint64_t reordered = 0;         // overtook the input-link FIFO
  std::uint64_t failstop_dropped = 0;  // dead link/NIC/node (incl. control)
  std::uint64_t counter_dropped = 0;   // drop-every-Nth (per-link counter)
};

}  // namespace gangcomm::net
