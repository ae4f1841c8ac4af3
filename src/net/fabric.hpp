// The switched Myrinet fabric.
//
// Model: every node owns an injection (output) link and a reception (input)
// link, each a serial resource at the configured link bandwidth (160 MB/s
// for the paper's 1.28 Gb/s Myrinet).  A packet
//
//   1. serializes onto the source's output link,
//   2. crosses the switch fabric (per-hop latency from the routing table),
//   3. serializes off the destination's input link,
//   4. is delivered to the destination NIC.
//
// Because both endpoints' links are FIFO resources and the per-route latency
// is constant, delivery order per (src, dst) route equals injection order —
// the Myrinet FIFO property the paper's flush protocol depends on — and
// incast contention (all-to-all receive pressure, Figure 8) emerges from
// input-link serialization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/fault.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "util/sbo_function.hpp"

namespace gangcomm::net {

struct FabricConfig {
  double link_mbps = 160.0;       // 1.28 Gb/s Myrinet
  // Configs keep the per-hop latency within [100 ns, 1 ms].
  sim::Duration hop_latency_ns = 500;  // per switch hop (wormhole cut-through)
  /// Coalesce per-packet wire-delivery events into per-destination bursts
  /// (see the delivery-batching comment in fabric.cpp).  Only engages while
  /// no fault is configured (observers play no part); the cluster clears it
  /// for protocol modes whose receive path is arrival-time sensitive
  /// (core/cluster.cpp).  Fewer events reorder same-instant ties, so timing
  /// can differ: two same-nanosecond injects toward one destination take
  /// its input link in firing order (DESIGN.md section 13).
  bool batch_delivery = true;
};

struct FabricStats {
  std::uint64_t packets = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t control_packets = 0;
  /// Total wire bytes, split by packet class: `bytes` is the sum of both.
  /// Consumers measuring delivered user bandwidth (ThroughputTimeline) must
  /// use `data_bytes`; halt/ready/refill control traffic rides in
  /// `control_bytes` only.
  std::uint64_t bytes = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t control_bytes = 0;
};

class Fabric {
 public:
  /// Wire-side receiver: `at` is the packet's arrival time (last byte off
  /// the destination input link).  With delivery batching the callback may
  /// run *before* `at` (never after, and never out of per-destination
  /// order); receivers must derive every timestamp from `at`, not now().
  using DeliverFn = util::SboFunction<void(const Packet&, sim::SimTime)>;

  Fabric(sim::Simulator& s, RoutingTable routes, FabricConfig cfg = {});

  int nodeCount() const { return routes_.nodeCount(); }
  const RoutingTable& routes() const { return routes_; }
  const FabricConfig& config() const { return cfg_; }

  /// Register the receiver for a node (its NIC's wire-side entry point).
  void attach(NodeId node, DeliverFn deliver);

  /// Inject `pkt` from its src_node.  Returns the time at which the source's
  /// output link is free again (the NIC may start its next packet then).
  /// Delivery at the destination is scheduled internally.  The link frees
  /// no earlier than the injection instant.
  sim::SimTime inject(const Packet& pkt);

  /// Earliest time the given node's output link is free.
  sim::SimTime outLinkFreeAt(NodeId node) const;

  const FabricStats& stats() const { return stats_; }

  // ---- Fault injection (see net/fault.hpp) --------------------------------
  //
  // All fault state is per directed (src, dst) link: each link owns its own
  // drop counter and its own RNG stream seeded from (fault seed, src, dst),
  // so one flow's fault pattern never shifts when unrelated traffic joins
  // and results are identical at any sweep-runner thread count.  The hot
  // path pays a single flag test when no fault is configured.

  /// Deterministic counter faults for the packet-loss experiments: drop
  /// every n-th data packet *per link* (0 disables).  Control packets are
  /// only ever dropped by fail-stop (they are hardware-level in the paper's
  /// design).
  void setDropEveryNth(std::uint64_t n);
  std::uint64_t droppedPackets() const { return dropped_; }

  /// Seed for the per-link fault streams; reseeds every link.  Call before
  /// traffic flows (mid-run reseeding restarts every stream).
  void setFaultSeed(std::uint64_t seed);
  /// Probabilistic faults on one directed link / on every link.
  void setLinkFaults(NodeId src, NodeId dst, const LinkFaults& f);
  void setAllLinkFaults(const LinkFaults& f);
  /// Schedule a fail-stop: packets injected at or after `ev.at` on the dead
  /// link(s) are dropped, control packets included.
  void addFailStop(const FailStopEvent& ev);
  const FaultStats& faultStats() const { return fault_stats_; }

  /// Observer seam (may be null): wire transfers, deliveries, drops, and
  /// corruptions.  The probe observes and never perturbs simulation state.
  void setProbe(obs::Probe* p) { probe_ = p; }
  void publishMetrics(obs::MetricsRegistry& reg) const;

 private:
  /// Fault state for one directed link.  Materialized (for every link at
  /// once) only when some fault API is first used, so fault-free fabrics
  /// pay nothing beyond the `faults_enabled_` flag test.
  struct LinkFaultState {
    LinkFaults cfg;
    sim::Xoshiro256 rng;
    std::uint64_t drop_every = 0;
    std::uint64_t data_seen = 0;
    sim::SimTime dead_at = sim::kNever;
  };

  /// One queued (not yet handed to the NIC) delivery.  `exact` marks
  /// packets whose receive processing is arrival-time sensitive (control,
  /// piggybacked refills): they are never delivered early.
  struct PendingDelivery {
    Packet pkt;
    sim::SimTime at;
    bool exact;
  };
  /// Per-destination delivery ring (batch_delivery).  Invariants: entries
  /// are sorted by `at` (input-link serialization makes arrival times
  /// strictly increasing per destination), the head entry is always exact,
  /// and a drain event is pending whenever the ring is non-empty.
  struct DeliveryRing {
    std::vector<PendingDelivery> q;
    std::size_t head = 0;
    bool drain_scheduled = false;
  };

  void drainRing(NodeId dst);
  void ensureLinks();
  void recomputeFaultsEnabled();
  std::uint64_t linkSeed(NodeId src, NodeId dst) const;
  LinkFaultState& link(NodeId src, NodeId dst);
  /// Wire-drop bookkeeping shared by every drop cause.
  void dropPacket(const Packet& pkt, sim::SimTime at, const char* reason);

  sim::Simulator& sim_;
  RoutingTable routes_;
  FabricConfig cfg_;
  std::vector<DeliverFn> deliver_;
  std::vector<sim::SimTime> out_busy_;
  std::vector<sim::SimTime> in_busy_;
  std::vector<DeliveryRing> rings_;  // indexed by destination node
  FabricStats stats_;
  obs::Probe* probe_ = nullptr;
  bool faults_enabled_ = false;  // single hot-path guard for all faults
  std::uint64_t fault_seed_ = 0;
  std::vector<LinkFaultState> links_;      // p*p, row-major src*p + dst
  std::vector<sim::SimTime> node_dead_at_;  // kNic/kNode fail-stops
  FaultStats fault_stats_;
  std::uint64_t dropped_ = 0;  // total wire drops, all causes
};

}  // namespace gangcomm::net
