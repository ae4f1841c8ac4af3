#include "net/fabric.hpp"

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/log.hpp"
#include "util/check.hpp"

namespace gangcomm::net {

Fabric::Fabric(sim::Simulator& s, RoutingTable routes, FabricConfig cfg)
    : sim_(s),
      routes_(std::move(routes)),
      cfg_(cfg),
      deliver_(static_cast<std::size_t>(routes_.nodeCount())),
      out_busy_(static_cast<std::size_t>(routes_.nodeCount()), 0),
      in_busy_(static_cast<std::size_t>(routes_.nodeCount()), 0),
      rings_(static_cast<std::size_t>(routes_.nodeCount())) {}

void Fabric::attach(NodeId node, DeliverFn deliver) {
  GC_CHECK(routes_.valid(node));
  deliver_[static_cast<std::size_t>(node)] = std::move(deliver);
}

sim::SimTime Fabric::outLinkFreeAt(NodeId node) const {
  GC_CHECK(routes_.valid(node));
  const sim::SimTime busy = out_busy_[static_cast<std::size_t>(node)];
  return busy > sim_.now() ? busy : sim_.now();
}

// ---- Fault injection --------------------------------------------------------

Fabric::LinkFaultState& Fabric::link(NodeId src, NodeId dst) {
  return links_[static_cast<std::size_t>(src) *
                    static_cast<std::size_t>(routes_.nodeCount()) +
                static_cast<std::size_t>(dst)];
}

std::uint64_t Fabric::linkSeed(NodeId src, NodeId dst) const {
  // Two SplitMix64 passes decorrelate (seed, link) pairs.  A link's stream
  // depends only on (fault_seed_, src, dst) — never on configuration order
  // or on what other links carry.
  sim::SplitMix64 outer(fault_seed_);
  const std::uint64_t mixed =
      outer.next() ^
      ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
       static_cast<std::uint32_t>(dst));
  sim::SplitMix64 inner(mixed);
  return inner.next();
}

void Fabric::ensureLinks() {
  if (!links_.empty()) return;
  const auto p = static_cast<std::size_t>(routes_.nodeCount());
  links_.resize(p * p);
  node_dead_at_.assign(p, sim::kNever);
  for (NodeId s = 0; s < routes_.nodeCount(); ++s)
    for (NodeId d = 0; d < routes_.nodeCount(); ++d)
      link(s, d).rng.reseed(linkSeed(s, d));
}

void Fabric::recomputeFaultsEnabled() {
  faults_enabled_ = false;
  for (const LinkFaultState& lf : links_) {
    if (lf.drop_every != 0 || lf.cfg.any() || lf.dead_at != sim::kNever) {
      faults_enabled_ = true;
      return;
    }
  }
  for (const sim::SimTime t : node_dead_at_) {
    if (t != sim::kNever) {
      faults_enabled_ = true;
      return;
    }
  }
}

void Fabric::setDropEveryNth(std::uint64_t n) {
  ensureLinks();
  // Per-link counters: flipping the rate mid-run (the fault-injection
  // experiments do) keeps each link's position in its own count.
  for (LinkFaultState& lf : links_) lf.drop_every = n;
  recomputeFaultsEnabled();
}

void Fabric::setFaultSeed(std::uint64_t seed) {
  fault_seed_ = seed;
  ensureLinks();
  for (NodeId s = 0; s < routes_.nodeCount(); ++s)
    for (NodeId d = 0; d < routes_.nodeCount(); ++d)
      link(s, d).rng.reseed(linkSeed(s, d));
}

void Fabric::setLinkFaults(NodeId src, NodeId dst, const LinkFaults& f) {
  GC_CHECK(routes_.valid(src) && routes_.valid(dst));
  ensureLinks();
  link(src, dst).cfg = f;
  recomputeFaultsEnabled();
}

void Fabric::setAllLinkFaults(const LinkFaults& f) {
  ensureLinks();
  for (LinkFaultState& lf : links_) lf.cfg = f;
  recomputeFaultsEnabled();
}

void Fabric::addFailStop(const FailStopEvent& ev) {
  ensureLinks();
  if (ev.kind == FailStopKind::kLink) {
    GC_CHECK(routes_.valid(ev.src) && routes_.valid(ev.dst));
    LinkFaultState& lf = link(ev.src, ev.dst);
    if (ev.at < lf.dead_at) lf.dead_at = ev.at;
  } else {
    // kNic and kNode are the same thing on the SAN: the node goes silent in
    // both directions (see net/fault.hpp).
    GC_CHECK(routes_.valid(ev.src));
    sim::SimTime& dead = node_dead_at_[static_cast<std::size_t>(ev.src)];
    if (ev.at < dead) dead = ev.at;
  }
  recomputeFaultsEnabled();
}

void Fabric::dropPacket(const Packet& pkt, sim::SimTime at,
                        const char* reason) {
  ++dropped_;
  GC_DEBUG(sim_, "fabric", "DROP %s pkt %d->%d seq=%llu (%s)",
           packetTypeName(pkt.type), pkt.src_node, pkt.dst_node,
           static_cast<unsigned long long>(pkt.seq), reason);
  if (probe_) probe_->onDrop(obs::DropSite::kWire, pkt, reason, at);
}

sim::SimTime Fabric::inject(const Packet& pkt) {
  GC_CHECK(routes_.valid(pkt.src_node) && routes_.valid(pkt.dst_node));
  GC_CHECK_MSG(pkt.src_node != pkt.dst_node, "no loopback traffic on the SAN");
  GC_CHECK_MSG(deliver_[static_cast<std::size_t>(pkt.dst_node)] != nullptr,
               "destination NIC not attached");

  const sim::Duration ser = sim::transferNs(pkt.wireBytes(), cfg_.link_mbps);

  // Source output link.
  const sim::SimTime inj_start = outLinkFreeAt(pkt.src_node);
  const sim::SimTime inj_done = inj_start + ser;
  out_busy_[static_cast<std::size_t>(pkt.src_node)] = inj_done;

  ++stats_.packets;
  stats_.bytes += pkt.wireBytes();
  if (pkt.isControl()) {
    ++stats_.control_packets;
    stats_.control_bytes += pkt.wireBytes();
  } else {
    ++stats_.data_packets;
    stats_.data_bytes += pkt.wireBytes();
  }

  // Fault injection.  One flag test on the fault-free path; with faults
  // configured, every decision draws from the (src, dst) link's own seeded
  // stream, in a fixed order (loss, corrupt, jitter, reorder) and only for
  // the knobs that are enabled — the determinism contract in net/fault.hpp.
  sim::Duration jitter = 0;
  bool corrupted = false;
  bool reordered = false;
  std::uint64_t poison = 0;
  if (faults_enabled_) {
    LinkFaultState& lf = link(pkt.src_node, pkt.dst_node);
    // Fail-stop first: a dead link swallows everything, control included.
    if (inj_start >= lf.dead_at ||
        inj_start >= node_dead_at_[static_cast<std::size_t>(pkt.src_node)] ||
        inj_start >= node_dead_at_[static_cast<std::size_t>(pkt.dst_node)]) {
      ++fault_stats_.failstop_dropped;
      dropPacket(pkt, inj_done, "drop:failstop");
      return inj_done;
    }
    if (!pkt.isControl()) {
      if (lf.drop_every != 0 && ++lf.data_seen % lf.drop_every == 0) {
        ++fault_stats_.counter_dropped;
        dropPacket(pkt, inj_done, "drop:fault");
        return inj_done;
      }
      if (lf.cfg.loss > 0.0 && lf.rng.nextDouble() < lf.cfg.loss) {
        ++fault_stats_.lost;
        dropPacket(pkt, inj_done, "drop:loss");
        return inj_done;
      }
      if (lf.cfg.corrupt > 0.0 && lf.rng.nextDouble() < lf.cfg.corrupt) {
        // Delivered-but-poisoned: payload damage flips the integrity tag;
        // header routing/ack fields stay intact (the NIC still applies
        // them) and the FM checksum path sheds the packet at extract().
        ++fault_stats_.corrupted;
        corrupted = true;
        poison = lf.rng.next() | 1ULL;  // nonzero => tagValid() fails
        if (probe_)
          probe_->onPacket(obs::PacketEvent::kCorrupted, pkt, inj_done);
      }
      if (lf.cfg.max_jitter_ns > 0) {
        jitter = static_cast<sim::Duration>(lf.rng.nextBelow(
            static_cast<std::uint64_t>(lf.cfg.max_jitter_ns) + 1));
        if (jitter > 0) ++fault_stats_.jittered;
      }
      if (lf.cfg.reorder > 0.0 && lf.rng.nextDouble() < lf.cfg.reorder) {
        ++fault_stats_.reordered;
        reordered = true;
        if (lf.cfg.max_reorder_ns > 0)
          jitter += static_cast<sim::Duration>(lf.rng.nextBelow(
              static_cast<std::uint64_t>(lf.cfg.max_reorder_ns) + 1));
      }
    }
  }

  // Switch traversal (plus any fault jitter), then destination input link.
  const sim::Duration fabric_lat =
      cfg_.hop_latency_ns *
          static_cast<sim::Duration>(
              routes_.hops(pkt.src_node, pkt.dst_node)) +
      jitter;
  const sim::SimTime arrive = inj_done + fabric_lat;
  sim::SimTime rx_done;
  if (reordered) {
    // The packet detours around the blocking input link (an alternate
    // switch path), so it neither waits for nor extends the per-route FIFO
    // chain — later traffic can overtake it and vice versa.
    rx_done = arrive + ser;
  } else {
    sim::SimTime& in_busy = in_busy_[static_cast<std::size_t>(pkt.dst_node)];
    const sim::SimTime rx_start = arrive > in_busy ? arrive : in_busy;
    rx_done = rx_start + ser;
    in_busy = rx_done;

    // Wormhole back-pressure: Myrinet has almost no switch buffering, so a
    // packet occupies its path until the destination drains it.  The source
    // link therefore stays busy until the tail leaves it — incast congestion
    // stalls the sending LANai, which is how send queues build up under
    // all-to-all load (Figure 8).
    const sim::SimTime tail_leaves_src = rx_done - fabric_lat;
    if (tail_leaves_src > inj_done)
      out_busy_[static_cast<std::size_t>(pkt.src_node)] = tail_leaves_src;
  }

  // One wire transfer per packet: injection start to last byte off the
  // destination's input link.
  if (probe_)
    probe_->onTransfer(obs::Transfer::kWire, pkt, inj_start, rx_done);

  // Delivery.  The batched path engages whenever no fault is configured
  // (reorder breaks the per-destination FIFO the rings rely on); the probe
  // hears of each delivery at handover.
  //
  // Within a destination, arrival times are strictly increasing (input-link
  // serialization), so delivery order equals injection order.  A data
  // packet's receive processing derives every timestamp from the `at`
  // argument — its DMA span and completion carry the same times whether
  // fromWire runs at arrival or early — so data may be handed over
  // immediately, with zero events, as long as no arrival-time-sensitive
  // packet (control, piggybacked refill: they fire wakeups and flush-FSM
  // transitions *now*) is still queued ahead of it.  Those "exact" packets
  // park in the destination's ring behind one drain event; data arriving
  // behind them queues too, preserving total per-destination order.
  // Timing can still differ from the exact path: fewer events reorder
  // same-instant ties, and same-nanosecond injects toward one destination
  // take its input link in firing order.
  if (cfg_.batch_delivery && !faults_enabled_) {
    const auto dst = static_cast<std::size_t>(pkt.dst_node);
    DeliveryRing& ring = rings_[dst];
    const bool exact = pkt.isControl() || pkt.refill_credits > 0;
    if (!exact && ring.head == ring.q.size()) {
      if (probe_)
        probe_->onPacket(obs::PacketEvent::kDelivered, pkt, rx_done);
      deliver_[dst](pkt, rx_done);
    } else {
      ring.q.push_back(PendingDelivery{pkt, rx_done, exact});
      if (!ring.drain_scheduled) {
        ring.drain_scheduled = true;
        const NodeId d = pkt.dst_node;
        sim::LpScope lp(sim_, sim::lpTag(sim::LpDomain::kNic,
                                         static_cast<std::uint32_t>(d)));
        sim_.scheduleAt(rx_done, [this, d] { drainRing(d); });
      }
    }
  } else if (corrupted) {
    Packet poisoned = pkt;
    poisoned.tag ^= poison;
    sim::LpScope lp(sim_, sim::lpTag(sim::LpDomain::kNic,
                                     static_cast<std::uint32_t>(
                                         poisoned.dst_node)));
    sim_.scheduleAt(rx_done, [this, poisoned, rx_done] {
      if (probe_)
        probe_->onPacket(obs::PacketEvent::kDelivered, poisoned, rx_done);
      deliver_[static_cast<std::size_t>(poisoned.dst_node)](poisoned, rx_done);
    });
  } else {
    sim::LpScope lp(sim_, sim::lpTag(sim::LpDomain::kNic,
                                     static_cast<std::uint32_t>(
                                         pkt.dst_node)));
    sim_.scheduleAt(rx_done, [this, pkt, rx_done] {
      if (probe_)
        probe_->onPacket(obs::PacketEvent::kDelivered, pkt, rx_done);
      deliver_[static_cast<std::size_t>(pkt.dst_node)](pkt, rx_done);
    });
  }
  return out_busy_[static_cast<std::size_t>(pkt.src_node)];
}

void Fabric::drainRing(NodeId dst) {
  DeliveryRing& ring = rings_[static_cast<std::size_t>(dst)];
  // Index-based: a delivery can re-enter inject() and grow this ring.
  while (ring.head < ring.q.size()) {
    const PendingDelivery& e = ring.q[ring.head];
    if (e.exact && e.at > sim_.now()) {
      // The next arrival-time-sensitive packet is still on the wire; come
      // back exactly then.  Everything behind it stays queued.
      const sim::SimTime at = e.at;
      sim::LpScope lp(sim_, sim::lpTag(sim::LpDomain::kNic,
                                       static_cast<std::uint32_t>(dst)));
      sim_.scheduleAt(at, [this, dst] { drainRing(dst); });
      return;
    }
    const Packet pkt = e.pkt;  // copy out: deliver may reallocate the ring
    const sim::SimTime at = e.at;
    ++ring.head;
    if (probe_)
      probe_->onPacket(obs::PacketEvent::kDelivered, pkt, at);
    deliver_[static_cast<std::size_t>(dst)](pkt, at);
  }
  ring.q.clear();
  ring.head = 0;
  ring.drain_scheduled = false;
}

void Fabric::publishMetrics(obs::MetricsRegistry& reg) const {
  reg.setCounter("fabric.packets", stats_.packets);
  reg.setCounter("fabric.data_packets", stats_.data_packets);
  reg.setCounter("fabric.control_packets", stats_.control_packets);
  reg.setCounter("fabric.bytes", stats_.bytes);
  reg.setCounter("fabric.data_bytes", stats_.data_bytes);
  reg.setCounter("fabric.control_bytes", stats_.control_bytes);
  reg.setCounter("fabric.dropped_packets", dropped_);
  // Fault-cause breakdown only when a fault model is armed, so lossless
  // bench metric sets (and their CSVs) are unchanged.
  if (faults_enabled_) {
    reg.setCounter("fabric.fault.lost", fault_stats_.lost);
    reg.setCounter("fabric.fault.corrupted", fault_stats_.corrupted);
    reg.setCounter("fabric.fault.jittered", fault_stats_.jittered);
    reg.setCounter("fabric.fault.reordered", fault_stats_.reordered);
    reg.setCounter("fabric.fault.failstop_dropped",
                   fault_stats_.failstop_dropped);
    reg.setCounter("fabric.fault.counter_dropped",
                   fault_stats_.counter_dropped);
  }
}

}  // namespace gangcomm::net
