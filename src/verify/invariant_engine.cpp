#include "verify/invariant_engine.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace gangcomm::verify {

InvariantEngine::InvariantEngine(sim::Simulator& sim, OnViolation mode)
    : sim_(sim), mode_(mode) {}

void InvariantEngine::attachNic(net::Nic* nic) {
  if (nic != nullptr) nics_.push_back(nic);
}

long InvariantEngine::lostCredits() const {
  long total = 0;
  for (const auto& [job, jl] : jobs_)
    for (const auto& [key, pl] : jl.pairs) total += pl.lost;
  return total;
}

void InvariantEngine::report(const std::string& what) {
  if (mode_ == OnViolation::kAbort) {
    std::fprintf(stderr, "gcverify: %s (t=%llu ns)\n", what.c_str(),
                 static_cast<unsigned long long>(sim_.now()));
    // Last-gasp diagnostics (e.g. the gctrace flight-recorder dump) run
    // before the abort so the post-mortem file exists in the core/CI logs.
    if (abort_hook_) abort_hook_();
    std::abort();
  }
  violations_.push_back({sim_.now(), what});
}

InvariantEngine::PairLedger& InvariantEngine::pair(JobLedger& jl, int src,
                                                   int dst) {
  return jl.pairs[{src, dst}];
}

InvariantEngine::NodeVerifyState& InvariantEngine::nodeState(
    net::NodeId node) {
  return node_states_[node];
}

const char* InvariantEngine::stateName(NodeState s) {
  switch (s) {
    case NodeState::kRunning: return "running";
    case NodeState::kHalting: return "halting";
    case NodeState::kFlushed: return "flushed";
    case NodeState::kReleasing: return "releasing";
  }
  return "?";
}

// ---- Credit ledger ----------------------------------------------------------

void InvariantEngine::onJobCredits(net::JobId job, int rank, int job_size,
                                   int c0, bool retransmit) {
  JobLedger& jl = jobs_[job];
  if (jl.size != 0 && jl.c0 != c0)
    report("job " + std::to_string(job) + " rank " + std::to_string(rank) +
           " granted C0=" + std::to_string(c0) + " but the job ledger has " +
           std::to_string(jl.c0) + " — unequal credit grants within one job");
  jl.c0 = c0;
  jl.size = job_size;
  jl.retransmit = retransmit;
}

void InvariantEngine::onJobEnd(net::JobId job) { jobs_.erase(job); }

void InvariantEngine::onCreditDebit(net::JobId job, int src_rank,
                                    int dst_rank, std::uint64_t seq) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  PairLedger& pl = pair(it->second, src_rank, dst_rank);
  if (!pl.outstanding.insert(seq).second)
    report("double credit debit for job " + std::to_string(job) + " pair " +
           std::to_string(src_rank) + "->" + std::to_string(dst_rank) +
           " seq " + std::to_string(seq));
}

void InvariantEngine::onPacketAccepted(net::JobId job, int src_rank,
                                       int dst_rank, std::uint64_t seq) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  PairLedger& pl = pair(it->second, src_rank, dst_rank);
  if (pl.outstanding.erase(seq) == 0) {
    report("packet accepted that never spent a credit: job " +
           std::to_string(job) + " pair " + std::to_string(src_rank) + "->" +
           std::to_string(dst_rank) + " seq " + std::to_string(seq));
    return;
  }
  ++pl.owed;
}

void InvariantEngine::onRefillQueued(net::JobId job, int src_rank,
                                     int dst_rank, std::uint32_t credits) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  PairLedger& pl = pair(it->second, src_rank, dst_rank);
  pl.owed -= static_cast<long>(credits);
  pl.in_flight += static_cast<long>(credits);
  if (pl.owed < 0)
    report("refill of " + std::to_string(credits) + " credits queued for job " +
           std::to_string(job) + " pair " + std::to_string(src_rank) + "->" +
           std::to_string(dst_rank) + " exceeds what the receiver was owed");
}

void InvariantEngine::onRefillApplied(net::JobId job, int src_rank,
                                      int dst_rank, std::uint32_t credits) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  PairLedger& pl = pair(it->second, src_rank, dst_rank);
  pl.in_flight -= static_cast<long>(credits);
  if (pl.in_flight < 0)
    report("refill of " + std::to_string(credits) + " credits applied for "
           "job " + std::to_string(job) + " pair " +
           std::to_string(src_rank) + "->" + std::to_string(dst_rank) +
           " that was never put in flight (credit counterfeiting)");
}

// ---- Packet conservation ----------------------------------------------------

void InvariantEngine::onWireInject(const net::Packet& p) {
  FlowCounters& f = p.isControl() ? control_ : data_;
  ++f.injected;
}

void InvariantEngine::onWireDeliver(const net::Packet& p) {
  FlowCounters& f = p.isControl() ? control_ : data_;
  ++f.delivered;
}

void InvariantEngine::onWireDrop(const net::Packet& p) {
  FlowCounters& f = p.isControl() ? control_ : data_;
  ++f.wire_dropped;
  accountDroppedPacket(p);
}

void InvariantEngine::onRecvLanded(net::NodeId node, const net::Packet& p) {
  (void)p;
  ++landed_;
  NodeVerifyState& ns = nodeState(node);
  if (ns.owner != BufferOwner::kNic)
    report("packet landed in node " + std::to_string(node) +
           "'s receive queue while the buffer switcher owns the buffers");
}

void InvariantEngine::onNicDrop(net::NodeId, const net::Packet& p,
                                const char*) {
  if (!p.isControl()) ++nic_dropped_;
  accountDroppedPacket(p);
}

void InvariantEngine::onFmShed(net::NodeId, const net::Packet& p) {
  // The packet landed (it is part of `landed_` already) and the NIC applied
  // any piggybacked refill before DMA, so this is NOT accountDroppedPacket:
  // only the data packet's own credit can be lost, and only when no
  // retransmission layer exists to deliver a clean copy later.
  auto it = jobs_.find(p.job);
  if (it == jobs_.end()) return;
  JobLedger& jl = it->second;
  if (jl.retransmit) return;  // the original reservation stands
  PairLedger& pl = pair(jl, p.src_rank, p.dst_rank);
  if (pl.outstanding.erase(p.seq) != 0) ++pl.lost;
}

void InvariantEngine::accountDroppedPacket(const net::Packet& p) {
  auto it = jobs_.find(p.job);
  if (it == jobs_.end()) return;
  JobLedger& jl = it->second;
  // Piggybacked refill credits ride the packet down: they were in flight and
  // are now gone.  Refill control packets carry the same field.
  if (p.refill_credits > 0 &&
      (p.type == net::PacketType::kData ||
       p.type == net::PacketType::kRefill)) {
    PairLedger& carrier = pair(jl, p.dst_rank, p.src_rank);
    carrier.in_flight -= static_cast<long>(p.refill_credits);
    carrier.lost += static_cast<long>(p.refill_credits);
  }
  // The data packet's own credit: with a retransmission layer the original
  // reservation stands (a later copy will be accepted); without one the
  // credit is lost with the packet.
  if (p.type == net::PacketType::kData && !jl.retransmit) {
    PairLedger& pl = pair(jl, p.src_rank, p.dst_rank);
    if (pl.outstanding.erase(p.seq) != 0) ++pl.lost;
  }
}

// ---- Buffer ownership -------------------------------------------------------

void InvariantEngine::onBufferAcquire(net::NodeId node, BufferOwner who) {
  NodeVerifyState& ns = nodeState(node);
  if (ns.owner == who) {
    report("double buffer ownership: node " + std::to_string(node) +
           " acquired by " +
           (who == BufferOwner::kSwitcher ? "switcher" : "nic") +
           " which already owns it");
    return;
  }
  ns.owner = who;
}

void InvariantEngine::onBufferRelease(net::NodeId node, BufferOwner who) {
  NodeVerifyState& ns = nodeState(node);
  if (ns.owner != who) {
    report("buffer release by non-owner: node " + std::to_string(node) +
           " released by " +
           (who == BufferOwner::kSwitcher ? "switcher" : "nic") +
           " while the other side owns it");
    return;
  }
  ns.owner = who == BufferOwner::kSwitcher ? BufferOwner::kNic
                                           : BufferOwner::kSwitcher;
}

// ---- Switch-protocol state machine ------------------------------------------

void InvariantEngine::onSwitchStage(net::NodeId node, SwitchStage stage) {
  NodeVerifyState& ns = nodeState(node);
  const NodeState was = ns.fsm;
  switch (stage) {
    case SwitchStage::kHaltBegin:
      if (was != NodeState::kRunning) {
        report("node " + std::to_string(node) + " halted while " +
               stateName(was) +
               (was == NodeState::kFlushed
                    ? " — the previous switch skipped its release"
                    : " — double halt"));
        return;
      }
      ns.fsm = NodeState::kHalting;
      return;
    case SwitchStage::kFlushComplete:
      if (was != NodeState::kHalting) {
        report("node " + std::to_string(node) + " reported flush-complete "
               "while " + stateName(was));
        return;
      }
      ns.fsm = NodeState::kFlushed;
      return;
    case SwitchStage::kCopyBegin:
      if (was != NodeState::kFlushed)
        report("node " + std::to_string(node) + " began a buffer switch "
               "while " + stateName(was) + " — copy before the network "
               "flushed");
      return;
    case SwitchStage::kReleaseBegin:
      if (was != NodeState::kFlushed) {
        report("node " + std::to_string(node) + " began a release while " +
               stateName(was));
        return;
      }
      ns.fsm = NodeState::kReleasing;
      return;
    case SwitchStage::kHaltBroadcast:  // a step inside the halt stage
      return;
    case SwitchStage::kReleaseComplete:
      // The no-broadcast protocols (local/ack quiesce) go straight from
      // flushed to released with no kReleaseBegin.
      if (was != NodeState::kReleasing && was != NodeState::kFlushed) {
        report("node " + std::to_string(node) + " completed a release "
               "while " + stateName(was));
        return;
      }
      ns.fsm = NodeState::kRunning;
      return;
  }
}

// ---- Probe consumer ---------------------------------------------------------

std::uint64_t InvariantEngine::onSend(const net::Packet& p, int, sim::SimTime,
                                      sim::SimTime) {
  onCreditDebit(p.job, p.src_rank, p.dst_rank, p.seq);
  return 0;
}

void InvariantEngine::onPacket(obs::PacketEvent ev, const net::Packet& p,
                               sim::SimTime) {
  using obs::PacketEvent;
  // Refills travel against the data flow: they move the credits the
  // carrier's destination rank holds toward its source rank.
  if (ev == PacketEvent::kDelivered) onWireDeliver(p);
  if (ev == PacketEvent::kLanded) onRecvLanded(p.dst_node, p);
  if (ev == PacketEvent::kAccepted)
    onPacketAccepted(p.job, p.src_rank, p.dst_rank, p.seq);
  if (ev == PacketEvent::kRefillQueued)
    onRefillQueued(p.job, p.dst_rank, p.src_rank, p.refill_credits);
  if (ev == PacketEvent::kRefillApplied)
    onRefillApplied(p.job, p.dst_rank, p.src_rank, p.refill_credits);
}

void InvariantEngine::onDrop(obs::DropSite site, const net::Packet& p,
                             const char* reason, sim::SimTime) {
  if (site == obs::DropSite::kWire) {  // dropped before its wire transfer
    onWireInject(p);
    onWireDrop(p);
  } else if (site == obs::DropSite::kFmChecksum) {
    onFmShed(p.dst_node, p);
  } else if (site != obs::DropSite::kFmWindow) {  // retransmit layer's own
    onNicDrop(p.dst_node, p, reason);
  }
}

void InvariantEngine::onTransfer(obs::Transfer kind, const net::Packet& p,
                                 sim::SimTime, sim::SimTime) {
  if (kind == obs::Transfer::kWire) onWireInject(p);
}

void InvariantEngine::onNicStage(net::NodeId node, SwitchStage stage,
                                 obs::HaltKind, int, sim::SimTime) {
  onSwitchStage(node, stage);
}

void InvariantEngine::onBufferSwitch(net::NodeId node, net::JobId, net::JobId,
                                     sim::SimTime, sim::Duration,
                                     sim::Duration, const obs::CopyCounts&) {
  // The copy runs inside one synchronous call, so the switcher holds the
  // buffers across no event boundary: what is checked is the protocol
  // order and the exclusivity of acquire/release.
  onSwitchStage(node, SwitchStage::kCopyBegin);
  onBufferAcquire(node, BufferOwner::kSwitcher);
  onBufferRelease(node, BufferOwner::kSwitcher);
}

// ---- Event-boundary checks --------------------------------------------------

void InvariantEngine::checkCredits() {
  for (auto& [job, jl] : jobs_) {
    for (net::Nic* nic : nics_) {
      net::ContextSlot* ctx = nic->contextForJob(job);
      if (ctx == nullptr) continue;
      const int src = ctx->rank;
      if (src < 0) continue;
      for (int dst = 0; dst < jl.size; ++dst) {
        if (dst == src) continue;
        if (static_cast<std::size_t>(dst) >= ctx->send_credits.size())
          continue;
        long expected = jl.c0;
        const auto it = jl.pairs.find({src, dst});
        if (it != jl.pairs.end()) {
          const PairLedger& pl = it->second;
          expected -= static_cast<long>(pl.outstanding.size()) + pl.owed +
                      pl.in_flight + pl.lost;
        }
        const long actual = ctx->send_credits[static_cast<std::size_t>(dst)];
        if (actual != expected)
          report("credit conservation broken for job " + std::to_string(job) +
                 " pair " + std::to_string(src) + "->" + std::to_string(dst) +
                 ": node " + std::to_string(nic->node()) + " holds " +
                 std::to_string(actual) + " credits but the ledger implies " +
                 std::to_string(expected) + " (C0=" + std::to_string(jl.c0) +
                 ")");
      }
    }
  }
}

void InvariantEngine::onEventBoundary(sim::SimTime now, std::uint64_t fired) {
  (void)now;
  (void)fired;
  // Packet-flow counters can never imply a negative in-flight population.
  if (data_.delivered + data_.wire_dropped > data_.injected)
    report("data-packet conservation broken: delivered+dropped exceeds "
           "injected");
  if (control_.delivered + control_.wire_dropped > control_.injected)
    report("control-packet conservation broken: delivered+dropped exceeds "
           "injected");
  if (landed_ + nic_dropped_ > data_.delivered)
    report("NIC accounted for more data packets than the wire delivered");
  checkCredits();
}

void InvariantEngine::finalCheck() {
  const std::uint64_t data_in_wire =
      data_.injected - data_.wire_dropped - data_.delivered;
  const std::uint64_t ctrl_in_wire =
      control_.injected - control_.wire_dropped - control_.delivered;
  if (data_in_wire != 0)
    report(std::to_string(data_in_wire) + " data packets still in the wire "
           "after the simulation drained");
  if (ctrl_in_wire != 0)
    report(std::to_string(ctrl_in_wire) + " control packets still in the "
           "wire after the simulation drained");
  const std::uint64_t dma_pending = data_.delivered - landed_ - nic_dropped_;
  if (dma_pending != 0)
    report(std::to_string(dma_pending) + " data packets still in the DMA "
           "pipeline after the simulation drained");
}

}  // namespace gangcomm::verify
