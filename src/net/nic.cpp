#include "net/nic.hpp"

#include <cstddef>
#include <cstdint>
#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "sim/log.hpp"
#include "util/check.hpp"

namespace gangcomm::net {

Nic::Nic(sim::Simulator& s, Fabric& fabric, NodeId node, NicConfig cfg)
    : sim_(s),
      fabric_(fabric),
      node_(node),
      cfg_(cfg),
      sram_("nic-sram", cfg.sram_bytes),
      pinned_("pinned-dma", cfg.pinned_bytes),
      last_seq_from_(static_cast<std::size_t>(fabric.nodeCount()), 0) {
  GC_CHECK_MSG(cfg_.sram_reserved_bytes < cfg_.sram_bytes,
               "control program larger than NIC SRAM");
  // The LANai control program and context table occupy the front of SRAM.
  GC_CHECK(sram_.allocate(cfg_.sram_reserved_bytes) !=
           host::RegionAllocator::kNoSpace);
  fabric_.attach(node_,
                 [this](const Packet& p, sim::SimTime at) { fromWire(p, at); });
  last_job_from_.assign(static_cast<std::size_t>(fabric.nodeCount()), kNoJob);
}

// ---- Context management ----------------------------------------------------

util::Status Nic::allocContext(ContextId id, JobId job, int rank,
                               std::size_t sendq_slots,
                               std::size_t recvq_slots, int initial_credits,
                               int num_peers) {
  if (context(id) != nullptr) return util::Status::kExists;
  if (sendq_slots == 0 || recvq_slots == 0) return util::Status::kInvalid;
  const std::uint64_t sram_need =
      static_cast<std::uint64_t>(sendq_slots) * kPacketSlotBytes;
  const std::uint64_t pinned_need =
      static_cast<std::uint64_t>(recvq_slots) * kPacketSlotBytes;
  if (sram_need > sram_.freeBytes() || pinned_need > pinned_.freeBytes())
    return util::Status::kNoResources;
  GC_CHECK(sram_.allocate(sram_need) != host::RegionAllocator::kNoSpace);
  GC_CHECK(pinned_.allocate(pinned_need) != host::RegionAllocator::kNoSpace);

  // gclint: allow(hot-make-shared): context allocation happens at job load
  // time (CM control path), never per packet.
  auto slot = std::make_unique<ContextSlot>(id, sendq_slots, recvq_slots);
  slot->job = job;
  slot->rank = rank;
  slot->initial_credits = initial_credits;
  slot->send_credits.assign(static_cast<std::size_t>(num_peers),
                            initial_credits);
  slot->acked_seq_from.assign(static_cast<std::size_t>(num_peers), 0);
  slot->sent_hwm.assign(static_cast<std::size_t>(num_peers), 0);
  slot->nic_acked_hwm.assign(static_cast<std::size_t>(num_peers), 0);
  contexts_.push_back(std::move(slot));
  sendq_depth_.push_back(0);
  GC_DEBUG(sim_, "nic", "node %d: ctx %d job %d rank %d sq=%zu rq=%zu C0=%d",
           node_, id, job, rank, sendq_slots, recvq_slots, initial_credits);
  return util::Status::kOk;
}

util::Status Nic::freeContext(ContextId id) {
  for (auto it = contexts_.begin(); it != contexts_.end(); ++it) {
    if ((*it)->id == id) {
      // reserved_total_ is by construction the sum of every context's
      // reserved_send_slots, so removing one context's share cannot go
      // below zero.
      reserved_total_ -= (*it)->reserved_send_slots;
      sendq_depth_.erase(sendq_depth_.begin() + (it - contexts_.begin()));
      contexts_.erase(it);
      if (scan_cursor_ >= contexts_.size()) scan_cursor_ = 0;
      return util::Status::kOk;
    }
  }
  return util::Status::kNotFound;
}

std::size_t Nic::contextIndex(ContextId id) const {
  for (std::size_t i = 0; i < contexts_.size(); ++i)
    if (contexts_[i]->id == id) return i;
  return contexts_.size();
}

ContextSlot* Nic::context(ContextId id) {
  for (auto& c : contexts_)
    if (c->id == id) return c.get();
  return nullptr;
}

const ContextSlot* Nic::context(ContextId id) const {
  for (const auto& c : contexts_)
    if (c->id == id) return c.get();
  return nullptr;
}

ContextSlot* Nic::contextForJob(JobId job) {
  for (auto& c : contexts_)
    if (c->job == job) return c.get();
  return nullptr;
}

void Nic::retagContext(ContextId id, JobId job, int rank) {
  const std::size_t idx = contextIndex(id);
  GC_CHECK_MSG(idx < contexts_.size(), "retag of unknown context");
  ContextSlot* ctx = contexts_[idx].get();
  GC_CHECK_MSG(flush_complete_ || quiesce_complete_ ||
                   (ctx->sendq.empty() && ctx->recvq.empty() &&
                    dma_in_flight_ == 0 && sending_ctx_ != id),
               "retag requires a flushed/quiesced card or a virgin context");
  ctx->job = job;
  ctx->rank = rank;
  // The buffer switcher drained or refilled this slot's rings directly;
  // bring the send-scan column back in step.
  sendq_depth_[idx] = static_cast<std::uint32_t>(ctx->sendq.size());
}

// ---- Host-side datapath -----------------------------------------------------

bool Nic::reserveSendSlot(ContextId id) {
  return reserveSendSlotIf(id, true) != 0;
}

int Nic::reserveSendSlotIf(ContextId id, bool want) {
  ContextSlot* ctx = context(id);
  GC_CHECK(ctx != nullptr);
  // Branchless: both the caller's predicate (its credit check) and the
  // free-slot test fold into one 0/1 reservation delta.
  const int go =
      static_cast<int>(want) & static_cast<int>(ctx->sendFree() != 0);
  ctx->reserved_send_slots += go;
  reserved_total_ += go;
  return go;
}

util::Status Nic::hostEnqueueSend(ContextId id, const Packet& pkt) {
  const std::size_t idx = contextIndex(id);
  if (idx == contexts_.size()) return util::Status::kNotFound;
  ContextSlot* ctx = contexts_[idx].get();
  GC_CHECK_MSG(ctx->reserved_send_slots > 0,
               "hostEnqueueSend without a prior reservation");
  --ctx->reserved_send_slots;
  // The GC_CHECK above proves this context's share is >= 1, and
  // reserved_total_ is the sum of all shares.
  --reserved_total_;
  ++sendq_depth_[idx];
  if (cfg_.nic_level_acks && pkt.type == PacketType::kData &&
      pkt.dst_rank >= 0 &&
      static_cast<std::size_t>(pkt.dst_rank) < ctx->sent_hwm.size()) {
    auto& hwm = ctx->sent_hwm[static_cast<std::size_t>(pkt.dst_rank)];
    hwm = std::max(hwm, pkt.seq);
  }
  GC_CHECK_MSG(ctx->sendq.push(pkt), "send ring overflow despite reservation");
  if (probe_) probe_->onPacket(obs::PacketEvent::kNicQueued, pkt, sim_.now());
  runSendScan();
  // A flush may be blocked solely on this PIO completing (the packet
  // itself legally rides the switch parked in sendq).
  if (ctx->reserved_send_slots == 0) maybeCompleteFlush();
  return util::Status::kOk;
}

void Nic::hostEnqueueControl(const Packet& pkt) {
  control_queue_.push_back(pkt);
  runSendScan();
}

bool Nic::recvEmpty(ContextId id) const {
  const ContextSlot* ctx = context(id);
  GC_CHECK(ctx != nullptr);
  return ctx->recvq.empty();
}

Packet Nic::hostDequeueRecv(ContextId id) {
  ContextSlot* ctx = context(id);
  GC_CHECK(ctx != nullptr);
  return ctx->recvq.pop();
}

// ---- Send context -----------------------------------------------------------

void Nic::runSendScan() {
  // The LANai's send loop runs in place: an idle card takes its next packet
  // the instant one is queued or its previous send completes.  A scan can
  // re-enter through its own callbacks (flush complete -> switch ->
  // beginRelease -> here); the nested request only marks a rescan, which
  // the outer loop runs once the current pass returns.
  if (send_busy_) return;
  if (scanning_) {
    rescan_ = true;
    return;
  }
  scanning_ = true;
  do {
    rescan_ = false;
    sendScan();
  } while (rescan_ && !send_busy_);
  scanning_ = false;
}

void Nic::sendScan() {
  // Control traffic first: pending refills must reach the wire before the
  // halt broadcast so the flush leaves credit state consistent.
  if (trySendControlPacket()) return;
  if (halt_broadcast_pending_ && control_queue_.empty()) {
    maybeBroadcastHalt();
    if (trySendControlPacket()) return;
  }
  if (halt_bit_ && !ack_quiesce_mode_) {
    // Halted: no new data packets (the LANai checks the bit per packet).
    maybeCompleteFlush();
    maybeCompleteQuiesce();
    return;
  }
  // PM ack-quiesce: the host produces nothing new (it is SIGSTOPped), but
  // the card drains its queued packets so their acks can come home.
  if (!trySendDataPacket() && halt_bit_) maybeCompleteQuiesce();
}

bool Nic::trySendControlPacket() {
  if (control_queue_.empty()) return false;
  Packet pkt = control_queue_.front();
  control_queue_.pop_front();
  send_busy_ = true;
  // gcprof: the +lanai_send_ns event is the head hitting the wire, so it
  // is accounted to the link LP.
  sim::LpScope wire_lp(sim_, sim::lpTag(sim::LpDomain::kLink));
  sim_.schedule(cfg_.lanai_send_ns, [this, pkt] {
    const sim::SimTime done = fabric_.inject(pkt);
    sim::LpScope lp(sim_, lpSelf());
    sim_.scheduleAt(done, [this, pkt] {
      send_busy_ = false;
      ++stats_.control_sent;
      if (pkt.type == PacketType::kHalt && pending_halt_sends_ > 0) {
        if (--pending_halt_sends_ == 0) {
          halt_broadcast_done_ = true;
          GC_DEBUG(sim_, "nic", "node %d: halt broadcast complete", node_);
          maybeCompleteFlush();
        }
      } else if (pkt.type == PacketType::kReady && pending_ready_sends_ > 0) {
        if (--pending_ready_sends_ == 0) {
          release_broadcast_done_ = true;
          GC_DEBUG(sim_, "nic", "node %d: ready broadcast complete", node_);
          maybeCompleteRelease();
        }
      }
      maybeCompleteQuiesce();
      runSendScan();
    });
  });
  return true;
}

bool Nic::trySendDataPacket() {
  if (contexts_.empty()) return false;
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    const std::size_t idx = (scan_cursor_ + i) % contexts_.size();
    // The occupancy column keeps the empty-queue common case inside one
    // packed vector — no per-context pointer chase.
    if (sendq_depth_[idx] == 0) continue;
    ContextSlot& ctx = *contexts_[idx];
    GC_CHECK_MSG(!ctx.sendq.empty(), "send-scan column out of step");
    --sendq_depth_[idx];
    scan_cursor_ = (idx + 1) % contexts_.size();
    Packet pkt = ctx.sendq.pop();
    if (probe_)
      probe_->onPacket(obs::PacketEvent::kNicDequeued, pkt, sim_.now());
    const ContextId cid = ctx.id;
    send_busy_ = true;
    sending_ctx_ = cid;
    // gcprof: the +lanai_send_ns event is the head hitting the wire, so it
    // is accounted to the link LP.
    sim::LpScope wire_lp(sim_, sim::lpTag(sim::LpDomain::kLink));
    sim_.schedule(cfg_.lanai_send_ns, [this, pkt, cid] {
      const sim::SimTime done = fabric_.inject(pkt);
      sim::LpScope lp(sim_, lpSelf());
      sim_.scheduleAt(done, [this, cid] {
        send_busy_ = false;
        sending_ctx_ = kNoContext;
        ++stats_.data_sent;
        if (ContextSlot* c = context(cid)) {
          ++c->pkts_sent;
          fireSendable(*c);
        }
        maybeCompleteQuiesce();
        runSendScan();
      });
    });
    return true;
  }
  return false;
}

void Nic::fireSendable(ContextSlot& ctx) {
  if (!ctx.on_sendable) return;
  auto cb = std::move(ctx.on_sendable);
  ctx.on_sendable = nullptr;
  cb();
}

// ---- Flush / release (Figure 3) ---------------------------------------------

void Nic::beginFlush(util::SboFunction<void()> on_flushed) {
  GC_CHECK_MSG(!halt_bit_, "flush already in progress");
  GC_CHECK_MSG(!quiesce_mode_, "flush during a local quiesce");
  halt_bit_ = true;
  halt_broadcast_pending_ = true;
  halt_broadcast_done_ = false;
  flush_complete_ = false;
  on_flushed_ = std::move(on_flushed);
  GC_DEBUG(sim_, "nic", "node %d: local halt ('lh')", node_);
  reportStage(obs::SwitchStage::kHaltBegin, obs::HaltKind::kFlush);
  runSendScan();
}

void Nic::maybeBroadcastHalt() {
  if (!halt_broadcast_pending_) return;
  halt_broadcast_pending_ = false;
  const int peers = fabric_.nodeCount() - 1;
  pending_halt_sends_ = peers;
  reportStage(obs::SwitchStage::kHaltBroadcast, obs::HaltKind::kFlush);
  if (peers == 0) {
    halt_broadcast_done_ = true;
    maybeCompleteFlush();
    return;
  }
  // The Myrinet hardware has no broadcast; the LANai sends the halt to each
  // peer in a serial loop (paper §3.2).
  for (NodeId n = 0; n < fabric_.nodeCount(); ++n) {
    if (n == node_) continue;
    Packet halt;
    halt.type = PacketType::kHalt;
    halt.src_node = node_;
    halt.dst_node = n;
    control_queue_.push_back(halt);
  }
}

void Nic::maybeCompleteFlush() {
  const std::uint64_t peers =
      static_cast<std::uint64_t>(fabric_.nodeCount() - 1);
  if (flush_complete_ || !halt_bit_ || !halt_broadcast_done_) return;
  if (halts_rx_ - halts_consumed_ < peers) return;
  if (dma_in_flight_ != 0 || send_busy_ || !control_queue_.empty()) return;
  // A retransmit timer may start a host PIO in the gap between the
  // master's switch decision and this node's SIGSTOP; the flush must
  // outwait that write-combining copy or copyOut would see a reserved
  // send slot with its packet still in flight.
  if (!hostPioIdle()) return;
  flush_complete_ = true;
  halts_consumed_ += peers;
  ++stats_.flushes;
  GC_DEBUG(sim_, "nic", "node %d: network flushed (H,p)", node_);
  reportStage(obs::SwitchStage::kFlushComplete, obs::HaltKind::kFlush);
  if (on_flushed_) {
    auto cb = std::move(on_flushed_);
    on_flushed_ = nullptr;
    cb();
  }
}

void Nic::beginRelease(util::SboFunction<void()> on_released) {
  GC_CHECK_MSG(halt_bit_ && flush_complete_,
               "release is only legal after a completed flush");
  on_released_ = std::move(on_released);
  release_pending_ = true;
  release_broadcast_done_ = false;
  reportStage(obs::SwitchStage::kReleaseBegin, obs::HaltKind::kFlush);
  const int peers = fabric_.nodeCount() - 1;
  pending_ready_sends_ = peers;
  if (peers == 0) {
    release_broadcast_done_ = true;
    maybeCompleteRelease();
    return;
  }
  for (NodeId n = 0; n < fabric_.nodeCount(); ++n) {
    if (n == node_) continue;
    Packet ready;
    ready.type = PacketType::kReady;
    ready.src_node = node_;
    ready.dst_node = n;
    control_queue_.push_back(ready);
  }
  runSendScan();
}

void Nic::maybeCompleteRelease() {
  const std::uint64_t peers =
      static_cast<std::uint64_t>(fabric_.nodeCount() - 1);
  if (!release_pending_ || !release_broadcast_done_) return;
  if (readies_rx_ - readies_consumed_ < peers) return;
  readies_consumed_ += peers;
  release_pending_ = false;
  halt_bit_ = false;
  flush_complete_ = false;
  halt_broadcast_done_ = false;
  GC_DEBUG(sim_, "nic", "node %d: network released", node_);
  reportStage(obs::SwitchStage::kReleaseComplete, obs::HaltKind::kFlush);
  if (on_released_) {
    auto cb = std::move(on_released_);
    on_released_ = nullptr;
    cb();
  }
  runSendScan();
}

void Nic::beginLocalQuiesce(util::SboFunction<void()> on_quiesced) {
  GC_CHECK_MSG(!halt_bit_ && !quiesce_mode_, "quiesce during another halt");
  halt_bit_ = true;
  quiesce_mode_ = true;
  quiesce_complete_ = false;
  on_quiesced_ = std::move(on_quiesced);
  GC_DEBUG(sim_, "nic", "node %d: local quiesce begin", node_);
  reportStage(obs::SwitchStage::kHaltBegin, obs::HaltKind::kQuiesce);
  runSendScan();
  // The card may already be idle.
  maybeCompleteQuiesce();
}

void Nic::maybeCompleteQuiesce() {
  // Local quiesce drains the SEND side only: in-flight inbound DMAs are
  // shed on completion while the card is mid-switch (the id-check/NACK
  // discipline of the SHARE and PM designs) — waiting for an arrival gap
  // under incast would stall the switch indefinitely.
  if (!quiesce_mode_ || quiesce_complete_) return;
  if (send_busy_ || !control_queue_.empty()) return;
  // No hostPioIdle() wait here: local quiesce never copies a context out
  // (SHARE and PM retag in place), so a PIO landing late is harmless —
  // and other jobs' still-running processes would make it a moving target.
  if (ack_quiesce_mode_ && !allTrafficAcked()) return;
  quiesce_complete_ = true;
  GC_DEBUG(sim_, "nic", "node %d: locally quiesced", node_);
  reportStage(obs::SwitchStage::kFlushComplete, obs::HaltKind::kQuiesce);
  if (on_quiesced_) {
    auto cb = std::move(on_quiesced_);
    on_quiesced_ = nullptr;
    cb();
  }
}

void Nic::beginAckQuiesce(util::SboFunction<void()> on_quiesced) {
  GC_CHECK_MSG(cfg_.nic_level_acks,
               "ack-quiesce requires NIC-level acks (PM mode)");
  GC_CHECK_MSG(!halt_bit_ && !quiesce_mode_ && !ack_quiesce_mode_,
               "ack-quiesce during another halt");
  halt_bit_ = true;
  quiesce_mode_ = true;      // shares the local-drain machinery
  ack_quiesce_mode_ = true;  // ...plus the outstanding-traffic condition
  quiesce_complete_ = false;
  on_quiesced_ = std::move(on_quiesced);
  GC_DEBUG(sim_, "nic", "node %d: ack-quiesce begin", node_);
  reportStage(obs::SwitchStage::kHaltBegin, obs::HaltKind::kAckQuiesce);
  runSendScan();
  maybeCompleteQuiesce();
}

void Nic::endAckQuiesce() {
  GC_CHECK_MSG(ack_quiesce_mode_, "endAckQuiesce outside ack-quiesce");
  ack_quiesce_mode_ = false;
  endLocalQuiesce();
}

bool Nic::allTrafficAcked() const {
  for (const auto& c : contexts_)
    for (std::size_t peer = 0; peer < c->sent_hwm.size(); ++peer)
      if (c->nic_acked_hwm[peer] < c->sent_hwm[peer]) return false;
  return true;
}

void Nic::maybeCompleteAckQuiesce() { maybeCompleteQuiesce(); }

void Nic::emitNicAck(const Packet& data_pkt) {
  Packet ack;
  ack.type = PacketType::kAck;
  ack.src_node = node_;
  ack.dst_node = data_pkt.src_node;
  ack.job = data_pkt.job;
  // From the ack sender's perspective: src_rank identifies *us* so the
  // original sender can index its per-peer high-water marks.
  ack.src_rank = data_pkt.dst_rank;
  ack.dst_rank = data_pkt.src_rank;
  ack.ack_seq = data_pkt.seq;
  control_queue_.push_back(ack);
  ++stats_.nic_acks_sent;
  runSendScan();
}

void Nic::endLocalQuiesce() {
  GC_CHECK_MSG(quiesce_mode_ && quiesce_complete_,
               "endLocalQuiesce before the card drained");
  quiesce_mode_ = false;
  quiesce_complete_ = false;
  halt_bit_ = false;
  reportStage(obs::SwitchStage::kReleaseComplete, obs::HaltKind::kQuiesce);
  runSendScan();
}

// ---- Receive context --------------------------------------------------------

void Nic::fromWire(const Packet& pkt, sim::SimTime at) {
  switch (pkt.type) {
    case PacketType::kHalt:
      ++stats_.control_received;
      ++halts_rx_;
      GC_TRACE(sim_, "nic", "node %d: halt from %d ('ah')", node_,
               pkt.src_node);
      if (probe_) probe_->onPacket(obs::PacketEvent::kControlRx, pkt, at);
      maybeCompleteFlush();
      return;
    case PacketType::kReady:
      ++stats_.control_received;
      ++readies_rx_;
      if (probe_) probe_->onPacket(obs::PacketEvent::kControlRx, pkt, at);
      maybeCompleteRelease();
      return;
    case PacketType::kRefill: {
      ++stats_.control_received;
      ContextSlot* ctx = contextForJob(pkt.job);
      if (ctx == nullptr) {
        ++stats_.drops_no_context;
        shed(obs::DropSite::kNicArrival, pkt, "drop:no_ctx", at);
        return;
      }
      if (probe_) probe_->onPacket(obs::PacketEvent::kRefillApplied, pkt, at);
      GC_CHECK(pkt.src_rank >= 0 &&
               static_cast<std::size_t>(pkt.src_rank) <
                   ctx->send_credits.size());
      ctx->send_credits[static_cast<std::size_t>(pkt.src_rank)] +=
          static_cast<int>(pkt.refill_credits);
      auto& acked =
          ctx->acked_seq_from[static_cast<std::size_t>(pkt.src_rank)];
      acked = std::max(acked, pkt.ack_seq);
      stats_.refill_credits_received += pkt.refill_credits;
      fireSendable(*ctx);
      return;
    }
    case PacketType::kAck: {
      ++stats_.control_received;
      ++stats_.nic_acks_received;
      ContextSlot* ctx = contextForJob(pkt.job);
      if (ctx == nullptr) {
        ++stats_.drops_no_context;
        shed(obs::DropSite::kNicArrival, pkt, "drop:no_ctx", at);
        return;
      }
      if (pkt.src_rank >= 0 &&
          static_cast<std::size_t>(pkt.src_rank) <
              ctx->nic_acked_hwm.size()) {
        auto& hwm = ctx->nic_acked_hwm[static_cast<std::size_t>(pkt.src_rank)];
        hwm = std::max(hwm, pkt.ack_seq);
      }
      maybeCompleteQuiesce();
      return;
    }
    case PacketType::kData:
      deliverData(pkt, at);
      return;
  }
}

void Nic::deliverData(const Packet& pkt, sim::SimTime at) {
  ContextSlot* ctx = contextForJob(pkt.job);
  if (ctx == nullptr) {
    // A packet for a job with no live context: either the init-protocol
    // invariant was violated, or (no-flush ablations) the sender raced a
    // context switch.  The LANai can only drop it — the paper's credit-loss
    // hazard.  In PM mode the drop is NACKed so the sender's outstanding
    // counter still clears.
    if (cfg_.nic_level_acks) emitNicAck(pkt);
    if (discard_wrong_job_)
      ++stats_.drops_wrong_job;
    else
      ++stats_.drops_no_context;
    GC_DEBUG(sim_, "nic", "node %d: DROP data for job %d from node %d", node_,
             pkt.job, pkt.src_node);
    shed(obs::DropSite::kNicArrival, pkt,
         discard_wrong_job_ ? "drop:wrong_job" : "drop:no_ctx", at);
    return;
  }
  if (cfg_.enforce_fifo) {
    auto s = static_cast<std::size_t>(pkt.src_node);
    if (last_job_from_[s] == pkt.job) {
      GC_CHECK_MSG(pkt.seq > last_seq_from_[s],
                   "per-route FIFO violated on data path");
    }
    last_job_from_[s] = pkt.job;
    last_seq_from_[s] = pkt.seq;
  }
  if (pkt.src_rank >= 0 &&
      static_cast<std::size_t>(pkt.src_rank) < ctx->acked_seq_from.size()) {
    auto& acked = ctx->acked_seq_from[static_cast<std::size_t>(pkt.src_rank)];
    acked = std::max(acked, pkt.ack_seq);
  }
  // Piggybacked credit refill (paper §2.2).
  if (pkt.refill_credits > 0) {
    GC_CHECK(pkt.src_rank >= 0 &&
             static_cast<std::size_t>(pkt.src_rank) <
                 ctx->send_credits.size());
    ctx->send_credits[static_cast<std::size_t>(pkt.src_rank)] +=
        static_cast<int>(pkt.refill_credits);
    if (probe_) probe_->onPacket(obs::PacketEvent::kRefillApplied, pkt, at);
    stats_.refill_credits_received += pkt.refill_credits;
    fireSendable(*ctx);
  }
  ++stats_.data_received;
  dmaDeliver(pkt, *ctx, at);
}

void Nic::dmaDeliver(const Packet& pkt, ContextSlot& ctx, sim::SimTime at) {
  // Receive-context processing, then a serialized DMA into the pinned
  // receive queue.  Flush completion waits for dma_in_flight_ to reach zero
  // so no packet can land after the buffer switch copied the queue out.
  // Every time here derives from the wire arrival `at`: under delivery
  // batching this runs before the packet's last byte is off the input link,
  // and the DMA completion must land at the identical instant either way.
  const sim::SimTime start_min = at + cfg_.lanai_recv_ns;
  const sim::SimTime start =
      start_min > dma_busy_until_ ? start_min : dma_busy_until_;
  const sim::SimTime done = start + cfg_.dma_setup_ns +
                            sim::transferNs(pkt.wireBytes(), cfg_.dma_mbps);
  dma_busy_until_ = done;
  ++dma_in_flight_;
  if (probe_) probe_->onTransfer(obs::Transfer::kDma, pkt, start, done);
  const ContextId cid = ctx.id;
  sim::LpScope lp(sim_, lpSelf());
  // Every input derives from the wire arrival argument `at`, which the
  // fabric computed as now-or-later when it scheduled the delivery.
  sim_.scheduleAt(done, [this, pkt, cid] {
    --dma_in_flight_;
    ContextSlot* c = context(cid);
    GC_CHECK_MSG(c != nullptr, "context vanished under an in-flight DMA");
    // PM mode: the LANai acknowledges every data packet at DMA completion,
    // whether it lands or is shed (a shed packet's ack is the NACK that
    // clears the sender's outstanding counter; the host layer resends).
    if (cfg_.nic_level_acks) emitNicAck(pkt);
    if (quiesce_mode_) {
      // Mid-switch under the no-flush protocols: shed instead of landing in
      // a context that is being copied out.
      GC_CHECK_MSG(discard_wrong_job_, "quiesce without a discard policy");
      ++stats_.drops_wrong_job;
      shed(obs::DropSite::kNicLanding, pkt, "drop:quiesce_shed", sim_.now());
      return;
    }
    if (c->job != pkt.job) {
      // Only possible in SHARE mode: the slot was retagged (no flush) while
      // this DMA was in flight; the id check sheds the stale packet.
      GC_CHECK_MSG(discard_wrong_job_,
                   "context retagged under an in-flight DMA");
      ++stats_.drops_wrong_job;
      shed(obs::DropSite::kNicLanding, pkt, "drop:wrong_job", sim_.now());
      maybeCompleteFlush();
      maybeCompleteQuiesce();
      return;
    }
    if (!c->recvq.push(pkt)) {
      GC_CHECK_MSG(cfg_.allow_recv_overflow_drop,
                   "receive ring overflow — credit accounting broken");
      ++stats_.drops_recv_overflow;
      shed(obs::DropSite::kNicLanding, pkt, "drop:recv_overflow", sim_.now());
      maybeCompleteFlush();
      maybeCompleteQuiesce();
      return;
    }
    ++c->pkts_received;
    if (probe_) probe_->onPacket(obs::PacketEvent::kLanded, pkt, sim_.now());
    if (c->on_arrival) {
      auto cb = std::move(c->on_arrival);
      c->on_arrival = nullptr;
      cb();
    }
    maybeCompleteFlush();
    maybeCompleteQuiesce();
  });
}

// ---- Observability ----------------------------------------------------------

void Nic::publishMetrics(obs::MetricsRegistry& reg) const {
  const std::string p = "nic." + std::to_string(node_) + ".";
  reg.setCounter(p + "data_sent", stats_.data_sent);
  reg.setCounter(p + "data_received", stats_.data_received);
  reg.setCounter(p + "control_sent", stats_.control_sent);
  reg.setCounter(p + "control_received", stats_.control_received);
  reg.setCounter(p + "refill_credits_received", stats_.refill_credits_received);
  reg.setCounter(p + "drops_no_context", stats_.drops_no_context);
  reg.setCounter(p + "drops_wrong_job", stats_.drops_wrong_job);
  reg.setCounter(p + "drops_recv_overflow", stats_.drops_recv_overflow);
  reg.setCounter(p + "flushes", stats_.flushes);
  reg.setGauge(p + "contexts", static_cast<double>(contexts_.size()));
  reg.setGauge(p + "sram_free_bytes", static_cast<double>(sram_.freeBytes()));
}

}  // namespace gangcomm::net
