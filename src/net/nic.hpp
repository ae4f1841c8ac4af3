// Simulated Myrinet network interface card with a LANai-style processor.
//
// The model reproduces the parts of the LANai 4.3 control program that the
// paper's protocols depend on:
//
//  * a context table in the 512 KB NIC SRAM; each context owns a send queue
//    in SRAM and a receive queue in the host's pinned DMA buffer (Figure 1);
//  * a send "context" (thread) that round-robins the contexts' send queues
//    and injects one packet at a time, checking the halt bit before each
//    packet (paper §3.2).  The loop runs in place, not as an event: an idle
//    card takes its next packet the instant one is queued or its previous
//    send completes, control packets first, then the round-robin data scan;
//  * a receive "context" that consumes arriving packets, counts control
//    packets (halt/ready/refill — never stored, never credited) and DMAs
//    data packets into the owning context's receive queue;
//  * the network-flush state machine of Figure 3: local halt + serial-loop
//    halt broadcast, cumulative collection of peer halts, and the symmetric
//    ready/release protocol.
//
// Flush completion additionally waits for the DMA engine and control queue
// to drain; without that, a data packet whose DMA is still in flight when
// the last halt arrives could land in the *next* job's receive queue — the
// exact packet-leak the flush exists to prevent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "host/region_allocator.hpp"
#include "net/fabric.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "sim/simulator.hpp"
#include "util/ring_buffer.hpp"
#include "util/sbo_function.hpp"
#include "util/status.hpp"

namespace gangcomm::net {

struct NicConfig {
  std::uint64_t sram_bytes = 512 * 1024;          // LANai 4.3 card RAM
  std::uint64_t sram_reserved_bytes = 112 * 1024; // control program + tables
  std::uint64_t pinned_bytes = 1024 * 1024;       // host DMA receive arena
  // Configs keep the two LANai per-packet costs within [50 ns, 100 us] and
  // the DMA setup within [0, 1 ms].
  sim::Duration lanai_send_ns = 500;   // per-packet send-context processing
  sim::Duration lanai_recv_ns = 500;   // per-packet receive-context processing
  sim::Duration dma_setup_ns = 1000;   // DMA descriptor setup
  double dma_mbps = 133.0;             // 32-bit/33 MHz PCI to host memory
  bool enforce_fifo = true;            // assert per-route in-order delivery
  /// With a retransmission layer above, a full receive ring sheds packets
  /// instead of being a protocol violation (spurious duplicates can exceed
  /// the credit-guaranteed space).
  bool allow_recv_overflow_drop = false;
  /// PM-style NIC-level delivery acks (SCore-D, related work §5): the
  /// receiving LANai acknowledges every data packet as it lands (or is
  /// shed), enabling the ack-quiesce flush.
  bool nic_level_acks = false;
};

/// One FM communication context resident on the card (Figure 1).
struct ContextSlot {
  ContextId id = kNoContext;
  JobId job = kNoJob;
  int rank = -1;

  util::RingBuffer<Packet> sendq;   // lives in NIC SRAM
  util::RingBuffer<Packet> recvq;   // lives in the pinned host DMA buffer

  /// Send credits toward each peer rank; maintained by the LANai as refills
  /// arrive, read by the host library before each send.
  std::vector<int> send_credits;
  int initial_credits = 0;

  /// Highest cumulative ack received from each peer rank (retransmission
  /// layer); merged by max as ack-bearing packets arrive.
  std::vector<std::uint64_t> acked_seq_from;

  /// PM ack-quiesce bookkeeping (nic_level_acks mode): highest data seq
  /// handed to the wire toward each peer, and the highest the peer's LANai
  /// has acknowledged.  Outstanding traffic = sent_hwm - nic_acked_hwm.
  std::vector<std::uint64_t> sent_hwm;
  std::vector<std::uint64_t> nic_acked_hwm;

  /// Host-side wakeups.  One-shot: consumed when fired.  They are part of
  /// the context's saved state across a buffer switch (the blocked process
  /// is SIGSTOPped with its waiter registered).
  util::SboFunction<void()> on_sendable;  // send slot freed / credits arrived
  util::SboFunction<void()> on_arrival;   // a packet landed in recvq

  /// Send-queue slots reserved by the host library for copies in flight.
  int reserved_send_slots = 0;

  std::uint64_t pkts_sent = 0;
  std::uint64_t pkts_received = 0;

  ContextSlot(ContextId cid, std::size_t sendq_slots, std::size_t recvq_slots)
      : id(cid), sendq(sendq_slots), recvq(recvq_slots) {}

  std::size_t sendFree() const {
    return sendq.freeSlots() - static_cast<std::size_t>(reserved_send_slots);
  }
};

struct NicStats {
  std::uint64_t data_sent = 0;
  std::uint64_t data_received = 0;
  std::uint64_t control_sent = 0;
  std::uint64_t control_received = 0;
  std::uint64_t refill_credits_received = 0;
  std::uint64_t drops_no_context = 0;   // packet arrived for an unknown job
  std::uint64_t drops_wrong_job = 0;    // SHARE-style discard (ablation)
  std::uint64_t drops_recv_overflow = 0;  // shed on full ring (rtx mode only)
  std::uint64_t nic_acks_sent = 0;
  std::uint64_t nic_acks_received = 0;
  std::uint64_t flushes = 0;
};

class Nic {
 public:
  Nic(sim::Simulator& s, Fabric& fabric, NodeId node, NicConfig cfg = {});

  NodeId node() const { return node_; }
  const NicConfig& config() const { return cfg_; }
  const NicStats& stats() const { return stats_; }
  host::RegionAllocator& sram() { return sram_; }
  host::RegionAllocator& pinnedArena() { return pinned_; }

  // ---- Context management (called by the CM / glueFM layer) -------------

  /// Allocate a context with the given queue geometry.  Fails with
  /// kNoResources when the SRAM or pinned arena cannot hold the queues.
  util::Status allocContext(ContextId id, JobId job, int rank,
                            std::size_t sendq_slots, std::size_t recvq_slots,
                            int initial_credits, int num_peers);
  util::Status freeContext(ContextId id);

  ContextSlot* context(ContextId id);
  const ContextSlot* context(ContextId id) const;
  ContextSlot* contextForJob(JobId job);
  std::size_t contextCount() const { return contexts_.size(); }

  /// Re-tag a context slot to a different job/rank (buffer switch installs
  /// the next job's identity into the live slot).  Only legal while the
  /// network is flushed or the context is virgin (empty rings, no DMA in
  /// flight, and not the owner of the packet the LANai is sending) —
  /// enforced.  Also resynchronizes the send-scan
  /// occupancy column: the buffer switcher drains/refills the slot's send
  /// ring directly, and every switch path retags afterwards.
  void retagContext(ContextId id, JobId job, int rank);

  // ---- Host-side datapath (called by the FM library) ---------------------

  /// Reserve one send-queue slot for a host PIO copy about to start; returns
  /// false when no slot is free.  hostEnqueueSend consumes the reservation.
  bool reserveSendSlot(ContextId id);

  /// Branchless form for the FM send hot path: reserve a slot iff `want`
  /// (the caller's credit check) and a slot is free, as one arithmetic
  /// step.  Returns 1 when the reservation was taken, else 0 — the caller
  /// folds it straight into its credit arithmetic.
  int reserveSendSlotIf(ContextId id, bool want);

  /// Post a fully formed packet into the context's send queue (the host's
  /// PIO copy cost has already elapsed; the caller schedules this at copy
  /// completion, having reserved the slot up front).
  util::Status hostEnqueueSend(ContextId id, const Packet& pkt);

  /// Post a control packet (credit refill) for transmission.  Control
  /// packets bypass the data send queues but are drained before a halt
  /// broadcast so that flush leaves no traffic behind.
  void hostEnqueueControl(const Packet& pkt);

  bool recvEmpty(ContextId id) const;
  /// Pop the oldest received packet.  Precondition: !recvEmpty(id).
  Packet hostDequeueRecv(ContextId id);

  // ---- Context-switch support (called by glueFM) -------------------------

  /// Stage 1, local part: stop starting new data packets (the LANai checks
  /// this bit before each send) and, once the wire and control queue are
  /// clear, broadcast a halt packet to every other node (serial loop).
  /// `on_flushed` fires when the local halt is done AND a halt has been
  /// collected from every peer AND the receive path (DMA) has drained.
  void beginFlush(util::SboFunction<void()> on_flushed);

  /// Stage 3: broadcast readiness and fire `on_released` when every peer's
  /// ready has been collected; sending resumes automatically.
  void beginRelease(util::SboFunction<void()> on_released);

  /// SHARE-style local quiesce (related work §5): stop sending and wait for
  /// the local pipeline (send context, control queue, DMA) to drain — no
  /// global protocol, no agreement with peers.  `on_quiesced` fires when the
  /// card is locally idle; packets from not-yet-switched peers keep arriving
  /// and are discarded by the job-id check.
  void beginLocalQuiesce(util::SboFunction<void()> on_quiesced);

  /// Leave the local-quiesce state and resume sending immediately.
  void endLocalQuiesce();

  /// PM-style ack-quiesce (related work §5, SCore-D / PM): stop sending,
  /// then wait until every data packet this node ever put on the wire has
  /// been acknowledged by the receiving LANai (requires nic_level_acks).
  /// No control broadcast, no agreement — each node drains independently.
  void beginAckQuiesce(util::SboFunction<void()> on_quiesced);
  void endAckQuiesce();

  bool halted() const { return halt_bit_; }
  bool flushed() const { return flush_complete_; }
  bool locallyQuiesced() const { return quiesce_complete_; }

  // ---- Wire side (called by the Fabric) -----------------------------------

  /// `at` is the packet's wire arrival time.  With delivery batching the
  /// call may run before `at` (see Fabric::DeliverFn); every timestamp on
  /// the receive path is therefore derived from `at`, never from now().
  void fromWire(const Packet& pkt, sim::SimTime at);

  // ---- Ablation hooks -----------------------------------------------------

  /// SHARE-mode (related work §5): when true, a data packet whose job does
  /// not match the live context is discarded (ID check on the NIC) instead
  /// of being treated as a protocol violation.
  void setDiscardWrongJob(bool v) { discard_wrong_job_ = v; }

  // ---- Observability (gc_obs) --------------------------------------------

  /// Observer seam (may be null): send-queue entry/exit, flush-FSM
  /// phases, control and refill receipts, DMA transfers, landings, and
  /// every drop.  The probe only observes.
  void setProbe(obs::Probe* p) { probe_ = p; }
  void publishMetrics(obs::MetricsRegistry& reg) const;

 private:
  void runSendScan();
  void sendScan();
  bool trySendDataPacket();
  bool trySendControlPacket();
  void maybeBroadcastHalt();
  void maybeCompleteFlush();
  void maybeCompleteRelease();
  void maybeCompleteQuiesce();
  void maybeCompleteAckQuiesce();
  bool allTrafficAcked() const;
  bool hostPioIdle() const { return reserved_total_ == 0; }
  // This NIC's gcprof LP tag (events on the NIC LP's own queue).
  std::uint32_t lpSelf() const {
    return sim::lpTag(sim::LpDomain::kNic, static_cast<std::uint32_t>(node_));
  }
  void emitNicAck(const Packet& data_pkt);
  void deliverData(const Packet& pkt, sim::SimTime at);
  void dmaDeliver(const Packet& pkt, ContextSlot& ctx, sim::SimTime at);
  void fireSendable(ContextSlot& ctx);
  void reportStage(obs::SwitchStage s, obs::HaltKind how) {
    if (probe_)
      probe_->onNicStage(node_, s, how, fabric_.nodeCount() - 1, sim_.now());
  }
  void shed(obs::DropSite s, const Packet& p, const char* why, sim::SimTime t) {
    if (probe_) probe_->onDrop(s, p, why, t);
  }
  std::size_t contextIndex(ContextId id) const;

  sim::Simulator& sim_;
  Fabric& fabric_;
  NodeId node_;
  NicConfig cfg_;
  host::RegionAllocator sram_;
  host::RegionAllocator pinned_;

  std::vector<std::unique_ptr<ContextSlot>> contexts_;
  // Send-scan occupancy column (structure of arrays, parallel to
  // contexts_): the round-robin send scan reads this packed vector instead
  // of chasing one heap pointer per context just to test sendq.empty().
  // Maintained at every NIC-side push/pop and resynced by retagContext
  // (the buffer switcher moves ring contents behind the NIC's back).
  std::vector<std::uint32_t> sendq_depth_;
  std::size_t scan_cursor_ = 0;  // round-robin position of the send context
  // Sum of every context's reserved_send_slots, so the flush FSM's
  // host-PIO-idle test is one load instead of a per-context sweep.
  int reserved_total_ = 0;

  std::deque<Packet> control_queue_;

  // Send-context state.
  bool send_busy_ = false;              // a packet is being processed/injected
  ContextId sending_ctx_ = kNoContext;  // owner of the data packet in flight
  bool scanning_ = false;               // a send scan is on the stack
  bool rescan_ = false;                 // nested scan request, run on unwind

  // Flush / release state machine (Figure 3).  Counters are cumulative and
  // consumed per epoch, so a peer's halt that arrives before our own local
  // halt ("ah" before "lh" in the figure) is never lost.
  bool halt_bit_ = false;
  bool halt_broadcast_pending_ = false;
  bool halt_broadcast_done_ = false;
  bool flush_complete_ = false;
  std::uint64_t halts_rx_ = 0;
  std::uint64_t halts_consumed_ = 0;
  std::uint64_t readies_rx_ = 0;
  std::uint64_t readies_consumed_ = 0;
  int pending_halt_sends_ = 0;
  int pending_ready_sends_ = 0;
  bool release_broadcast_done_ = false;
  bool release_pending_ = false;
  bool quiesce_mode_ = false;
  bool quiesce_complete_ = false;
  bool ack_quiesce_mode_ = false;
  util::SboFunction<void()> on_flushed_;
  util::SboFunction<void()> on_released_;
  util::SboFunction<void()> on_quiesced_;

  // Receive-context / DMA state.
  sim::SimTime dma_busy_until_ = 0;
  int dma_in_flight_ = 0;

  bool discard_wrong_job_ = false;
  obs::Probe* probe_ = nullptr;

  // FIFO assertion state: last data (job, seq) seen per source node.
  std::vector<std::uint64_t> last_seq_from_;
  std::vector<JobId> last_job_from_;

  NicStats stats_;
};

}  // namespace gangcomm::net
