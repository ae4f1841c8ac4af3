#include "fm/fm_lib.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "sim/log.hpp"
#include "util/check.hpp"

namespace gangcomm::fm {

using net::Packet;
using util::Status;

FmLib::FmLib(sim::Simulator& s, host::HostCpu& cpu, net::Nic& nic,
             const FmConfig& cfg, Params params)
    : sim_(s),
      cpu_(cpu),
      nic_(nic),
      cfg_(cfg),
      params_(std::move(params)),
      refill_threshold_(params_.refill_threshold > 0
                            ? params_.refill_threshold
                            : CreditMath::refillThreshold(
                                  params_.credits_c0, cfg.refill_fraction)),
      handlers_(64),
      next_seq_to_(params_.rank_to_node.size(), 0),
      pending_refill_(params_.rank_to_node.size(), 0),
      unacked_(params_.rank_to_node.size()),
      expected_from_(params_.rank_to_node.size(), 1),
      rtx_timer_(params_.rank_to_node.size()),
      rtx_sweep_(params_.rank_to_node.size()),
      rtx_last_head_(params_.rank_to_node.size(), 0),
      rtx_stalled_rounds_(params_.rank_to_node.size(), 0),
      rtx_backoff_(params_.rank_to_node.size(), 1) {
  GC_CHECK_MSG(nic_.context(params_.ctx) != nullptr,
               "FmLib bound to a context that was never allocated");
  GC_CHECK_MSG(util::ok(validateConfig(cfg_, params_.credits_c0)),
               "retransmit_timeout_ns must exceed the drain time of a full "
               "credit window (C0 x ~21 us per slot)");
  // Prompt per-packet acks keep the go-back-N window honest.
  if (cfg_.enable_retransmit) refill_threshold_ = 1;
}

Status FmLib::validateConfig(const FmConfig& cfg, int credits_c0) {
  if (!cfg.enable_retransmit) return Status::kOk;
  if (cfg.rtx_burst_packets < 1) return Status::kInvalid;
  const sim::Duration window_drain =
      static_cast<sim::Duration>(credits_c0 > 0 ? credits_c0 : 0) *
      kFullSlotServiceNs;
  if (cfg.retransmit_timeout_ns <= window_drain) return Status::kInvalid;
  return Status::kOk;
}

net::ContextSlot& FmLib::slot() {
  net::ContextSlot* c = nic_.context(params_.ctx);
  GC_CHECK(c != nullptr);
  return *c;
}

const net::ContextSlot& FmLib::slot() const {
  const net::ContextSlot* c = nic_.context(params_.ctx);
  GC_CHECK(c != nullptr);
  return *c;
}

void FmLib::setHandler(std::uint16_t id, Handler h) {
  GC_CHECK_MSG(id < handlers_.size(), "handler id out of range");
  handlers_[id] = std::move(h);
}

std::uint32_t FmLib::packetsForMessage(std::uint32_t bytes) {
  if (bytes == 0) return 1;
  return (bytes + net::kMaxPayloadBytes - 1) / net::kMaxPayloadBytes;
}

int FmLib::credits(int dst_rank) const {
  const auto& s = slot();
  GC_CHECK(dst_rank >= 0 &&
           static_cast<std::size_t>(dst_rank) < s.send_credits.size());
  return s.send_credits[static_cast<std::size_t>(dst_rank)];
}

Status FmLib::send(int dst_rank, std::uint16_t handler,
                   std::uint32_t msg_bytes, std::uint16_t user_tag,
                   std::uint64_t user_data) {
  if (params_.credits_c0 <= 0) return Status::kDeadlock;
  GC_CHECK_MSG(dst_rank >= 0 && static_cast<std::size_t>(dst_rank) <
                                    params_.rank_to_node.size(),
               "send to unknown rank");
  GC_CHECK_MSG(dst_rank != params_.rank, "FM does not support self-sends");

  if (!pending_.active) {
    // Start a new message: one fm_send call's worth of host overhead.
    cpu_.acquire(sim_.now(), cfg_.host_per_message_ns);
    pending_.active = true;
    pending_.dst_rank = dst_rank;
    pending_.handler = handler;
    pending_.user_tag = user_tag;
    pending_.user_data = user_data;
    pending_.msg_bytes = msg_bytes;
    pending_.msg_id = next_msg_id_++;
    pending_.next_frag = 0;
    pending_.total_frags = packetsForMessage(msg_bytes);
    pending_.bytes_left = msg_bytes;
  } else {
    // A resumed send must repeat the original call exactly — including the
    // opaque user_tag/user_data words, which ride in every fragment's header
    // and would otherwise silently change mid-message.
    GC_CHECK_MSG(pending_.dst_rank == dst_rank &&
                     pending_.handler == handler &&
                     pending_.msg_bytes == msg_bytes &&
                     pending_.user_tag == user_tag &&
                     pending_.user_data == user_data,
                 "resumed send() with different arguments");
  }

  net::ContextSlot& s = slot();
  while (pending_.next_frag < pending_.total_frags) {
    if (!pending_.frag_start_valid) {
      // gctrace anchors the fragment's credit_wait stage at its *first*
      // attempt; a resumed send() after kWouldBlock keeps the old stamp.
      pending_.frag_start = sim_.now();
      pending_.frag_start_valid = true;
    }
    // Branchless credit + slot admission: the credit test folds into the
    // NIC's masked reservation, and the debit is the reservation result —
    // the happy path clears both gates with no unpredictable branch.  The
    // single cold branch below unpacks which gate refused.
    int& credit = s.send_credits[static_cast<std::size_t>(dst_rank)];
    const bool have_credit = credit > 0;
    const int go = nic_.reserveSendSlotIf(params_.ctx, have_credit);
    credit -= go;
    if (go == 0) {
      if (have_credit)
        ++stats_.send_blocks_on_queue;
      else
        ++stats_.send_blocks_on_credit;
      if (probe_)
        probe_->onSendBlocked(nic_.node(), dst_rank, pending_.next_frag,
                              !have_credit, sim_.now());
      return Status::kWouldBlock;
    }
    const bool last = pending_.next_frag + 1 == pending_.total_frags;
    const std::uint32_t payload =
        pending_.bytes_left < net::kMaxPayloadBytes ? pending_.bytes_left
                                                    : net::kMaxPayloadBytes;
    queueFragment(dst_rank, handler, payload, last);
    pending_.frag_start_valid = false;
    pending_.bytes_left -= payload;
    ++pending_.next_frag;
  }

  pending_.active = false;
  ++stats_.messages_sent;
  return Status::kOk;
}

void FmLib::queueFragment(int dst_rank, std::uint16_t handler,
                          std::uint32_t payload, bool last) {
  Packet p;
  p.type = net::PacketType::kData;
  p.src_node = nic_.node();
  p.dst_node = params_.rank_to_node[static_cast<std::size_t>(dst_rank)];
  p.job = params_.job;
  p.src_rank = params_.rank;
  p.dst_rank = dst_rank;
  p.handler = handler;
  p.user_tag = pending_.user_tag;
  p.user_data = pending_.user_data;
  p.payload_bytes = payload;
  p.msg_bytes = pending_.msg_bytes;
  p.msg_id = pending_.msg_id;
  p.frag_index = pending_.next_frag;
  p.last_frag = last;
  p.seq = ++next_seq_to_[static_cast<std::size_t>(dst_rank)];
  p.tag = Packet::makeTag(p.job, p.src_rank, p.dst_rank, p.msg_id,
                          p.frag_index);
  // The caller (send) debited one credit for this fresh fragment;
  // retransmissions bypass queueFragment and spend nothing.  A packet
  // tracer mints the lifecycle id here — the one place every data packet
  // passes — with the fragment's first send() attempt as journey origin.
  if (probe_)
    p.trace_id = probe_->onSend(
        p, slot().send_credits[static_cast<std::size_t>(dst_rank)],
        pending_.frag_start, sim_.now());

  // Cumulative ack rides on every packet (harmless without the
  // retransmission layer: receivers merge it by max).
  p.ack_seq = expected_from_[static_cast<std::size_t>(dst_rank)] - 1;

  if (cfg_.enable_retransmit) {
    // A lost packet would lose piggybacked credits with it, and a duplicate
    // would double-apply them; refills travel only as control packets here.
    trackUnacked(p);
  } else {
    // Piggyback any refill we owe this peer (paper §2.2).
    auto& owed = pending_refill_[static_cast<std::size_t>(dst_rank)];
    if (owed > 0) {
      p.refill_credits = owed;
      stats_.refill_credits_piggybacked += owed;
      if (probe_)
        probe_->onPacket(obs::PacketEvent::kRefillQueued, p, sim_.now());
      owed = 0;
    }
  }

  pushPacketToNic(p);
  ++stats_.packets_sent;
  stats_.payload_bytes_sent += payload;
}

void FmLib::pushPacketToNic(const net::Packet& p) {
  // The host CPU performs the write-combining PIO copy into NIC SRAM; the
  // packet becomes visible to the LANai when the copy completes.
  const sim::Duration cost =
      cfg_.host_per_packet_ns +
      sim::transferNs(net::kPacketHeaderBytes + p.payload_bytes,
                      cfg_.pio_write_mbps);
  const sim::SimTime done = cpu_.acquire(sim_.now(), cost);
  const net::ContextId ctx = params_.ctx;
  net::Nic* nic = &nic_;
  sim::LpScope lp(sim_, lpNic());
  sim_.scheduleAt(done, [nic, ctx, p] {
    // The context can be freed between PIO start and completion (job torn
    // down mid-flight); the packet is then legally dropped with the job.
    (void)nic->hostEnqueueSend(ctx, p);
  });
}

int FmLib::extract(int max_packets) {
  int n = 0;
  while (n < max_packets && !nic_.recvEmpty(params_.ctx)) {
    Packet p = nic_.hostDequeueRecv(params_.ctx);
    if (!p.tagValid()) {
      // FM checksum path: a wire-corrupted packet is shed before any
      // protocol state moves — the receive window does not advance, no
      // refill is earned, and (with the retransmission layer) the sender's
      // timeout sweep supplies a clean copy.  Without the shed path a bad
      // tag is what it always was: a protocol bug, caught loudly.
      GC_CHECK_MSG(cfg_.checksum_shed, "corrupt packet reached a handler");
      cpu_.acquire(sim_.now(), cfg_.extract_per_packet_ns);
      ++n;
      ++stats_.checksum_dropped;
      if (probe_)
        probe_->onDrop(obs::DropSite::kFmChecksum, p, "drop:checksum",
                       sim_.now());
      continue;
    }
    GC_CHECK_MSG(p.job == params_.job, "packet for another job in our queue");
    GC_CHECK_MSG(p.dst_rank == params_.rank, "misrouted packet");

    sim::Duration cost = cfg_.extract_per_packet_ns + cfg_.handler_base_ns;
    if (cfg_.recv_touch_mbps > 0.0)
      cost += sim::transferNs(p.payload_bytes, cfg_.recv_touch_mbps);
    cpu_.acquire(sim_.now(), cost);
    ++n;

    const auto src = static_cast<std::size_t>(p.src_rank);
    if (cfg_.enable_retransmit) {
      // The ack-bearing packet may have moved our window forward.
      purgeAcked(p.src_rank);
      auto& expected = expected_from_[src];
      if (p.seq < expected) {
        ++stats_.dup_dropped;
        if (probe_)
          probe_->onDrop(obs::DropSite::kFmWindow, p, "drop:dup", sim_.now());
        continue;
      }
      if (p.seq > expected) {
        // Go-back-N: shed and wait for the sender's timeout sweep.
        ++stats_.ooo_dropped;
        if (probe_)
          probe_->onDrop(obs::DropSite::kFmWindow, p, "drop:ooo", sim_.now());
        continue;
      }
      ++expected;
    }

    ++stats_.packets_received;
    stats_.payload_bytes_received += p.payload_bytes;
    if (p.last_frag) ++stats_.messages_received;
    if (probe_) probe_->onPacket(obs::PacketEvent::kAccepted, p, sim_.now());

    // A credit is owed only for delivered packets; shed duplicates above
    // never spent a fresh credit (retransmissions are free of credits).
    ++pending_refill_[src];
    maybeSendRefill(p.src_rank);

    GC_CHECK_MSG(p.handler < handlers_.size() && handlers_[p.handler],
                 "packet for an unregistered handler");
    if (probe_) probe_->onPacket(obs::PacketEvent::kDispatched, p, sim_.now());
    handlers_[p.handler](p);
  }
  return n;
}

void FmLib::maybeSendRefill(int src_rank) {
  auto& owed = pending_refill_[static_cast<std::size_t>(src_rank)];
  if (static_cast<int>(owed) < refill_threshold_) return;

  Packet r;
  r.type = net::PacketType::kRefill;
  r.src_node = nic_.node();
  r.dst_node = params_.rank_to_node[static_cast<std::size_t>(src_rank)];
  r.job = params_.job;
  r.src_rank = params_.rank;
  r.dst_rank = src_rank;
  r.refill_credits = owed;
  r.ack_seq = expected_from_[static_cast<std::size_t>(src_rank)] - 1;
  owed = 0;

  const sim::SimTime done = cpu_.acquire(sim_.now(), cfg_.refill_send_ns);
  net::Nic* nic = &nic_;
  sim::LpScope lp(sim_, lpNic());
  sim_.scheduleAt(done, [nic, r] { nic->hostEnqueueControl(r); });
  ++stats_.refills_sent;
  if (probe_) probe_->onPacket(obs::PacketEvent::kRefillQueued, r, sim_.now());
}

void FmLib::onSendable(util::SboFunction<void()> cb) {
  slot().on_sendable = std::move(cb);
}

// ---- Retransmission layer ---------------------------------------------------

void FmLib::trackUnacked(const net::Packet& p) {
  unacked_[static_cast<std::size_t>(p.dst_rank)].push_back(p);
  // Suspend semantics match purgeAcked: a gang-descheduled process must not
  // hold an armed timer — a fuse lit mid-suspension would fire almost
  // immediately after resume and duplicate packets that were never lost.
  // setSuspended(false) arms a fresh full timeout for every non-empty
  // window instead.
  if (!suspended_) armRtxTimer(p.dst_rank);
}

void FmLib::purgeAcked(int peer) {
  if (!cfg_.enable_retransmit) return;
  const auto idx = static_cast<std::size_t>(peer);
  const std::uint64_t acked = slot().acked_seq_from[idx];
  auto& q = unacked_[idx];
  bool progressed = false;
  while (!q.empty() && q.front().seq <= acked) {
    q.pop_front();
    progressed = true;
  }
  if (!progressed) return;
  rtx_backoff_[idx] = 1;
  // Head advanced: restart the timer so it measures the age of the *new*
  // head, not of the whole (continuously refilled) window.
  if (rtx_timer_[idx].valid()) {
    sim_.cancel(rtx_timer_[idx]);
    rtx_timer_[idx] = {};
  }
  if (!q.empty() && !suspended_) armRtxTimer(peer);
  // purgeAcked is the only place windows shrink, so this is the one spot
  // where a drain waiter (FM_finalize) can come due.
  if (on_drained_ != nullptr && sendWindowsDrained()) {
    auto cb = std::move(on_drained_);
    on_drained_ = nullptr;
    cb();
  }
}

bool FmLib::sendWindowsDrained() const {
  for (const auto& q : unacked_)
    if (!q.empty()) return false;
  return true;
}

void FmLib::onDrained(util::SboFunction<void()> cb) {
  GC_CHECK_MSG(on_drained_ == nullptr, "one drain waiter at a time");
  if (sendWindowsDrained()) {
    sim::LpScope lp(sim_, lpNode());
    sim_.schedule(0, std::move(cb));
    return;
  }
  on_drained_ = std::move(cb);
}

void FmLib::armRtxTimer(int peer) {
  const auto idx = static_cast<std::size_t>(peer);
  // A sweep in progress is itself the recovery action for this peer; it
  // re-arms the timer when its last chunk goes out.
  if (rtx_timer_[idx].valid() || rtx_sweep_[idx].valid()) return;
  const sim::Duration delay =
      cfg_.retransmit_timeout_ns *
      static_cast<sim::Duration>(rtx_backoff_[idx]);
  sim::LpScope lp(sim_, lpNode());
  rtx_timer_[idx] =
      sim_.schedule(delay, [this, peer] { onRtxTimeout(peer); });
}

void FmLib::onRtxTimeout(int peer) {
  const auto idx = static_cast<std::size_t>(peer);
  rtx_timer_[idx] = {};
  if (suspended_) {
    // Gang-descheduled: under switched buffer policies the live context
    // seat now holds *another job's* state, so even the acked_seq_from
    // read behind purgeAcked would purge our window against a foreign
    // job's ack marks (silently dropping packets that were never
    // delivered).  Touch nothing; setSuspended's resume sweep purges
    // against our restored marks and re-fires this burned-out fuse.
    return;
  }
  purgeAcked(peer);
  if (unacked_[idx].empty()) return;
  ++stats_.rtx_timeouts;
  if (probe_)
    probe_->onRtxTimeout(nic_.node(), peer, unacked_[idx].size(),
                         rtx_backoff_[idx], sim_.now());
  // Track progress between timeouts: repeated timeouts with the same head
  // seq degrade to stop-and-wait, which breaks pathological loss patterns
  // that keep hitting the same position of a fixed-size sweep.
  const std::uint64_t head = unacked_[idx].front().seq;
  if (head == rtx_last_head_[idx])
    ++rtx_stalled_rounds_[idx];
  else
    rtx_stalled_rounds_[idx] = 0;
  rtx_last_head_[idx] = head;
  if (rtx_backoff_[idx] < 8) rtx_backoff_[idx] *= 2;
  retransmitPending(peer);
}

void FmLib::retransmitPending(int peer) {
  const auto idx = static_cast<std::size_t>(peer);
  // Go-back-N sweep: resend unacked packets, oldest first.  No fresh credit
  // is spent — the receiver-side slot reservation of the original
  // transmission still stands.  After repeated no-progress timeouts, only
  // the head is resent (stop-and-wait fallback).  Seqs in the window are
  // contiguous, so the sweep is bounded by [head, head + limit - 1]; packets
  // queued after the timeout are fresh, not timed out, and stay out of it.
  if (unacked_[idx].empty()) {
    armRtxTimer(peer);
    return;
  }
  const std::size_t limit =
      rtx_stalled_rounds_[idx] >= 2 ? 1 : unacked_[idx].size();
  const std::uint64_t head = unacked_[idx].front().seq;
  sweepResend(peer, head, head + static_cast<std::uint64_t>(limit) - 1);
}

void FmLib::sweepResend(int peer, std::uint64_t next_seq,
                        std::uint64_t end_seq) {
  const auto idx = static_cast<std::size_t>(peer);
  rtx_sweep_[idx] = {};
  // Gang-descheduled mid-sweep: abandon it — the live seat may hold another
  // job's state (see onRtxTimeout), and the resume sweep restarts recovery.
  if (suspended_) return;
  purgeAcked(peer);
  std::uint64_t last = 0;
  int burst = 0;
  bool more = false;  // the burst hit its packet or host-CPU budget
  for (const net::Packet& p : unacked_[idx]) {
    if (p.seq < next_seq) continue;
    if (p.seq > end_seq) break;
    // A burst ends at rtx_burst_packets PIOs or once the host CPU is booked
    // a batch budget ahead, so a sweep never holds the CPU longer than a
    // process step does.
    if (burst == cfg_.rtx_burst_packets ||
        (burst > 0 && cpu_.availableAt(sim_.now()) - sim_.now() >=
                          host::kBatchBudget)) {
      more = true;
      break;
    }
    if (!nic_.reserveSendSlot(params_.ctx)) break;  // full queue: timer retries
    pushPacketToNic(p);
    ++stats_.packets_retransmitted;
    ++burst;
    last = p.seq;
  }
  if (more) {
    // More of the window to go: continue once the host has drained this
    // burst's PIOs, so the noded and the extract loop interleave instead of
    // queueing behind one giant booking.
    const sim::Duration gap = cpu_.availableAt(sim_.now()) - sim_.now();
    sim::LpScope lp(sim_, lpNode());
    rtx_sweep_[idx] = sim_.schedule(gap, [this, peer, last, end_seq] {
      sweepResend(peer, last + 1, end_seq);
    });
    return;
  }
  armRtxTimer(peer);
}

void FmLib::setSuspended(bool suspended) {
  suspended_ = suspended;
  if (suspended || !cfg_.enable_retransmit) return;
  // Resume sweep over every peer: purge what was acked while we were off
  // the card (the gang switch flushed the network, so acked_seq_from is
  // final), then deal with each still-unacked window.  A window whose
  // pre-suspension fuse is still pending keeps it; purgeAcked re-armed a
  // fresh one wherever the head advanced.  What remains is a fuse that
  // burned out mid-suspension and was swallowed by onRtxTimeout: that head
  // is already a full timeout old, so it fires now — re-arming another full
  // backoff period instead would livelock once the period outgrows our gang
  // residency (every timeout would land off the card, be swallowed, and be
  // pushed another full period out on resume, forever).
  for (std::size_t peer = 0; peer < unacked_.size(); ++peer) {
    purgeAcked(static_cast<int>(peer));
    if (unacked_[peer].empty() || rtx_timer_[peer].valid() ||
        rtx_sweep_[peer].valid())
      continue;
    const int p = static_cast<int>(peer);
    sim::LpScope lp(sim_, lpNode());
    rtx_timer_[peer] = sim_.schedule(0, [this, p] { onRtxTimeout(p); });
  }
}

void FmLib::onArrival(util::SboFunction<void()> cb) {
  slot().on_arrival = std::move(cb);
}

// ---- Observability ----------------------------------------------------------

void FmLib::publishMetrics(obs::MetricsRegistry& reg) const {
  const std::string p = "fm.j" + std::to_string(params_.job) + ".r" +
                        std::to_string(params_.rank) + ".";
  reg.setCounter(p + "messages_sent", stats_.messages_sent);
  reg.setCounter(p + "packets_sent", stats_.packets_sent);
  reg.setCounter(p + "payload_bytes_sent", stats_.payload_bytes_sent);
  reg.setCounter(p + "messages_received", stats_.messages_received);
  reg.setCounter(p + "packets_received", stats_.packets_received);
  reg.setCounter(p + "payload_bytes_received", stats_.payload_bytes_received);
  reg.setCounter(p + "refills_sent", stats_.refills_sent);
  reg.setCounter(p + "refill_credits_piggybacked",
                 stats_.refill_credits_piggybacked);
  reg.setCounter(p + "send_blocks_on_credit", stats_.send_blocks_on_credit);
  reg.setCounter(p + "send_blocks_on_queue", stats_.send_blocks_on_queue);
  if (cfg_.enable_retransmit) {
    reg.setCounter(p + "packets_retransmitted", stats_.packets_retransmitted);
    reg.setCounter(p + "rtx_timeouts", stats_.rtx_timeouts);
    reg.setCounter(p + "ooo_dropped", stats_.ooo_dropped);
    reg.setCounter(p + "dup_dropped", stats_.dup_dropped);
  }
  if (cfg_.checksum_shed)
    reg.setCounter(p + "checksum_dropped", stats_.checksum_dropped);
}

}  // namespace gangcomm::fm
