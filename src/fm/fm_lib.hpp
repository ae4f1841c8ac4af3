// The Fast Messages user-level communication library (host side).
//
// One FmLib instance is linked into each simulated application process.  It
// talks directly to the node's NIC context — no kernel involvement, exactly
// the user-level access model of FM 2.0:
//
//   * send(): fragments a message into 1560-byte queue slots, spends host
//     CPU on the write-combining PIO copy into the NIC send queue, and
//     enforces credit-based flow control toward the destination rank;
//   * extract(): polls the pinned receive queue, dispatches handlers, and
//     generates credit refills (standalone low-water-mark refills or
//     piggybacked on outgoing data);
//   * kWouldBlock + onSendable()/onArrival() implement the blocking that a
//     real FM app gets by spinning on fm_extract.
//
// All host CPU costs go through the node's HostCpu, so a process that is
// filling the send queue is *not* simultaneously draining its receive queue
// — the asymmetry behind the paper's observation that send queues stay
// nearly empty while receive queues back up under all-to-all (Figure 8).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "fm/config.hpp"
#include "host/cpu_model.hpp"
#include "net/nic.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "sim/simulator.hpp"
#include "util/sbo_function.hpp"
#include "util/status.hpp"

namespace gangcomm::fm {

struct FmStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t payload_bytes_received = 0;
  std::uint64_t refills_sent = 0;
  std::uint64_t refill_credits_piggybacked = 0;
  std::uint64_t send_blocks_on_credit = 0;
  std::uint64_t send_blocks_on_queue = 0;
  // Retransmission layer (when enabled):
  std::uint64_t packets_retransmitted = 0;
  std::uint64_t rtx_timeouts = 0;
  std::uint64_t ooo_dropped = 0;  // out-of-order arrivals shed (go-back-N)
  std::uint64_t dup_dropped = 0;  // duplicates shed
  // Checksum path (when FmConfig::checksum_shed):
  std::uint64_t checksum_dropped = 0;  // corrupt packets shed at extract()
};

class FmLib {
 public:
  struct Params {
    net::ContextId ctx = 0;
    net::JobId job = 0;
    int rank = 0;
    std::vector<net::NodeId> rank_to_node;  // job's process->node mapping
    int credits_c0 = 0;
    int refill_threshold = 0;  // 0 = derive from config().refill_fraction
  };

  FmLib(sim::Simulator& s, host::HostCpu& cpu, net::Nic& nic,
        const FmConfig& cfg, Params params);

  /// Config validation, run by the constructor (which aborts on failure).
  /// kInvalid when the retransmission layer is enabled with a timeout that
  /// does not exceed the drain time of a full credit window
  /// (credits_c0 x kFullSlotServiceNs) — such a timeout turns every deep
  /// burst into a spurious go-back-N sweep.
  static util::Status validateConfig(const FmConfig& cfg, int credits_c0);

  using Handler = util::SboFunction<void(const net::Packet&)>;

  /// Register the receive handler for a handler id (FM's handler table).
  void setHandler(std::uint16_t id, Handler h);

  /// Send `msg_bytes` to `dst_rank`, invoking `handler` there.  Returns:
  ///   kOk          message fully queued (possibly across earlier calls),
  ///   kWouldBlock  out of credits or send-queue slots mid-message; call
  ///                again (same arguments) after onSendable() fires,
  ///   kDeadlock    C0 == 0: the configuration can never move a packet.
  /// `user_tag`/`user_data` ride opaquely in the packet header (used by the
  /// MPI layer for tag matching and payload verification).
  util::Status send(int dst_rank, std::uint16_t handler,
                    std::uint32_t msg_bytes, std::uint16_t user_tag = 0,
                    std::uint64_t user_data = 0);

  /// True when a message is partially queued (a send returned kWouldBlock).
  bool sendPending() const { return pending_.active; }

  /// Drain up to `max_packets` from the receive queue, dispatching handlers
  /// and issuing refills.  Returns the number of packets consumed.
  int extract(int max_packets);

  /// One-shot wakeups.
  void onSendable(util::SboFunction<void()> cb);
  void onArrival(util::SboFunction<void()> cb);

  /// SIGSTOP/SIGCONT mirror for the retransmission layer: a suspended
  /// process must not fire retransmit timers (its context may be switched
  /// out).  Pending timeouts are honoured on resume.
  void setSuspended(bool suspended);

  /// True when no sent packet is awaiting an ack (vacuously true without
  /// the retransmission layer).  FM_finalize semantics: a process must not
  /// exit while this is false — its peers may still need retransmissions
  /// that only this library's timers can supply.
  bool sendWindowsDrained() const;

  /// One-shot callback fired when the last unacked window empties.  If the
  /// windows are already drained it fires on the next simulator step.
  void onDrained(util::SboFunction<void()> cb);

  bool recvQueueEmpty() const { return nic_.recvEmpty(params_.ctx); }
  int credits(int dst_rank) const;
  int creditsC0() const { return params_.credits_c0; }
  int rank() const { return params_.rank; }
  net::NodeId node() const { return nic_.node(); }
  int jobSize() const { return static_cast<int>(params_.rank_to_node.size()); }
  net::JobId job() const { return params_.job; }
  const FmStats& stats() const { return stats_; }
  const FmConfig& config() const { return cfg_; }
  host::HostCpu& cpu() { return cpu_; }
  sim::Simulator& sim() { return sim_; }

  /// Number of packets a message of `bytes` fragments into (>= 1).
  static std::uint32_t packetsForMessage(std::uint32_t bytes);

  /// Observer seam (may be null): credit debits (the probe may mint a
  /// packet-trace id), send blocks, refills, accepts, dispatches, sheds, and
  /// retransmit timeouts.  The probe only observes.
  void setProbe(obs::Probe* p) { probe_ = p; }
  void publishMetrics(obs::MetricsRegistry& reg) const;

 private:
  net::ContextSlot& slot();
  const net::ContextSlot& slot() const;
  // gcprof LP tags: host-side events (timers, sweeps) live on the node LP;
  // PIO completions land in NIC SRAM and are accounted to the NIC LP.
  std::uint32_t lpNode() const {
    return sim::lpTag(sim::LpDomain::kNode,
                      static_cast<std::uint32_t>(nic_.node()));
  }
  std::uint32_t lpNic() const {
    return sim::lpTag(sim::LpDomain::kNic,
                      static_cast<std::uint32_t>(nic_.node()));
  }
  void queueFragment(int dst_rank, std::uint16_t handler,
                     std::uint32_t payload, bool last);
  void maybeSendRefill(int src_rank);
  // Retransmission layer.
  void trackUnacked(const net::Packet& p);
  void purgeAcked(int peer);
  void armRtxTimer(int peer);
  void onRtxTimeout(int peer);
  void retransmitPending(int peer);
  void sweepResend(int peer, std::uint64_t next_seq, std::uint64_t end_seq);
  void pushPacketToNic(const net::Packet& p);

  sim::Simulator& sim_;
  host::HostCpu& cpu_;
  net::Nic& nic_;
  FmConfig cfg_;
  Params params_;
  int refill_threshold_;

  std::vector<Handler> handlers_;

  // Partially queued outgoing message (resumed across kWouldBlock).
  struct PendingSend {
    bool active = false;
    int dst_rank = -1;
    std::uint16_t handler = 0;
    std::uint16_t user_tag = 0;
    std::uint64_t user_data = 0;
    std::uint32_t msg_bytes = 0;
    std::uint64_t msg_id = 0;
    std::uint32_t next_frag = 0;
    std::uint32_t total_frags = 0;
    std::uint32_t bytes_left = 0;
    // gctrace: first send() attempt of the *current* fragment, so blocked
    // time (credits / queue slots) lands in the credit_wait stage.
    sim::SimTime frag_start = 0;
    bool frag_start_valid = false;
  } pending_;

  std::uint64_t next_msg_id_ = 1;
  std::vector<std::uint64_t> next_seq_to_;     // per dst rank
  std::vector<std::uint32_t> pending_refill_;  // consumed, not yet refilled
  // Retransmission layer state (all empty/idle unless enabled).
  std::vector<std::deque<net::Packet>> unacked_;   // per peer, seq order
  std::vector<std::uint64_t> expected_from_;       // next in-order seq
  std::vector<sim::EventHandle> rtx_timer_;
  std::vector<sim::EventHandle> rtx_sweep_;        // paced sweep continuation
  std::vector<std::uint64_t> rtx_last_head_;       // head seq at last timeout
  std::vector<int> rtx_stalled_rounds_;            // no-progress timeouts
  std::vector<int> rtx_backoff_;                   // timeout multiplier (1..8)
  util::SboFunction<void()> on_drained_;           // FM_finalize drain wait
  bool suspended_ = false;
  obs::Probe* probe_ = nullptr;
  FmStats stats_;
};

}  // namespace gangcomm::fm
