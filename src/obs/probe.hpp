// The single observer seam (gc_obs).  Fabric, Nic, FmLib, CommNode and
// NodeDaemon each hold one nullable `Probe*` and report through its typed
// callbacks, one pointer test and one call per hook site.  Consumers:
// TraceProbe (obs/trace.hpp), PacketTracer (obs/gctrace.hpp) and
// verify::InvariantEngine.  A probe only observes: it never schedules an
// event or charges simulated time, its one return value (FM send's trace
// id) only rides in the packet header, and no component reads the pointer
// for anything but reporting — installing a probe cannot change what runs.
// A packet event happens at the packet's src_node on the send side (FM
// send, NIC send queue, the wire) and at its dst_node everywhere else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace gangcomm::obs {

enum class PacketEvent {
  kNicQueued,      // host PIO done: the packet sits in the NIC send queue
  kNicDequeued,    // the NIC send context took it off the queue
  kCorrupted,      // a wire fault poisoned its integrity tag
  kDelivered,      // the fabric handed it to the destination NIC
  kControlRx,      // a halt or ready consumed by the destination LANai
  kRefillApplied,  // its refill credits (piggybacked or standalone) applied
  kLanded,         // DMA done: the packet sits in the receive queue
  kAccepted,       // FM accepted it; its credit is now owed back
  kRefillQueued,   // FM put owed refill credits on this packet
  kDispatched,     // FM invoked its handler
  kCarried,        // a buffer switch copied it out of a live queue
};

/// Where a packet was shed; the `reason` strings are static ("drop:...").
enum class DropSite {
  kWire,        // fabric fault: fail-stop, counter, loss
  kNicArrival,  // NIC receive context: no context / wrong job
  kNicLanding,  // NIC at DMA completion: quiesce shed, wrong job, overflow
  kFmChecksum,  // FM extract: integrity tag failed
  kFmWindow,    // FM extract: retransmit-layer duplicate or out of order
};

enum class Transfer {
  kWire,  // injection start -> last byte off the destination input link
  kDma,   // NIC receive DMA into the pinned receive queue
};

/// Per-node stages of the gang-switch protocol (paper Figure 3).  NICs
/// report every stage but the copy, which CommNode's buffer switch marks.
enum class SwitchStage {
  kHaltBegin,
  kHaltBroadcast,  // halts queued to every peer (broadcast flush only)
  kFlushComplete,  // the flush or quiesce is complete
  kCopyBegin,
  kReleaseBegin,  // broadcast flush only
  kReleaseComplete,
};

/// How a NIC halts: the paper's broadcast flush, or the related-work local
/// quiesce (SHARE) and ack quiesce (PM).
enum class HaltKind { kFlush, kQuiesce, kAckQuiesce };

/// One buffer switch's copy volume (parpar::SwitchReport's copy half).
struct CopyCounts {
  std::uint32_t send_pkts = 0;
  std::uint32_t recv_pkts = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
};

/// Consumers override the callbacks they observe.  The base forwards every
/// callback to the probes add()ed to it, in order: a plain Probe is the
/// fixed-order fan-out (onSend returns the last nonzero id minted).
class Probe {
 public:
  virtual ~Probe() = default;

  void add(Probe* p) { fanout_.push_back(p); }
  /// What to install: null without consumers, the consumer itself when
  /// there is one, this fan-out otherwise.
  Probe* seam() {
    if (fanout_.size() > 1) return this;
    return fanout_.empty() ? nullptr : fanout_.front();
  }

  /// FM spent a credit on fresh fragment `p` (seq assigned, not yet on the
  /// NIC), leaving `credits` toward its peer; `first_try` is the fragment's
  /// first send() attempt.  Returns the packet-trace id (0 = untraced).
  virtual std::uint64_t onSend(const net::Packet& p, int credits,
                               sim::SimTime first_try, sim::SimTime t) {
    std::uint64_t id = 0;
    for (Probe* c : fanout_)
      if (const std::uint64_t mine = c->onSend(p, credits, first_try, t))
        id = mine;
    return id;
  }
  /// FM send() refused a fragment for want of a credit or a send slot.
  virtual void onSendBlocked(net::NodeId node, int dst_rank,
                             std::uint32_t frag, bool on_credit,
                             sim::SimTime t) {
    for (Probe* c : fanout_)
      c->onSendBlocked(node, dst_rank, frag, on_credit, t);
  }
  /// FM's retransmission timer for `peer` expired with `window` unacked.
  virtual void onRtxTimeout(net::NodeId node, int peer, std::size_t window,
                            int backoff, sim::SimTime t) {
    for (Probe* c : fanout_) c->onRtxTimeout(node, peer, window, backoff, t);
  }
  virtual void onPacket(PacketEvent ev, const net::Packet& p, sim::SimTime t) {
    for (Probe* c : fanout_) c->onPacket(ev, p, t);
  }
  virtual void onDrop(DropSite site, const net::Packet& p, const char* reason,
                      sim::SimTime t) {
    for (Probe* c : fanout_) c->onDrop(site, p, reason, t);
  }
  virtual void onTransfer(Transfer kind, const net::Packet& p,
                          sim::SimTime start, sim::SimTime done) {
    for (Probe* c : fanout_) c->onTransfer(kind, p, start, done);
  }
  /// `peers` is the halt/ready broadcast width (node count minus one).
  virtual void onNicStage(net::NodeId node, SwitchStage stage, HaltKind how,
                          int peers, sim::SimTime t) {
    for (Probe* c : fanout_) c->onNicStage(node, stage, how, peers, t);
  }
  /// The copy-out of `from_job` runs on the host CPU over [start, start +
  /// out_ns), the copy-in of `to_job` right after it.
  virtual void onBufferSwitch(net::NodeId node, net::JobId from_job,
                              net::JobId to_job, sim::SimTime start,
                              sim::Duration out_ns, sim::Duration in_ns,
                              const CopyCounts& cc) {
    for (Probe* c : fanout_)
      c->onBufferSwitch(node, from_job, to_job, start, out_ns, in_ns, cc);
  }
  /// A completed gang switch: halt [t0, t1), buffer switch [t1, t2),
  /// release [t2, t3).
  virtual void onGangSwitch(net::NodeId node, int from_slot, int to_slot,
                            sim::SimTime t0, sim::SimTime t1, sim::SimTime t2,
                            sim::SimTime t3, const CopyCounts& cc) {
    for (Probe* c : fanout_)
      c->onGangSwitch(node, from_slot, to_slot, t0, t1, t2, t3, cc);
  }
  /// A job's rank was granted `c0` credits toward every peer; `retransmit`
  /// says whether a retransmission layer runs above FM.
  virtual void onJobCredits(net::JobId job, int rank, int job_size, int c0,
                            bool retransmit) {
    for (Probe* c : fanout_)
      c->onJobCredits(job, rank, job_size, c0, retransmit);
  }
  virtual void onJobEnd(net::JobId job) {
    for (Probe* c : fanout_) c->onJobEnd(job);
  }

 private:
  std::vector<Probe*> fanout_;
};

}  // namespace gangcomm::obs
