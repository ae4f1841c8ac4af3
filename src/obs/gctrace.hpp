// gctrace: causal per-packet lifecycle tracing (gc_obs).
//
// Every data packet minted while packet tracing is on carries a trace id
// (net::Packet::trace_id) and is stamped with simulated-time timestamps as
// it crosses the stages of its life:
//
//   COMM_send -> credit grant -> NIC send queue -> wire -> receive queue
//            -> handler dispatch,
//
// including the time it sat in the NIC send queue *because the card was
// halted for a gang switch* (the switch-stall stage).  Stamps live in a
// side table keyed by trace id — the packet itself only grows by the 8-byte
// id, absorbed into former struct padding — so hot-path closures capturing
// a Packet stay inside the simulator's action SBO.
//
// The seven stages tile the packet's end-to-end latency exactly:
//
//   credit_wait   first send attempt of the fragment -> credit debit
//                 (covers both credit and send-queue-slot blocking)
//   host_pio      credit debit -> packet visible in NIC SRAM (host CPU
//                 queueing + the write-combining PIO copy)
//   nic_queue     SRAM send queue residency, minus any halted time
//   switch_stall  portion of the queue residency while the halt bit was set
//                 (gang switch in progress)
//   wire          injection start -> last byte off the receiver's input link
//   rx_dma        wire done -> packet landed in the pinned receive queue
//                 (LANai receive processing + DMA wait + DMA transfer)
//   recv_queue    receive-queue residency until fm_extract dispatches the
//                 handler
//
// sum(stages) == dispatch - first send attempt, per packet — the property
// the gctrace CLI and the acceptance tests check.
//
// Aggregation is a LatencyAttribution (per-stage Stats + fixed-geometry
// Histograms, mergeable across sweep-runner jobs with byte-identical
// results), and, when a TraceRecorder is attached, every journey emits
// Chrome flow events (ph:"s"/"f", one flow id per packet) plus a
// "pkt:stages" instant carrying the stage breakdown — Perfetto-linkable and
// machine-readable by tools/gctrace.
//
// The FlightRecorder is the post-mortem companion: a bounded ring of recent
// packet/protocol events (O(1) memory on arbitrarily long runs) that the
// cluster dumps automatically when the gcverify invariant engine aborts.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"
#include "util/ring_buffer.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace gangcomm::obs {

enum class PacketStage : int {
  kCreditWait = 0,
  kHostPio,
  kNicQueue,
  kSwitchStall,
  kWire,
  kRxDma,
  kRecvQueue,
};

inline constexpr std::size_t kPacketStageCount = 7;

const char* packetStageName(PacketStage s);

/// All stages in lifecycle order (for iteration in reports/tests).
const std::array<PacketStage, kPacketStageCount>& packetStages();

/// One packet's stamped lifecycle.  Timestamps are simulated ns; a stamp of
/// 0 with the corresponding stage un-reached means "not there yet".
struct PacketJourney {
  std::uint64_t id = 0;
  int job = -1;
  int src_rank = -1;
  int dst_rank = -1;
  int src_node = -1;
  int dst_node = -1;
  std::uint64_t seq = 0;
  std::uint32_t bytes = 0;

  sim::SimTime send_start = 0;    // first send() attempt of this fragment
  sim::SimTime credit_grant = 0;  // credit debited, slot reserved
  sim::SimTime nicq_enter = 0;    // PIO copy done, packet in NIC SRAM
  sim::SimTime wire_enter = 0;    // injection serialization started
  sim::SimTime rx_wire_done = 0;  // last byte off the receiver's input link
  sim::SimTime rxq_enter = 0;     // DMA complete, packet in the recv queue
  sim::SimTime dispatch = 0;      // fm_extract invoked the handler

  /// Receiver-side halted-time accumulator snapshot at send-queue entry;
  /// the dequeue diff is the switch stall.
  sim::Duration halt_acc_enq = 0;
  sim::Duration switch_stall = 0;
  /// Buffer switches this packet rode through while parked in a NIC queue
  /// (copied out to a backing store and restored by the BufferSwitcher).
  std::uint32_t switches_carried = 0;

  sim::Duration stageNs(PacketStage s) const;
  sim::Duration endToEndNs() const {
    return dispatch >= send_start ? dispatch - send_start : 0;
  }
};

/// Per-stage latency aggregation: exact Stats (count/mean/sum/min/max, in
/// ns) plus a fixed-geometry Histogram (1 us buckets over [0, 4096) us,
/// overflow clamped to the top bucket) for p50/p95/p99.  Fixed geometry +
/// integer bucket counts make merge() byte-deterministic across
/// sweep-runner job counts.
class LatencyAttribution {
 public:
  LatencyAttribution();

  void record(const PacketJourney& j);
  void merge(const LatencyAttribution& other);

  std::uint64_t packets() const { return end_to_end_.count(); }
  const util::Stats& stageStats(PacketStage s) const;
  const util::Histogram& stageHistogram(PacketStage s) const;
  const util::Stats& endToEndStats() const { return end_to_end_; }
  const util::Histogram& endToEndHistogram() const { return e2e_hist_; }

  /// stage | packets | mean_us | p50_us | p95_us | p99_us | share_pct rows
  /// (share = stage time as a fraction of summed end-to-end time), with a
  /// trailing end_to_end row.
  util::Table table() const;

  /// Publish into a MetricsRegistry under `prefix` ("gctrace."):
  /// distributions <prefix>stage.<name>_ns, gauges for p50/p95/p99 (us) and
  /// share_pct, and counter <prefix>packets.  Registry table()/writeCsv()
  /// then render the breakdown.
  void publish(MetricsRegistry& reg, const std::string& prefix) const;

 private:
  std::array<util::Stats, kPacketStageCount> stats_;
  std::vector<util::Histogram> hists_;  // one per stage, us geometry
  util::Stats end_to_end_;
  util::Histogram e2e_hist_;
};

/// One flight-recorder entry.  `kind` is a static string ("send", "nicq",
/// "wire", "rxq", "dispatch", "drop:<reason>", "halt", "release",
/// "copy_out", "copy_in", ...); dispatch entries carry the stage breakdown.
struct FlightEvent {
  sim::SimTime ts = 0;
  const char* kind = "";
  int node = -1;
  int job = -1;
  int src = -1;
  int dst = -1;
  std::uint64_t id = 0;
  std::uint64_t seq = 0;
  std::int64_t value = 0;  // kind-specific scalar (bytes, credits, ...)
  std::array<std::int64_t, kPacketStageCount> stages{};
  bool has_stages = false;
};

/// Bounded ring of recent events: O(1) memory on long runs, oldest entries
/// overwritten.  Dumped as JSON ({"gctrace_flight":[...]}) for the gctrace
/// CLI when the invariant engine aborts.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t depth);

  void record(const FlightEvent& ev);

  std::size_t depth() const { return ring_.capacity(); }
  std::size_t size() const { return ring_.size(); }
  /// Lifetime count, including entries already overwritten.
  std::uint64_t recorded() const { return recorded_; }
  const FlightEvent& at(std::size_t i) const { return ring_.at(i); }

  std::string jsonString() const;
  bool writeJson(const std::string& path) const;

 private:
  util::RingBuffer<FlightEvent> ring_;
  std::uint64_t recorded_ = 0;
};

/// The stamping hub, and a probe consumer: the Probe overrides below map the
/// subsystems' packet and protocol callbacks onto the stamps.  The cluster
/// installs it only when ClusterConfig::packet_trace or the flight recorder
/// is on.  Like every probe it only observes: it never schedules events or
/// charges simulated time, so enabling it cannot change simulation results.
class PacketTracer final : public Probe {
 public:
  /// `trace` may be null: attribution and the flight ring still work, only
  /// the Chrome flow events are skipped.
  explicit PacketTracer(TraceRecorder* trace = nullptr) : trace_(trace) {}

  void enableFlightRecorder(std::size_t depth);
  FlightRecorder* flight() { return flight_.get(); }
  const FlightRecorder* flight() const { return flight_.get(); }

  // ---- Packet lifecycle stamps -------------------------------------------

  /// Mint a trace id and open the journey; returns the id to ride in
  /// Packet::trace_id.  `send_start` is the fragment's first send() attempt,
  /// `credit_grant` the debit time (now).
  std::uint64_t onSend(int src_node, int dst_node, int job, int src_rank,
                       int dst_rank, std::uint64_t seq, std::uint32_t bytes,
                       sim::SimTime send_start, sim::SimTime credit_grant);
  void onNicQueued(std::uint64_t id, int node, sim::SimTime t);
  void onNicDequeued(std::uint64_t id, int node, sim::SimTime t);
  void onWire(std::uint64_t id, sim::SimTime inj_start, sim::SimTime rx_done);
  void onRxQueued(std::uint64_t id, sim::SimTime t);
  /// Final stamp: computes the stage breakdown, records the attribution,
  /// emits the flow finish + "pkt:stages" events, and closes the journey.
  void onDispatch(std::uint64_t id, sim::SimTime t);
  /// A traced packet was shed (wire fault, wrong job, overflow...).  The
  /// journey stays open — a retransmission may still complete it.
  void onDrop(std::uint64_t id, int node, const char* reason, sim::SimTime t);

  // ---- Halt accounting (switch-stall attribution) ------------------------

  void onHaltBegin(int node, sim::SimTime t);
  void onHaltEnd(int node, sim::SimTime t);

  // ---- Protocol events (flight ring only) --------------------------------

  void protocolEvent(int node, const char* kind, sim::SimTime t,
                     std::int64_t value = 0);

  // ---- Probe consumer ------------------------------------------------------

  std::uint64_t onSend(const net::Packet&, int, sim::SimTime,
                       sim::SimTime) override;
  void onPacket(PacketEvent, const net::Packet&, sim::SimTime) override;
  void onDrop(DropSite, const net::Packet&, const char*, sim::SimTime) override;
  void onTransfer(Transfer, const net::Packet&, sim::SimTime,
                  sim::SimTime) override;
  void onNicStage(net::NodeId, SwitchStage, HaltKind, int,
                  sim::SimTime) override;
  void onBufferSwitch(net::NodeId, net::JobId, net::JobId, sim::SimTime,
                      sim::Duration, sim::Duration,
                      const CopyCounts&) override;

  const LatencyAttribution& attribution() const { return attr_; }
  /// Journeys opened but not yet dispatched (in flight or dropped).
  std::size_t openJourneys() const { return journeys_.size(); }
  const PacketJourney* journey(std::uint64_t id) const;

 private:
  struct NodeHalt {
    sim::Duration acc = 0;      // halted ns accumulated up to `since`
    sim::SimTime since = 0;     // when the current halt began
    bool halted = false;
  };

  sim::Duration haltedAccAt(int node, sim::SimTime t) const;
  NodeHalt& nodeHalt(int node);

  TraceRecorder* trace_;
  std::unique_ptr<FlightRecorder> flight_;
  std::unordered_map<std::uint64_t, PacketJourney> journeys_;
  std::vector<NodeHalt> halt_;
  std::uint64_t next_id_ = 1;
  LatencyAttribution attr_;
};

}  // namespace gangcomm::obs
