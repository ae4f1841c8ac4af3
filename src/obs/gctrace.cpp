// Every PacketTracer hook runs once per packet per stage when tracing is
// enabled; opt into the hot-path allocation rules:
// gclint: hot
#include "obs/gctrace.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace gangcomm::obs {

namespace {

/// Stage histogram geometry: 1 us linear buckets over [0, 4096) us.  Every
/// attribution uses the same geometry so partial results from sweep-runner
/// jobs merge exactly (integer bucket counts, fixed order).
constexpr double kHistLoUs = 0.0;
constexpr double kHistHiUs = 4096.0;
constexpr std::size_t kHistBuckets = 4096;

/// Clamped difference: stamps are monotone within one completed journey, so
/// the clamp never fires there — it only guards partially stamped journeys
/// (retransmissions overwrite stamps; a dropped-then-revived packet can be
/// read mid-flight by the flight recorder).
sim::Duration diff(sim::SimTime later, sim::SimTime earlier) {
  return later >= earlier ? later - earlier : 0;
}

/// Flight-ring entry for one of journey `j`'s stamps.
FlightEvent journeyEvent(const PacketJourney& j, const char* kind, int node,
                         sim::SimTime t) {
  FlightEvent ev;
  ev.ts = t;
  ev.kind = kind;
  ev.node = node;
  ev.job = j.job;
  ev.src = j.src_rank;
  ev.dst = j.dst_rank;
  ev.id = j.id;
  ev.seq = j.seq;
  return ev;
}

}  // namespace

const char* packetStageName(PacketStage s) {
  switch (s) {
    case PacketStage::kCreditWait: return "credit_wait";
    case PacketStage::kHostPio: return "host_pio";
    case PacketStage::kNicQueue: return "nic_queue";
    case PacketStage::kSwitchStall: return "switch_stall";
    case PacketStage::kWire: return "wire";
    case PacketStage::kRxDma: return "rx_dma";
    case PacketStage::kRecvQueue: return "recv_queue";
  }
  return "?";
}

const std::array<PacketStage, kPacketStageCount>& packetStages() {
  static const std::array<PacketStage, kPacketStageCount> kStages = {
      PacketStage::kCreditWait, PacketStage::kHostPio,
      PacketStage::kNicQueue,   PacketStage::kSwitchStall,
      PacketStage::kWire,       PacketStage::kRxDma,
      PacketStage::kRecvQueue,
  };
  return kStages;
}

sim::Duration PacketJourney::stageNs(PacketStage s) const {
  switch (s) {
    case PacketStage::kCreditWait: return diff(credit_grant, send_start);
    case PacketStage::kHostPio: return diff(nicq_enter, credit_grant);
    case PacketStage::kNicQueue: {
      const sim::Duration residency = diff(wire_enter, nicq_enter);
      return residency >= switch_stall ? residency - switch_stall : 0;
    }
    case PacketStage::kSwitchStall: return switch_stall;
    case PacketStage::kWire: return diff(rx_wire_done, wire_enter);
    case PacketStage::kRxDma: return diff(rxq_enter, rx_wire_done);
    case PacketStage::kRecvQueue: return diff(dispatch, rxq_enter);
  }
  return 0;
}

LatencyAttribution::LatencyAttribution()
    : e2e_hist_(kHistLoUs, kHistHiUs, kHistBuckets) {
  hists_.reserve(kPacketStageCount);
  for (std::size_t i = 0; i < kPacketStageCount; ++i)
    hists_.emplace_back(kHistLoUs, kHistHiUs, kHistBuckets);
}

void LatencyAttribution::record(const PacketJourney& j) {
  for (const PacketStage s : packetStages()) {
    const auto i = static_cast<std::size_t>(s);
    const double ns = static_cast<double>(j.stageNs(s));
    stats_[i].add(ns);
    hists_[i].add(ns / 1000.0);
  }
  const double e2e = static_cast<double>(j.endToEndNs());
  end_to_end_.add(e2e);
  e2e_hist_.add(e2e / 1000.0);
}

void LatencyAttribution::merge(const LatencyAttribution& other) {
  for (std::size_t i = 0; i < kPacketStageCount; ++i) {
    stats_[i].merge(other.stats_[i]);
    hists_[i].merge(other.hists_[i]);
  }
  end_to_end_.merge(other.end_to_end_);
  e2e_hist_.merge(other.e2e_hist_);
}

const util::Stats& LatencyAttribution::stageStats(PacketStage s) const {
  return stats_[static_cast<std::size_t>(s)];
}

const util::Histogram& LatencyAttribution::stageHistogram(
    PacketStage s) const {
  return hists_[static_cast<std::size_t>(s)];
}

util::Table LatencyAttribution::table() const {
  util::Table t({"stage", "packets", "mean_us", "p50_us", "p95_us", "p99_us",
                 "share_pct"});
  const double e2e_sum = end_to_end_.sum();
  auto addRow = [&t](const char* name, const util::Stats& st,
                     const util::Histogram& h, double share) {
    t.addRow({name, util::formatU64(st.count()),
              util::formatDouble(st.mean() / 1000.0, 3),
              util::formatDouble(h.percentile(50.0), 3),
              util::formatDouble(h.percentile(95.0), 3),
              util::formatDouble(h.percentile(99.0), 3),
              util::formatDouble(share, 2)});
  };
  for (const PacketStage s : packetStages()) {
    const auto i = static_cast<std::size_t>(s);
    const double share =
        e2e_sum > 0.0 ? 100.0 * stats_[i].sum() / e2e_sum : 0.0;
    addRow(packetStageName(s), stats_[i], hists_[i], share);
  }
  addRow("end_to_end", end_to_end_, e2e_hist_, e2e_sum > 0.0 ? 100.0 : 0.0);
  return t;
}

void LatencyAttribution::publish(MetricsRegistry& reg,
                                 const std::string& prefix) const {
  const double e2e_sum = end_to_end_.sum();
  for (const PacketStage s : packetStages()) {
    const auto i = static_cast<std::size_t>(s);
    const std::string base = prefix + "stage." + packetStageName(s);
    reg.mergeSamples(base + "_ns", stats_[i]);
    reg.setGauge(base + ".p50_us", hists_[i].percentile(50.0));
    reg.setGauge(base + ".p95_us", hists_[i].percentile(95.0));
    reg.setGauge(base + ".p99_us", hists_[i].percentile(99.0));
    reg.setGauge(base + ".share_pct",
                 e2e_sum > 0.0 ? 100.0 * stats_[i].sum() / e2e_sum : 0.0);
  }
  reg.mergeSamples(prefix + "end_to_end_ns", end_to_end_);
  reg.setGauge(prefix + "end_to_end.p50_us", e2e_hist_.percentile(50.0));
  reg.setGauge(prefix + "end_to_end.p95_us", e2e_hist_.percentile(95.0));
  reg.setGauge(prefix + "end_to_end.p99_us", e2e_hist_.percentile(99.0));
  reg.setCounter(prefix + "packets", end_to_end_.count());
}

FlightRecorder::FlightRecorder(std::size_t depth) : ring_(depth) {}

void FlightRecorder::record(const FlightEvent& ev) {
  if (ring_.full()) ring_.pop();  // drop-oldest: O(1) memory on long runs
  ring_.push(ev);
  ++recorded_;
}

std::string FlightRecorder::jsonString() const {
  std::string out;
  out.reserve(ring_.size() * 160 + 128);
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"gctrace_flight_version\":1,\"depth\":%llu,"
                "\"recorded\":%llu,\"gctrace_flight\":[",
                static_cast<unsigned long long>(ring_.capacity()),
                static_cast<unsigned long long>(recorded_));
  out += buf;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const FlightEvent& ev = ring_.at(i);
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof(buf),
                  "{\"ts\":%llu,\"kind\":\"%s\",\"node\":%d,\"job\":%d,"
                  "\"src\":%d,\"dst\":%d,\"id\":%llu,\"seq\":%llu,"
                  "\"value\":%lld",
                  static_cast<unsigned long long>(ev.ts), ev.kind, ev.node,
                  ev.job, ev.src, ev.dst,
                  static_cast<unsigned long long>(ev.id),
                  static_cast<unsigned long long>(ev.seq),
                  static_cast<long long>(ev.value));
    out += buf;
    if (ev.has_stages) {
      out += ",\"stages\":[";
      for (std::size_t s = 0; s < ev.stages.size(); ++s) {
        if (s > 0) out += ',';
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(ev.stages[s]));
        out += buf;
      }
      out += ']';
    }
    out += '}';
  }
  out += "]}\n";
  return out;
}

bool FlightRecorder::writeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = jsonString();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

void PacketTracer::enableFlightRecorder(std::size_t depth) {
  // gclint: allow(hot-make-shared): ring allocation happens once at setup
  flight_ = std::make_unique<FlightRecorder>(depth);
}

std::uint64_t PacketTracer::onSend(int src_node, int dst_node, int job,
                                   int src_rank, int dst_rank,
                                   std::uint64_t seq, std::uint32_t bytes,
                                   sim::SimTime send_start,
                                   sim::SimTime credit_grant) {
  const std::uint64_t id = next_id_++;
  PacketJourney& j = journeys_[id];
  j.id = id;
  j.job = job;
  j.src_rank = src_rank;
  j.dst_rank = dst_rank;
  j.src_node = src_node;
  j.dst_node = dst_node;
  j.seq = seq;
  j.bytes = bytes;
  j.send_start = send_start;
  j.credit_grant = credit_grant;
  if (flight_) {
    FlightEvent ev = journeyEvent(j, "send", src_node, credit_grant);
    ev.value = static_cast<std::int64_t>(bytes);
    flight_->record(ev);
  }
  if (trace_ != nullptr) {
    // Anchored at send_start (not credit_grant) so the flow arrow spans the
    // full journey and finish_ts - start_ts equals the sum of the stages.
    trace_->flowStart(src_node, "gctrace", "pkt", send_start, id,
                      {{"job", job},
                       {"src", src_rank},
                       {"dst", dst_rank},
                       {"seq", static_cast<std::int64_t>(seq)},
                       {"bytes", static_cast<std::int64_t>(bytes)}});
  }
  return id;
}

void PacketTracer::onNicQueued(std::uint64_t id, int node, sim::SimTime t) {
  const auto it = journeys_.find(id);
  if (it == journeys_.end()) return;
  PacketJourney& j = it->second;
  j.nicq_enter = t;
  j.halt_acc_enq = haltedAccAt(node, t);
  j.switch_stall = 0;  // reset in case this is a retransmission re-stamp
  if (flight_) flight_->record(journeyEvent(j, "nicq", node, t));
}

void PacketTracer::onNicDequeued(std::uint64_t id, int node, sim::SimTime t) {
  const auto it = journeys_.find(id);
  if (it == journeys_.end()) return;
  PacketJourney& j = it->second;
  const sim::Duration acc = haltedAccAt(node, t);
  j.switch_stall = acc >= j.halt_acc_enq ? acc - j.halt_acc_enq : 0;
}

void PacketTracer::onWire(std::uint64_t id, sim::SimTime inj_start,
                          sim::SimTime rx_done) {
  const auto it = journeys_.find(id);
  if (it == journeys_.end()) return;
  PacketJourney& j = it->second;
  j.wire_enter = inj_start;
  j.rx_wire_done = rx_done;
}

void PacketTracer::onRxQueued(std::uint64_t id, sim::SimTime t) {
  const auto it = journeys_.find(id);
  if (it == journeys_.end()) return;
  PacketJourney& j = it->second;
  j.rxq_enter = t;
  if (flight_) flight_->record(journeyEvent(j, "rxq", j.dst_node, t));
}

void PacketTracer::onDispatch(std::uint64_t id, sim::SimTime t) {
  const auto it = journeys_.find(id);
  if (it == journeys_.end()) return;
  PacketJourney& j = it->second;
  j.dispatch = t;
  attr_.record(j);
  if (flight_) {
    FlightEvent ev = journeyEvent(j, "dispatch", j.dst_node, t);
    ev.value = static_cast<std::int64_t>(j.bytes);
    for (const PacketStage s : packetStages())
      ev.stages[static_cast<std::size_t>(s)] =
          static_cast<std::int64_t>(j.stageNs(s));
    ev.has_stages = true;
    flight_->record(ev);
  }
  if (trace_ != nullptr) {
    trace_->flowFinish(
        j.dst_node, "gctrace", "pkt", t, id,
        {{"job", j.job},
         {"src", j.src_rank},
         {"dst", j.dst_rank},
         {"seq", static_cast<std::int64_t>(j.seq)},
         {"bytes", static_cast<std::int64_t>(j.bytes)},
         {"switches", static_cast<std::int64_t>(j.switches_carried)}});
    // The machine-readable stage breakdown: one arg per stage (exact ns)
    // plus the flow id so tools/gctrace can join it back to the flow pair.
    auto ns = [&j](PacketStage s) {
      return static_cast<std::int64_t>(j.stageNs(s));
    };
    trace_->instant(j.dst_node, "gctrace", "pkt:stages", t,
                    {{"id", static_cast<std::int64_t>(id)},
                     {"credit_wait", ns(PacketStage::kCreditWait)},
                     {"host_pio", ns(PacketStage::kHostPio)},
                     {"nic_queue", ns(PacketStage::kNicQueue)},
                     {"switch_stall", ns(PacketStage::kSwitchStall)},
                     {"wire", ns(PacketStage::kWire)},
                     {"rx_dma", ns(PacketStage::kRxDma)},
                     {"recv_queue", ns(PacketStage::kRecvQueue)}});
  }
  journeys_.erase(it);
}

void PacketTracer::onDrop(std::uint64_t id, int node, const char* reason,
                          sim::SimTime t) {
  // The journey is deliberately kept open: the retransmission layer may
  // resend this fragment, and the eventual dispatch should attribute the
  // full first-attempt-to-delivery latency.
  if (flight_ == nullptr) return;
  FlightEvent ev;
  ev.ts = t;
  ev.kind = reason;
  ev.node = node;
  ev.id = id;
  const auto it = journeys_.find(id);
  if (it != journeys_.end()) {
    ev.job = it->second.job;
    ev.src = it->second.src_rank;
    ev.dst = it->second.dst_rank;
    ev.seq = it->second.seq;
  }
  flight_->record(ev);
}

void PacketTracer::onHaltBegin(int node, sim::SimTime t) {
  NodeHalt& h = nodeHalt(node);
  if (h.halted) return;
  h.halted = true;
  h.since = t;
  protocolEvent(node, "halt", t);
}

void PacketTracer::onHaltEnd(int node, sim::SimTime t) {
  NodeHalt& h = nodeHalt(node);
  if (!h.halted) return;
  h.acc += t >= h.since ? t - h.since : 0;
  h.halted = false;
  protocolEvent(node, "release", t,
                static_cast<std::int64_t>(h.acc));
}

void PacketTracer::protocolEvent(int node, const char* kind, sim::SimTime t,
                                 std::int64_t value) {
  if (flight_ == nullptr) return;
  FlightEvent ev;
  ev.ts = t;
  ev.kind = kind;
  ev.node = node;
  ev.value = value;
  flight_->record(ev);
}

// ---- Probe consumer ---------------------------------------------------------

std::uint64_t PacketTracer::onSend(const net::Packet& p, int,
                                   sim::SimTime first_try, sim::SimTime t) {
  return onSend(p.src_node, p.dst_node, p.job, p.src_rank, p.dst_rank, p.seq,
                p.payload_bytes, first_try, t);
}

void PacketTracer::onPacket(PacketEvent ev, const net::Packet& p,
                            sim::SimTime t) {
  const std::uint64_t id = p.trace_id;
  if (id == 0) return;
  if (ev == PacketEvent::kNicQueued) onNicQueued(id, p.src_node, t);
  if (ev == PacketEvent::kNicDequeued) onNicDequeued(id, p.src_node, t);
  if (ev == PacketEvent::kLanded) onRxQueued(id, t);
  if (ev == PacketEvent::kDispatched) onDispatch(id, t);
  if (ev == PacketEvent::kCarried) {
    // Copied out of a live NIC queue: it rides the switch in a backing store.
    const auto it = journeys_.find(id);
    if (it != journeys_.end()) ++it->second.switches_carried;
  }
}

void PacketTracer::onDrop(DropSite site, const net::Packet& p,
                          const char* reason, sim::SimTime t) {
  if (p.trace_id != 0)
    onDrop(p.trace_id, site == DropSite::kWire ? p.src_node : p.dst_node,
           reason, t);
}

void PacketTracer::onTransfer(Transfer kind, const net::Packet& p,
                              sim::SimTime start, sim::SimTime done) {
  if (kind == Transfer::kWire && p.trace_id != 0)
    onWire(p.trace_id, start, done);
}

void PacketTracer::onNicStage(net::NodeId node, SwitchStage stage, HaltKind,
                              int, sim::SimTime t) {
  if (stage == SwitchStage::kHaltBegin) onHaltBegin(node, t);
  if (stage == SwitchStage::kReleaseComplete) onHaltEnd(node, t);
}

void PacketTracer::onBufferSwitch(net::NodeId node, net::JobId, net::JobId,
                                  sim::SimTime start, sim::Duration out_ns,
                                  sim::Duration in_ns, const CopyCounts& c) {
  // Flight-ring breadcrumbs: a post-mortem dump shows which switches were in
  // progress around the aborting invariant.
  if (out_ns > 0)
    protocolEvent(node, "copy_out", start + out_ns,
                  static_cast<std::int64_t>(c.bytes_out));
  if (in_ns > 0)
    protocolEvent(node, "copy_in", start + out_ns + in_ns,
                  static_cast<std::int64_t>(c.bytes_in));
}

const PacketJourney* PacketTracer::journey(std::uint64_t id) const {
  const auto it = journeys_.find(id);
  return it == journeys_.end() ? nullptr : &it->second;
}

sim::Duration PacketTracer::haltedAccAt(int node, sim::SimTime t) const {
  if (node < 0 || static_cast<std::size_t>(node) >= halt_.size()) return 0;
  const NodeHalt& h = halt_[static_cast<std::size_t>(node)];
  return h.acc + (h.halted && t >= h.since ? t - h.since : 0);
}

PacketTracer::NodeHalt& PacketTracer::nodeHalt(int node) {
  GC_CHECK_MSG(node >= 0, "negative node id in halt accounting");
  if (static_cast<std::size_t>(node) >= halt_.size())
    halt_.resize(static_cast<std::size_t>(node) + 1);
  return halt_[static_cast<std::size_t>(node)];
}

}  // namespace gangcomm::obs
