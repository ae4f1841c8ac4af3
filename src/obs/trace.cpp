#include "obs/trace.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace gangcomm::obs {

std::int64_t TraceEvent::arg(const char* key, std::int64_t fallback) const {
  for (const TraceArg& a : args) {
    if (a.key == nullptr) break;
    if (std::strcmp(a.key, key) == 0) return a.value;
  }
  return fallback;
}

namespace {

void fillArgs(TraceEvent& ev, std::initializer_list<TraceArg> args) {
  std::size_t i = 0;
  for (const TraceArg& a : args) {
    if (i >= ev.args.size()) break;
    ev.args[i++] = a;
  }
}

/// JSON string escaping for the small, ASCII-ish names we emit.
void appendJsonString(std::string& out, const char* s) {
  out += '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Simulated ns -> Chrome microseconds, keeping the ns digits as a fraction.
void appendMicros(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

}  // namespace

void TraceRecorder::add(TracePhase phase, int node, const char* track,
                        const char* name, sim::SimTime ts, sim::Duration dur,
                        std::uint64_t flow_id,
                        std::initializer_list<TraceArg> args) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.name = name;
  ev.track = track;
  ev.phase = phase;
  ev.node = node;
  ev.ts = ts;
  ev.dur = dur;
  ev.flow_id = flow_id;
  fillArgs(ev, args);
  events_.push_back(ev);
}

void TraceRecorder::instant(int node, const char* track, const char* name,
                            sim::SimTime ts,
                            std::initializer_list<TraceArg> args) {
  add(TracePhase::kInstant, node, track, name, ts, 0, 0, args);
}

void TraceRecorder::span(int node, const char* track, const char* name,
                         sim::SimTime start, sim::SimTime end,
                         std::initializer_list<TraceArg> args) {
  add(TracePhase::kSpan, node, track, name, start,
      end >= start ? end - start : 0, 0, args);
}

void TraceRecorder::flowStart(int node, const char* track, const char* name,
                              sim::SimTime ts, std::uint64_t id,
                              std::initializer_list<TraceArg> args) {
  add(TracePhase::kFlowStart, node, track, name, ts, 0, id, args);
}

void TraceRecorder::flowFinish(int node, const char* track, const char* name,
                               sim::SimTime ts, std::uint64_t id,
                               std::initializer_list<TraceArg> args) {
  add(TracePhase::kFlowFinish, node, track, name, ts, 0, id, args);
}

std::vector<const TraceEvent*> TraceRecorder::select(const char* track,
                                                     const char* name) const {
  std::vector<const TraceEvent*> out;
  for (const TraceEvent& ev : events_) {
    if (track != nullptr && std::strcmp(ev.track, track) != 0) continue;
    if (name != nullptr && std::strcmp(ev.name, name) != 0) continue;
    out.push_back(&ev);
  }
  return out;
}

std::size_t TraceRecorder::count(const char* track, const char* name) const {
  return select(track, name).size();
}

std::string TraceRecorder::chromeTraceJson() const {
  // Name the per-node "processes" and per-subsystem "threads" up front, then
  // stream the events.  tid must be numeric, so tracks are interned.
  std::vector<const char*> tracks;
  auto trackId = [&tracks](const char* t) -> std::size_t {
    for (std::size_t i = 0; i < tracks.size(); ++i)
      if (std::strcmp(tracks[i], t) == 0) return i;
    tracks.push_back(t);
    return tracks.size() - 1;
  };
  for (const TraceEvent& ev : events_) trackId(ev.track);

  std::vector<int> nodes;
  for (const TraceEvent& ev : events_) {
    bool seen = false;
    for (int n : nodes) seen = seen || n == ev.node;
    if (!seen) nodes.push_back(ev.node);
  }

  std::string out;
  out.reserve(events_.size() * 96 + 1024);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&out, &first] {
    if (!first) out += ',';
    first = false;
  };

  char buf[64];
  for (const int node : nodes) {
    comma();
    std::snprintf(buf, sizeof(buf), "%d", node);
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    out += buf;
    out += ",\"args\":{\"name\":\"node ";
    out += buf;
    out += "\"}}";
    for (std::size_t t = 0; t < tracks.size(); ++t) {
      comma();
      std::snprintf(buf, sizeof(buf), "%d,\"tid\":%zu", node, t);
      out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
      out += buf;
      out += ",\"args\":{\"name\":";
      appendJsonString(out, tracks[t]);
      out += "}}";
    }
  }

  for (const TraceEvent& ev : events_) {
    comma();
    out += "{\"name\":";
    appendJsonString(out, ev.name);
    out += ",\"cat\":";
    appendJsonString(out, ev.track);
    std::snprintf(buf, sizeof(buf), ",\"ph\":\"%c\",\"pid\":%d,\"tid\":%zu",
                  static_cast<char>(ev.phase), ev.node, trackId(ev.track));
    out += buf;
    out += ",\"ts\":";
    appendMicros(out, ev.ts);
    switch (ev.phase) {
      case TracePhase::kSpan:
        out += ",\"dur\":";
        appendMicros(out, ev.dur);
        break;
      case TracePhase::kInstant:
        out += ",\"s\":\"t\"";  // instant scope: thread
        break;
      case TracePhase::kFlowStart:
      case TracePhase::kFlowFinish:
        // Flow ids are strings in the trace-event format; "bp":"e" binds the
        // finish to the enclosing slice so Perfetto draws the arrow.
        std::snprintf(buf, sizeof(buf), ",\"id\":\"%llu\"",
                      static_cast<unsigned long long>(ev.flow_id));
        out += buf;
        if (ev.phase == TracePhase::kFlowFinish) out += ",\"bp\":\"e\"";
        break;
    }
    if (ev.args[0].key != nullptr) {
      out += ",\"args\":{";
      for (std::size_t i = 0; i < ev.args.size(); ++i) {
        if (ev.args[i].key == nullptr) break;
        if (i > 0) out += ',';
        appendJsonString(out, ev.args[i].key);
        std::snprintf(buf, sizeof(buf), ":%lld",
                      static_cast<long long>(ev.args[i].value));
        out += buf;
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}\n";
  return out;
}

bool TraceRecorder::writeChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chromeTraceJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

// ---- TraceProbe -------------------------------------------------------------

std::uint64_t TraceProbe::onSend(const net::Packet& p, int credits,
                                 sim::SimTime, sim::SimTime t) {
  rec_.instant(p.src_node, "fm", "credit:debit", t,
               {{"dst_rank", p.dst_rank}, {"remaining", credits}});
  return 0;
}

void TraceProbe::onSendBlocked(net::NodeId node, int dst_rank,
                               std::uint32_t frag, bool on_credit,
                               sim::SimTime t) {
  rec_.instant(node, "fm", on_credit ? "block:credit" : "block:queue", t,
               {{"dst_rank", dst_rank}, {"frag", frag}});
}

void TraceProbe::onRtxTimeout(net::NodeId node, int peer, std::size_t window,
                              int backoff, sim::SimTime t) {
  rec_.instant(node, "fm", "rtx:timeout", t,
               {{"peer", peer},
                {"window", static_cast<std::int64_t>(window)},
                {"backoff", backoff}});
}

void TraceProbe::onPacket(PacketEvent ev, const net::Packet& p,
                          sim::SimTime t) {
  // A piggybacked refill gets no record of its own.
  const bool refill = p.type == net::PacketType::kRefill;
  if (ev == PacketEvent::kCorrupted)
    rec_.instant(p.src_node, "fabric", "fault:corrupt", t,
                 {{"dst", p.dst_node},
                  {"seq", static_cast<std::int64_t>(p.seq)}});
  else if (ev == PacketEvent::kControlRx)
    rec_.instant(p.dst_node, "nic",
                 p.type == net::PacketType::kHalt ? "rx:halt" : "rx:ready", t,
                 {{"src", p.src_node}});
  else if (ev == PacketEvent::kRefillApplied && refill)
    rec_.instant(p.dst_node, "nic", "credit:refill", t,
                 {{"src_rank", p.src_rank}, {"credits", p.refill_credits}});
  else if (ev == PacketEvent::kRefillQueued && refill)
    rec_.instant(p.src_node, "fm", "credit:refill_tx", t,
                 {{"dst_rank", p.dst_rank}, {"credits", p.refill_credits}});
}

void TraceProbe::onDrop(DropSite site, const net::Packet& p,
                        const char* reason, sim::SimTime t) {
  const auto seq = static_cast<std::int64_t>(p.seq);
  if (site == DropSite::kWire)
    rec_.instant(p.src_node, "fabric", reason, t,
                 {{"dst", p.dst_node}, {"seq", seq}});
  else if (site == DropSite::kNicLanding)
    rec_.instant(p.dst_node, "nic", reason, t,
                 {{"src", p.src_node}, {"seq", seq}});
  else if (site == DropSite::kNicArrival && p.type == net::PacketType::kData)
    rec_.instant(p.dst_node, "nic", reason, t,
                 {{"src", p.src_node}, {"job", p.job}, {"seq", seq}});
  else if (site == DropSite::kNicArrival && p.type == net::PacketType::kRefill)
    rec_.instant(p.dst_node, "nic", reason, t,
                 {{"src", p.src_node}, {"job", p.job}});
}

void TraceProbe::onTransfer(Transfer kind, const net::Packet& p,
                            sim::SimTime start, sim::SimTime done) {
  const auto seq = static_cast<std::int64_t>(p.seq);
  if (kind == Transfer::kWire)
    rec_.span(p.src_node, "fabric", net::packetTypeName(p.type), start, done,
              {{"dst", p.dst_node},
               {"bytes", p.wireBytes()},
               {"seq", seq},
               {"job", p.job}});
  else
    rec_.span(p.dst_node, "nic", "dma", start, done,
              {{"src", p.src_node}, {"bytes", p.wireBytes()}, {"seq", seq}});
}

void TraceProbe::onNicStage(net::NodeId node, SwitchStage stage, HaltKind how,
                            int peers, sim::SimTime t) {
  const bool flush = how == HaltKind::kFlush;
  const char* name = nullptr;
  switch (stage) {
    case SwitchStage::kHaltBegin:
      name = flush ? "flush:halt_bit" : "quiesce:begin";
      if (how == HaltKind::kAckQuiesce) name = "quiesce:ack_begin";
      break;
    case SwitchStage::kHaltBroadcast:
      rec_.instant(node, "nic", "flush:halt_broadcast", t, {{"peers", peers}});
      return;
    case SwitchStage::kFlushComplete:
      name = flush ? "flush:complete" : "quiesce:complete";
      break;
    case SwitchStage::kReleaseBegin:
      name = "release:begin";
      break;
    case SwitchStage::kReleaseComplete:  // a quiesce's end has no record
      if (flush) name = "release:complete";
      break;
    case SwitchStage::kCopyBegin:
      break;
  }
  if (name != nullptr) rec_.instant(node, "nic", name, t);
}

void TraceProbe::onBufferSwitch(net::NodeId node, net::JobId from_job,
                                net::JobId to_job, sim::SimTime start,
                                sim::Duration out_ns, sim::Duration in_ns,
                                const CopyCounts& c) {
  const sim::SimTime mid = start + out_ns;
  if (out_ns > 0)
    rec_.span(node, "glue", "copy_out", start, mid,
              {{"job", from_job},
               {"bytes", static_cast<std::int64_t>(c.bytes_out)},
               {"send_pkts", c.send_pkts},
               {"recv_pkts", c.recv_pkts}});
  if (in_ns > 0)
    rec_.span(node, "glue", "copy_in", mid, mid + in_ns,
              {{"job", to_job},
               {"bytes", static_cast<std::int64_t>(c.bytes_in)}});
}

void TraceProbe::onGangSwitch(net::NodeId node, int from_slot, int to_slot,
                              sim::SimTime t0, sim::SimTime t1,
                              sim::SimTime t2, sim::SimTime t3,
                              const CopyCounts& c) {
  rec_.span(node, "gang", "halt", t0, t1, {{"from_slot", from_slot}});
  rec_.span(node, "gang", "buffer_switch", t1, t2,
            {{"send_pkts", c.send_pkts},
             {"recv_pkts", c.recv_pkts},
             {"bytes_out", static_cast<std::int64_t>(c.bytes_out)},
             {"bytes_in", static_cast<std::int64_t>(c.bytes_in)}});
  rec_.span(node, "gang", "release", t2, t3, {{"to_slot", to_slot}});
  rec_.span(node, "gang", "switch", t0, t3,
            {{"from_slot", from_slot},
             {"to_slot", to_slot},
             {"send_pkts", c.send_pkts},
             {"recv_pkts", c.recv_pkts}});
}

}  // namespace gangcomm::obs
