// Structured simulation tracing (gc_obs).
//
// A TraceRecorder collects typed trace events — packet injections and
// receipts, credit movements, flush-FSM transitions, DMA copies, and the
// three gang context-switch stages — with simulated-nanosecond timestamps.
// Subsystems never see the recorder: they report to their obs::Probe, and a
// TraceProbe (below) turns the probe stream into these records.  With no
// probe installed no event is built and no allocation happens; recording
// never schedules events or charges simulated time.
//
// The recorded stream can be
//  * exported as Chrome `chrome://tracing` / Perfetto JSON — one "process"
//    per cluster node, one "thread" per subsystem track, so a whole gang
//    switch reads as stacked spans across the node rows; or
//  * queried in-process (`select()`).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/probe.hpp"
#include "sim/time.hpp"

namespace gangcomm::obs {

/// One key/value annotation on an event.  Keys are static strings (string
/// literals owned by the instrumentation site); values are integral.
struct TraceArg {
  const char* key = nullptr;
  std::int64_t value = 0;
};

/// Event phases, mirroring the Chrome trace-event vocabulary.
enum class TracePhase : char {
  kSpan = 'X',        // complete event: [ts, ts+dur)
  kInstant = 'i',     // point event at ts
  kFlowStart = 's',   // flow arrow origin (id links start to finish)
  kFlowFinish = 'f',  // flow arrow destination
};

struct TraceEvent {
  const char* name = "";   // e.g. "halt", "tx:DATA", "credit:refill"
  const char* track = "";  // subsystem lane: "fabric", "nic", "fm", ...
  TracePhase phase = TracePhase::kInstant;
  int node = 0;            // cluster node id -> Chrome "process"
  sim::SimTime ts = 0;     // simulated ns
  sim::Duration dur = 0;   // span length (kSpan only)
  std::uint64_t flow_id = 0;       // links kFlowStart/kFlowFinish pairs
  std::array<TraceArg, 8> args{};  // terminated by the first null key

  std::size_t argCount() const {
    std::size_t n = 0;
    while (n < args.size() && args[n].key != nullptr) ++n;
    return n;
  }
  /// Value of the named arg, or `fallback` when absent.
  std::int64_t arg(const char* key, std::int64_t fallback = 0) const;
};

class TraceRecorder {
 public:
  /// Recording gate: every builder below is a no-op while disabled.
  bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  void record(const TraceEvent& ev) {
    if (enabled_) events_.push_back(ev);
  }

  /// Convenience builders.
  void instant(int node, const char* track, const char* name, sim::SimTime ts,
               std::initializer_list<TraceArg> args = {});
  void span(int node, const char* track, const char* name, sim::SimTime start,
            sim::SimTime end, std::initializer_list<TraceArg> args = {});
  /// Flow arrows (`ph:"s"` / `ph:"f"`): Perfetto draws an arrow from the
  /// start to the matching finish with the same id.  gctrace uses one flow
  /// per data packet, so a packet's journey across nodes is clickable.
  void flowStart(int node, const char* track, const char* name,
                 sim::SimTime ts, std::uint64_t id,
                 std::initializer_list<TraceArg> args = {});
  void flowFinish(int node, const char* track, const char* name,
                  sim::SimTime ts, std::uint64_t id,
                  std::initializer_list<TraceArg> args = {});

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

  /// All events matching (track, name), in record order.  Pass nullptr to
  /// match any value of that field.
  std::vector<const TraceEvent*> select(const char* track,
                                        const char* name) const;
  std::size_t count(const char* track, const char* name) const;

  /// Chrome trace JSON ("traceEvents" array form).  Timestamps are emitted
  /// in microseconds (the format's unit) with nanosecond fractions kept, and
  /// displayTimeUnit is ns.  pid = node, tid = subsystem track.
  std::string chromeTraceJson() const;
  bool writeChromeTrace(const std::string& path) const;

 private:
  void add(TracePhase phase, int node, const char* track, const char* name,
           sim::SimTime ts, sim::Duration dur, std::uint64_t flow_id,
           std::initializer_list<TraceArg> args);

  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

/// The trace consumer of the probe stream: turns each callback into Chrome
/// records, choosing their names, tracks ("fabric", "nic", "fm", "glue",
/// "gang"), node rows and args.
class TraceProbe final : public Probe {
 public:
  explicit TraceProbe(TraceRecorder& rec) : rec_(rec) {}

  std::uint64_t onSend(const net::Packet&, int, sim::SimTime,
                       sim::SimTime) override;
  void onSendBlocked(net::NodeId, int, std::uint32_t, bool,
                     sim::SimTime) override;
  void onRtxTimeout(net::NodeId, int, std::size_t, int, sim::SimTime) override;
  void onPacket(PacketEvent, const net::Packet&, sim::SimTime) override;
  void onDrop(DropSite, const net::Packet&, const char*, sim::SimTime) override;
  void onTransfer(Transfer, const net::Packet&, sim::SimTime,
                  sim::SimTime) override;
  void onNicStage(net::NodeId, SwitchStage, HaltKind, int,
                  sim::SimTime) override;
  void onBufferSwitch(net::NodeId, net::JobId, net::JobId, sim::SimTime,
                      sim::Duration, sim::Duration,
                      const CopyCounts&) override;
  void onGangSwitch(net::NodeId, int, int, sim::SimTime, sim::SimTime,
                    sim::SimTime, sim::SimTime, const CopyCounts&) override;

 private:
  TraceRecorder& rec_;
};

}  // namespace gangcomm::obs
