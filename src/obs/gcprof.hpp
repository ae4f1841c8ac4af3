// gcprof causality recorder: the obs-side sink for the Simulator's
// causality hook (sim::CausalitySink).
//
// While profiling is enabled the recorder sees every schedule/cancel/fire
// transition and assembles one record per *fired* event:
//
//     (id, parent id, sched time, fire time, LP tag)
//
// `parent` is the event whose action scheduled this one (0 for setup-time
// schedules), so the records form the event-causality DAG — a forest of
// trees, since every event has exactly one scheduling parent.  The LP tag
// (sim::lpTag) is captured at schedule time from the innermost sim::LpScope
// active at the scheduleAt() call site; events scheduled outside any scope
// carry sim::kLpUnscoped.  Cancelled events never become records: a
// cancel+re-add reschedule therefore appears once, under its new id and
// parent.
//
// Records are appended to a bounded in-memory buffer; when a dump path is
// configured the buffer spills to a compact JSON file whenever it fills,
// keeping memory O(buffer) for arbitrarily long runs.  Records are emitted
// in fire order and contain only simulated-time data, so the dump is
// byte-identical across reruns and GANGCOMM_JOBS values.  The dump header
// says "mode":"sim"; tools/gcprof refuses any other mode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace gangcomm::obs {

class MetricsRegistry;

struct CausalityConfig {
  /// Destination for the JSON dump.  Empty keeps every record in memory
  /// (records() stays complete) — intended for tests and small runs only.
  std::string dump_path;
  /// Records buffered before spilling to the dump file.
  std::size_t buffer_records = 1 << 16;
};

/// One fired event; see the header comment for field semantics.
struct CausalityRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  sim::SimTime sched = 0;
  sim::SimTime fire = 0;
  std::uint32_t lp = sim::kLpUnscoped;
};

// gclint: hot
class CausalityRecorder final : public sim::CausalitySink {
 public:
  explicit CausalityRecorder(CausalityConfig cfg);
  ~CausalityRecorder() override;
  CausalityRecorder(const CausalityRecorder&) = delete;
  CausalityRecorder& operator=(const CausalityRecorder&) = delete;

  // sim::CausalitySink
  void onSchedule(std::uint64_t id, std::uint64_t parent,
                  sim::SimTime sched_at, sim::SimTime fire_at,
                  std::uint32_t lp) override;
  void onCancel(std::uint64_t id) override;
  void onFireBegin(std::uint64_t id, sim::SimTime t) override;
  void onFireEnd(std::uint64_t id) override;

  /// Flush buffered records and write the dump's trailer (LP table and
  /// totals).  Idempotent; returns false if any file operation failed.
  /// In-memory mode (empty dump_path) always succeeds.
  bool finish();

  /// Buffered records.  Complete only in in-memory mode; after a spill this
  /// holds the unspilled tail.
  const std::vector<CausalityRecord>& records() const { return buf_; }

  /// Fired events recorded (spilled + buffered).
  std::uint64_t recorded() const { return recorded_; }

  /// Records written to the dump file so far.
  std::uint64_t spilled() const { return spilled_; }

  /// Cancelled-while-pending events dropped from the DAG.
  std::uint64_t cancelledDropped() const { return cancelled_; }

  /// Events scheduled but not yet fired (open DAG leaves).
  std::size_t openPending() const { return pending_.size(); }

  /// Publish recorder counters as gcprof.* metrics.
  void publish(MetricsRegistry& reg) const;

  /// Human name for an LP tag: "node.3", "nic.17", "link", "sim",
  /// "global".  The bare spellings are the single-instance domains.
  static std::string lpName(std::uint32_t tag);

 private:
  struct Pending {
    std::uint64_t parent;
    sim::SimTime sched;
    std::uint32_t lp;
  };

  void emit(const CausalityRecord& r);
  bool spillBuffer();
  bool writeTrailer();

  CausalityConfig cfg_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::vector<CausalityRecord> buf_;
  // Per-LP fired-event counts; ordered so the dump's LP table and the
  // analyzer's iteration order are deterministic.
  std::map<std::uint32_t, std::uint64_t> lp_counts_;
  std::uint64_t recorded_ = 0;
  std::uint64_t spilled_ = 0;
  std::uint64_t cancelled_ = 0;
  // In-flight record between onFireBegin and onFireEnd.
  CausalityRecord cur_{};
  bool cur_known_ = false;  // false: event predates the hook, skip it
  std::FILE* file_ = nullptr;
  bool io_error_ = false;
  bool finished_ = false;
};

}  // namespace gangcomm::obs
