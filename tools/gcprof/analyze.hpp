// gcprof analyzer: rebuild the event-causality DAG from a CausalityRecorder
// dump (the gcprof-v1 format src/obs/gcprof.cpp writes) and report its
// shape: total work, the critical path and the ideal speedup it bounds,
// and per-LP event counts.  See DESIGN.md §14 for the exact definitions and
// the determinism contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gangcomm::gcprof_tool {

/// One emitted causality record: [id, parent, sched, fire, lp].
struct DumpRecord {
  std::uint64_t id = 0;
  /// Scheduling event's id; 0 = root (scheduled outside any firing event).
  std::uint64_t parent = 0;
  std::int64_t sched = 0;    ///< sim time the scheduleAt call ran
  std::int64_t fire = 0;     ///< sim time the event fired
  std::uint32_t lp = 0;      ///< sim::lpTag active at the schedule site
};

struct Dump {
  std::vector<DumpRecord> records; ///< in fire order (= the DAG topo order)
  std::uint64_t total = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t pending = 0;       ///< scheduled but never fired (drain rest)
};

/// Throws std::runtime_error on a malformed or truncated dump, or on one
/// whose "mode" is not "sim".
Dump parseDump(const std::string& text);
Dump loadDump(const std::string& path);   // prints + exit(2) on error

struct LpRow {
  std::uint32_t tag = 0;
  std::string name;
  std::uint64_t events = 0;
};

struct Analysis {
  std::uint64_t events = 0;
  std::uint64_t edges = 0;        ///< records with a recorded parent
  std::uint64_t roots = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t pending = 0;
  std::int64_t first_fire = 0;
  std::int64_t last_fire = 0;
  std::int64_t span_ns = 0;

  /// Longest causal chain, each event one unit of work.
  std::uint64_t critical_len = 0;
  double ideal_speedup = 0.0;  ///< events / critical_len

  std::vector<LpRow> lps;                   ///< per LP tag, tag order
  std::vector<std::uint64_t> critical_ids;  ///< critical path, root -> leaf
};

Analysis analyze(const Dump& dump);

/// Human-readable report (tables).
std::string renderReport(const Analysis& a);

/// Per-LP CSV: tag,name,domain,events,share_pct.
bool writeCsv(const Analysis& a, const std::string& path);

/// Full machine-readable analysis (fixed-precision numbers), byte-identical
/// across reruns and job counts of the same simulated run.
std::string analysisJson(const Analysis& a);

/// Chrome trace-event export: one slice per event on its LP's track, with
/// the critical path overlaid as a flow-event chain.
bool writeChromeTrace(const Dump& dump, const Analysis& a,
                      const std::string& path);

bool writeTextFile(const std::string& text, const std::string& path);

}  // namespace gangcomm::gcprof_tool
