// gcsweep — the one sweep tool for the gang-scheduled runtime.
//
// Every cell runs the same fixed-work multiprogrammed workload (`jobs`
// identical all-to-all jobs pinned to the same nodes, so they gang-share one
// time slot and every quantum runs the full halt/copy/release switch) on a
// self-contained Cluster with the gcverify invariant engine in abort mode and
// gctrace attributing per-stage latency.  A sweep is the cross product
//
//   loss x jitter x corruption x fail-stop x seed x tie salt
//
// expanded in that order (loss outermost, salt innermost).  Cells share no
// mutable state and run on bench::parallelMap, so the CSV and the summaries
// are byte-identical at any GANGCOMM_JOBS and across reruns.
//
// Two settings are derived rather than configured:
//   * `seed` sets both ClusterConfig::seed and the per-link fault seed;
//   * retransmission is on in every cell of a sweep whose fault lists arm any
//     fault (loss, corruption, jitter or a fail-stop), off otherwise.
//
// The oracle (checkOracle) compares what must not depend on serialization:
//   * draining cells that differ only in tie salt or seed report the same
//     app-visible outcome (jobs done, per-process message and payload
//     totals);
//   * fault-free cells that differ only in salt also report the same fabric
//     data packets and data bytes;
//   * fail-stop cells are exempt: they stop at a horizon instead of
//     draining (a dead node never acks, so its senders retransmit forever).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/status.hpp"

namespace gangcomm::sweep {

/// One point of the cross product, with everything runCell needs.
struct Cell {
  int nodes = 2;
  int jobs = 2;
  std::uint32_t msg_bytes = 4096;
  std::uint64_t rounds = 20;      // all-to-all rounds per process
  std::uint64_t quantum_ms = 20;  // short quantum => many gang switches
  std::uint64_t salt = 0;
  double loss = 0.0;
  sim::Duration jitter_ns = 0;
  double corrupt = 0.0;
  /// "none", "link" (0->1 dies), "nic" (node 1's NIC dies) or "node" (the
  /// last node dies), at 3 ms simulated.
  std::string fail_stop = "none";
  std::uint64_t seed = 1;
  bool retransmit = false;  // derived per sweep by expand()
  /// How long a fail-stop cell runs before it is stopped.
  sim::SimTime failstop_horizon_ns = sim::msToNs(200.0);

  bool operator==(const Cell&) const = default;
};

/// Workload shape (the same in every cell) plus one list per axis.
struct SweepConfig {
  int nodes = 2;
  int jobs = 2;
  std::uint32_t msg_bytes = 4096;
  std::uint64_t rounds = 20;
  std::uint64_t quantum_ms = 20;
  std::vector<std::uint64_t> salts = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<double> loss = {0.0};
  std::vector<std::uint64_t> jitter_ns = {0};
  std::vector<double> corrupt = {0.0};
  std::vector<std::string> fail_stops = {"none"};
  std::vector<std::uint64_t> seeds = {1};
};

/// Rejects what no cell could run: loss or corruption outside [0, 1), jitter
/// above INT64_MAX, an unknown fail-stop name, nodes < 2, jobs < 1, or an
/// empty axis list.  On failure `why` (if given) says which.
util::Status validate(const SweepConfig& cfg, std::string* why = nullptr);

/// The cross product in deterministic order (see the file comment).
std::vector<Cell> expand(const SweepConfig& cfg);

/// What one process observed by the end of the run.
struct ProcessOutcome {
  int job = 0;
  int rank = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t payload_bytes_received = 0;

  bool operator==(const ProcessOutcome&) const = default;
};

/// Everything one cell reports.
struct CellResult {
  Cell cell;
  int jobs_done = 0;
  std::vector<ProcessOutcome> processes;  // sorted by (job, rank)
  // Fabric totals and fault outcomes.
  std::uint64_t data_packets = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t wire_dropped = 0;
  std::uint64_t lost = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t jittered = 0;
  std::uint64_t reordered = 0;
  std::uint64_t failstop_dropped = 0;
  // FM recovery work, summed over every process of every job.
  std::uint64_t retransmitted = 0;
  std::uint64_t rtx_timeouts = 0;
  std::uint64_t checksum_dropped = 0;
  std::uint64_t ooo_dropped = 0;
  std::uint64_t dup_dropped = 0;
  // gcverify ledger: credits written off to drops.
  long lost_credits = 0;
  // gctrace attribution: mean per-stage latency of completed journeys, in
  // obs::packetStages() order.
  std::uint64_t traced_packets = 0;
  std::vector<double> stage_us;
  double end_to_end_us = 0.0;
};

/// Run one cell (gcverify abort mode + gctrace); draining cells also pass
/// the engine's drained-state finalCheck.
CellResult runCell(const Cell& cell);

/// Run every cell of expand(cfg) on bench::parallelMap, in cell order.
std::vector<CellResult> runSweep(const SweepConfig& cfg);

/// The oracle: one description per rule a cell breaks (empty = all agree).
/// Each cell is compared with the first earlier cell of its group.
std::vector<std::string> checkOracle(const std::vector<CellResult>& results);

/// The sweep CSV (schema in DESIGN.md §12): header + one row per cell,
/// fixed-precision floats.
std::string renderCsv(const std::vector<CellResult>& results);

/// One-line human summary of a cell.
std::string summarize(const CellResult& r);

}  // namespace gangcomm::sweep
