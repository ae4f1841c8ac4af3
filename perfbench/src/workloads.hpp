// The benchmark's three workloads: the paper's Figure 5, Figure 6 and
// Figure 7-9 experiments, driven through the public core::Cluster API and
// the factories of bench/common.hpp.
//
// A workload is a list of sweep points.  Running a point builds one cluster
// (seeded with the workload seed), submits the point's jobs, advances
// simulated time, and returns the point's figure numbers, its exact work
// counters, its digest, and the host time spent in set-up and in the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "glue/policy.hpp"
#include "sim/simulator.hpp"

namespace gangcomm::perfbench {

enum class WorkloadKind { kStreamPartitioned, kGangStream, kGangAlltoall };

/// Which observer a run installs.  Every observer must leave the simulated
/// outputs (figure numbers and model counters) bit-identical.
enum class Observer {
  kNone,    // end-to-end runs: everything off
  kSink,    // the benchmark's own CausalitySink (per-handler host time)
  kFigure,  // the flag the workload's figure bench sets (trace/packet_trace)
};

struct Point {
  int nodes = 16;
  glue::BufferPolicy policy = glue::BufferPolicy::kPartitioned;
  int contexts = 1;  // gang-matrix depth the buffers are sized for
  int jobs = 1;
  std::uint32_t msg_bytes = 0;
  std::uint64_t msg_count = 0;  // per job; 0 = run until switches_wanted
  int switches_wanted = 0;
  sim::Duration quantum = sim::kSecond;
  std::string id;
};

struct Workload {
  WorkloadKind kind;
  std::string name;
  std::vector<Point> points;
};

/// Parse a workload name; returns false when unknown.
bool workloadByName(const std::string& name, bool mini, Workload* out);

/// Exact work counters of one point, summed over nodes, jobs and ranks.
struct Counters {
  // Model outputs: a change that only speeds up the simulator leaves these
  // bit-identical, whatever observer is installed.
  std::uint64_t fm_messages_sent = 0;
  std::uint64_t fm_packets_sent = 0;
  std::uint64_t fm_send_blocks_on_credit = 0;
  std::uint64_t fm_refills_sent = 0;
  std::uint64_t sending_jobs = 0;  // jobs whose ranks sent any packet
  std::uint64_t nic_data_sent = 0;
  std::uint64_t nic_drops = 0;
  std::uint64_t nic_flushes = 0;
  std::uint64_t fabric_data_packets = 0;
  std::uint64_t fabric_control_packets = 0;
  std::uint64_t fabric_data_bytes = 0;
  std::uint64_t glue_context_switches = 0;
  std::uint64_t glue_bytes_copied = 0;
  std::uint64_t switch_records = 0;
  std::uint64_t switch_sim_ns = 0;  // sum of halt + switch + release
  std::uint64_t valid_send_pkts = 0;
  std::uint64_t valid_recv_pkts = 0;
  std::uint64_t jobs_done = 0;
  sim::SimTime sim_now = 0;
  // Engine counters: fixed by the model and the engine together.  Trace
  // sinks disable the fabric's delivery batching, so these are compared
  // only between the untraced run and the CausalitySink run.
  std::uint64_t events_fired = 0;
  std::uint64_t queue_high_water = 0;
  std::uint64_t ladder_transfers = 0;
  // Records the installed observer kept (trace events + packet journeys).
  std::uint64_t observer_records = 0;
};

struct PointResult {
  std::string figure;    // the point's figure numbers, canonical text
  Counters c;
  std::uint64_t digest = 0;  // FNV-1a of figure + model counters
  double setup_s = 0;        // Cluster construction + submit
  double run_s = 0;          // run()/runUntil() only
  // run_s split into slices of simulated work that every sweep of the point
  // cuts identically (see runPoint), so slices compare across sweeps.
  std::vector<double> slice_s;
  double handler_s = 0;      // Σ handler host time (Observer::kSink only)
  std::string failure;       // empty when every point check passed
};

/// Run one point.
PointResult runPoint(const Workload& w, const Point& p, std::uint64_t seed,
                     Observer obs);

/// Checks that compare points with each other (gang_alltoall: the
/// valid-only switch must be cheaper than the full copy at every size).
/// Marks the failing points.
void crossCheck(const Workload& w, std::vector<PointResult>& results);

/// Host seconds since `t0`.
inline double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace gangcomm::perfbench
