#include "workloads.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/cluster.hpp"
#include "obs/metrics.hpp"

namespace gangcomm::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Message count per Figure 6 job: about five quanta of active runtime at the
// size's single-job bandwidth (the sizing bench_fig6_switched_bw uses).
std::uint64_t gangStreamCount(std::uint32_t size, sim::Duration quantum) {
  double bw_est = 72;  // MB/s
  if (size <= 96) bw_est = 19;
  else if (size <= 384) bw_est = 45;
  else if (size <= 1536) bw_est = 67;
  const double active_s = sim::nsToSec(quantum) * 5.0;
  return bench::scaledCount(
      size, static_cast<std::uint64_t>(bw_est * 1e6 * active_s));
}

std::vector<Point> streamPartitionedPoints(bool mini) {
  // Figure 5: contexts 1..8 x 64 B..64 KB, 6 MiB per cell, 16 nodes.
  const std::vector<std::uint32_t> sizes =
      mini ? std::vector<std::uint32_t>{64, 4096}
           : std::vector<std::uint32_t>{64, 256, 1024, 4096, 16384, 65536};
  const int max_ctx = mini ? 2 : 8;
  const std::uint64_t target = mini ? 256 * 1024 : 6ull * 1024 * 1024;
  std::vector<Point> pts;
  for (int n = 1; n <= max_ctx; ++n)
    for (std::uint32_t s : sizes) {
      Point p;
      p.nodes = mini ? 2 : 16;
      p.policy = glue::BufferPolicy::kPartitioned;
      p.contexts = n;
      p.msg_bytes = s;
      p.msg_count = bench::scaledCount(s, target);
      p.id = "c" + std::to_string(n) + "_" + std::to_string(s) + "B";
      pts.push_back(p);
    }
  return pts;
}

std::vector<Point> gangStreamPoints(bool mini) {
  // Figure 6: 1..8 jobs pinned to nodes {0,1}, 96 B..96 KB, 40 ms quantum.
  const std::vector<std::uint32_t> sizes =
      mini ? std::vector<std::uint32_t>{96, 6144}
           : std::vector<std::uint32_t>{96, 384, 1536, 6144, 24576, 98304};
  const int max_jobs = mini ? 2 : 8;
  const sim::Duration quantum = 40 * sim::kMillisecond;
  std::vector<Point> pts;
  for (int j = 1; j <= max_jobs; ++j)
    for (std::uint32_t s : sizes) {
      Point p;
      p.nodes = mini ? 2 : 16;
      p.policy = glue::BufferPolicy::kSwitchedValidOnly;
      p.contexts = j;
      p.jobs = j;
      p.msg_bytes = s;
      p.msg_count = gangStreamCount(s, quantum) / (mini ? 8 : 1);
      p.quantum = quantum;
      p.id = "j" + std::to_string(j) + "_" + std::to_string(s) + "B";
      pts.push_back(p);
    }
  return pts;
}

std::vector<Point> gangAlltoallPoints(bool mini) {
  // Figures 7-9: two all-to-all jobs on 2..16 nodes, full and valid-only
  // copies, four switches reported by every node.
  std::vector<Point> pts;
  const int max_nodes = mini ? 2 : 16;
  for (glue::BufferPolicy pol : {glue::BufferPolicy::kSwitchedFull,
                                 glue::BufferPolicy::kSwitchedValidOnly})
    for (int n = 2; n <= max_nodes; ++n) {
      Point p;
      p.nodes = n;
      p.policy = pol;
      p.contexts = 2;
      p.jobs = 2;
      p.msg_bytes = 4096;
      p.switches_wanted = mini ? 2 : 4;
      p.quantum = 40 * sim::kMillisecond;
      p.id = "n" + std::to_string(n) +
             (pol == glue::BufferPolicy::kSwitchedFull ? "_full" : "_valid");
      pts.push_back(p);
    }
  return pts;
}

/// Per-handler host time: the traced run's only instrument.  It reads no LP
/// tag and never schedules, so the simulation is untouched.
class HandlerClock final : public sim::CausalitySink {
 public:
  void onSchedule(std::uint64_t, std::uint64_t, sim::SimTime, sim::SimTime,
                  std::uint32_t) override {}
  void onCancel(std::uint64_t) override {}
  void onFireBegin(std::uint64_t, sim::SimTime) override {
    begin_ = Clock::now();
  }
  void onFireEnd(std::uint64_t) override { busy_ += Clock::now() - begin_; }
  double seconds() const {
    return std::chrono::duration<double>(busy_).count();
  }

 private:
  Clock::time_point begin_{};
  Clock::duration busy_{0};
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

Counters collect(core::Cluster& cluster, const Point& p,
                 const std::vector<net::JobId>& jobs, int ranks) {
  obs::MetricsRegistry reg;
  cluster.collectMetrics(reg);
  Counters c;
  for (net::JobId j : jobs) {
    const std::uint64_t before = c.fm_packets_sent;
    for (int r = 0; r < ranks; ++r) {
      const std::string f =
          "fm.j" + std::to_string(j) + ".r" + std::to_string(r) + ".";
      c.fm_messages_sent += reg.counter(f + "messages_sent");
      c.fm_packets_sent += reg.counter(f + "packets_sent");
      c.fm_send_blocks_on_credit += reg.counter(f + "send_blocks_on_credit");
      c.fm_refills_sent += reg.counter(f + "refills_sent");
    }
    if (c.fm_packets_sent > before) ++c.sending_jobs;
  }
  for (int n = 0; n < p.nodes; ++n) {
    const std::string k = "nic." + std::to_string(n) + ".";
    c.nic_data_sent += reg.counter(k + "data_sent");
    c.nic_drops += reg.counter(k + "drops_no_context") +
                   reg.counter(k + "drops_wrong_job") +
                   reg.counter(k + "drops_recv_overflow");
    c.nic_flushes += reg.counter(k + "flushes");
    const std::string g = "glue." + std::to_string(n) + ".";
    c.glue_context_switches += reg.counter(g + "context_switches");
    c.glue_bytes_copied += reg.counter(g + "bytes_copied");
  }
  c.fabric_data_packets = reg.counter("fabric.data_packets");
  c.fabric_control_packets = reg.counter("fabric.control_packets");
  c.fabric_data_bytes = reg.counter("fabric.data_bytes");
  c.jobs_done = reg.counter("cluster.jobs_done");
  for (const core::SwitchRecord& r : cluster.switchRecords()) {
    ++c.switch_records;
    c.switch_sim_ns += static_cast<std::uint64_t>(
        r.report.halt_ns + r.report.switch_ns + r.report.release_ns);
    c.valid_send_pkts += r.report.valid_send_pkts;
    c.valid_recv_pkts += r.report.valid_recv_pkts;
  }
  c.sim_now = cluster.sim().now();
  c.events_fired = reg.counter("sim.events_fired");
  c.queue_high_water = reg.counter("sim.queue_depth_high_water");
  c.ladder_transfers = reg.counter("sim.ladder_heap_transfers");
  c.observer_records = reg.counter("obs.trace_events");
  if (const obs::PacketTracer* pt = cluster.packetTracer())
    c.observer_records += pt->attribution().packets();
  return c;
}

std::string modelText(const Counters& c) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "fm=%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 " nic=%" PRIu64
      "/%" PRIu64 "/%" PRIu64 " fabric=%" PRIu64 "/%" PRIu64 "/%" PRIu64
      " glue=%" PRIu64 "/%" PRIu64 " parpar=%" PRIu64 "/%" PRIu64 "/%" PRIu64
      "/%" PRIu64 " done=%" PRIu64 " now=%" PRId64,
      c.fm_messages_sent, c.fm_packets_sent, c.fm_send_blocks_on_credit,
      c.fm_refills_sent, c.nic_data_sent, c.nic_drops, c.nic_flushes,
      c.fabric_data_packets, c.fabric_control_packets, c.fabric_data_bytes,
      c.glue_context_switches, c.glue_bytes_copied, c.switch_records,
      c.switch_sim_ns, c.valid_send_pkts, c.valid_recv_pkts, c.jobs_done,
      static_cast<std::int64_t>(c.sim_now));
  return buf;
}

// Figure 7-9 numbers: mean stage cycles and mean valid packets per switch.
std::string switchFigure(const core::Cluster& cluster) {
  double halt = 0, copy = 0, release = 0, send = 0, recv = 0;
  const auto& recs = cluster.switchRecords();
  for (const core::SwitchRecord& r : recs) {
    halt += static_cast<double>(sim::nsToCycles(r.report.halt_ns));
    copy += static_cast<double>(sim::nsToCycles(r.report.switch_ns));
    release += static_cast<double>(sim::nsToCycles(r.report.release_ns));
    send += r.report.valid_send_pkts;
    recv += r.report.valid_recv_pkts;
  }
  const double n = recs.empty() ? 1.0 : static_cast<double>(recs.size());
  return fmt("halt=%.17g", halt / n) + fmt(" switch=%.17g", copy / n) +
         fmt(" release=%.17g", release / n) + fmt(" send=%.17g", send / n) +
         fmt(" recv=%.17g", recv / n);
}

}  // namespace

bool workloadByName(const std::string& name, bool mini, Workload* out) {
  if (name == "stream_partitioned") {
    *out = {WorkloadKind::kStreamPartitioned, name,
            streamPartitionedPoints(mini)};
  } else if (name == "gang_stream") {
    *out = {WorkloadKind::kGangStream, name, gangStreamPoints(mini)};
  } else if (name == "gang_alltoall") {
    *out = {WorkloadKind::kGangAlltoall, name, gangAlltoallPoints(mini)};
  } else {
    return false;
  }
  return true;
}

PointResult runPoint(const Workload& w, const Point& p, std::uint64_t seed,
                     Observer obs) {
  core::ClusterConfig cfg;
  cfg.nodes = p.nodes;
  cfg.policy = p.policy;
  cfg.max_contexts = p.contexts;
  cfg.quantum = p.quantum;
  cfg.seed = seed;
  cfg.verify = false;
  if (obs == Observer::kFigure) {
    if (w.kind == WorkloadKind::kGangAlltoall) cfg.trace = true;
    if (w.kind == WorkloadKind::kGangStream) cfg.packet_trace = true;
  }

  PointResult res;
  HandlerClock clock;
  const Clock::time_point t_setup = Clock::now();
  core::Cluster cluster(cfg);
  if (obs == Observer::kSink) cluster.sim().setCausalitySink(&clock);
  std::vector<net::JobId> jobs;
  int ranks = 2;
  if (w.kind == WorkloadKind::kGangAlltoall) {
    ranks = p.nodes;
    for (int j = 0; j < p.jobs; ++j)
      jobs.push_back(
          cluster.submit(p.nodes, bench::allToAllFactory(p.msg_bytes)));
  } else {
    // Figure 6 pins every job to nodes {0,1} so they stack in the gang
    // matrix; Figure 5 runs one job where DHC places it.
    std::vector<net::NodeId> pin;
    if (w.kind == WorkloadKind::kGangStream) pin = {0, 1};
    for (int j = 0; j < p.jobs; ++j)
      jobs.push_back(cluster.submit(
          2, bench::bandwidthFactory(p.msg_bytes, p.msg_count), pin));
  }
  res.setup_s = secondsSince(t_setup);

  // The run is timed in slices of a few thousand events (about a
  // millisecond of host time), cut at the same events in every sweep.
  const Clock::time_point t_run = Clock::now();
  bool valve = false;
  if (w.kind == WorkloadKind::kGangAlltoall) {
    // Run until every node reported the wanted switch count (as
    // bench/switch_sweep.hpp does), with the same safety valve.  Each
    // quantum runs as eight runUntil steps: runUntil(a); runUntil(b) fires
    // exactly what runUntil(b) fires.
    const std::size_t want = static_cast<std::size_t>(p.switches_wanted) *
                             static_cast<std::size_t>(p.nodes);
    const sim::SimTime horizon =
        p.quantum * static_cast<sim::Duration>(p.switches_wanted + 2) +
        sim::secToNs(0.2);
    constexpr int kSlicesPerQuantum = 8;
    while (cluster.switchRecords().size() < want) {
      const sim::SimTime start = cluster.sim().now();
      for (int k = 1; k <= kSlicesPerQuantum; ++k) {
        const Clock::time_point t = Clock::now();
        cluster.runUntil(start + p.quantum * k / kSlicesPerQuantum);
        res.slice_s.push_back(secondsSince(t));
      }
      if (cluster.sim().now() > horizon * 4) {
        valve = cluster.switchRecords().size() < want;
        break;
      }
    }
  } else {
    // Cluster::run() drains the event queue; so do these steps (nothing in
    // the simulator requests a stop).
    constexpr std::uint64_t kSliceEvents = 4096;
    while (!cluster.sim().empty()) {
      const Clock::time_point t = Clock::now();
      cluster.sim().runSteps(kSliceEvents);
      res.slice_s.push_back(secondsSince(t));
    }
  }
  res.run_s = secondsSince(t_run);
  res.handler_s = clock.seconds();
  cluster.sim().setCausalitySink(nullptr);

  res.c = collect(cluster, p, jobs, ranks);
  const Counters& c = res.c;
  // Bandwidth of every job's sender.  processes() lists ranks in spawn
  // order, which the control-network jitter (so the seed) decides.
  double total_bw = 0;
  int senders = 0;
  for (net::JobId id : jobs)
    for (app::Process* proc : cluster.processes(id))
      if (const auto* s = dynamic_cast<const app::BandwidthSender*>(proc)) {
        total_bw += s->bandwidthMBps();
        ++senders;
      }
  switch (w.kind) {
    case WorkloadKind::kStreamPartitioned: {
      const int c0 = cluster.creditsC0();
      res.figure = fmt("bw=%.17g", total_bw) + " c0=" + std::to_string(c0);
      if (senders != 1) {
        res.failure = "sender missing";
      } else if (c0 == 0) {
        if (c.fabric_data_packets != 0 || c.fm_packets_sent != 0)
          res.failure = "C0 = 0 cell moved data";
      } else if (c.jobs_done != 1) {
        res.failure = "job did not finish";
      }
      break;
    }
    case WorkloadKind::kGangStream:
      res.figure = fmt("total_bw=%.17g", total_bw);
      if (senders != p.jobs)
        res.failure = "sender missing";
      else if (c.jobs_done != static_cast<std::uint64_t>(p.jobs))
        res.failure = "a job did not finish";
      break;
    case WorkloadKind::kGangAlltoall:
      res.figure = switchFigure(cluster);
      if (valve) res.failure = "stopped on the safety valve";
      break;
  }
  // Lossless runs that drain: every packet FM sent crossed the fabric.
  if (res.failure.empty() && w.kind != WorkloadKind::kGangAlltoall &&
      (c.fm_packets_sent != c.fabric_data_packets ||
       c.nic_data_sent != c.fabric_data_packets))
    res.failure = "packet conservation broken";
  res.digest = fnv1a(res.figure + "|" + modelText(c));
  return res;
}

void crossCheck(const Workload& w, std::vector<PointResult>& results) {
  if (w.kind != WorkloadKind::kGangAlltoall) return;
  // Points are [full n=2..N, valid n=2..N]; compare like node counts.
  const std::size_t half = results.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const Counters& full = results[i].c;
    const Counters& valid = results[half + i].c;
    if (full.switch_records == 0 || valid.switch_records == 0) continue;
    const double full_mean = static_cast<double>(full.switch_sim_ns) /
                             static_cast<double>(full.switch_records);
    const double valid_mean = static_cast<double>(valid.switch_sim_ns) /
                              static_cast<double>(valid.switch_records);
    if (!(valid_mean < full_mean) && results[half + i].failure.empty())
      results[half + i].failure = "valid-only switch not cheaper than full";
  }
}

}  // namespace gangcomm::perfbench
