// gcbench: the repository benchmark's measuring program.
//
//   gcbench --workload <name> --seed <n> --seconds <s> --mode e2e|layers
//           [--mini]
//
// e2e     repeats the workload's sweep, every observer off, for `seconds`
//         of host time (at least three sweeps), and reports the end-to-end
//         metrics from the fastest time of every run slice and each point's
//         median set-up over the sweeps.
// layers  runs the sweep untraced, again with the benchmark's CausalitySink,
//         again with the figure bench's observer flag, then the layer
//         probes, and reports the per-layer metrics.
// --mini  a 2-node miniature of the workload (the self-tests use it).
//
// The last line of stdout is one JSON object: the metrics with their units,
// every point's digest, the failed points, and raw totals.  perfbench/run.py
// checks the digests against the recorded references and prints the result.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace gangcomm::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Sweep {
  std::vector<PointResult> pts;
  double wall_s = 0;     // Σ run time
  double setup_s = 0;    // Σ set-up time
  double handler_s = 0;  // Σ handler time (sink sweeps)
};

Sweep runSweep(const Workload& w, std::uint64_t seed, Observer obs) {
  Sweep s;
  for (const Point& p : w.points) {
    s.pts.push_back(runPoint(w, p, seed, obs));
    s.wall_s += s.pts.back().run_s;
    s.setup_s += s.pts.back().setup_s;
    s.handler_s += s.pts.back().handler_s;
  }
  crossCheck(w, s.pts);
  return s;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Peak resident set of this process image.  VmHWM restarts at exec, unlike
// getrusage's ru_maxrss, which keeps the high-water mark of the parent that
// forked us.
double peakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  double kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

/// Collects the run's verdicts and metrics and prints them as one JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, std::make_pair(value, std::string(unit)));
  }
  void total(const std::string& name, double value) {
    totals_.emplace_back(name, value);
  }
  /// Count one sweep's points as attempted and its failed points as failed.
  void account(const Workload& w, const Sweep& s, const char* what) {
    for (std::size_t i = 0; i < s.pts.size(); ++i) {
      ++attempted_;
      if (!s.pts[i].failure.empty())
        fail(w.points[i].id, std::string(what) + ": " + s.pts[i].failure);
    }
  }
  void fail(const std::string& id, const std::string& why) {
    ++failed_;
    failures_.emplace_back(id, why);
  }
  void print(const Workload& w, const Sweep& first, const char* mode,
             std::uint64_t seed) const {
    std::printf("{\"workload\": \"%s\", \"mode\": \"%s\", \"seed\": %" PRIu64
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64,
                w.name.c_str(), mode, seed, attempted_, failed_);
    std::printf(", \"failures\": [");
    for (std::size_t i = 0; i < failures_.size(); ++i)
      std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "",
                  failures_[i].first.c_str(), failures_[i].second.c_str());
    std::printf("], \"digests\": {");
    for (std::size_t i = 0; i < first.pts.size(); ++i)
      std::printf("%s\"%s\": \"%016" PRIx64 "\"", i ? ", " : "",
                  w.points[i].id.c_str(), first.pts[i].digest);
    std::printf("}, \"figures\": {");
    for (std::size_t i = 0; i < first.pts.size(); ++i)
      std::printf("%s\"%s\": \"%s\"", i ? ", " : "", w.points[i].id.c_str(),
                  first.pts[i].figure.c_str());
    std::printf("}, \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].first.c_str(),
                  metrics_[i].second.first, metrics_[i].second.second.c_str());
    std::printf("}, \"totals\": {");
    for (std::size_t i = 0; i < totals_.size(); ++i)
      std::printf("%s\"%s\": %.17g", i ? ", " : "", totals_[i].first.c_str(),
                  totals_[i].second);
    std::printf("}}\n");
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::string>> failures_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, double>> totals_;
};

// Σ data packets and Σ simulated seconds of a sweep: deterministic per seed.
std::pair<double, double> sweepWork(const Sweep& s) {
  double packets = 0, sim_s = 0;
  for (const PointResult& r : s.pts) {
    packets += static_cast<double>(r.c.fabric_data_packets);
    sim_s += sim::nsToSec(r.c.sim_now);
  }
  return {packets, sim_s};
}

int runE2e(const Workload& w, std::uint64_t seed, double seconds) {
  Report rep;
  // Set-up time per point and sweep, and the fastest time of each run slice
  // of each point over the sweeps; only the first sweep's results are kept,
  // so the peak RSS does not grow with the number of sweeps.
  std::vector<std::vector<double>> setup(w.points.size());
  std::vector<std::vector<double>> fastest(w.points.size());
  Sweep first;
  const Clock::time_point t0 = Clock::now();
  std::size_t sweeps = 0;
  double longest = 0;
  // At least three sweeps; then no sweep that would end past `seconds`.
  while (sweeps < 3 || secondsSince(t0) + longest <= seconds) {
    const double started = secondsSince(t0);
    const Sweep s = runSweep(w, seed, Observer::kNone);
    longest = std::max(longest, secondsSince(t0) - started);
    if (sweeps++ == 0) {
      first = s;
      for (std::size_t i = 0; i < s.pts.size(); ++i)
        fastest[i] = s.pts[i].slice_s;
    }
    rep.account(w, s, "untraced");
    for (std::size_t i = 0; i < s.pts.size(); ++i) {
      const PointResult& r = s.pts[i];
      setup[i].push_back(r.setup_s);
      // Determinism: every repetition must reproduce the first bit for bit,
      // and so cut its run into the same slices.
      if (r.digest != first.pts[i].digest ||
          r.slice_s.size() != fastest[i].size()) {
        rep.fail(w.points[i].id, "repeat sweep changed the outputs");
        continue;
      }
      for (std::size_t k = 0; k < r.slice_s.size(); ++k)
        fastest[i][k] = std::min(fastest[i][k], r.slice_s[k]);
    }
  }
  // Run time: the fastest time of each slice over the sweeps, summed.  Host
  // speed on a shared machine swings by tens of percent within a second and
  // for seconds at a time, and interference only ever adds time, so the
  // fastest of a slice's sweeps, spread over the whole run, is its steadiest
  // estimate.  Set-up time: each point's median over the sweeps, summed.
  double wall = 0, set_up = 0;
  for (std::size_t i = 0; i < setup.size(); ++i) {
    for (double t : fastest[i]) wall += t;
    set_up += median(setup[i]);
  }
  const auto [packets, sim_s] = sweepWork(first);
  rep.metric("wall_s", wall, "s");
  rep.metric("setup_s", set_up, "s");
  rep.metric("data_packets_per_s", packets / wall, "1/s");
  rep.metric("sim_s_per_s", sim_s / wall, "s/s");
  rep.metric("peak_rss_mb", peakRssMb(), "MB");
  rep.total("data_packets", packets);
  rep.total("sim_s", sim_s);
  rep.total("sweeps", static_cast<double>(sweeps));
  rep.print(w, first, "e2e", seed);
  return 0;
}

double u(std::uint64_t v) { return static_cast<double>(v); }

/// a / b, reading 0 when nothing was counted.
double ratio(double a, std::uint64_t b) {
  return a / u(std::max<std::uint64_t>(b, 1));
}

bool sameEngine(const Counters& a, const Counters& b) {
  return a.events_fired == b.events_fired &&
         a.queue_high_water == b.queue_high_water &&
         a.ladder_transfers == b.ladder_transfers;
}

int runLayers(const Workload& w, std::uint64_t seed) {
  Report rep;
  const Sweep plain = runSweep(w, seed, Observer::kNone);
  rep.account(w, plain, "untraced");
  const Sweep traced = runSweep(w, seed, Observer::kSink);
  rep.account(w, traced, "sink");
  // Observer invisibility: the sink must change nothing at all; the figure
  // flag must leave every model output unchanged (it only disables delivery
  // batching, which moves the engine counters).
  for (std::size_t i = 0; i < plain.pts.size(); ++i)
    if (traced.pts[i].digest != plain.pts[i].digest ||
        !sameEngine(traced.pts[i].c, plain.pts[i].c))
      rep.fail(w.points[i].id, "CausalitySink changed the outputs");
  const bool has_figure_observer = w.kind != WorkloadKind::kStreamPartitioned;
  Sweep figure;
  if (has_figure_observer) {
    figure = runSweep(w, seed, Observer::kFigure);
    rep.account(w, figure, "figure observer");
    for (std::size_t i = 0; i < plain.pts.size(); ++i)
      if (figure.pts[i].digest != plain.pts[i].digest)
        rep.fail(w.points[i].id, "figure observer changed the outputs");
  }

  // Exact work counts, summed over the sweep (max for the high-water mark).
  Counters sum;
  int max_nodes = 0, max_contexts = 0;
  std::uint64_t max_sending_jobs = 0, gang_switches = 0;
  std::uint64_t full_records = 0, full_send = 0, full_recv = 0;
  std::uint64_t valid_records = 0, valid_send = 0, valid_recv = 0;
  std::map<std::uint32_t, std::uint64_t> mix;  // message bytes -> packets
  for (std::size_t i = 0; i < plain.pts.size(); ++i) {
    const Point& p = w.points[i];
    const Counters& c = plain.pts[i].c;
    sum.fm_packets_sent += c.fm_packets_sent;
    sum.fm_send_blocks_on_credit += c.fm_send_blocks_on_credit;
    sum.fm_refills_sent += c.fm_refills_sent;
    sum.nic_data_sent += c.nic_data_sent;
    sum.nic_drops += c.nic_drops;
    sum.nic_flushes += c.nic_flushes;
    sum.fabric_data_packets += c.fabric_data_packets;
    sum.fabric_control_packets += c.fabric_control_packets;
    sum.fabric_data_bytes += c.fabric_data_bytes;
    sum.glue_context_switches += c.glue_context_switches;
    sum.glue_bytes_copied += c.glue_bytes_copied;
    sum.switch_records += c.switch_records;
    sum.switch_sim_ns += c.switch_sim_ns;
    sum.events_fired += c.events_fired;
    sum.ladder_transfers += c.ladder_transfers;
    sum.queue_high_water = std::max(sum.queue_high_water, c.queue_high_water);
    max_nodes = std::max(max_nodes, p.nodes);
    max_contexts = std::max(max_contexts, p.contexts);
    max_sending_jobs = std::max(max_sending_jobs, c.sending_jobs);
    gang_switches += c.switch_records / static_cast<std::uint64_t>(p.nodes);
    if (p.policy == glue::BufferPolicy::kSwitchedFull) {
      full_records += c.switch_records;
      full_send += c.valid_send_pkts;
      full_recv += c.valid_recv_pkts;
    } else {
      valid_records += c.switch_records;
      valid_send += c.valid_send_pkts;
      valid_recv += c.valid_recv_pkts;
    }
    mix[p.msg_bytes] += c.fm_packets_sent;
  }
  const double wall = plain.wall_s;
  const double share = 1e-9 / wall;  // probe ns x calls -> share of wall_s

  // sim
  const double self_s = traced.wall_s - traced.handler_s;
  rep.metric("sim.events_fired", u(sum.events_fired), "count");
  rep.metric("sim.events_per_data_packet",
             ratio(u(sum.events_fired), sum.fabric_data_packets), "ratio");
  rep.metric("sim.queue_depth_high_water", u(sum.queue_high_water), "count");
  rep.metric("sim.ladder_heap_transfers", u(sum.ladder_transfers), "count");
  rep.metric("sim.self_s", self_s, "s");
  rep.metric("sim.ns_per_event", ratio(wall * 1e9, sum.events_fired), "ns");
  rep.metric("sim.schedule_fire_ns",
             probeScheduleFire(sum.queue_high_water, seed), "ns");
  rep.metric("sim.schedule_fire_ns.in.queue_depth", u(sum.queue_high_water),
             "count");
  rep.metric("sim.est_share", self_s / traced.wall_s, "ratio");

  // fm
  std::vector<std::pair<std::uint32_t, std::uint64_t>> mix_v(mix.begin(),
                                                             mix.end());
  double mix_bytes = 0;
  std::uint64_t mix_sizes = 0;
  for (const auto& [bytes, packets] : mix_v) {
    mix_bytes += static_cast<double>(bytes) * u(packets);
    if (packets > 0) ++mix_sizes;
  }
  mix_bytes = ratio(mix_bytes, sum.fm_packets_sent);
  const double send_extract = probeSendExtract(mix_v);
  rep.metric("fm.packets_sent", u(sum.fm_packets_sent), "count");
  rep.metric("fm.send_blocks_on_credit", u(sum.fm_send_blocks_on_credit),
             "count");
  rep.metric("fm.refills_sent", u(sum.fm_refills_sent), "count");
  rep.metric("fm.send_extract_ns", send_extract, "ns");
  rep.metric("fm.send_extract_ns.in.msg_bytes", mix_bytes, "B");
  rep.metric("fm.send_extract_ns.in.msg_sizes", u(mix_sizes), "count");
  rep.metric("fm.est_share", send_extract * u(sum.fm_packets_sent) * share,
             "ratio");

  // net.nic
  const double wire_bytes =
      ratio(u(sum.fabric_data_bytes), sum.fabric_data_packets);
  const auto payload = static_cast<std::uint32_t>(std::clamp(
      wire_bytes - net::kPacketHeaderBytes, 1.0,
      static_cast<double>(net::kMaxPayloadBytes)));
  const int active = static_cast<int>(
      std::max<std::uint64_t>(max_sending_jobs, 1));
  const double scan = probeSendScan(active, max_contexts, payload);
  rep.metric("net.nic.data_sent", u(sum.nic_data_sent), "count");
  rep.metric("net.nic.drops", u(sum.nic_drops), "count");
  rep.metric("net.nic.flushes", u(sum.nic_flushes), "count");
  rep.metric("net.nic.send_scan_ns", scan, "ns");
  rep.metric("net.nic.send_scan_ns.in.contexts_active", active, "count");
  rep.metric("net.nic.send_scan_ns.in.contexts_allocated", max_contexts,
             "count");
  rep.metric("net.nic.send_scan_ns.in.payload_bytes", payload, "B");
  rep.metric("net.nic.est_share", scan * u(sum.nic_data_sent) * share,
             "ratio");

  // net.fabric
  const bool all_pairs = w.kind == WorkloadKind::kGangAlltoall;
  const double inject = probeInject(max_nodes, all_pairs, payload);
  const std::uint64_t fabric_packets =
      sum.fabric_data_packets + sum.fabric_control_packets;
  rep.metric("net.fabric.data_packets", u(sum.fabric_data_packets), "count");
  rep.metric("net.fabric.control_packets", u(sum.fabric_control_packets),
             "count");
  rep.metric("net.fabric.data_share",
             ratio(u(sum.fabric_data_packets), fabric_packets), "ratio");
  rep.metric("net.fabric.inject_ns", inject, "ns");
  rep.metric("net.fabric.inject_ns.in.nodes", max_nodes, "count");
  rep.metric("net.fabric.inject_ns.in.pairs",
             all_pairs ? max_nodes * (max_nodes - 1) : 1, "count");
  rep.metric("net.fabric.inject_ns.in.payload_bytes", payload, "B");
  rep.metric("net.fabric.est_share", inject * u(fabric_packets) * share,
             "ratio");

  // glue: probe each switched policy at its own mean occupancy, weighted by
  // the switches that policy made.
  const std::uint64_t records = full_records + valid_records;
  double copy = 0;
  if (full_records > 0)
    copy += u(full_records) *
            probeCopy(glue::BufferPolicy::kSwitchedFull,
                      static_cast<std::uint32_t>(full_send / full_records),
                      static_cast<std::uint32_t>(full_recv / full_records));
  if (valid_records > 0)
    copy += u(valid_records) *
            probeCopy(glue::BufferPolicy::kSwitchedValidOnly,
                      static_cast<std::uint32_t>(valid_send / valid_records),
                      static_cast<std::uint32_t>(valid_recv / valid_records));
  copy = ratio(copy, records);
  rep.metric("glue.context_switches", u(sum.glue_context_switches), "count");
  rep.metric("glue.bytes_copied", u(sum.glue_bytes_copied), "B");
  rep.metric("glue.copy_ns", copy, "ns");
  rep.metric("glue.copy_ns.in.valid_send_pkts",
             ratio(u(full_send + valid_send), records), "pkt");
  rep.metric("glue.copy_ns.in.valid_recv_pkts",
             ratio(u(full_recv + valid_recv), records), "pkt");
  rep.metric("glue.copy_ns.in.full_copy_share", ratio(u(full_records), records),
             "ratio");
  rep.metric("glue.est_share", copy * u(sum.glue_context_switches) * share,
             "ratio");

  // parpar: the gang-switch probe runs at the workload's largest cluster and
  // its last point's policy (valid-only on gang_alltoall; partitioned on
  // stream_partitioned, where two idle jobs still make the gang switch).
  const double gang = probeGangSwitch(max_nodes, w.points.back().policy,
                                      w.points.back().quantum, seed);
  if (gang < 0) rep.fail("probe", "gang-switch probe saw no switches");
  rep.metric("parpar.switch_records", u(sum.switch_records), "count");
  rep.metric("parpar.switch_sim_us",
             ratio(u(sum.switch_sim_ns) / 1e3, sum.switch_records), "us");
  rep.metric("parpar.gang_switch_ns", gang, "ns");
  rep.metric("parpar.gang_switch_ns.in.nodes", max_nodes, "count");
  rep.metric("parpar.est_share", gang * u(gang_switches) * share, "ratio");

  // obs + the benchmark's own tracing cost
  std::uint64_t records_kept = 0;
  for (const PointResult& r : figure.pts) records_kept += r.c.observer_records;
  rep.metric("obs.figure_observer_overhead_frac",
             has_figure_observer ? figure.wall_s / wall - 1.0 : 0.0, "ratio");
  rep.metric("obs.trace_events", u(records_kept), "count");
  rep.metric("bench.trace_overhead_frac", traced.wall_s / wall - 1.0,
             "ratio");

  const auto [packets, sim_s] = sweepWork(plain);
  rep.total("data_packets", packets);
  rep.total("sim_s", sim_s);
  rep.total("wall_s", wall);
  rep.total("traced_wall_s", traced.wall_s);
  rep.total("sweeps", has_figure_observer ? 3 : 2);
  rep.print(w, plain, "layers", seed);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: gcbench --workload <name> --seed <n> --seconds <s> "
               "--mode e2e|layers [--mini]\n");
  return 2;
}

}  // namespace
}  // namespace gangcomm::perfbench

int main(int argc, char** argv) {
  using namespace gangcomm::perfbench;
  std::string workload, mode;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool mini = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value)
      workload = argv[++i];
    else if (a == "--mode" && has_value)
      mode = argv[++i];
    else if (a == "--seed" && has_value)
      seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has_value)
      seconds = std::strtod(argv[++i], nullptr);
    else if (a == "--mini")
      mini = true;
    else
      return usage();
  }
  Workload w;
  if (!workloadByName(workload, mini, &w)) return usage();
  if (mode == "e2e") return runE2e(w, seed, seconds);
  if (mode == "layers") return runLayers(w, seed);
  return usage();
}
