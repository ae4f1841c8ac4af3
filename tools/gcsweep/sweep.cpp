#include "sweep.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app/workloads.hpp"
#include "bench/sweep_runner.hpp"
#include "core/cluster.hpp"
#include "net/fault.hpp"
#include "obs/gctrace.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace gangcomm::sweep {
namespace {

constexpr sim::SimTime kFailStopAt = sim::msToNs(3.0);

bool knownFailStop(const std::string& name) {
  return name == "none" || name == "link" || name == "nic" || name == "node";
}

net::FailStopEvent failStopFor(const Cell& c) {
  net::FailStopEvent ev;
  ev.at = kFailStopAt;
  if (c.fail_stop == "link") {
    ev.kind = net::FailStopKind::kLink;
    ev.src = 0;
    ev.dst = 1;
  } else if (c.fail_stop == "nic") {
    ev.kind = net::FailStopKind::kNic;
    ev.src = 1;
  } else {
    GC_CHECK_MSG(c.fail_stop == "node", "unknown fail-stop schedule name");
    ev.kind = net::FailStopKind::kNode;
    ev.src = c.nodes - 1;
  }
  return ev;
}

std::string fmt3(double v) { return util::formatDouble(v, 3); }

std::string cellName(const Cell& c) {
  return "salt=" + std::to_string(c.salt) + " seed=" + std::to_string(c.seed) +
         " loss=" + fmt3(c.loss) + " jitter=" + std::to_string(c.jitter_ns) +
         " corrupt=" + fmt3(c.corrupt) + " fail_stop=" + c.fail_stop;
}

/// Messages and payload bytes received, summed over every process.
std::pair<std::uint64_t, std::uint64_t> received(const CellResult& r) {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  for (const ProcessOutcome& p : r.processes) {
    msgs += p.messages_received;
    bytes += p.payload_bytes_received;
  }
  return {msgs, bytes};
}

std::string vs(const char* what, std::uint64_t a, std::uint64_t b) {
  return std::string(what) + ' ' + std::to_string(a) + " vs " +
         std::to_string(b) + "; ";
}

std::string appDiff(const CellResult& r, const CellResult& base) {
  std::string d;
  if (r.jobs_done != base.jobs_done)
    d += vs("jobs_done", static_cast<std::uint64_t>(r.jobs_done),
            static_cast<std::uint64_t>(base.jobs_done));
  const std::size_t n = std::min(r.processes.size(), base.processes.size());
  for (std::size_t p = 0; p < n; ++p) {
    if (r.processes[p] == base.processes[p]) continue;
    d += "job " + std::to_string(base.processes[p].job) + " rank " +
         std::to_string(base.processes[p].rank) + " outcome differs; ";
  }
  if (r.processes.size() != base.processes.size())
    d += vs("process count", r.processes.size(), base.processes.size());
  return d;
}

std::string wireDiff(const CellResult& r, const CellResult& base) {
  std::string d;
  if (r.data_packets != base.data_packets)
    d += vs("data_packets", r.data_packets, base.data_packets);
  if (r.data_bytes != base.data_bytes)
    d += vs("data_bytes", r.data_bytes, base.data_bytes);
  return d;
}

/// An oracle group: the cell with the fields a rule lets vary reset (salt
/// always, the seed too for app outcomes).
Cell groupKey(Cell c, bool keep_seed) {
  c.salt = 0;
  if (!keep_seed) c.seed = 0;
  return c;
}

}  // namespace

util::Status validate(const SweepConfig& cfg, std::string* why) {
  const auto reject = [why](const std::string& what) {
    if (why != nullptr) *why = what;
    return util::Status::kInvalid;
  };
  if (cfg.nodes < 2) return reject("need at least 2 nodes");
  if (cfg.jobs < 1) return reject("need at least 1 job");
  if (cfg.salts.empty() || cfg.loss.empty() || cfg.jitter_ns.empty() ||
      cfg.corrupt.empty() || cfg.fail_stops.empty() || cfg.seeds.empty())
    return reject("every axis needs at least one value");
  // Negated so that NaN is rejected too.
  for (const double p : cfg.loss)
    if (!(p >= 0.0 && p < 1.0)) return reject("loss must be in [0, 1)");
  for (const double p : cfg.corrupt)
    if (!(p >= 0.0 && p < 1.0)) return reject("corrupt must be in [0, 1)");
  for (const std::uint64_t j : cfg.jitter_ns)
    if (j > static_cast<std::uint64_t>(
                std::numeric_limits<std::int64_t>::max()))
      return reject("jitter-ns must be at most INT64_MAX");
  for (const std::string& fs : cfg.fail_stops)
    if (!knownFailStop(fs))
      return reject("unknown fail-stop '" + fs +
                    "' (want none, link, nic or node)");
  return util::Status::kOk;
}

std::vector<Cell> expand(const SweepConfig& cfg) {
  Cell c;
  c.nodes = cfg.nodes;
  c.jobs = cfg.jobs;
  c.msg_bytes = cfg.msg_bytes;
  c.rounds = cfg.rounds;
  c.quantum_ms = cfg.quantum_ms;
  const auto positive = [](auto v) { return v > 0; };
  c.retransmit =
      std::any_of(cfg.loss.begin(), cfg.loss.end(), positive) ||
      std::any_of(cfg.jitter_ns.begin(), cfg.jitter_ns.end(), positive) ||
      std::any_of(cfg.corrupt.begin(), cfg.corrupt.end(), positive) ||
      std::any_of(cfg.fail_stops.begin(), cfg.fail_stops.end(),
                  [](const std::string& fs) { return fs != "none"; });

  std::vector<Cell> out;
  for (const double loss : cfg.loss)
    for (const std::uint64_t jitter : cfg.jitter_ns)
      for (const double corrupt : cfg.corrupt)
        for (const std::string& fs : cfg.fail_stops)
          for (const std::uint64_t seed : cfg.seeds)
            for (const std::uint64_t salt : cfg.salts) {
              c.loss = loss;
              c.jitter_ns = jitter;
              c.corrupt = corrupt;
              c.fail_stop = fs;
              c.seed = seed;
              c.salt = salt;
              out.push_back(c);
            }
  return out;
}

CellResult runCell(const Cell& c) {
  core::ClusterConfig cc;
  cc.nodes = c.nodes;
  cc.quantum = static_cast<sim::Duration>(c.quantum_ms) * sim::kMillisecond;
  cc.verify = true;  // invariant violations abort the sweep loudly
  cc.packet_trace = true;
  cc.tie_salt = c.salt;
  cc.seed = c.seed;
  cc.fault_seed = c.seed;
  cc.fm.enable_retransmit = c.retransmit;
  cc.link_faults.loss = c.loss;
  cc.link_faults.corrupt = c.corrupt;
  cc.link_faults.max_jitter_ns = c.jitter_ns;
  const bool fail_stop = c.fail_stop != "none";
  if (fail_stop) cc.fail_stops.push_back(failStopFor(c));
  core::Cluster cluster(cc);

  std::vector<net::NodeId> all_nodes(static_cast<std::size_t>(c.nodes));
  for (int n = 0; n < c.nodes; ++n) all_nodes[static_cast<std::size_t>(n)] = n;
  std::vector<net::JobId> jobs;
  for (int j = 0; j < c.jobs; ++j) {
    const net::JobId id = cluster.submit(
        c.nodes,
        [&c](app::Process::Env env) -> std::unique_ptr<app::Process> {
          return std::make_unique<app::AllToAllWorker>(std::move(env),
                                                       c.msg_bytes, c.rounds);
        },
        all_nodes);
    GC_CHECK_MSG(id != net::kNoJob, "sweep job rejected by the masterd");
    jobs.push_back(id);
  }

  // Per-event invariants hold throughout; the drained-state finalCheck
  // applies only to cells that drain.
  if (fail_stop) {
    cluster.runUntil(c.failstop_horizon_ns);
  } else {
    cluster.run();
    cluster.verifier()->finalCheck();
  }

  CellResult r;
  r.cell = c;
  r.jobs_done = cluster.jobsDone();
  for (const net::JobId job : jobs) {
    for (const app::Process* proc : cluster.processes(job)) {
      const fm::FmStats& st = proc->fm().stats();
      r.processes.push_back({job, proc->rank(), st.messages_sent,
                             st.messages_received, st.payload_bytes_sent,
                             st.payload_bytes_received});
      r.retransmitted += st.packets_retransmitted;
      r.rtx_timeouts += st.rtx_timeouts;
      r.checksum_dropped += st.checksum_dropped;
      r.ooo_dropped += st.ooo_dropped;
      r.dup_dropped += st.dup_dropped;
    }
  }
  std::sort(r.processes.begin(), r.processes.end(),
            [](const ProcessOutcome& a, const ProcessOutcome& b) {
              return std::pair(a.job, a.rank) < std::pair(b.job, b.rank);
            });

  obs::MetricsRegistry reg;
  cluster.collectMetrics(reg);
  r.data_packets = reg.counter("fabric.data_packets");
  r.data_bytes = reg.counter("fabric.data_bytes");
  const net::FaultStats& fs = cluster.fabric().faultStats();
  r.wire_dropped = cluster.fabric().droppedPackets();
  r.lost = fs.lost;
  r.corrupted = fs.corrupted;
  r.jittered = fs.jittered;
  r.reordered = fs.reordered;
  r.failstop_dropped = fs.failstop_dropped;
  r.lost_credits = cluster.verifier()->lostCredits();

  const obs::LatencyAttribution& attr = cluster.packetTracer()->attribution();
  r.traced_packets = attr.packets();
  for (const obs::PacketStage s : obs::packetStages())
    r.stage_us.push_back(attr.stageStats(s).mean() / 1000.0);
  r.end_to_end_us = attr.endToEndStats().mean() / 1000.0;
  return r;
}

std::vector<CellResult> runSweep(const SweepConfig& cfg) {
  GC_CHECK_MSG(util::ok(validate(cfg)), "invalid sweep configuration");
  const std::vector<Cell> cells = expand(cfg);
  return bench::parallelMap<CellResult>(
      cells.size(), [&](std::size_t i) { return runCell(cells[i]); });
}

std::vector<std::string> checkOracle(const std::vector<CellResult>& results) {
  std::vector<std::string> out;
  // Compares results[i] with the first earlier cell of its group.
  const auto check = [&](std::size_t i, bool keep_seed, const auto& diff) {
    const Cell key = groupKey(results[i].cell, keep_seed);
    for (std::size_t j = 0; j < i; ++j) {
      if (!(groupKey(results[j].cell, keep_seed) == key)) continue;
      const std::string d = diff(results[i], results[j]);
      if (!d.empty())
        out.push_back(cellName(results[i].cell) + " differs from " +
                      cellName(results[j].cell) + ": " + d);
      return;
    }
  };
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Cell& c = results[i].cell;
    if (c.fail_stop != "none") continue;  // stops at a horizon, not drained
    check(i, false, appDiff);
    if (c.loss == 0.0 && c.jitter_ns == 0 && c.corrupt == 0.0)
      check(i, true, wireDiff);
  }
  return out;
}

std::string renderCsv(const std::vector<CellResult>& results) {
  std::string csv =
      "loss,jitter_ns,corrupt,fail_stop,seed,jobs_done,data_packets,"
      "wire_dropped,lost,corrupted,jittered,reordered,failstop_dropped,"
      "retransmitted,rtx_timeouts,checksum_dropped,ooo_dropped,dup_dropped,"
      "lost_credits,traced_packets";
  for (const obs::PacketStage s : obs::packetStages())
    csv += std::string(",") + obs::packetStageName(s) + "_us";
  csv += ",end_to_end_us,salt,data_bytes,msgs_recv,payload_recv\n";

  for (const CellResult& r : results) {
    const Cell& c = r.cell;
    csv += fmt3(c.loss) + ',' + std::to_string(c.jitter_ns) + ',' +
           fmt3(c.corrupt) + ',' + c.fail_stop + ',' + std::to_string(c.seed) +
           ',' + std::to_string(r.jobs_done);
    for (const std::uint64_t v :
         {r.data_packets, r.wire_dropped, r.lost, r.corrupted, r.jittered,
          r.reordered, r.failstop_dropped, r.retransmitted, r.rtx_timeouts,
          r.checksum_dropped, r.ooo_dropped, r.dup_dropped})
      csv += ',' + std::to_string(v);
    csv += ',' + std::to_string(r.lost_credits) + ',' +
           std::to_string(r.traced_packets);
    for (const double us : r.stage_us) csv += ',' + fmt3(us);
    const auto [msgs, bytes] = received(r);
    csv += ',' + fmt3(r.end_to_end_us) + ',' + std::to_string(c.salt) + ',' +
           std::to_string(r.data_bytes) + ',' + std::to_string(msgs) + ',' +
           std::to_string(bytes) + '\n';
  }
  return csv;
}

std::string summarize(const CellResult& r) {
  const auto [msgs, bytes] = received(r);
  return cellName(r.cell) + " jobs_done=" + std::to_string(r.jobs_done) +
         " data_pkts=" + std::to_string(r.data_packets) +
         " data_bytes=" + std::to_string(r.data_bytes) +
         " msgs_recv=" + std::to_string(msgs) +
         " payload_recv=" + std::to_string(bytes) +
         " rtx=" + std::to_string(r.retransmitted) +
         " e2e_us=" + fmt3(r.end_to_end_us);
}

}  // namespace gangcomm::sweep
