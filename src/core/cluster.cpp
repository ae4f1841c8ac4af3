#include "core/cluster.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "util/check.hpp"

namespace gangcomm::core {

Cluster::Cluster(ClusterConfig cfg) : cfg_(cfg), mem_(cfg.mem) {
  GC_CHECK_MSG(cfg_.nodes >= 1, "cluster needs nodes");
  GC_CHECK_MSG(cfg_.max_contexts >= 1, "max_contexts must be positive");

  // Before anything can schedule: the tie salt requires an empty queue.
  sim_.setTieSalt(cfg_.tie_salt);

  // A non-empty trace_path implies tracing.  The recorder exists either way
  // (harnesses query it); its probe consumer is installed only while tracing.
  trace_.setEnabled(cfg_.trace || !cfg_.trace_path.empty());

  // gctrace: the packet tracer exists when either lifecycle tracing or the
  // flight recorder is requested.
  if (cfg_.packet_trace || cfg_.flight_recorder_depth > 0) {
    ptracer_ = std::make_unique<obs::PacketTracer>(
        trace_.enabled() ? &trace_ : nullptr);
    if (cfg_.flight_recorder_depth > 0)
      ptracer_->enableFlightRecorder(cfg_.flight_recorder_depth);
  }

  // gcprof: install the causality sink before anything schedules so every
  // workload event is known to the recorder.
  if (cfg_.causality_trace) {
    obs::CausalityConfig ccfg;
    ccfg.dump_path = cfg_.causality_dump_path;
    ccfg.buffer_records = cfg_.causality_buffer_records;
    causality_ = std::make_unique<obs::CausalityRecorder>(std::move(ccfg));
    sim_.setCausalitySink(causality_.get());
  }

  if (cfg_.verify) {
    verifier_ = std::make_unique<verify::InvariantEngine>(sim_);
    sim_.setObserver(verifier_.get());
    // A gcverify abort is exactly when a post-mortem matters: dump the
    // flight ring right before std::abort so the file survives the crash.
    if (ptracer_ && ptracer_->flight())
      verifier_->setAbortHook([this] { dumpFlightRecorder(); });
  }

  // One probe per component: null, the only consumer, or a fan-out in this
  // fixed order.  Trace goes first so FM's credit:debit record precedes the
  // packet tracer's flow start.
  if (trace_.enabled()) fanout_.add(&trace_probe_);
  if (ptracer_) fanout_.add(ptracer_.get());
  if (verifier_) fanout_.add(verifier_.get());
  probe_ = fanout_.seam();

  const bool no_flush =
      cfg_.flush_protocol != glue::FlushProtocol::kBroadcast;
  if (cfg_.flush_protocol == glue::FlushProtocol::kAckQuiesce) {
    cfg_.nic.nic_level_acks = true;
    GC_CHECK_MSG(cfg_.fm.enable_retransmit,
                 "the ack-quiesce protocol sheds packets; enable the "
                 "retransmission layer");
  }
  // Retransmissions and no-flush discards both break per-route FIFO
  // delivery, and spurious duplicates can exceed the credit-guaranteed
  // receive space; relax the corresponding NIC invariants automatically.
  if (cfg_.fm.enable_retransmit || no_flush) {
    cfg_.nic.enforce_fifo = false;
    cfg_.nic.allow_recv_overflow_drop = cfg_.fm.enable_retransmit;
  }
  // A lossy/jittery/fail-stop fabric also breaks per-route FIFO, and wire
  // corruption needs the FM checksum path armed or the first poisoned tag
  // aborts the receiver.
  const bool lossy_fabric = cfg_.link_faults.any() || !cfg_.fail_stops.empty();
  if (lossy_fabric) cfg_.nic.enforce_fifo = false;
  if (cfg_.link_faults.corrupt > 0.0) cfg_.fm.checksum_shed = true;
  // Delivery batching may hand a pure data packet to the NIC before its
  // wire arrival time (timestamps are derived from the passed arrival, so
  // plain receive processing is unaffected).  Protocol modes whose receive
  // side is sensitive to *when* the handoff happens — NIC-level acks,
  // retransmission timers, and the discard-wrong-job check against the
  // currently-loaded context — must see arrivals at their exact times.
  // Faults are handled by the fabric's own runtime guard; observers never
  // affect batching.
  if (cfg_.fm.enable_retransmit || cfg_.nic.nic_level_acks || no_flush)
    cfg_.fabric.batch_delivery = false;

  fabric_ = std::make_unique<net::Fabric>(
      sim_, net::RoutingTable::singleSwitch(cfg_.nodes), cfg_.fabric);
  fabric_->setProbe(probe_);
  if (lossy_fabric) {
    fabric_->setFaultSeed(cfg_.fault_seed != 0 ? cfg_.fault_seed : cfg_.seed);
    if (cfg_.link_faults.any()) fabric_->setAllLinkFaults(cfg_.link_faults);
    for (const net::FailStopEvent& ev : cfg_.fail_stops)
      fabric_->addFailStop(ev);
  }

  // Control-network address space: nodes 0..p-1, masterd at address p.
  const int master_addr = cfg_.nodes;
  ctrl_ = std::make_unique<parpar::ControlNetwork>(sim_, cfg_.nodes + 1,
                                                   cfg_.ctrl, cfg_.seed);

  nodes_.reserve(static_cast<std::size_t>(cfg_.nodes));
  for (int n = 0; n < cfg_.nodes; ++n) {
    nodes_.emplace_back();
    Node& node = nodes_.back();
    node.nic = std::make_unique<net::Nic>(sim_, *fabric_, n, cfg_.nic);
    node.nic->setProbe(probe_);
    if (verifier_) verifier_->attachNic(node.nic.get());
    if (cfg_.flush_protocol != glue::FlushProtocol::kBroadcast)
      node.nic->setDiscardWrongJob(true);

    glue::CommNodeConfig cc;
    cc.policy = cfg_.policy;
    cc.max_contexts = cfg_.max_contexts;
    cc.processors = cfg_.nodes;
    cc.total_send_slots = cfg_.total_send_slots;
    cc.total_recv_slots = cfg_.total_recv_slots;
    cc.fm = cfg_.fm;
    cc.switcher = cfg_.switcher;
    cc.flush = cfg_.flush_protocol;
    node.comm = std::make_unique<glue::CommNode>(sim_, node.cpu, mem_,
                                                 *node.nic, cc);
    node.comm->setProbe(probe_);
    GC_CHECK(util::ok(node.comm->COMM_init_node()));

    parpar::NodeDaemonConfig nc;
    nc.master_addr = master_addr;
    node.noded = std::make_unique<parpar::NodeDaemon>(
        sim_, node.cpu, *ctrl_, n, *node.comm, nc);
    node.noded->setProbe(probe_);
    node.noded->setSpawnFn(
        [this, n](net::JobId job, int rank,
                  const std::vector<net::NodeId>& rank_to_node)
            -> std::unique_ptr<parpar::ProcessHandle> {
          return spawnProcess(n, job, rank, rank_to_node);
        });
    ctrl_->attach(n, [noded = node.noded.get()](const parpar::CtrlMsg& m) {
      noded->onCtrl(m);
    });
  }

  parpar::MasterConfig mc;
  mc.quantum = cfg_.quantum;
  mc.master_addr = master_addr;
  master_ = std::make_unique<parpar::MasterDaemon>(sim_, *ctrl_, cfg_.nodes,
                                                   mc);
  ctrl_->attach(master_addr, [this](const parpar::CtrlMsg& m) {
    master_->onCtrl(m);
  });
  master_->on_switch_report = [this](net::NodeId node,
                                     const parpar::SwitchReport& r) {
    switches_.push_back(SwitchRecord{node, r});
  };
  master_->on_job_done = [this](net::JobId) { ++jobs_done_; };
}

Cluster::~Cluster() {
  if (!cfg_.trace_path.empty()) trace_.writeChromeTrace(cfg_.trace_path);
  if (causality_) causality_->finish();
}

bool Cluster::finishCausality() {
  if (!causality_) return false;
  return causality_->finish();
}

void Cluster::collectMetrics(obs::MetricsRegistry& reg) const {
  reg.setGauge("sim.now_ms", sim::nsToMs(sim_.now()));
  reg.setCounter("sim.events_fired", sim_.firedEvents());
  reg.setCounter("sim.events_pending", sim_.pendingEvents());
  reg.setCounter("sim.past_schedule_clamps", sim_.pastScheduleClamps());
  reg.setCounter("sim.events_cancelled", sim_.cancelledEvents());
  reg.setCounter("sim.queue_depth_high_water", sim_.queueDepthHighWater());
  reg.setCounter("cluster.switch_records",
                 static_cast<std::uint64_t>(switches_.size()));
  reg.setCounter("cluster.jobs_done", static_cast<std::uint64_t>(jobs_done_));
  reg.setCounter("obs.trace_events",
                 static_cast<std::uint64_t>(trace_.size()));
  if (ptracer_) {
    ptracer_->attribution().publish(reg, "gctrace.");
    reg.setGauge("gctrace.open_journeys",
                 static_cast<double>(ptracer_->openJourneys()));
    if (const obs::FlightRecorder* fr = ptracer_->flight())
      reg.setCounter("gctrace.flight_recorded", fr->recorded());
  }
  if (causality_) causality_->publish(reg);
  fabric_->publishMetrics(reg);
  for (const Node& node : nodes_) {
    node.nic->publishMetrics(reg);
    node.comm->publishMetrics(reg);
    node.noded->publishMetrics(reg);
  }
  for (const fm::FmLib* lib : fm_libs_) lib->publishMetrics(reg);
}

bool Cluster::dumpFlightRecorder(const std::string& path) const {
  if (!ptracer_) return false;
  const obs::FlightRecorder* fr = ptracer_->flight();
  if (fr == nullptr) return false;
  return fr->writeJson(path.empty() ? cfg_.flight_dump_path : path);
}

int Cluster::creditsC0() const {
  return nodes_.front().comm->creditsC0();
}

std::unique_ptr<app::Process> Cluster::spawnProcess(
    net::NodeId node_id, net::JobId job, int rank,
    const std::vector<net::NodeId>& rank_to_node) {
  auto fit = factories_.find(job);
  GC_CHECK_MSG(fit != factories_.end(), "spawn for an unknown job");
  Node& node = nodes_[static_cast<std::size_t>(node_id)];

  // FM_initialize: the process reads its identity from the environment the
  // noded prepared (Figure 2) and maps the queues.
  fm::FmLib::Params params;
  params.ctx = node.comm->contextFor(job);
  params.job = job;
  params.rank = rank;
  params.rank_to_node = rank_to_node;
  params.credits_c0 = node.comm->creditsC0();
  auto fmlib = std::make_unique<fm::FmLib>(sim_, node.cpu, *node.nic,
                                           cfg_.fm, std::move(params));
  fmlib->setProbe(probe_);
  // The FmLib is owned by the process (alive until cluster teardown); keep a
  // raw pointer so collectMetrics can reach it.
  fm_libs_.push_back(fmlib.get());

  app::Process::Env env;
  env.sim = &sim_;
  env.cpu = &node.cpu;
  env.fm = std::move(fmlib);
  env.job = job;
  env.rank = rank;
  env.job_size = static_cast<int>(rank_to_node.size());

  std::unique_ptr<app::Process> proc = fit->second(std::move(env));
  GC_CHECK_MSG(proc != nullptr, "process factory returned null");
  proc->on_finish = [noded = node.noded.get(), job] {
    noded->onProcessExit(job);
  };
  // Keep the job's list in rank order: spawns arrive in whatever order the
  // control network delivers them.
  std::vector<app::Process*>& procs = job_procs_[job];
  procs.insert(std::upper_bound(procs.begin(), procs.end(), rank,
                                [](int r, const app::Process* p) {
                                  return r < p->rank();
                                }),
               proc.get());
  return proc;
}

net::JobId Cluster::submit(int nprocs, ProcessFactory factory,
                           std::vector<net::NodeId> pinned_nodes) {
  // Register under the id the masterd will assign; submit() only schedules
  // control messages, so the factory is in place before any spawn runs.
  const net::JobId job = master_->submit(nprocs, std::move(pinned_nodes));
  if (job == net::kNoJob) return job;
  factories_.emplace(job, std::move(factory));
  return job;
}

void Cluster::run() { sim_.run(); }

void Cluster::runUntil(sim::SimTime t) { sim_.runUntil(t); }

std::vector<app::Process*> Cluster::processes(net::JobId job) const {
  auto it = job_procs_.find(job);
  if (it == job_procs_.end()) return {};
  return it->second;
}

}  // namespace gangcomm::core
