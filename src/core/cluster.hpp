// The public facade: a whole ParPar cluster in one object.
//
// Construction wires the simulator, the Myrinet fabric, one NIC + host CPU +
// glueFM CommNode + noded per node, the control Ethernet, and the masterd
// with its gang matrix.  submit() plays the jobrep; run()/runUntil() advance
// simulated time.  Per-switch reports and per-process results are collected
// for the experiment harnesses.
//
// Quickstart:
//
//   core::ClusterConfig cfg;
//   cfg.nodes = 16;
//   cfg.policy = glue::BufferPolicy::kSwitchedValidOnly;
//   core::Cluster cluster(cfg);
//   cluster.submit(2, [&](app::Process::Env env)
//                         -> std::unique_ptr<app::Process> {
//     if (env.rank == 0)
//       return std::make_unique<app::BandwidthSender>(std::move(env), 1,
//                                                     16384, 1000);
//     return std::make_unique<app::BandwidthReceiver>(std::move(env), 0, 1000);
//   });
//   cluster.run();
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app/process.hpp"
#include "fm/config.hpp"
#include "glue/comm_node.hpp"
#include "glue/policy.hpp"
#include "host/cpu_model.hpp"
#include "host/memory_model.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "obs/gcprof.hpp"
#include "obs/gctrace.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "parpar/control_network.hpp"
#include "parpar/master_daemon.hpp"
#include "parpar/node_daemon.hpp"
#include "sim/simulator.hpp"
#include "verify/invariant_engine.hpp"

// The build defines GANGCOMM_VERIFY_DEFAULT=1 when configured with
// -DGANGCOMM_VERIFY=ON, turning dynamic verification on by default for
// every Cluster in that tree (tests and benches alike).
#ifndef GANGCOMM_VERIFY_DEFAULT
#define GANGCOMM_VERIFY_DEFAULT 0
#endif

namespace gangcomm::core {

struct ClusterConfig {
  int nodes = 16;
  glue::BufferPolicy policy = glue::BufferPolicy::kSwitchedValidOnly;
  /// Gang-matrix depth n: the number of contexts the partitioned scheme
  /// sizes its buffer division (and credit formula) for.
  int max_contexts = 1;
  sim::Duration quantum = sim::kSecond;
  int total_send_slots = 252;
  int total_recv_slots = 668;
  fm::FmConfig fm;
  net::NicConfig nic;
  net::FabricConfig fabric;
  /// Per-link fault model, applied uniformly to every directed link of the
  /// fabric (see net/fault.hpp).  Per-link overrides and drop-every-Nth go
  /// through cluster.fabric() directly.  Arming corruption auto-enables
  /// fm.checksum_shed; any fault relaxes nic.enforce_fifo (loss and reorder
  /// legally break per-route FIFO delivery).
  net::LinkFaults link_faults;
  /// Seed for the per-link fault RNG streams (0 = derive from `seed`).  The
  /// same fault seed regenerates the same per-link fault pattern at any
  /// sweep-runner thread count.
  std::uint64_t fault_seed = 0;
  /// Scheduled fail-stop events: links, NICs, or whole nodes that go dark
  /// at a simulated time (dead links drop control packets too).
  std::vector<net::FailStopEvent> fail_stops;
  host::MemoryModelConfig mem;
  parpar::ControlNetConfig ctrl;
  glue::SwitcherConfig switcher;
  std::uint64_t seed = 1;
  /// Quiesce discipline around gang switches (related-work ablations); the
  /// non-broadcast protocols imply NIC id-check discards and need
  /// fm.enable_retransmit to complete jobs.
  glue::FlushProtocol flush_protocol = glue::FlushProtocol::kBroadcast;
  /// Observability: record structured trace events in every subsystem.
  /// Like every observer below it is an obs::Probe consumer, so enabling it
  /// cannot change simulation results, event count included.
  bool trace = false;
  /// When non-empty, implies `trace` and writes a Chrome trace-event JSON
  /// file (chrome://tracing / Perfetto) here on Cluster destruction.
  std::string trace_path;
  /// gctrace: per-packet lifecycle tracing.  Every data packet is stamped
  /// at each stage (COMM_send -> credit grant -> NIC queue -> wire ->
  /// receive queue -> dispatch, plus switch-stall time) and aggregated into
  /// a LatencyAttribution; with `trace` also on, packets emit Chrome flow
  /// events.  A probe consumer, like `trace`.
  bool packet_trace = false;
  /// gctrace flight recorder: keep the last N packet/protocol events in a
  /// bounded ring (0 disables).  O(1) memory however long the run; dumped
  /// to `flight_dump_path` when the invariant engine aborts.  Implies the
  /// tracer exists even when `packet_trace` is off.
  std::size_t flight_recorder_depth = 0;
  /// Where the flight ring is dumped on a gcverify abort (and by
  /// dumpFlightRecorder()).  Default: "gctrace_flight.json".
  std::string flight_dump_path = "gctrace_flight.json";
  /// gcprof: record the event-causality DAG (obs::CausalityRecorder behind
  /// sim::CausalitySink).  Every fired event yields (id, parent id, sched
  /// time, fire time, LP tag); tools/gcprof turns the dump into the causal
  /// critical path and per-LP load.  Sim-time records never perturb
  /// simulation results.  Under delivery batching a data packet handed to
  /// its NIC early has no delivery event of its own, so its receive work
  /// appears as a child of the inject (or ring-drain) event; set
  /// fabric.batch_delivery = false to profile per-packet link->nic edges.
  bool causality_trace = false;
  /// Where the causality dump spills (see obs::CausalityConfig).  Empty
  /// keeps all records in memory for causalityRecorder()->records().
  std::string causality_dump_path = "gcprof_dump.json";
  /// Records buffered before spilling to the dump file.
  std::size_t causality_buffer_records = 1 << 16;
  /// Dynamic verification (gcverify): run an InvariantEngine as the
  /// simulator's event observer, checking credit conservation, buffer
  /// ownership, packet conservation, and switch-protocol order after every
  /// event.  A probe consumer, like `trace`.
  bool verify = GANGCOMM_VERIFY_DEFAULT != 0;
  /// Same-timestamp event permutation salt (sim::Simulator::setTieSalt),
  /// installed before any event is scheduled.  0 = natural FIFO tiebreak.
  /// tools/gcsweep sweeps this to exercise alternative legal orderings of
  /// logically concurrent events.
  std::uint64_t tie_salt = 0;
};

/// One node's switch measurement, tagged with its origin.
struct SwitchRecord {
  net::NodeId node = net::kNoNode;
  parpar::SwitchReport report;
};

class Cluster {
 public:
  using ProcessFactory =
      std::function<std::unique_ptr<app::Process>(app::Process::Env)>;

  explicit Cluster(ClusterConfig cfg);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Submit an `nprocs`-wide job; `factory` builds the process for each
  /// rank.  Returns the masterd-assigned job id (kNoJob on rejection).
  /// `pinned_nodes`, when non-empty, requests specific machines (one per
  /// rank) instead of DHC placement — e.g. to stack several jobs on the
  /// same nodes so they gang-share a time slot, as the paper's Figure 6
  /// experiment does.
  net::JobId submit(int nprocs, ProcessFactory factory,
                    std::vector<net::NodeId> pinned_nodes = {});

  /// Run until every submitted job finished (drains the event queue).
  void run();
  /// Run until the given simulated time.
  void runUntil(sim::SimTime t);

  sim::Simulator& sim() { return sim_; }
  const ClusterConfig& config() const { return cfg_; }
  int creditsC0() const;

  net::Nic& nic(net::NodeId n) {
    return *nodes_.at(static_cast<std::size_t>(n)).nic;
  }
  host::HostCpu& cpu(net::NodeId n) {
    return nodes_.at(static_cast<std::size_t>(n)).cpu;
  }
  glue::CommNode& comm(net::NodeId n) {
    return *nodes_.at(static_cast<std::size_t>(n)).comm;
  }
  parpar::NodeDaemon& noded(net::NodeId n) {
    return *nodes_.at(static_cast<std::size_t>(n)).noded;
  }
  parpar::MasterDaemon& master() { return *master_; }
  net::Fabric& fabric() { return *fabric_; }

  /// All per-node switch reports observed so far.
  const std::vector<SwitchRecord>& switchRecords() const { return switches_; }

  /// The cluster-wide trace recorder (enabled iff ClusterConfig::trace or a
  /// trace_path was given).  Harnesses may query or export it at any time.
  obs::TraceRecorder& trace() { return trace_; }
  const obs::TraceRecorder& trace() const { return trace_; }

  /// The cluster-wide packet tracer (null unless packet_trace or a flight
  /// recorder depth was configured).  Harnesses read the attribution from
  /// it; collectMetrics publishes the same data under "gctrace.".
  obs::PacketTracer* packetTracer() { return ptracer_.get(); }
  const obs::PacketTracer* packetTracer() const { return ptracer_.get(); }

  /// The gcprof causality recorder (null unless causality_trace).  Call
  /// finishCausality() — or let the destructor do it — to flush the dump.
  obs::CausalityRecorder* causalityRecorder() { return causality_.get(); }
  const obs::CausalityRecorder* causalityRecorder() const {
    return causality_.get();
  }

  /// Flush the causality dump (idempotent).  Returns false when no recorder
  /// is active or a file write failed.
  bool finishCausality();

  /// Write the flight ring to cfg.flight_dump_path (or `path` if given).
  /// Returns false when no flight recorder is active or the write failed.
  /// Installed as the invariant engine's abort hook, so gcverify aborts
  /// leave a post-mortem dump automatically.
  bool dumpFlightRecorder(const std::string& path = "") const;

  /// The invariant engine (null unless ClusterConfig::verify).  Tests use it
  /// to flip collect mode, inspect violations, or run the drained-state
  /// finalCheck() after run() returns.
  verify::InvariantEngine* verifier() { return verifier_.get(); }

  /// Pull a snapshot of every subsystem's counters/gauges into `reg`.
  void collectMetrics(obs::MetricsRegistry& reg) const;

  /// Live process pointers for a job in rank order: index == rank once all
  /// ranks spawned (owned by the nodeds; valid while the cluster exists).
  std::vector<app::Process*> processes(net::JobId job) const;

  /// Count of jobs that have fully exited.
  int jobsDone() const { return jobs_done_; }

 private:
  struct Node {
    host::HostCpu cpu;
    std::unique_ptr<net::Nic> nic;
    std::unique_ptr<glue::CommNode> comm;
    std::unique_ptr<parpar::NodeDaemon> noded;
  };

  std::unique_ptr<app::Process> spawnProcess(
      net::NodeId node, net::JobId job, int rank,
      const std::vector<net::NodeId>& rank_to_node);

  ClusterConfig cfg_;
  sim::Simulator sim_;
  obs::TraceRecorder trace_;
  obs::TraceProbe trace_probe_{trace_};
  std::unique_ptr<obs::PacketTracer> ptracer_;
  std::unique_ptr<obs::CausalityRecorder> causality_;
  std::unique_ptr<verify::InvariantEngine> verifier_;
  obs::Probe fanout_;            // over the consumers, in fixed order
  obs::Probe* probe_ = nullptr;  // what every component reports to
  host::MemoryModel mem_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<parpar::ControlNetwork> ctrl_;
  std::vector<Node> nodes_;
  std::unique_ptr<parpar::MasterDaemon> master_;

  std::map<net::JobId, ProcessFactory> factories_;
  std::map<net::JobId, std::vector<app::Process*>> job_procs_;
  std::vector<fm::FmLib*> fm_libs_;  // owned by processes; cluster-lifetime
  std::vector<SwitchRecord> switches_;
  int jobs_done_ = 0;
};

}  // namespace gangcomm::core
