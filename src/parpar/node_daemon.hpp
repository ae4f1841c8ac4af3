// noded — the per-node daemon.
//
// Owns the node's processes and drives the three-stage gang context switch
// (paper §3.2): SIGSTOP the outgoing process, COMM_halt_network,
// COMM_context_switch, COMM_release_network, SIGCONT the incoming process,
// and report the per-stage timings to the masterd.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "host/cpu_model.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "parpar/control_network.hpp"
#include "parpar/interfaces.hpp"
#include "sim/simulator.hpp"

namespace gangcomm::parpar {

struct NodeDaemonConfig {
  /// Daemon-side cost to deliver SIGSTOP/SIGCONT and do its bookkeeping.
  sim::Duration signal_cost_ns = 15 * sim::kMicrosecond;
  int master_addr = -1;  // control-network address of the masterd
};

class NodeDaemon {
 public:
  /// Spawn hook: create the application process for (job, rank).  Provided
  /// by the Cluster facade, which knows how to build FmLib bindings.
  using SpawnFn = std::function<std::unique_ptr<ProcessHandle>(
      net::JobId job, int rank, const std::vector<net::NodeId>& rank_to_node)>;

  NodeDaemon(sim::Simulator& s, host::HostCpu& cpu, ControlNetwork& ctrl,
             net::NodeId node, CommManager& comm, NodeDaemonConfig cfg);

  void setSpawnFn(SpawnFn fn) { spawn_ = std::move(fn); }

  /// Control-network entry point (attached by the Cluster).
  void onCtrl(const CtrlMsg& msg);

  /// Called (via the process's exit hook) when a local rank finishes; the
  /// noded relays kJobExited to the masterd.
  void onProcessExit(net::JobId job);

  net::NodeId node() const { return node_; }
  int currentSlot() const { return current_slot_; }
  std::uint64_t switchesDone() const { return switches_done_; }

  /// Observer seam (may be null): each completed gang switch with its
  /// three protocol stages (halt, buffer switch, release).
  void setProbe(obs::Probe* p) { probe_ = p; }
  void publishMetrics(obs::MetricsRegistry& reg) const;

 private:
  struct LocalJob {
    int rank = -1;
    int slot = -1;
    std::unique_ptr<ProcessHandle> process;
    bool started = false;
    bool exited = false;
  };

  void handleLoadJob(const CtrlMsg& msg);
  void handleStartJob(const CtrlMsg& msg);
  void handleSwitchSlot(const CtrlMsg& msg);
  LocalJob* jobInSlot(int slot);
  void sendToMaster(CtrlMsg msg);

  sim::Simulator& sim_;
  host::HostCpu& cpu_;
  ControlNetwork& ctrl_;
  net::NodeId node_;
  CommManager& comm_;
  NodeDaemonConfig cfg_;
  SpawnFn spawn_;

  std::map<net::JobId, LocalJob> jobs_;
  int current_slot_ = 0;
  bool switch_in_progress_ = false;
  std::uint64_t switches_done_ = 0;
  obs::Probe* probe_ = nullptr;
};

}  // namespace gangcomm::parpar
