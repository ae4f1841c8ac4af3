// masterd — the cluster controller.
//
// Allocates nodes (DHC), maintains the gang matrix, runs the job-loading
// handshake of Figure 2 (load -> collect readies -> global start), and
// drives round-robin slot switching on a fixed time quantum, broadcasting
// the switch to every noded over the control network (paper §2.1).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "parpar/control_network.hpp"
#include "parpar/gang_matrix.hpp"
#include "parpar/messages.hpp"
#include "sim/simulator.hpp"

namespace gangcomm::parpar {

struct MasterConfig {
  sim::Duration quantum = sim::kSecond;
  int master_addr = -1;  // our control-network address
  /// Stop slot switching while only one slot is populated.
  bool skip_switch_when_single_slot = true;
};

class MasterDaemon {
 public:
  MasterDaemon(sim::Simulator& s, ControlNetwork& ctrl, int nodes,
               MasterConfig cfg);

  /// jobrep entry point: negotiate the loading of an application.  Returns
  /// the assigned job id, or kNoJob if the machine cannot host it.  When
  /// `pinned_nodes` is non-empty it overrides DHC placement (the jobrep may
  /// request specific machines), one node per rank.
  net::JobId submit(int nprocs, std::vector<net::NodeId> pinned_nodes = {});

  /// Control-network entry point.
  void onCtrl(const CtrlMsg& msg);

  int currentSlot() const { return current_slot_; }
  int jobCount() const { return static_cast<int>(jobs_.size()); }
  const GangMatrix& matrix() const { return matrix_; }
  std::uint64_t switchesInitiated() const { return switches_; }

  /// Observer hooks (Cluster / experiment runner).
  std::function<void(net::NodeId, const SwitchReport&)> on_switch_report;
  std::function<void(net::JobId)> on_job_done;
  std::function<void()> on_all_jobs_done;

 private:
  struct JobState {
    int nprocs = 0;
    int slot = -1;
    std::vector<net::NodeId> nodes;  // rank -> node
    int ready = 0;
    int exited = 0;
    bool started = false;
  };

  void broadcastToNodes(const std::vector<net::NodeId>& nodes, CtrlMsg msg);
  void armQuantumTimer();
  void quantumExpired();
  void handleJobReady(const CtrlMsg& msg);
  void handleJobExited(const CtrlMsg& msg);

  sim::Simulator& sim_;
  ControlNetwork& ctrl_;
  int nodes_;
  MasterConfig cfg_;
  DhcAllocator dhc_;
  GangMatrix matrix_;
  std::map<net::JobId, JobState> jobs_;
  net::JobId next_job_id_ = 1;
  int current_slot_ = 0;
  bool timer_armed_ = false;
  sim::EventHandle timer_;
  std::uint64_t switches_ = 0;
  int switch_acks_pending_ = 0;
};

}  // namespace gangcomm::parpar
