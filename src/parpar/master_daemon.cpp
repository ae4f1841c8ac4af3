#include "parpar/master_daemon.hpp"

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "sim/log.hpp"
#include "util/check.hpp"

namespace gangcomm::parpar {

MasterDaemon::MasterDaemon(sim::Simulator& s, ControlNetwork& ctrl, int nodes,
                           MasterConfig cfg)
    : sim_(s),
      ctrl_(ctrl),
      nodes_(nodes),
      cfg_(cfg),
      dhc_(nodes),
      matrix_(nodes) {
  GC_CHECK_MSG(cfg_.master_addr >= 0, "master needs its control address");
}

net::JobId MasterDaemon::submit(int nprocs,
                                std::vector<net::NodeId> pinned_nodes) {
  std::optional<std::vector<net::NodeId>> nodes;
  if (!pinned_nodes.empty()) {
    if (static_cast<int>(pinned_nodes.size()) != nprocs) return net::kNoJob;
    for (net::NodeId n : pinned_nodes)
      if (n < 0 || n >= nodes_) return net::kNoJob;
    dhc_.allocateExact(pinned_nodes);
    nodes = std::move(pinned_nodes);
  } else {
    nodes = dhc_.allocate(nprocs);
  }
  if (!nodes) return net::kNoJob;
  const net::JobId job = next_job_id_++;
  auto placement = matrix_.place(job, *nodes);
  GC_CHECK(placement.has_value());

  JobState st;
  st.nprocs = nprocs;
  st.slot = placement->slot;
  st.nodes = *nodes;
  jobs_.emplace(job, st);

  GC_INFO(sim_, "masterd", "job %d: %d procs in slot %d", job, nprocs,
          placement->slot);

  // Serial unicast loop: one kLoadJob per rank.
  for (int rank = 0; rank < nprocs; ++rank) {
    CtrlMsg msg;
    msg.type = CtrlType::kLoadJob;
    msg.job = job;
    msg.rank = rank;
    msg.slot = placement->slot;
    msg.rank_to_node = *nodes;
    ctrl_.send(cfg_.master_addr, (*nodes)[static_cast<std::size_t>(rank)],
               std::move(msg));
  }

  armQuantumTimer();
  return job;
}

void MasterDaemon::onCtrl(const CtrlMsg& msg) {
  switch (msg.type) {
    case CtrlType::kJobReady:
      handleJobReady(msg);
      return;
    case CtrlType::kJobExited:
      handleJobExited(msg);
      return;
    case CtrlType::kSwitchDone:
      if (switch_acks_pending_ > 0) --switch_acks_pending_;
      if (on_switch_report) on_switch_report(msg.from, msg.report);
      return;
    default:
      GC_CHECK_MSG(false, "unexpected control message at masterd");
  }
}

void MasterDaemon::handleJobReady(const CtrlMsg& msg) {
  auto it = jobs_.find(msg.job);
  GC_CHECK(it != jobs_.end());
  JobState& st = it->second;
  ++st.ready;
  if (st.ready < st.nprocs || st.started) return;
  st.started = true;

  // Global synchronization point (Figure 2): every rank is forked and its
  // context is live; release them all.
  GC_INFO(sim_, "masterd", "job %d: all %d ranks ready — starting", msg.job,
          st.nprocs);
  for (int rank = 0; rank < st.nprocs; ++rank) {
    CtrlMsg start;
    start.type = CtrlType::kStartJob;
    start.job = msg.job;
    start.rank = rank;
    ctrl_.send(cfg_.master_addr, st.nodes[static_cast<std::size_t>(rank)],
               std::move(start));
  }
}

void MasterDaemon::handleJobExited(const CtrlMsg& msg) {
  auto it = jobs_.find(msg.job);
  GC_CHECK(it != jobs_.end());
  JobState& st = it->second;
  ++st.exited;
  if (st.exited < st.nprocs) return;

  GC_INFO(sim_, "masterd", "job %d: done", msg.job);
  dhc_.release(st.nodes);
  matrix_.remove(msg.job);
  jobs_.erase(it);
  if (on_job_done) on_job_done(msg.job);
  if (jobs_.empty()) {
    if (timer_armed_) {
      sim_.cancel(timer_);
      timer_armed_ = false;
    }
    if (on_all_jobs_done) on_all_jobs_done();
  }
}

void MasterDaemon::armQuantumTimer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  sim::LpScope lp(sim_, sim::lpTag(sim::LpDomain::kGlobal));
  timer_ = sim_.schedule(cfg_.quantum, [this] {
    timer_armed_ = false;
    quantumExpired();
  });
}

void MasterDaemon::quantumExpired() {
  if (jobs_.empty()) return;

  // The current slot's row may have been dropped entirely (its job exited
  // and trailing empty rows are reclaimed); treat that like an empty slot.
  const bool current_valid = current_slot_ < matrix_.slots();
  const bool multi =
      matrix_.nonEmptySlots() > 1 || !current_valid ||
      (matrix_.slots() > 0 && matrix_.slotEmpty(current_slot_));
  const bool can_switch = (!cfg_.skip_switch_when_single_slot || multi) &&
                          switch_acks_pending_ == 0;

  if (can_switch) {
    const int to = matrix_.nextNonEmptySlot(current_slot_);
    if (to >= 0 && to != current_slot_) {
      GC_INFO(sim_, "masterd", "quantum over: switching slot %d -> %d",
              current_slot_, to);
      ++switches_;
      switch_acks_pending_ = nodes_;
      // Broadcast to every node: the flush protocol is cluster-global.
      for (net::NodeId n = 0; n < nodes_; ++n) {
        CtrlMsg msg;
        msg.type = CtrlType::kSwitchSlot;
        msg.from_slot = current_slot_;
        msg.to_slot = to;
        ctrl_.send(cfg_.master_addr, n, std::move(msg));
      }
      current_slot_ = to;
    }
  }
  armQuantumTimer();
}

}  // namespace gangcomm::parpar
