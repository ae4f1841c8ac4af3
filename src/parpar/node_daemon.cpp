#include "parpar/node_daemon.hpp"

#include <cstdint>
#include <string>
#include <utility>

#include "sim/log.hpp"
#include "util/check.hpp"

namespace gangcomm::parpar {

NodeDaemon::NodeDaemon(sim::Simulator& s, host::HostCpu& cpu,
                       ControlNetwork& ctrl, net::NodeId node,
                       CommManager& comm, NodeDaemonConfig cfg)
    : sim_(s), cpu_(cpu), ctrl_(ctrl), node_(node), comm_(comm), cfg_(cfg) {
  GC_CHECK_MSG(cfg_.master_addr >= 0, "node daemon needs the master address");
}

void NodeDaemon::sendToMaster(CtrlMsg msg) {
  msg.from = node_;
  ctrl_.send(node_, cfg_.master_addr, std::move(msg));
}

void NodeDaemon::onCtrl(const CtrlMsg& msg) {
  switch (msg.type) {
    case CtrlType::kLoadJob:
      handleLoadJob(msg);
      return;
    case CtrlType::kStartJob:
      handleStartJob(msg);
      return;
    case CtrlType::kSwitchSlot:
      handleSwitchSlot(msg);
      return;
    default:
      GC_CHECK_MSG(false, "unexpected control message at noded");
  }
}

void NodeDaemon::handleLoadJob(const CtrlMsg& msg) {
  GC_CHECK_MSG(!jobs_.contains(msg.job), "job loaded twice on one node");
  GC_CHECK_MSG(spawn_ != nullptr, "no spawn hook installed");

  // Figure 2: the context is allocated *before* the fork, so packets from
  // fast-starting peers are stored rather than dropped.
  GC_CHECK(util::ok(comm_.initJob(msg.job, msg.rank,
                                  static_cast<int>(msg.rank_to_node.size()))));

  LocalJob lj;
  lj.rank = msg.rank;
  lj.slot = msg.slot;
  lj.process = spawn_(msg.job, msg.rank, msg.rank_to_node);
  GC_CHECK(lj.process != nullptr);
  // Processes outside the running slot stay stopped until their slot is
  // scheduled in (gang discipline).
  if (msg.slot != current_slot_) lj.process->sigstop();
  jobs_.emplace(msg.job, std::move(lj));

  GC_INFO(sim_, "noded", "node %d: loaded job %d rank %d slot %d", node_,
          msg.job, msg.rank, msg.slot);

  CtrlMsg ready;
  ready.type = CtrlType::kJobReady;
  ready.job = msg.job;
  ready.rank = msg.rank;
  sendToMaster(std::move(ready));
}

void NodeDaemon::handleStartJob(const CtrlMsg& msg) {
  auto it = jobs_.find(msg.job);
  GC_CHECK_MSG(it != jobs_.end(), "start for a job never loaded here");
  LocalJob& lj = it->second;
  GC_CHECK(!lj.started);
  lj.started = true;
  // Writing the sync byte on the pipe: FM_initialize returns in the process.
  lj.process->start();
  GC_INFO(sim_, "noded", "node %d: started job %d (slot %d)", node_, msg.job,
          lj.slot);
}

NodeDaemon::LocalJob* NodeDaemon::jobInSlot(int slot) {
  for (auto& [job, lj] : jobs_)
    if (lj.slot == slot && !lj.exited) return &lj;
  return nullptr;
}

void NodeDaemon::handleSwitchSlot(const CtrlMsg& msg) {
  GC_CHECK_MSG(!switch_in_progress_,
               "switch notification arrived mid-switch (quantum too short)");
  GC_CHECK(msg.from_slot == current_slot_);
  switch_in_progress_ = true;

  LocalJob* out = jobInSlot(msg.from_slot);
  LocalJob* in = jobInSlot(msg.to_slot);
  const net::JobId in_job = [&] {
    for (auto& [job, lj] : jobs_)
      if (lj.slot == msg.to_slot && !lj.exited) return job;
    return net::kNoJob;
  }();

  // Stop the outgoing process first: it must not generate packets while the
  // network drains (paper §3.2).
  if (out != nullptr) out->process->sigstop();
  cpu_.acquire(sim_.now(), cfg_.signal_cost_ns);

  if (!comm_.needsBufferSwitch()) {
    // Original partitioned FM: every context stays resident; the "switch"
    // is purely a scheduling action.
    current_slot_ = msg.to_slot;
    switch_in_progress_ = false;
    ++switches_done_;
    if (in != nullptr && in->started) in->process->sigcont();
    CtrlMsg done;
    done.type = CtrlType::kSwitchDone;
    done.to_slot = msg.to_slot;
    sendToMaster(std::move(done));
    return;
  }

  const sim::SimTime t0 = sim_.now();
  comm_.haltNetwork([this, msg, in_job, t0] {
    const sim::SimTime t1 = sim_.now();
    comm_.contextSwitch(in_job, [this, msg, t0, t1](const SwitchReport& r) {
      const sim::SimTime t2 = sim_.now();
      comm_.releaseNetwork([this, msg, t0, t1, t2, r] {
        const sim::SimTime t3 = sim_.now();
        current_slot_ = msg.to_slot;
        switch_in_progress_ = false;
        ++switches_done_;
        if (LocalJob* in2 = jobInSlot(msg.to_slot);
            in2 != nullptr && in2->started)
          in2->process->sigcont();

        CtrlMsg done;
        done.type = CtrlType::kSwitchDone;
        done.to_slot = msg.to_slot;
        done.report = r;
        done.report.halt_ns = t1 - t0;
        done.report.switch_ns = t2 - t1;
        done.report.release_ns = t3 - t2;
        if (probe_)
          probe_->onGangSwitch(node_, msg.from_slot, msg.to_slot, t0, t1, t2,
                               t3,
                               {r.valid_send_pkts, r.valid_recv_pkts,
                                r.bytes_copied_out, r.bytes_copied_in});
        GC_INFO(sim_, "noded",
                "node %d: switch %d->%d halt=%.0fus copy=%.0fus rel=%.0fus "
                "(sq=%u rq=%u)",
                node_, msg.from_slot, msg.to_slot,
                sim::nsToUs(done.report.halt_ns),
                sim::nsToUs(done.report.switch_ns),
                sim::nsToUs(done.report.release_ns), r.valid_send_pkts,
                r.valid_recv_pkts);
        sendToMaster(std::move(done));
      });
    });
  });
}

void NodeDaemon::publishMetrics(obs::MetricsRegistry& reg) const {
  const std::string p = "noded." + std::to_string(node_) + ".";
  reg.setCounter(p + "switches_done", switches_done_);
  reg.setGauge(p + "current_slot", static_cast<double>(current_slot_));
  reg.setGauge(p + "jobs", static_cast<double>(jobs_.size()));
}

void NodeDaemon::onProcessExit(net::JobId job) {
  auto it = jobs_.find(job);
  GC_CHECK(it != jobs_.end());
  it->second.exited = true;
  CtrlMsg msg;
  msg.type = CtrlType::kJobExited;
  msg.job = job;
  msg.rank = it->second.rank;
  sendToMaster(std::move(msg));
}

}  // namespace gangcomm::parpar
