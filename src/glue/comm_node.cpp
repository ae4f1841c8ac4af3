// The context-switch sequence here runs once per scheduling quantum;
// opt into the hot-path allocation rules:
// gclint: hot
#include "glue/comm_node.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "sim/log.hpp"
#include "util/check.hpp"

namespace gangcomm::glue {

using util::Status;

CommNode::CommNode(sim::Simulator& s, host::HostCpu& cpu,
                   const host::MemoryModel& mem, net::Nic& nic,
                   CommNodeConfig cfg)
    : sim_(s), cpu_(cpu), mem_(mem), nic_(nic), cfg_(cfg),
      switcher_(mem, cfg.switcher) {
  if (isSwitched(cfg_.policy)) {
    send_slots_per_ctx_ = cfg_.total_send_slots;
    recv_slots_per_ctx_ = cfg_.total_recv_slots;
    c0_ = fm::CreditMath::switchedCredits(cfg_.total_recv_slots,
                                          cfg_.processors);
  } else {
    send_slots_per_ctx_ = fm::CreditMath::partitionedSendSlots(
        cfg_.total_send_slots, cfg_.max_contexts);
    recv_slots_per_ctx_ = fm::CreditMath::partitionedRecvSlots(
        cfg_.total_recv_slots, cfg_.max_contexts);
    c0_ = fm::CreditMath::partitionedCredits(cfg_.total_recv_slots,
                                             cfg_.max_contexts,
                                             cfg_.processors);
  }
}

Status CommNode::COMM_init_node() {
  if (init_done_) return Status::kExists;
  // Loading the LANai control program and routing tables is modeled by the
  // Nic's construction; here we validate the geometry against the card.
  const std::uint64_t send_bytes =
      static_cast<std::uint64_t>(cfg_.total_send_slots) *
      net::kPacketSlotBytes;
  if (send_bytes > nic_.sram().freeBytes()) return Status::kNoResources;
  node_active_.assign(static_cast<std::size_t>(cfg_.processors), true);
  cpu_.acquire(sim_.now(), cfg_.init_node_cost_ns);
  init_done_ = true;
  return Status::kOk;
}

Status CommNode::COMM_add_node(net::NodeId n) {
  if (!init_done_) return Status::kWrongState;
  if (n < 0 || static_cast<std::size_t>(n) >= node_active_.size())
    return Status::kInvalid;
  if (node_active_[static_cast<std::size_t>(n)]) return Status::kExists;
  node_active_[static_cast<std::size_t>(n)] = true;
  cpu_.acquire(sim_.now(), cfg_.topology_cost_ns);
  return Status::kOk;
}

Status CommNode::COMM_remove_node(net::NodeId n) {
  if (!init_done_) return Status::kWrongState;
  if (n < 0 || static_cast<std::size_t>(n) >= node_active_.size())
    return Status::kInvalid;
  if (!node_active_[static_cast<std::size_t>(n)]) return Status::kNotFound;
  node_active_[static_cast<std::size_t>(n)] = false;
  cpu_.acquire(sim_.now(), cfg_.topology_cost_ns);
  return Status::kOk;
}

net::ContextId CommNode::contextFor(net::JobId job) const {
  return isSwitched(cfg_.policy) ? kLiveCtx : static_cast<net::ContextId>(job);
}

Status CommNode::COMM_init_job(net::JobId job, int rank, int job_size,
                               Env* env) {
  if (!init_done_) return Status::kWrongState;
  if (job_size <= 0 || rank < 0 || rank >= job_size) return Status::kInvalid;

  if (isSwitched(cfg_.policy)) {
    if (!live_allocated_) {
      // First job on this node: install it straight into the live context.
      const Status st =
          nic_.allocContext(kLiveCtx, job, rank, send_slots_per_ctx_,
                            recv_slots_per_ctx_, c0_, job_size);
      if (!util::ok(st)) return st;
      live_allocated_ = true;
      live_job_ = job;
    } else {
      if (saved_.contains(job) || live_job_ == job) return Status::kExists;
      // Descheduled jobs hold their communication state in pageable backing
      // store; it enters the card at their first scheduled quantum.
      SavedContext sc;
      sc.rank = rank;
      sc.job_size = job_size;
      sc.credits.assign(static_cast<std::size_t>(job_size), c0_);
      saved_.emplace(job, std::move(sc));
    }
  } else {
    if (static_cast<int>(nic_.contextCount()) >= cfg_.max_contexts)
      return Status::kNoResources;
    const Status st =
        nic_.allocContext(static_cast<net::ContextId>(job), job, rank,
                          send_slots_per_ctx_, recv_slots_per_ctx_, c0_,
                          job_size);
    if (!util::ok(st)) return st;
  }
  job_size_[job] = job_size;
  cpu_.acquire(sim_.now(), cfg_.init_job_cost_ns);
  if (probe_)
    probe_->onJobCredits(job, rank, job_size, c0_, cfg_.fm.enable_retransmit);

  if (env != nullptr) {
    // The variables FM_initialize reads instead of contacting the GRM/CM.
    (*env)["FM_JOBID"] = std::to_string(job);
    (*env)["FM_RANK"] = std::to_string(rank);
    (*env)["FM_JOBSIZE"] = std::to_string(job_size);
    (*env)["FM_CONTEXT"] = std::to_string(contextFor(job));
    (*env)["FM_CREDITS"] = std::to_string(c0_);
    (*env)["FM_SYNC_FD"] = "3";
  }
  return Status::kOk;
}

Status CommNode::COMM_end_job(net::JobId job) {
  if (!job_size_.contains(job)) return Status::kNotFound;
  job_size_.erase(job);
  cpu_.acquire(sim_.now(), cfg_.end_job_cost_ns);
  if (probe_) probe_->onJobEnd(job);
  if (isSwitched(cfg_.policy)) {
    if (live_job_ == job) {
      net::ContextSlot* slot = nic_.context(kLiveCtx);
      GC_CHECK(slot != nullptr);
      GC_CHECK_MSG(slot->sendq.empty() && slot->recvq.empty(),
                   "job ended with queued packets");
      nic_.retagContext(kLiveCtx, net::kNoJob, -1);
      live_job_ = net::kNoJob;
    } else {
      saved_.erase(job);
    }
    return Status::kOk;
  }
  return nic_.freeContext(static_cast<net::ContextId>(job));
}

void CommNode::COMM_halt_network(util::SboFunction<void()> done) {
  GC_CHECK_MSG(isSwitched(cfg_.policy),
               "halt protocol is unnecessary under partitioning");
  // Setting the halt bit is a PIO flag write by the noded; the flush then
  // runs autonomously between the LANais.
  const sim::SimTime t = cpu_.acquire(sim_.now(), cfg_.pio_flag_ns);
  sim::LpScope lp(sim_, sim::lpTag(sim::LpDomain::kNic,
                                   static_cast<std::uint32_t>(nic_.node())));
  sim_.scheduleAt(t, [this, done = std::move(done)]() mutable {
    switch (cfg_.flush) {
      case FlushProtocol::kBroadcast:
        nic_.beginFlush(std::move(done));
        return;
      case FlushProtocol::kAckQuiesce:
        // gclint: allow(flow-switch-order): switch arms are mutually
        // exclusive flush variants; the linter straight-lines lambda bodies
        nic_.beginAckQuiesce(std::move(done));
        return;
      case FlushProtocol::kLocalOnly:
        // gclint: allow(flow-switch-order): mutually exclusive with the
        // arms above inside a straight-lined lambda body
        nic_.beginLocalQuiesce(std::move(done));
        return;
    }
  });
}

void CommNode::COMM_context_switch(
    net::JobId to_job,
    util::SboFunction<void(const parpar::SwitchReport&)> done) {
  GC_CHECK_MSG(isSwitched(cfg_.policy), "no buffer switch when partitioned");
  GC_CHECK_MSG(nic_.flushed() || nic_.locallyQuiesced(),
               "context switch before the network flushed/quiesced");

  parpar::SwitchReport r;
  sim::Duration cost = 0;
  sim::Duration out_cost = 0;
  sim::Duration in_cost = 0;
  const net::JobId from_job = live_job_;

  net::ContextSlot* slot =
      live_allocated_ ? nic_.context(kLiveCtx) : nullptr;

  if (slot != nullptr && live_job_ != net::kNoJob && live_job_ != to_job) {
    auto [it, inserted] = saved_.try_emplace(live_job_);
    const CopyOutcome out = switcher_.copyOut(*slot, it->second, cfg_.policy);
    if (probe_) {
      // Once per switch over the drained snapshot (not per hot-path
      // packet): every packet parked here rides the switch.
      for (const net::Packet& p : it->second.sendq)
        probe_->onPacket(obs::PacketEvent::kCarried, p, sim_.now());
      for (const net::Packet& p : it->second.recvq)
        probe_->onPacket(obs::PacketEvent::kCarried, p, sim_.now());
    }
    cost += out.cost_ns;
    out_cost = out.cost_ns;
    r.valid_send_pkts = out.send_pkts;
    r.valid_recv_pkts = out.recv_pkts;
    r.bytes_copied_out = out.bytes;
    live_job_ = net::kNoJob;
    nic_.retagContext(kLiveCtx, net::kNoJob, -1);
  }

  if (to_job != net::kNoJob && to_job != live_job_) {
    auto it = saved_.find(to_job);
    GC_CHECK_MSG(it != saved_.end(), "incoming job was never initialized");
    GC_CHECK_MSG(slot != nullptr, "live context missing for copy-in");
    const CopyOutcome in = switcher_.copyIn(it->second, *slot, cfg_.policy);
    cost += in.cost_ns;
    in_cost = in.cost_ns;
    r.bytes_copied_in = in.bytes;
    nic_.retagContext(kLiveCtx, to_job, it->second.rank);
    live_job_ = to_job;
    saved_.erase(it);
  }

  ++switches_;
  bytes_copied_total_ += r.bytes_copied_out + r.bytes_copied_in;
  const sim::SimTime t = cpu_.acquire(sim_.now(), cost);
  // The buffer-switch host work occupies the CPU window [t - cost, t]:
  // copy-out first, copy-in immediately after.  The switcher owns the NIC
  // buffers for that whole span.
  if (probe_)
    probe_->onBufferSwitch(nic_.node(), from_job, to_job, t - cost, out_cost,
                           in_cost,
                           {r.valid_send_pkts, r.valid_recv_pkts,
                            r.bytes_copied_out, r.bytes_copied_in});
  sim::LpScope lp(sim_, sim::lpTag(sim::LpDomain::kNode,
                                   static_cast<std::uint32_t>(nic_.node())));
  sim_.scheduleAt(t, [r, done = std::move(done)]() mutable { done(r); });
}

void CommNode::COMM_release_network(util::SboFunction<void()> done) {
  GC_CHECK_MSG(isSwitched(cfg_.policy),
               "release protocol is unnecessary under partitioning");
  const sim::SimTime t = cpu_.acquire(sim_.now(), cfg_.pio_flag_ns);
  sim::LpScope lp(sim_, sim::lpTag(sim::LpDomain::kNic,
                                   static_cast<std::uint32_t>(nic_.node())));
  sim_.scheduleAt(t, [this, done = std::move(done)]() mutable {
    switch (cfg_.flush) {
      case FlushProtocol::kBroadcast:
        nic_.beginRelease(std::move(done));
        return;
      case FlushProtocol::kAckQuiesce:
        // No synchronization with peers: clear the halt bit and go.
        // gclint: allow(flow-switch-order): switch arms are mutually
        // exclusive release variants; the linter straight-lines lambda bodies
        nic_.endAckQuiesce();
        done();
        return;
      case FlushProtocol::kLocalOnly:
        // gclint: allow(flow-switch-order): mutually exclusive with the
        // arms above inside a straight-lined lambda body
        nic_.endLocalQuiesce();
        done();
        return;
    }
  });
}

void CommNode::publishMetrics(obs::MetricsRegistry& reg) const {
  const std::string p = "glue." + std::to_string(nic_.node()) + ".";
  reg.setCounter(p + "context_switches", switches_);
  reg.setCounter(p + "bytes_copied", bytes_copied_total_);
  reg.setGauge(p + "saved_contexts", static_cast<double>(saved_.size()));
  reg.setGauge(p + "credits_c0", static_cast<double>(c0_));
}

}  // namespace gangcomm::glue
