// The gcverify dynamic invariant engine.
//
// A probe consumer (obs/probe.hpp) registered as the Simulator's
// EventObserver: the engine re-derives the protocol's conservation laws from
// the probe stream and checks them after every fired event:
//
//  1. Credit conservation.  For each pair (job, a -> b) the engine keeps a
//     ledger: outstanding fragments (debited, not yet accepted), credits
//     owed at the receiver, refill credits in flight, and credits lost to
//     drops.  At every event boundary the physical counter — the live
//     context's send_credits[b] on a's NIC — must equal
//         C0 - outstanding - owed - in_flight - lost,
//     where C0 is Br/p under buffer switching and Br/(n^2 * p) under
//     partitioning (glue::CommNode computes it; the engine checks the value
//     it is handed against what the ledger implies).
//
//  2. Buffer-ownership exclusivity.  A node's live context buffers are owned
//     by the NIC or by the buffer switcher, never both: a DMA landing while
//     the switcher holds the buffers, a double acquire, or a release by a
//     non-owner is a violation.
//
//  3. Packet conservation.  Every injected packet is eventually delivered,
//     still in flight, or dropped with a recorded reason; in-flight counts
//     can never go negative, and finalCheck() asserts the drained equalities.
//
//  4. Switch-protocol order.  Per node, stage events must follow
//     halt -> flush-complete -> (copy) -> release -> release-complete.
//
// Violations either abort immediately with a "gcverify:" diagnostic (the
// default — tier-1 tests under GANGCOMM_VERIFY fail loudly at the first
// broken invariant) or are collected for inspection (fault-injection tests,
// the interleaving explorer).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/nic.hpp"
#include "net/packet.hpp"
#include "obs/probe.hpp"
#include "sim/simulator.hpp"
#include "util/sbo_function.hpp"

namespace gangcomm::verify {

using obs::SwitchStage;

/// Who currently owns a node's live context queue buffers.
enum class BufferOwner { kNic, kSwitcher };

struct Violation {
  sim::SimTime time = 0;
  std::string what;
};

class InvariantEngine final : public obs::Probe,
                              public sim::EventObserver {
 public:
  enum class OnViolation { kAbort, kCollect };

  explicit InvariantEngine(sim::Simulator& sim,
                           OnViolation mode = OnViolation::kAbort);

  /// Register a NIC whose live contexts back the credit-conservation poll.
  void attachNic(net::Nic* nic);

  /// Switch violation handling after construction.  Fault-injection tests
  /// flip a Cluster-created engine (which defaults to kAbort) into collect
  /// mode to assert on the recorded diagnostics.
  void setMode(OnViolation mode) { mode_ = mode; }

  /// Hook invoked once, right before a kAbort-mode violation calls
  /// std::abort().  The Cluster installs a gctrace flight-recorder dump
  /// here so every gcverify abort leaves a post-mortem file behind.
  void setAbortHook(util::SboFunction<void()> hook) {
    abort_hook_ = std::move(hook);
  }

  const std::vector<Violation>& violations() const { return violations_; }

  /// Sum of credits the ledger has written off to drops, across all pairs.
  /// Nonzero under the no-flush ablations — the paper's credit-loss hazard,
  /// quantified.
  long lostCredits() const;

  /// Drained-state check: no packets in the wire or the DMA pipeline, and
  /// injected == delivered + dropped per class.  Call after the simulation
  /// ran to completion; not valid mid-run.
  void finalCheck();

  /// Checks run after every fired event; also invokable directly by tests.
  void onEventBoundary(sim::SimTime now, std::uint64_t fired) override;

  // ---- Probe consumer ----------------------------------------------------

  std::uint64_t onSend(const net::Packet&, int, sim::SimTime,
                       sim::SimTime) override;
  void onPacket(obs::PacketEvent, const net::Packet&, sim::SimTime) override;
  void onDrop(obs::DropSite, const net::Packet&, const char*,
              sim::SimTime) override;
  void onTransfer(obs::Transfer, const net::Packet&, sim::SimTime,
                  sim::SimTime) override;
  void onNicStage(net::NodeId node, SwitchStage stage, obs::HaltKind, int,
                  sim::SimTime) override;
  void onBufferSwitch(net::NodeId, net::JobId, net::JobId, sim::SimTime,
                      sim::Duration, sim::Duration,
                      const obs::CopyCounts&) override;
  void onJobCredits(net::JobId job, int rank, int job_size, int c0,
                    bool retransmit) override;
  void onJobEnd(net::JobId job) override;

  // ---- Ledger events (the callbacks above map onto these) ----------------
  // Credit pairs are keyed by data-flow direction: (job, src, dst) are the
  // credits src holds toward dst, whichever packet carries the movement.

  void onCreditDebit(net::JobId job, int src_rank, int dst_rank,
                     std::uint64_t seq);
  void onPacketAccepted(net::JobId job, int src_rank, int dst_rank,
                        std::uint64_t seq);
  void onRefillQueued(net::JobId job, int src_rank, int dst_rank,
                      std::uint32_t credits);
  void onRefillApplied(net::JobId job, int src_rank, int dst_rank,
                       std::uint32_t credits);
  void onWireInject(const net::Packet& p);
  void onWireDeliver(const net::Packet& p);
  void onWireDrop(const net::Packet& p);
  void onRecvLanded(net::NodeId node, const net::Packet& p);
  void onNicDrop(net::NodeId node, const net::Packet& p, const char* reason);
  void onFmShed(net::NodeId node, const net::Packet& p);
  void onBufferAcquire(net::NodeId node, BufferOwner who);
  void onBufferRelease(net::NodeId node, BufferOwner who);
  void onSwitchStage(net::NodeId node, SwitchStage stage);

 private:
  /// Ledger for one directed pair: src_rank's credits toward dst_rank.
  struct PairLedger {
    std::set<std::uint64_t> outstanding;  // debited seqs, not yet accepted
    long owed = 0;       // accepted at the receiver, refill not yet queued
    long in_flight = 0;  // refill credits on the wire back to the sender
    long lost = 0;       // written off to drops (credit-loss hazard)
  };

  struct JobLedger {
    int c0 = 0;
    int size = 0;
    bool retransmit = false;
    std::map<std::pair<int, int>, PairLedger> pairs;  // (src, dst) -> ledger
  };

  /// Per-node switch-protocol state.
  enum class NodeState { kRunning, kHalting, kFlushed, kReleasing };

  struct NodeVerifyState {
    NodeState fsm = NodeState::kRunning;
    BufferOwner owner = BufferOwner::kNic;
  };

  struct FlowCounters {
    std::uint64_t injected = 0;
    std::uint64_t wire_dropped = 0;
    std::uint64_t delivered = 0;
  };

  void report(const std::string& what);
  PairLedger& pair(JobLedger& jl, int src, int dst);
  /// Ledger bookkeeping shared by wire- and NIC-level drops of one packet.
  void accountDroppedPacket(const net::Packet& p);
  void checkCredits();
  NodeVerifyState& nodeState(net::NodeId node);
  static const char* stateName(NodeState s);

  sim::Simulator& sim_;
  OnViolation mode_;
  util::SboFunction<void()> abort_hook_;
  std::vector<Violation> violations_;

  std::map<net::JobId, JobLedger> jobs_;
  std::vector<net::Nic*> nics_;
  std::map<net::NodeId, NodeVerifyState> node_states_;

  FlowCounters data_;
  FlowCounters control_;
  std::uint64_t landed_ = 0;
  std::uint64_t nic_dropped_ = 0;
};

}  // namespace gangcomm::verify
