// Simulated application processes.
//
// A Process is an event-driven state machine standing in for a real FM
// application.  Its step() performs FM operations, each of which charges
// host CPU through the node's HostCpu; the framework re-schedules step() at
// the CPU-available time, so a send-heavy process naturally starves its own
// extract loop — the behaviour behind the receive-queue backlog of Figure 8.
// A wake that finds the CPU free runs step() in place, in the waker's
// instant, unless it comes from inside the process's own step.
//
// SIGSTOP/SIGCONT from the noded map to suspend/resume: a suspended process
// neither steps nor charges CPU, and wakeups that fire meanwhile are held
// as a pending wake delivered on resume.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "fm/fm_lib.hpp"
#include "parpar/interfaces.hpp"
#include "sim/simulator.hpp"

namespace gangcomm::app {

class Process : public parpar::ProcessHandle {
 public:
  struct Env {
    sim::Simulator* sim = nullptr;
    host::HostCpu* cpu = nullptr;
    std::unique_ptr<fm::FmLib> fm;
    net::JobId job = net::kNoJob;
    int rank = -1;
    int job_size = 0;
  };

  explicit Process(Env env);
  ~Process() override = default;

  // ---- parpar::ProcessHandle ------------------------------------------------
  void start() override;
  void sigstop() override;
  void sigcont() override;
  bool finished() const override { return finished_; }

  /// Hook the noded installs to learn about process exit.
  std::function<void()> on_finish;

  // ---- Measurement ----------------------------------------------------------
  /// Wall-clock interval from first step to finish() — includes descheduled
  /// time, exactly how the paper's benchmark measures per-application
  /// bandwidth under gang scheduling (§4.1).
  sim::SimTime startTime() const { return start_time_; }
  sim::SimTime finishTime() const { return finish_time_; }

  int rank() const { return env_.rank; }
  net::JobId job() const { return env_.job; }
  fm::FmLib& fm() { return *env_.fm; }
  const fm::FmLib& fm() const { return *env_.fm; }

 protected:
  /// The state machine: perform work until blocked or out of batch budget,
  /// registering exactly the wakeups it needs before returning.
  virtual void step() = 0;

  sim::Simulator& sim() const { return *env_.sim; }
  host::HostCpu& cpu() const { return *env_.cpu; }

  /// Re-run step() once the CPU catches up with charged work.
  void yieldStep();
  /// Re-run step() when the context becomes sendable (credits/queue space).
  void waitSendable();
  /// Re-run step() when a packet lands in the receive queue.
  void waitArrival();
  /// Mark completion; notifies the noded.  FM_finalize semantics: if the
  /// retransmission layer still holds unacked packets a peer needs, the
  /// process enters a draining state — it keeps riding gang switches and
  /// servicing its receive queue, and only exits once the windows drain.
  void finish();

  /// True once this step's charged CPU exceeds the batching budget; the
  /// subclass should yieldStep() and return.
  bool batchExhausted() const;

 private:
  void scheduleStep();
  void runStep();
  void drainServe();
  void completeFinish();

  Env env_;
  bool started_ = false;
  bool suspended_ = false;
  bool finished_ = false;
  bool draining_ = false;
  bool step_scheduled_ = false;
  bool in_step_ = false;  // step() or drainServe() is on the stack
  bool pending_wake_ = false;
  sim::SimTime batch_started_ = 0;
  sim::SimTime start_time_ = 0;
  sim::SimTime finish_time_ = 0;
};

}  // namespace gangcomm::app
