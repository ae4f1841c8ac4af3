#include "app/process.hpp"

#include <cstdint>
#include <utility>

#include "host/cpu_model.hpp"
#include "util/check.hpp"

namespace gangcomm::app {

Process::Process(Env env) : env_(std::move(env)) {
  GC_CHECK(env_.sim != nullptr && env_.cpu != nullptr && env_.fm != nullptr);
}

void Process::start() {
  GC_CHECK_MSG(!started_, "process started twice");
  started_ = true;
  start_time_ = sim().now();
  scheduleStep();
}

void Process::sigstop() {
  suspended_ = true;
  env_.fm->setSuspended(true);
}

void Process::sigcont() {
  if (!suspended_) return;
  suspended_ = false;
  env_.fm->setSuspended(false);
  // Always offer a step on resume: the state machine re-checks its blocking
  // condition, so a spurious wake is harmless, while a missed one deadlocks.
  if (started_ && !finished_) scheduleStep();
}

void Process::scheduleStep() {
  if (step_scheduled_ || finished_) return;
  if (suspended_) {
    pending_wake_ = true;
    return;
  }
  const sim::SimTime at = cpu().availableAt(sim().now());
  // A woken process whose CPU is free steps at once.  A wake raised from
  // inside this process's own step is deferred to an event instead, so a
  // step never re-enters itself.
  if (at == sim().now() && !in_step_) {
    runStep();
    return;
  }
  step_scheduled_ = true;
  sim::LpScope lp(sim(), sim::lpTag(sim::LpDomain::kNode,
                                    static_cast<std::uint32_t>(
                                        env_.fm->node())));
  sim().scheduleAt(at, [this] { runStep(); });
}

void Process::runStep() {
  step_scheduled_ = false;
  if (finished_) return;
  if (suspended_) {
    pending_wake_ = true;
    return;
  }
  pending_wake_ = false;
  batch_started_ = sim().now();
  in_step_ = true;
  if (draining_)
    drainServe();  // the workload's state machine already completed
  else
    step();
  in_step_ = false;
}

void Process::drainServe() {
  // Keep the receive queue from silting up with duplicates while the
  // retransmission layer waits for its last acks; the dup/ooo shed paths
  // in extract() also generate the acks a still-running peer may need.
  env_.fm->extract(64);
  if (!finished_) waitArrival();
}

bool Process::batchExhausted() const {
  return cpu().availableAt(sim().now()) - batch_started_ >= host::kBatchBudget;
}

void Process::yieldStep() { scheduleStep(); }

void Process::waitSendable() {
  env_.fm->onSendable([this] { scheduleStep(); });
}

void Process::waitArrival() {
  env_.fm->onArrival([this] { scheduleStep(); });
}

void Process::finish() {
  GC_CHECK(!finished_ && !draining_);
  // FM_finalize must quiesce the retransmission layer before the process
  // may exit: send() is asynchronous, so a workload can complete with
  // packets a peer never received still sitting in the unacked windows.
  // An *exited* process stops riding gang switches (the noded skips it),
  // so its timers would fire against whichever job then owns the live
  // context seat — or never fire again at all.  Draining first keeps the
  // process a first-class gang member until every window empties, after
  // which no timer can re-arm and the exit leaks no events.
  if (!env_.fm->sendWindowsDrained()) {
    draining_ = true;
    env_.fm->onDrained([this] { completeFinish(); });
    drainServe();
    return;
  }
  completeFinish();
}

void Process::completeFinish() {
  GC_CHECK(!finished_);
  finished_ = true;
  draining_ = false;
  finish_time_ = sim().now();
  if (on_finish) on_finish();
}

}  // namespace gangcomm::app
