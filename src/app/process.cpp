#include "app/process.hpp"

#include <cstdint>
#include <utility>

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
  step_scheduled_ = true;
  const sim::SimTime at = cpu().availableAt(sim().now());
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
  if (draining_) {
    // The workload's state machine already completed; don't re-enter it.
    drainServe();
    return;
  }
  step();
}

void Process::drainServe() {
  // Keep the receive queue from silting up with duplicates while the
  // retransmission layer waits for its last acks; the dup/ooo shed paths
  // in extract() also generate the acks a still-running peer may need.
  env_.fm->extract(64);
  if (!finished_) waitArrival();
}

bool Process::batchExhausted() const {
  return cpu().availableAt(sim().now()) - batch_started_ >= kBatchBudget;
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
