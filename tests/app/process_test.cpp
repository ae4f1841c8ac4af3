// Process framework semantics: start/stop/resume, wakeups, batching.
#include "app/process.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "app/workloads.hpp"
#include "net/routing.hpp"

namespace gangcomm::app {
namespace {

/// Minimal rig: two nodes, one FM context pair, direct Process hosting.
class ProcessTest : public testing::Test {
 protected:
  ProcessTest() : fabric_(sim_, net::RoutingTable::singleSwitch(2)) {
    for (net::NodeId n = 0; n < 2; ++n) {
      nics_.push_back(
          std::make_unique<net::Nic>(sim_, fabric_, n, net::NicConfig{}));
      EXPECT_TRUE(util::ok(
          nics_.back()->allocContext(0, 1, n, 32, 64, 10, 2)));
    }
  }

  Process::Env makeEnv(int rank) {
    fm::FmLib::Params p;
    p.ctx = 0;
    p.job = 1;
    p.rank = rank;
    p.rank_to_node = {0, 1};
    p.credits_c0 = 10;
    Process::Env env;
    env.sim = &sim_;
    env.cpu = &cpus_[rank];
    env.fm = std::make_unique<fm::FmLib>(sim_, cpus_[rank],
                                         *nics_[static_cast<std::size_t>(rank)],
                                         fm::FmConfig{}, p);
    env.job = 1;
    env.rank = rank;
    env.job_size = 2;
    return env;
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
  host::HostCpu cpus_[2];
  std::vector<std::unique_ptr<net::Nic>> nics_;
};

/// A process that counts its steps and optionally spins forever.
class CountingProcess final : public Process {
 public:
  explicit CountingProcess(Env env, int target_steps)
      : Process(std::move(env)), target_(target_steps) {}

  int steps = 0;

 protected:
  void step() override {
    ++steps;
    if (steps >= target_) {
      finish();
      return;
    }
    cpu().acquire(sim().now(), 1000);
    yieldStep();
  }

 private:
  int target_;
};

TEST_F(ProcessTest, DoesNotStepBeforeStart) {
  CountingProcess p(makeEnv(0), 3);
  sim_.run();
  EXPECT_EQ(p.steps, 0);
  EXPECT_FALSE(p.finished());
}

TEST_F(ProcessTest, RunsToCompletionAfterStart) {
  CountingProcess p(makeEnv(0), 3);
  p.start();
  sim_.run();
  EXPECT_EQ(p.steps, 3);
  EXPECT_TRUE(p.finished());
  EXPECT_GE(p.finishTime(), p.startTime());
}

TEST_F(ProcessTest, OnFinishHookFires) {
  CountingProcess p(makeEnv(0), 1);
  bool fired = false;
  p.on_finish = [&] { fired = true; };
  p.start();
  sim_.run();
  EXPECT_TRUE(fired);
}

TEST_F(ProcessTest, SigstopFreezesStepping) {
  CountingProcess p(makeEnv(0), 100);
  p.start();
  sim_.runSteps(5);
  const int before = p.steps;
  p.sigstop();
  sim_.run();
  EXPECT_EQ(p.steps, before);  // no progress while stopped
  EXPECT_FALSE(p.finished());
}

TEST_F(ProcessTest, SigcontResumesAndCompletes) {
  CountingProcess p(makeEnv(0), 10);
  p.start();
  sim_.runSteps(4);
  p.sigstop();
  sim_.run();
  p.sigcont();
  sim_.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.steps, 10);
}

TEST_F(ProcessTest, SigcontWithoutStopIsNoop) {
  CountingProcess p(makeEnv(0), 2);
  p.start();
  p.sigcont();  // not suspended
  sim_.run();
  EXPECT_TRUE(p.finished());
}

TEST_F(ProcessTest, StopBeforeStartDefersFirstStep) {
  CountingProcess p(makeEnv(0), 2);
  p.sigstop();
  p.start();
  sim_.run();
  EXPECT_EQ(p.steps, 0);
  p.sigcont();
  sim_.run();
  EXPECT_TRUE(p.finished());
}

/// A process that yields without charging CPU, so every wake finds the CPU
/// free.
class FreeYieldProcess final : public Process {
 public:
  explicit FreeYieldProcess(Env env, int target_steps)
      : Process(std::move(env)), target_(target_steps) {}

  int steps = 0;
  int depth = 0;
  int max_depth = 0;

 protected:
  void step() override {
    ++depth;
    max_depth = std::max(max_depth, depth);
    ++steps;
    if (steps >= target_)
      finish();
    else
      yieldStep();
    --depth;
  }

 private:
  int target_;
};

TEST_F(ProcessTest, WakeWithFreeCpuStepsInPlace) {
  CountingProcess p(makeEnv(0), 3);
  p.start();
  // The first step ran inside start(); the next waits for the 1 us of CPU
  // it charged.
  EXPECT_EQ(p.steps, 1);
  EXPECT_EQ(sim_.firedEvents(), 0u);
  EXPECT_EQ(sim_.pendingEvents(), 1u);
  sim_.run();
  EXPECT_EQ(p.steps, 3);
}

TEST_F(ProcessTest, WakeFromInsideAStepDoesNotRecurse) {
  FreeYieldProcess p(makeEnv(0), 5);
  p.start();
  EXPECT_EQ(p.steps, 1);
  EXPECT_EQ(sim_.pendingEvents(), 1u);  // the yield became an event
  sim_.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.steps, 5);
  EXPECT_EQ(p.max_depth, 1);
  EXPECT_EQ(sim_.now(), 0u);  // no CPU charged: every step in one instant
}

TEST_F(ProcessTest, StartTimeRecordedAtStart) {
  CountingProcess p(makeEnv(0), 1);
  sim_.schedule(5000, [&] { p.start(); });
  sim_.run();
  EXPECT_EQ(p.startTime(), 5000u);
}

TEST_F(ProcessTest, BandwidthPairDirect) {
  // The workload classes also run outside a full cluster.
  auto s = std::make_unique<BandwidthSender>(makeEnv(0), 1, 4096, 50);
  auto r = std::make_unique<BandwidthReceiver>(makeEnv(1), 0, 50);
  s->start();
  r->start();
  sim_.run();
  EXPECT_TRUE(s->finished());
  EXPECT_TRUE(r->finished());
  EXPECT_EQ(r->messagesReceived(), 50u);
  EXPECT_GT(s->bandwidthMBps(), 0.0);
}

TEST_F(ProcessTest, PingPongPairDirect) {
  auto a = std::make_unique<PingPongWorker>(makeEnv(0), 64, 25);
  auto b = std::make_unique<PingPongWorker>(makeEnv(1), 64, 25);
  a->start();
  b->start();
  sim_.run();
  EXPECT_TRUE(a->finished());
  EXPECT_TRUE(b->finished());
  EXPECT_EQ(a->rttStats().count(), 25u);
  EXPECT_GT(a->rttStats().min(), 0.0);
}

TEST_F(ProcessTest, SuspendMidTransferThenResumeLosesNothing) {
  auto s = std::make_unique<BandwidthSender>(makeEnv(0), 1, 8192, 200);
  auto r = std::make_unique<BandwidthReceiver>(makeEnv(1), 0, 200);
  s->start();
  r->start();
  // Freeze both processes mid-flight several times (the scheduling pattern
  // of gang quanta, minus the buffer machinery — same-context resume).
  for (int i = 0; i < 5; ++i) {
    sim_.runSteps(2000);
    s->sigstop();
    r->sigstop();
    sim_.runSteps(100);  // drain NIC-side events
    s->sigcont();
    r->sigcont();
  }
  sim_.run();
  EXPECT_TRUE(s->finished());
  EXPECT_EQ(r->messagesReceived(), 200u);
}

TEST_F(ProcessTest, AllToAllPairFinishesWithExactCounts) {
  auto a = std::make_unique<AllToAllWorker>(makeEnv(0), 2048, 30);
  auto b = std::make_unique<AllToAllWorker>(makeEnv(1), 2048, 30);
  a->start();
  b->start();
  sim_.run();
  EXPECT_TRUE(a->finished());
  EXPECT_TRUE(b->finished());
  EXPECT_EQ(a->messagesReceived(), 30u);
  EXPECT_EQ(b->messagesReceived(), 30u);
  EXPECT_EQ(a->messagesSent(), 30u);
}

TEST_F(ProcessTest, DoubleStartDies) {
  CountingProcess p(makeEnv(0), 1);
  p.start();
  EXPECT_DEATH(p.start(), "started twice");
}

}  // namespace
}  // namespace gangcomm::app
