// Microbenchmarks (google-benchmark) for the hot simulation primitives:
// event queue throughput, RNG, ring buffer, credit math, and a full
// end-to-end packet exchange — the costs that bound how much cluster time
// the figure benches can simulate per wall-clock second.
//
// The BM_EventQueue* and BM_*Function groups are the engine's own perf
// trajectory: schedule/fire, deep backlogs, in-place cancellation, zero-
// delay and same-instant scheduling, and the callable small-buffer
// optimization (a packet-forwarding closure is ~100 bytes, far beyond
// std::function's inline buffer).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "fm/config.hpp"
#include "fm/fm_lib.hpp"
#include "net/nic.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "obs/gctrace.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/ring_buffer.hpp"
#include "util/sbo_function.hpp"
#include "util/status.hpp"

namespace {

using namespace gangcomm;

void BM_EventQueueScheduleFire(benchmark::State& state) {
  sim::Simulator s;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      s.schedule(static_cast<sim::Duration>(i % 7), [&sink] { ++sink; });
    s.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
  bench::perf().addEvents(s.firedEvents());
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventQueueDeepBacklog(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    std::uint64_t sink = 0;
    for (int i = 0; i < depth; ++i)
      s.schedule(static_cast<sim::Duration>(depth - i), [&sink] { ++sink; });
    s.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_EventQueueDeepBacklog)->Arg(1024)->Arg(16384);

// The hot-path shape of the figure benches: every scheduled event carries a
// packet-sized closure (this + a net::Packet by value).  The old engine paid
// one heap allocation per schedule for these; the SBO action keeps them
// inline in the event node.
void BM_EventQueuePacketClosure(benchmark::State& state) {
  sim::Simulator s;
  net::Packet p{};
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      s.schedule(static_cast<sim::Duration>(i % 7),
                 [&sink, p] { sink += p.payload_bytes; });
    s.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
  bench::perf().addEvents(s.firedEvents());
}
BENCHMARK(BM_EventQueuePacketClosure);

// In-place cancellation from a deep backlog — the timeout pattern: almost
// every scheduled timeout is cancelled before it fires.  The old engine's
// lazy tombstones still paid a heap pop + two hash lookups per cancelled
// event; the indexed heap removes the entry at cancel time.
void BM_EventQueueScheduleCancel(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  sim::Simulator s;
  std::vector<sim::EventHandle> handles;
  handles.reserve(static_cast<std::size_t>(depth));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    handles.clear();
    for (int i = 0; i < depth; ++i)
      handles.push_back(s.schedule(static_cast<sim::Duration>(i % 97 + 1),
                                   [&sink] { ++sink; }));
    for (const auto& h : handles) s.cancel(h);
    benchmark::DoNotOptimize(s.pendingEvents());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_EventQueueScheduleCancel)->Arg(1024)->Arg(16384);

// The same-instant lane's target shape: a handler that reschedules itself
// with zero delay (a NIC send scan, a process step) while a backlog of 64
// future events stays queued.  Neither this nor the fan-out case below
// feeds bench::perf(), so BENCH_micro's events_per_sec, which the CI gate
// reads, counts the events of the same benchmarks as before.
struct ZeroDelayLink {
  sim::Simulator* s;
  int* left;
  void operator()() const {
    if (--*left > 0) s->schedule(0, *this);
  }
};

void BM_EventQueueZeroDelayChain(benchmark::State& state) {
  constexpr int kChain = 64;
  sim::Simulator s;
  std::uint64_t sink = 0;
  for (int i = 0; i < 64; ++i)
    s.schedule(static_cast<sim::Duration>(1'000'000'000 + i),
               [&sink] { ++sink; });
  int left = 0;
  for (auto _ : state) {
    left = kChain;
    s.schedule(0, ZeroDelayLink{&s, &left});
    s.runSteps(kChain);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kChain);
}
BENCHMARK(BM_EventQueueZeroDelayChain);

// One event fans out 64 children at its own instant (a switch releasing
// every context, a broadcast).
void BM_EventQueueSameInstantFanout(benchmark::State& state) {
  constexpr int kFanout = 64;
  sim::Simulator s;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    s.schedule(1, [&s, &sink] {
      for (int i = 0; i < kFanout; ++i) s.schedule(0, [&sink] { ++sink; });
    });
    s.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * (kFanout + 1));
}
BENCHMARK(BM_EventQueueSameInstantFanout);

// Bursty schedule/fire — the shape the figure benches produce (all-to-all
// windows of packet events spread across a horizon).  The arg is the burst
// depth: 64 is as deep as the figure workloads get, 4096 and 65536 show how
// the heap's O(log n) per event grows past them.
void BM_BurstSchedule(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  sim::Simulator s;
  sim::Xoshiro256 rng(7);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < depth; ++i)
      s.schedule(static_cast<sim::Duration>(rng.next() % 100000),
                 [&sink] { ++sink; });
    s.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * depth);
  bench::perf().addEvents(s.firedEvents());
}
BENCHMARK(BM_BurstSchedule)->Arg(64)->Arg(4096)->Arg(65536);

// Direct cost of the callable itself, packet-sized capture: std::function
// heap-allocates, SboFunction stores inline.
void BM_StdFunctionPacketCapture(benchmark::State& state) {
  net::Packet p{};
  std::uint64_t sink = 0;
  for (auto _ : state) {
    std::function<void()> f([&sink, p] { sink += p.payload_bytes; });
    f();
    benchmark::DoNotOptimize(f);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_StdFunctionPacketCapture);

void BM_SboFunctionPacketCapture(benchmark::State& state) {
  net::Packet p{};
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Simulator::Action f([&sink, p] { sink += p.payload_bytes; });
    f();
    benchmark::DoNotOptimize(f);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SboFunctionPacketCapture);

void BM_Xoshiro(benchmark::State& state) {
  sim::Xoshiro256 rng(1);
  std::uint64_t sink = 0;
  for (auto _ : state) sink ^= rng.next();
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_Xoshiro);

void BM_RingBufferPushPop(benchmark::State& state) {
  util::RingBuffer<net::Packet> rb(668);
  net::Packet p;
  for (auto _ : state) {
    rb.push(p);
    benchmark::DoNotOptimize(rb.pop());
  }
}
BENCHMARK(BM_RingBufferPushPop);

void BM_CreditFormulas(benchmark::State& state) {
  int sink = 0;
  for (auto _ : state) {
    for (int n = 1; n <= 8; ++n)
      sink += fm::CreditMath::partitionedCredits(668, n, 16);
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_CreditFormulas);

void BM_EndToEndPacket(benchmark::State& state) {
  // One simulated data packet host->NIC->wire->NIC->host, including the
  // FmLib send/extract paths; measures simulator overhead per packet.
  sim::Simulator s;
  net::Fabric fabric(s, net::RoutingTable::singleSwitch(2));
  net::Nic a(s, fabric, 0, net::NicConfig{});
  net::Nic b(s, fabric, 1, net::NicConfig{});
  GC_CHECK(util::ok(a.allocContext(0, 1, 0, 252, 668, 1 << 20, 2)));
  GC_CHECK(util::ok(b.allocContext(0, 1, 1, 252, 668, 1 << 20, 2)));
  host::HostCpu cpu0, cpu1;
  fm::FmLib::Params pa{0, 1, 0, {0, 1}, 1 << 20, 0};
  fm::FmLib::Params pb{0, 1, 1, {0, 1}, 1 << 20, 0};
  fm::FmLib sender(s, cpu0, a, fm::FmConfig{}, pa);
  fm::FmLib receiver(s, cpu1, b, fm::FmConfig{}, pb);
  std::uint64_t got = 0;
  receiver.setHandler(1, [&got](const net::Packet&) { ++got; });
  for (auto _ : state) {
    (void)sender.send(1, 1, 1024);
    s.run();
    receiver.extract(16);
  }
  benchmark::DoNotOptimize(got);
  state.SetItemsProcessed(state.iterations());
  bench::perf().addEvents(s.firedEvents());
}
BENCHMARK(BM_EndToEndPacket);

void BM_EndToEndPacketTraced(benchmark::State& state) {
  // The identical exchange with a gctrace PacketTracer installed in every
  // subsystem.  BM_EndToEndPacket (above, tracing off) is the null-path
  // control: its cost must be unchanged within noise, since an absent
  // probe is a single untaken pointer test per hook site.
  sim::Simulator s;
  net::Fabric fabric(s, net::RoutingTable::singleSwitch(2));
  net::Nic a(s, fabric, 0, net::NicConfig{});
  net::Nic b(s, fabric, 1, net::NicConfig{});
  GC_CHECK(util::ok(a.allocContext(0, 1, 0, 252, 668, 1 << 20, 2)));
  GC_CHECK(util::ok(b.allocContext(0, 1, 1, 252, 668, 1 << 20, 2)));
  host::HostCpu cpu0, cpu1;
  fm::FmLib::Params pa{0, 1, 0, {0, 1}, 1 << 20, 0};
  fm::FmLib::Params pb{0, 1, 1, {0, 1}, 1 << 20, 0};
  fm::FmLib sender(s, cpu0, a, fm::FmConfig{}, pa);
  fm::FmLib receiver(s, cpu1, b, fm::FmConfig{}, pb);
  obs::PacketTracer tracer;
  fabric.setProbe(&tracer);
  a.setProbe(&tracer);
  b.setProbe(&tracer);
  sender.setProbe(&tracer);
  receiver.setProbe(&tracer);
  std::uint64_t got = 0;
  receiver.setHandler(1, [&got](const net::Packet&) { ++got; });
  for (auto _ : state) {
    (void)sender.send(1, 1, 1024);
    s.run();
    receiver.extract(16);
  }
  benchmark::DoNotOptimize(got);
  benchmark::DoNotOptimize(tracer.attribution().packets());
  state.SetItemsProcessed(state.iterations());
  bench::perf().addEvents(s.firedEvents());
}
BENCHMARK(BM_EndToEndPacketTraced);

}  // namespace

int main(int argc, char** argv) {
  (void)gangcomm::bench::perf();  // start the wall clock before any benchmark
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  gangcomm::bench::writeBenchJson("micro", /*jobs=*/1);
  return 0;
}
