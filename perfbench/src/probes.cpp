#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "fm/config.hpp"
#include "fm/fm_lib.hpp"
#include "glue/backing_store.hpp"
#include "glue/buffer_switcher.hpp"
#include "host/memory_model.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/status.hpp"

namespace gangcomm::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
constexpr int kReps = 5;

/// Median of kReps calls to `measure`, each returning ns per operation.
template <typename Fn>
double medianOf(Fn&& measure) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) v.push_back(measure());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double nsPer(Clock::time_point t0, std::uint64_t ops) {
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return ns / static_cast<double>(std::max<std::uint64_t>(ops, 1));
}

net::Packet dataPacket(net::NodeId src, net::NodeId dst, net::JobId job,
                       std::uint32_t payload, std::uint64_t seq) {
  net::Packet p;
  p.type = net::PacketType::kData;
  p.src_node = src;
  p.dst_node = dst;
  p.job = job;
  p.src_rank = 0;
  p.dst_rank = 1;
  p.handler = 1;
  p.payload_bytes = payload;
  p.msg_bytes = payload;
  p.seq = seq;
  return p;
}

/// A process that never sends: it waits for an arrival that never comes,
/// so its job stays resident and the gang scheduler keeps switching.
class IdleProcess final : public app::Process {
 public:
  using Process::Process;

 protected:
  void step() override { waitArrival(); }
};

}  // namespace

double probeScheduleFire(std::uint64_t depth, std::uint64_t seed) {
  depth = std::max<std::uint64_t>(depth, 1);
  constexpr std::uint64_t kOps = 200000;
  constexpr sim::Duration kSpread = 1 << 16;
  sim::Xoshiro256 rng(seed);
  std::vector<sim::Duration> delays(kOps);
  for (auto& d : delays)
    d = 1 + static_cast<sim::Duration>(rng.next() % kSpread);
  return medianOf([&] {
    sim::Simulator s;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < depth; ++i)
      s.schedule(delays[i % kOps], [&fired] { ++fired; });
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      s.schedule(delays[i], [&fired] { ++fired; });
      s.runSteps(1);
    }
    const double ns = nsPer(t0, kOps);
    GC_CHECK(fired == kOps && s.pendingEvents() == depth);
    return ns;
  });
}

double probeSendExtract(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& mix) {
  constexpr std::uint64_t kPacketsPerRep = 20000;
  double weighted = 0;
  std::uint64_t weight = 0;
  for (const auto& [bytes, packets] : mix) {
    if (packets == 0) continue;
    const std::uint32_t per_msg = fm::FmLib::packetsForMessage(bytes);
    const std::uint64_t msgs =
        std::max<std::uint64_t>(kPacketsPerRep / per_msg, 1);
    const double ns = medianOf([&] {
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
      const Clock::time_point t0 = Clock::now();
      for (std::uint64_t m = 0; m < msgs; ++m) {
        GC_CHECK(util::ok(sender.send(1, 1, bytes)));
        s.run();
        while (!receiver.recvQueueEmpty()) receiver.extract(64);
      }
      const double per_packet = nsPer(t0, msgs * per_msg);
      GC_CHECK(got == msgs * per_msg);
      return per_packet;
    });
    weighted += ns * static_cast<double>(packets);
    weight += packets;
  }
  return weight == 0 ? 0.0 : weighted / static_cast<double>(weight);
}

double probeSendScan(int active, int allocated, std::uint32_t payload_bytes) {
  active = std::clamp(active, 1, allocated);
  const auto send_slots = static_cast<std::size_t>(
      fm::CreditMath::partitionedSendSlots(252, allocated));
  const auto recv_slots = static_cast<std::size_t>(
      fm::CreditMath::partitionedRecvSlots(668, allocated));
  const std::size_t batch = std::min(send_slots, recv_slots);
  constexpr std::uint64_t kPackets = 50000;
  return medianOf([&] {
    sim::Simulator s;
    net::Fabric fabric(s, net::RoutingTable::singleSwitch(2));
    net::Nic a(s, fabric, 0, net::NicConfig{});
    net::Nic b(s, fabric, 1, net::NicConfig{});
    for (int c = 0; c < allocated; ++c) {
      GC_CHECK(util::ok(a.allocContext(c, c, 0, send_slots, recv_slots, 0, 2)));
      GC_CHECK(util::ok(b.allocContext(c, c, 1, send_slots, recv_slots, 0, 2)));
    }
    std::uint64_t seq = 0, sent = 0;
    const Clock::time_point t0 = Clock::now();
    while (sent < kPackets) {
      for (int c = 0; c < active; ++c)
        for (std::size_t i = 0; i < batch; ++i) {
          GC_CHECK(a.reserveSendSlot(c));
          GC_CHECK(util::ok(
              a.hostEnqueueSend(c, dataPacket(0, 1, c, payload_bytes, ++seq))));
        }
      s.run();
      for (int c = 0; c < active; ++c)
        while (!b.recvEmpty(c)) (void)b.hostDequeueRecv(c);
      sent += batch * static_cast<std::size_t>(active);
    }
    const double ns = nsPer(t0, sent);
    GC_CHECK(a.stats().data_sent == sent);
    return ns;
  });
}

double probeInject(int nodes, bool all_pairs, std::uint32_t payload_bytes) {
  nodes = std::max(nodes, 2);
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  if (all_pairs) {
    for (int s = 0; s < nodes; ++s)
      for (int d = 0; d < nodes; ++d)
        if (s != d) pairs.emplace_back(s, d);
  } else {
    pairs.emplace_back(0, 1);
  }
  constexpr std::uint64_t kPackets = 100000;
  return medianOf([&] {
    sim::Simulator s;
    net::Fabric fabric(s, net::RoutingTable::singleSwitch(nodes));
    std::uint64_t delivered = 0;
    for (int n = 0; n < nodes; ++n)
      fabric.attach(n, [&delivered](const net::Packet&, sim::SimTime) {
        ++delivered;
      });
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      const auto& [src, dst] = pairs[i % pairs.size()];
      fabric.inject(dataPacket(src, dst, 1, payload_bytes, i + 1));
    }
    s.run();
    const double ns = nsPer(t0, kPackets);
    GC_CHECK(delivered == kPackets);
    return ns;
  });
}

double probeCopy(glue::BufferPolicy policy, std::uint32_t send_pkts,
                 std::uint32_t recv_pkts) {
  host::MemoryModel mem{host::MemoryModelConfig{}};
  const glue::BufferSwitcher sw(mem);
  net::ContextSlot live(0, 252, 668);
  live.send_credits.assign(2, 0);
  live.acked_seq_from.assign(2, 0);
  live.sent_hwm.assign(2, 0);
  live.nic_acked_hwm.assign(2, 0);
  const std::uint32_t payload = net::kMaxPayloadBytes;
  for (std::uint32_t i = 0; i < std::min<std::uint32_t>(send_pkts, 252); ++i)
    GC_CHECK(live.sendq.push(dataPacket(0, 1, 1, payload, i + 1)));
  for (std::uint32_t i = 0; i < std::min<std::uint32_t>(recv_pkts, 668); ++i)
    GC_CHECK(live.recvq.push(dataPacket(1, 0, 1, payload, i + 1)));
  constexpr std::uint64_t kSwitches = 20000;
  return medianOf([&] {
    glue::SavedContext saved;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kSwitches; ++i) {
      (void)sw.copyOut(live, saved, policy);
      (void)sw.copyIn(saved, live, policy);
    }
    return nsPer(t0, kSwitches);
  });
}

double probeGangSwitch(int nodes, glue::BufferPolicy policy,
                       sim::Duration quantum, std::uint64_t seed) {
  constexpr int kQuanta = 20;
  bool switched = true;
  const double ns = medianOf([&] {
    core::ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.policy = policy;
    cfg.max_contexts = 2;
    cfg.quantum = quantum;
    cfg.seed = seed;
    cfg.verify = false;
    core::Cluster cluster(cfg);
    for (int j = 0; j < 2; ++j)
      cluster.submit(nodes, [](app::Process::Env env)
                                -> std::unique_ptr<app::Process> {
        return std::make_unique<IdleProcess>(std::move(env));
      });
    // Past job launch and the first switch, so every boundary timed below
    // is a steady-state gang switch.
    cluster.runUntil(3 * quantum);
    const std::size_t before = cluster.switchRecords().size();
    const Clock::time_point t0 = Clock::now();
    for (int q = 0; q < kQuanta; ++q)
      cluster.runUntil(cluster.sim().now() + quantum);
    const double per = nsPer(t0, kQuanta);
    if (cluster.switchRecords().size() <
        before + static_cast<std::size_t>(kQuanta - 1) *
                     static_cast<std::size_t>(nodes))
      switched = false;
    return per;
  });
  return switched ? ns : -1.0;
}

}  // namespace gangcomm::perfbench
