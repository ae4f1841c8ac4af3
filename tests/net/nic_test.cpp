// LANai NIC model: context table, datapath, credits, and the flush/release
// state machine of Figure 3.
#include "net/nic.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/routing.hpp"
#include "sim/simulator.hpp"

namespace gangcomm::net {
namespace {

class NicTest : public testing::Test {
 protected:
  static constexpr int kNodes = 3;

  NicTest() : fabric_(sim_, RoutingTable::singleSwitch(kNodes)) {
    for (NodeId n = 0; n < kNodes; ++n)
      nics_.push_back(std::make_unique<Nic>(sim_, fabric_, n, NicConfig{}));
  }

  /// Allocate a symmetric 2-rank job context on nodes 0 and 1.
  void allocPair(JobId job = 1, int credits = 10, std::size_t sq = 32,
                 std::size_t rq = 64) {
    ASSERT_TRUE(util::ok(
        nics_[0]->allocContext(0, job, /*rank=*/0, sq, rq, credits, 2)));
    ASSERT_TRUE(util::ok(
        nics_[1]->allocContext(0, job, /*rank=*/1, sq, rq, credits, 2)));
  }

  Packet dataPacket(NodeId src, NodeId dst, int src_rank, int dst_rank,
                    std::uint64_t seq, JobId job = 1) {
    Packet p;
    p.type = PacketType::kData;
    p.src_node = src;
    p.dst_node = dst;
    p.job = job;
    p.src_rank = src_rank;
    p.dst_rank = dst_rank;
    p.payload_bytes = 1536;
    p.msg_id = seq;
    p.seq = seq;
    p.tag = Packet::makeTag(job, src_rank, dst_rank, seq, 0);
    return p;
  }

  void sendData(Nic& nic, const Packet& p) {
    ASSERT_TRUE(nic.reserveSendSlot(0));
    ASSERT_TRUE(util::ok(nic.hostEnqueueSend(0, p)));
  }

  sim::Simulator sim_;
  Fabric fabric_;
  std::vector<std::unique_ptr<Nic>> nics_;
};

TEST_F(NicTest, AllocContextConsumesArenas) {
  Nic& nic = *nics_[0];
  const auto sram_before = nic.sram().freeBytes();
  const auto pinned_before = nic.pinnedArena().freeBytes();
  ASSERT_TRUE(util::ok(nic.allocContext(0, 1, 0, 10, 20, 5, 2)));
  EXPECT_EQ(nic.sram().freeBytes(), sram_before - 10 * kPacketSlotBytes);
  EXPECT_EQ(nic.pinnedArena().freeBytes(),
            pinned_before - 20 * kPacketSlotBytes);
  EXPECT_EQ(nic.contextCount(), 1u);
}

TEST_F(NicTest, AllocContextRejectsDuplicateId) {
  Nic& nic = *nics_[0];
  ASSERT_TRUE(util::ok(nic.allocContext(0, 1, 0, 4, 4, 1, 2)));
  EXPECT_EQ(nic.allocContext(0, 2, 0, 4, 4, 1, 2), util::Status::kExists);
}

TEST_F(NicTest, AllocContextFailsWhenSramExhausted) {
  Nic& nic = *nics_[0];
  // 252 slots fit (the paper's full send queue); a second such context
  // cannot.
  ASSERT_TRUE(util::ok(nic.allocContext(0, 1, 0, 252, 100, 5, 2)));
  EXPECT_EQ(nic.allocContext(1, 2, 0, 252, 100, 5, 2),
            util::Status::kNoResources);
}

TEST_F(NicTest, FullReceiveQueueGeometryFitsPinnedArena) {
  Nic& nic = *nics_[0];
  EXPECT_TRUE(util::ok(nic.allocContext(0, 1, 0, 252, 668, 41, 2)));
}

TEST_F(NicTest, FreeContextRemoves) {
  Nic& nic = *nics_[0];
  ASSERT_TRUE(util::ok(nic.allocContext(3, 1, 0, 4, 4, 1, 2)));
  EXPECT_TRUE(util::ok(nic.freeContext(3)));
  EXPECT_EQ(nic.freeContext(3), util::Status::kNotFound);
  EXPECT_EQ(nic.context(3), nullptr);
}

TEST_F(NicTest, DataPacketTravelsEndToEnd) {
  allocPair();
  sendData(*nics_[0], dataPacket(0, 1, 0, 1, 1));
  sim_.run();
  EXPECT_FALSE(nics_[1]->recvEmpty(0));
  const Packet got = nics_[1]->hostDequeueRecv(0);
  EXPECT_EQ(got.seq, 1u);
  EXPECT_TRUE(got.tagValid());
  EXPECT_EQ(nics_[0]->stats().data_sent, 1u);
  EXPECT_EQ(nics_[1]->stats().data_received, 1u);
}

TEST_F(NicTest, ManyPacketsArriveInFifoOrder) {
  allocPair();
  for (std::uint64_t i = 1; i <= 20; ++i)
    sendData(*nics_[0], dataPacket(0, 1, 0, 1, i));
  sim_.run();
  for (std::uint64_t i = 1; i <= 20; ++i) {
    ASSERT_FALSE(nics_[1]->recvEmpty(0));
    EXPECT_EQ(nics_[1]->hostDequeueRecv(0).seq, i);
  }
}

TEST_F(NicTest, ReserveFailsWhenQueueFull) {
  allocPair(1, 10, /*sq=*/2);
  Nic& nic = *nics_[0];
  EXPECT_TRUE(nic.reserveSendSlot(0));
  EXPECT_TRUE(nic.reserveSendSlot(0));
  EXPECT_FALSE(nic.reserveSendSlot(0));  // both slots reserved
}

TEST_F(NicTest, SendSlotFreesAfterInjection) {
  allocPair(1, 10, /*sq=*/1);
  // The first packet keeps the LANai busy; the second waits in the ring and
  // holds its slot until the LANai takes it.
  sendData(*nics_[0], dataPacket(0, 1, 0, 1, 1));
  sendData(*nics_[0], dataPacket(0, 1, 0, 1, 2));
  EXPECT_EQ(nics_[0]->context(0)->sendq.size(), 1u);
  EXPECT_FALSE(nics_[0]->reserveSendSlot(0));
  sim_.run();
  EXPECT_TRUE(nics_[0]->reserveSendSlot(0));
}

TEST_F(NicTest, IdleCardTakesPacketInTheInstantItIsQueued) {
  allocPair();
  sendData(*nics_[0], dataPacket(0, 1, 0, 1, 1));
  // No scan event: the packet left the ring at once, and the only pending
  // event is the LANai's per-packet send processing.
  EXPECT_TRUE(nics_[0]->context(0)->sendq.empty());
  EXPECT_EQ(sim_.pendingEvents(), 1u);
  EXPECT_EQ(sim_.firedEvents(), 0u);
  EXPECT_TRUE(nics_[0]->reserveSendSlot(0));
}

TEST_F(NicTest, ControlPacketGoesBeforeDataWhenASendCompletes) {
  allocPair();
  sendData(*nics_[0], dataPacket(0, 1, 0, 1, 1));  // card now busy
  sendData(*nics_[0], dataPacket(0, 1, 0, 1, 2));
  Packet refill;
  refill.type = PacketType::kRefill;
  refill.src_node = 0;
  refill.dst_node = 1;
  refill.job = 1;
  refill.src_rank = 0;
  refill.dst_rank = 1;
  refill.refill_credits = 1;
  nics_[0]->hostEnqueueControl(refill);
  // Run until the first packet's send completes: the control packet,
  // queued after the second data packet, is taken first.
  while (nics_[0]->stats().data_sent == 0) ASSERT_EQ(sim_.runSteps(1), 1u);
  EXPECT_EQ(nics_[0]->context(0)->sendq.size(), 1u);
  while (nics_[0]->stats().control_sent == 0) ASSERT_EQ(sim_.runSteps(1), 1u);
  EXPECT_EQ(nics_[0]->stats().data_sent, 1u);
  sim_.run();
  EXPECT_EQ(nics_[0]->stats().data_sent, 2u);
  EXPECT_EQ(nics_[1]->stats().refill_credits_received, 1u);
}

TEST_F(NicTest, SendableCallbackFiresWhenSlotFrees) {
  allocPair(1, 10, /*sq=*/1);
  sendData(*nics_[0], dataPacket(0, 1, 0, 1, 1));
  bool fired = false;
  nics_[0]->context(0)->on_sendable = [&] { fired = true; };
  sim_.run();
  EXPECT_TRUE(fired);
  // One-shot: consumed.
  EXPECT_EQ(nics_[0]->context(0)->on_sendable, nullptr);
}

TEST_F(NicTest, RefillControlPacketRestoresCredits) {
  allocPair(1, 5);
  ContextSlot* ctx0 = nics_[0]->context(0);
  ctx0->send_credits[1] = 0;

  Packet refill;
  refill.type = PacketType::kRefill;
  refill.src_node = 1;
  refill.dst_node = 0;
  refill.job = 1;
  refill.src_rank = 1;
  refill.dst_rank = 0;
  refill.refill_credits = 3;
  nics_[1]->hostEnqueueControl(refill);
  sim_.run();
  EXPECT_EQ(ctx0->send_credits[1], 3);
  EXPECT_EQ(nics_[0]->stats().refill_credits_received, 3u);
}

TEST_F(NicTest, PiggybackedRefillApplies) {
  allocPair(1, 5);
  ContextSlot* ctx1 = nics_[1]->context(0);
  ctx1->send_credits[0] = 1;
  Packet p = dataPacket(0, 1, 0, 1, 1);
  p.refill_credits = 4;  // "I consumed 4 of yours since the last refill"
  sendData(*nics_[0], p);
  sim_.run();
  EXPECT_EQ(ctx1->send_credits[0], 5);
}

TEST_F(NicTest, PacketForUnknownJobIsDroppedAndCounted) {
  allocPair(1);
  sendData(*nics_[0], dataPacket(0, 1, 0, 1, 1, /*job=*/1));
  // Re-tag node 1's context to another job before delivery.
  nics_[1]->context(0)->job = 99;
  sim_.run();
  EXPECT_EQ(nics_[1]->stats().drops_no_context, 1u);
  EXPECT_TRUE(nics_[1]->recvEmpty(0));
}

TEST_F(NicTest, FlushCompletesOnQuietNetwork) {
  allocPair();
  int flushed = 0;
  for (auto& nic : nics_) nic->beginFlush([&] { ++flushed; });
  sim_.run();
  EXPECT_EQ(flushed, kNodes);
  for (auto& nic : nics_) {
    EXPECT_TRUE(nic->halted());
    EXPECT_TRUE(nic->flushed());
  }
}

TEST_F(NicTest, FlushWaitsForAllPeersHalts) {
  allocPair();
  bool n0_flushed = false;
  nics_[0]->beginFlush([&] { n0_flushed = true; });
  sim_.run();
  // Nodes 1 and 2 never halted; node 0 must still be waiting.
  EXPECT_FALSE(n0_flushed);
  nics_[1]->beginFlush([] {});
  nics_[2]->beginFlush([] {});
  sim_.run();
  EXPECT_TRUE(n0_flushed);
}

TEST_F(NicTest, FlushDrainsInFlightDataFirst) {
  allocPair();
  for (std::uint64_t i = 1; i <= 8; ++i)
    sendData(*nics_[0], dataPacket(0, 1, 0, 1, i));
  int flushed = 0;
  for (auto& nic : nics_) nic->beginFlush([&] { ++flushed; });
  sim_.run();
  EXPECT_EQ(flushed, kNodes);
  // Packets already in the send queue when the halt bit was set stay there;
  // nothing is lost, nothing arrives after the flush (paper §3.2: the switch
  // "withstood thorough testing without packet loss").
  std::size_t in_send = nics_[0]->context(0)->sendq.size();
  std::size_t in_recv = nics_[1]->context(0)->recvq.size();
  EXPECT_EQ(in_send + in_recv, 8u);
  EXPECT_EQ(nics_[1]->stats().drops_no_context, 0u);
}

TEST_F(NicTest, ReleaseResumesSending) {
  allocPair();
  int flushed = 0;
  for (auto& nic : nics_) nic->beginFlush([&] { ++flushed; });
  sim_.run();
  ASSERT_EQ(flushed, kNodes);

  // Queue a packet while halted: it must not move yet.
  sendData(*nics_[0], dataPacket(0, 1, 0, 1, 1));
  sim_.run();
  EXPECT_TRUE(nics_[1]->recvEmpty(0));

  int released = 0;
  for (auto& nic : nics_) nic->beginRelease([&] { ++released; });
  sim_.run();
  EXPECT_EQ(released, kNodes);
  for (auto& nic : nics_) EXPECT_FALSE(nic->halted());
  EXPECT_FALSE(nics_[1]->recvEmpty(0));
}

TEST_F(NicTest, FlushReleaseCycleRepeats) {
  allocPair();
  for (int round = 0; round < 5; ++round) {
    int flushed = 0, released = 0;
    for (auto& nic : nics_) nic->beginFlush([&] { ++flushed; });
    sim_.run();
    ASSERT_EQ(flushed, kNodes) << "round " << round;
    for (auto& nic : nics_) nic->beginRelease([&] { ++released; });
    sim_.run();
    ASSERT_EQ(released, kNodes) << "round " << round;
  }
  EXPECT_EQ(nics_[0]->stats().flushes, 5u);
}

TEST_F(NicTest, RetagLegalOnlyWhenFlushedOrVirgin) {
  allocPair();
  // Virgin context: retag allowed.
  nics_[0]->retagContext(0, 7, 0);
  EXPECT_EQ(nics_[0]->context(0)->job, 7);
  nics_[0]->retagContext(0, 1, 0);

  // Occupied context, not flushed: must die.
  sendData(*nics_[0], dataPacket(0, 1, 0, 1, 1));
  EXPECT_DEATH(nics_[0]->retagContext(0, 8, 0), "flushed");
}

TEST_F(NicTest, ControlPacketsDoNotConsumeReceiveSlots) {
  allocPair();
  for (int i = 0; i < 10; ++i) {
    Packet halt;
    halt.type = PacketType::kHalt;
    halt.src_node = 0;
    halt.dst_node = 1;
    // Direct wire delivery (bypassing flush bookkeeping is fine here).
    fabric_.inject(halt);
  }
  sim_.run();
  EXPECT_TRUE(nics_[1]->recvEmpty(0));
  EXPECT_EQ(nics_[1]->stats().control_received, 10u);
}

TEST_F(NicTest, RoundRobinAcrossContexts) {
  // Two contexts on node 0, both with traffic toward node 1's two contexts.
  ASSERT_TRUE(util::ok(nics_[0]->allocContext(0, 1, 0, 8, 8, 5, 2)));
  ASSERT_TRUE(util::ok(nics_[0]->allocContext(1, 2, 0, 8, 8, 5, 2)));
  ASSERT_TRUE(util::ok(nics_[1]->allocContext(0, 1, 1, 8, 8, 5, 2)));
  ASSERT_TRUE(util::ok(nics_[1]->allocContext(1, 2, 1, 8, 8, 5, 2)));
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(nics_[0]->reserveSendSlot(0));
    ASSERT_TRUE(
        util::ok(nics_[0]->hostEnqueueSend(0, dataPacket(0, 1, 0, 1, i, 1))));
    ASSERT_TRUE(nics_[0]->reserveSendSlot(1));
    ASSERT_TRUE(
        util::ok(nics_[0]->hostEnqueueSend(1, dataPacket(0, 1, 0, 1, i, 2))));
  }
  sim_.run();
  EXPECT_EQ(nics_[1]->context(0)->recvq.size(), 4u);
  EXPECT_EQ(nics_[1]->context(1)->recvq.size(), 4u);
}

}  // namespace
}  // namespace gangcomm::net
