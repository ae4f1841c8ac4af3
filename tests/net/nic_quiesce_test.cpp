// The two no-broadcast quiesce disciplines at NIC level: SHARE local drain
// and PM ack-quiesce.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "net/nic.hpp"
#include "net/routing.hpp"
#include "sim/simulator.hpp"

namespace gangcomm::net {
namespace {

class NicQuiesceTest : public testing::Test {
 protected:
  static constexpr int kNodes = 2;

  NicQuiesceTest() : fabric_(sim_, RoutingTable::singleSwitch(kNodes)) {
    NicConfig cfg;
    cfg.nic_level_acks = true;
    cfg.enforce_fifo = false;
    for (NodeId n = 0; n < kNodes; ++n) {
      nics_.push_back(std::make_unique<Nic>(sim_, fabric_, n, cfg));
      nics_.back()->setDiscardWrongJob(true);
      EXPECT_TRUE(util::ok(
          nics_.back()->allocContext(0, 1, n, 16, 64, 100, 2)));
    }
  }

  Packet dataPacket(NodeId src, NodeId dst, std::uint64_t seq) {
    Packet p;
    p.type = PacketType::kData;
    p.src_node = src;
    p.dst_node = dst;
    p.job = 1;
    p.src_rank = src;
    p.dst_rank = dst;
    p.payload_bytes = 1536;
    p.seq = seq;
    p.msg_id = seq;
    p.tag = Packet::makeTag(1, src, dst, seq, 0);
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

TEST_F(NicQuiesceTest, LocalQuiesceCompletesWithoutPeers) {
  bool done = false;
  nics_[0]->beginLocalQuiesce([&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(nics_[0]->locallyQuiesced());
  nics_[0]->endLocalQuiesce();
  EXPECT_FALSE(nics_[0]->halted());
}

TEST_F(NicQuiesceTest, LocalQuiesceFreezesQueuedData) {
  // The first packet keeps the LANai busy, so the second is still queued
  // when the quiesce begins.
  sendData(*nics_[0], dataPacket(0, 1, 1));
  sendData(*nics_[0], dataPacket(0, 1, 2));
  bool done = false;
  nics_[0]->beginLocalQuiesce([&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  // The in-flight packet finished; the queued one stayed in the ring (SHARE
  // freezes the send side).
  EXPECT_EQ(nics_[0]->context(0)->sendq.size(), 1u);
  EXPECT_EQ(nics_[1]->context(0)->recvq.size(), 1u);
  nics_[0]->endLocalQuiesce();
  sim_.run();
  EXPECT_EQ(nics_[1]->context(0)->recvq.size(), 2u);
}

TEST_F(NicQuiesceTest, HaltEarlierInTheInstantFreezesALaterEnqueue) {
  bool done = false;
  nics_[0]->beginLocalQuiesce([&] { done = true; });
  EXPECT_TRUE(done);  // the idle card quiesces at once
  sendData(*nics_[0], dataPacket(0, 1, 1));
  sim_.run();
  EXPECT_EQ(nics_[0]->context(0)->sendq.size(), 1u);
  EXPECT_TRUE(nics_[1]->recvEmpty(0));
  nics_[0]->endLocalQuiesce();
  sim_.run();
  EXPECT_FALSE(nics_[1]->recvEmpty(0));
}

TEST_F(NicQuiesceTest, ArrivalsDuringLocalQuiesceAreShed) {
  bool done = false;
  nics_[1]->beginLocalQuiesce([&] { done = true; });
  sim_.run();
  ASSERT_TRUE(done);
  sendData(*nics_[0], dataPacket(0, 1, 1));
  sim_.run();
  EXPECT_TRUE(nics_[1]->recvEmpty(0));
  EXPECT_EQ(nics_[1]->stats().drops_wrong_job, 1u);
}

TEST_F(NicQuiesceTest, AckQuiesceDrainsOwnRingFirst) {
  for (std::uint64_t i = 1; i <= 5; ++i)
    sendData(*nics_[0], dataPacket(0, 1, i));
  bool done = false;
  nics_[0]->beginAckQuiesce([&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  // PM semantics: the queued packets flew and were acknowledged.
  EXPECT_TRUE(nics_[0]->context(0)->sendq.empty());
  EXPECT_EQ(nics_[1]->context(0)->recvq.size(), 5u);
  const ContextSlot* slot = nics_[0]->context(0);
  EXPECT_EQ(slot->sent_hwm[1], 5u);
  EXPECT_EQ(slot->nic_acked_hwm[1], 5u);
  EXPECT_EQ(nics_[1]->stats().nic_acks_sent, 5u);
}

TEST_F(NicQuiesceTest, AckQuiesceWaitsForOutstandingAcks) {
  sendData(*nics_[0], dataPacket(0, 1, 1));
  bool done = false;
  nics_[0]->beginAckQuiesce([&] { done = true; });
  // Before the network settles the quiesce cannot be complete; afterwards
  // it must be.
  EXPECT_FALSE(done);
  sim_.run();
  EXPECT_TRUE(done);
  nics_[0]->endAckQuiesce();
  EXPECT_FALSE(nics_[0]->halted());
}

TEST_F(NicQuiesceTest, ShedPacketsAreStillAcked) {
  // Receiver quiesces (mid-switch); sender's packets are shed but NACKed so
  // the sender's ack-quiesce can also complete.
  bool recv_q = false;
  nics_[1]->beginLocalQuiesce([&] { recv_q = true; });
  sim_.run();
  ASSERT_TRUE(recv_q);
  for (std::uint64_t i = 1; i <= 3; ++i)
    sendData(*nics_[0], dataPacket(0, 1, i));
  bool send_q = false;
  nics_[0]->beginAckQuiesce([&] { send_q = true; });
  sim_.run();
  EXPECT_TRUE(send_q);
  EXPECT_EQ(nics_[1]->stats().drops_wrong_job, 3u);
  EXPECT_EQ(nics_[0]->context(0)->nic_acked_hwm[1], 3u);
}

TEST_F(NicQuiesceTest, RetagAllowedWhileLocallyQuiesced) {
  sendData(*nics_[0], dataPacket(0, 1, 1));
  bool done = false;
  nics_[0]->beginLocalQuiesce([&] { done = true; });
  sim_.run();
  ASSERT_TRUE(done);
  nics_[0]->retagContext(0, 42, 0);
  EXPECT_EQ(nics_[0]->context(0)->job, 42);
}

TEST_F(NicQuiesceTest, QuiesceDuringFlushDies) {
  nics_[0]->beginFlush([] {});
  // gclint: allow(flow-switch-order): the double halt is the point — the
  // death test asserts the NIC rejects it
  EXPECT_DEATH(nics_[0]->beginLocalQuiesce([] {}), "another halt");
}

TEST(NicQuiesceConfig, AckQuiesceRequiresNicAcks) {
  sim::Simulator sim;
  Fabric fabric(sim, RoutingTable::singleSwitch(2));
  Nic a(sim, fabric, 0, NicConfig{});
  Nic b(sim, fabric, 1, NicConfig{});
  EXPECT_DEATH(a.beginAckQuiesce([] {}), "NIC-level acks");
}

}  // namespace
}  // namespace gangcomm::net
