// The copy loops here walk every queued packet once per switch; opt into
// the hot-path allocation rules:
// gclint: hot
#include "glue/buffer_switcher.hpp"

#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/check.hpp"

namespace gangcomm::glue {

using host::MemRegion;

CopyOutcome BufferSwitcher::copyOut(net::ContextSlot& live,
                                    SavedContext& saved,
                                    BufferPolicy policy) const {
  GC_CHECK_MSG(isSwitched(policy), "copyOut under the partitioned policy");
  GC_CHECK_MSG(live.reserved_send_slots == 0,
               "host PIO still in flight at buffer switch");

  CopyOutcome out;
  out.send_pkts = static_cast<std::uint32_t>(live.sendq.size());
  out.recv_pkts = static_cast<std::uint32_t>(live.recvq.size());

  const std::uint64_t slot = net::kPacketSlotBytes;
  if (policy == BufferPolicy::kSwitchedFull) {
    // Entire arenas move regardless of occupancy.
    const std::uint64_t send_bytes = live.sendq.capacity() * slot;
    const std::uint64_t recv_bytes = live.recvq.capacity() * slot;
    out.cost_ns += mem_.copyCost(MemRegion::kNicSram, MemRegion::kHost,
                                 send_bytes);
    out.cost_ns += mem_.copyCost(MemRegion::kHost, MemRegion::kHost,
                                 recv_bytes);
    out.bytes = send_bytes + recv_bytes;
  } else {
    const std::uint64_t send_bytes = out.send_pkts * slot;
    const std::uint64_t recv_bytes = out.recv_pkts * slot;
    out.cost_ns += 2 * cfg_.valid_scan_base_ns;
    out.cost_ns += mem_.copyCost(MemRegion::kNicSram, MemRegion::kHost,
                                 send_bytes);
    out.cost_ns += mem_.copyCost(MemRegion::kHost, MemRegion::kHost,
                                 recv_bytes);
    out.bytes = send_bytes + recv_bytes;
  }

  // Content move — must be loss-free and order-preserving.
  saved.rank = live.rank;
  saved.job_size = static_cast<int>(live.send_credits.size());
  saved.sendq = live.sendq.drain();
  saved.recvq = live.recvq.drain();
  saved.credits = live.send_credits;
  saved.acked_seq_from = live.acked_seq_from;
  saved.sent_hwm = live.sent_hwm;
  saved.nic_acked_hwm = live.nic_acked_hwm;
  saved.on_sendable = std::move(live.on_sendable);
  saved.on_arrival = std::move(live.on_arrival);
  live.on_sendable = nullptr;
  live.on_arrival = nullptr;
  return out;
}

CopyOutcome BufferSwitcher::copyIn(SavedContext& saved,
                                   net::ContextSlot& live,
                                   BufferPolicy policy) const {
  GC_CHECK_MSG(isSwitched(policy), "copyIn under the partitioned policy");
  GC_CHECK_MSG(live.sendq.empty() && live.recvq.empty(),
               "copyIn into a non-empty live context");

  CopyOutcome in;
  in.send_pkts = static_cast<std::uint32_t>(saved.sendq.size());
  in.recv_pkts = static_cast<std::uint32_t>(saved.recvq.size());

  const std::uint64_t slot = net::kPacketSlotBytes;
  if (policy == BufferPolicy::kSwitchedFull) {
    const std::uint64_t send_bytes = live.sendq.capacity() * slot;
    const std::uint64_t recv_bytes = live.recvq.capacity() * slot;
    in.cost_ns += mem_.copyCost(MemRegion::kHost, MemRegion::kNicSram,
                                send_bytes);
    in.cost_ns += mem_.copyCost(MemRegion::kHost, MemRegion::kHost,
                                recv_bytes);
    in.bytes = send_bytes + recv_bytes;
  } else {
    const std::uint64_t send_bytes = in.send_pkts * slot;
    const std::uint64_t recv_bytes = in.recv_pkts * slot;
    in.cost_ns += 2 * cfg_.valid_scan_base_ns;
    in.cost_ns += mem_.copyCost(MemRegion::kHost, MemRegion::kNicSram,
                                send_bytes);
    in.cost_ns += mem_.copyCost(MemRegion::kHost, MemRegion::kHost,
                                recv_bytes);
    in.bytes = send_bytes + recv_bytes;
  }

  for (const auto& p : saved.sendq)
    GC_CHECK_MSG(live.sendq.push(p), "restored send queue overflows");
  for (const auto& p : saved.recvq)
    GC_CHECK_MSG(live.recvq.push(p), "restored recv queue overflows");
  saved.sendq.clear();
  saved.recvq.clear();

  live.send_credits = saved.credits;
  live.acked_seq_from = saved.acked_seq_from;
  live.sent_hwm = saved.sent_hwm;
  live.nic_acked_hwm = saved.nic_acked_hwm;
  const std::size_t peers = live.send_credits.size();
  if (live.acked_seq_from.size() != peers)
    live.acked_seq_from.assign(peers, 0);
  if (live.sent_hwm.size() != peers) live.sent_hwm.assign(peers, 0);
  if (live.nic_acked_hwm.size() != peers)
    live.nic_acked_hwm.assign(peers, 0);
  live.on_sendable = std::move(saved.on_sendable);
  live.on_arrival = std::move(saved.on_arrival);
  saved.on_sendable = nullptr;
  saved.on_arrival = nullptr;
  return in;
}

}  // namespace gangcomm::glue
