// Pageable per-job backing store for switched-out communication state.
//
// When a job is descheduled, its send/receive queue contents, credit
// counters, and host wakeup bindings move here — ordinary pageable virtual
// memory of the owning process, which is the paper's key point: nothing
// stays pinned or on the card for inactive jobs.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "util/sbo_function.hpp"

namespace gangcomm::glue {

struct SavedContext {
  int rank = -1;
  int job_size = 0;
  std::vector<net::Packet> sendq;
  std::vector<net::Packet> recvq;
  std::vector<int> credits;  // send credits toward each peer rank
  std::vector<std::uint64_t> acked_seq_from;  // retransmit-layer ack marks
  std::vector<std::uint64_t> sent_hwm;        // PM ack-quiesce counters
  std::vector<std::uint64_t> nic_acked_hwm;
  util::SboFunction<void()> on_sendable;  // blocked process's saved waiters
  util::SboFunction<void()> on_arrival;

  std::uint64_t queuedBytes() const {
    return (sendq.size() + recvq.size()) *
           static_cast<std::uint64_t>(net::kPacketSlotBytes);
  }
};

}  // namespace gangcomm::glue
