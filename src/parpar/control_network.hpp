// The control Ethernet connecting masterd and the nodeds.
//
// ParPar separates control (10 MB switched Ethernet + daemon processing)
// from data (Myrinet).  The property that matters for the reproduction is
// the *skew* this plane introduces: the masterd's switch notification is a
// serial loop of unicasts, so node k learns about a context switch roughly
// k * tx_serialize_ns after node 0.  That skew is what makes the halt stage
// of Figures 7/9 grow with the number of nodes — early nodes sit halted,
// waiting to collect halt packets from nodes that have not yet heard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "parpar/messages.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace gangcomm::parpar {

struct ControlNetConfig {
  /// Sender-side serialization per message: syscall + UDP over the 10 Mb
  /// Ethernet + masterd loop iteration.  This per-receiver cost is what
  /// skews the switch notifications across nodes.
  sim::Duration tx_serialize_ns = 250 * sim::kMicrosecond;
  /// Propagation plus receiving daemon wakeup (BSDI scheduling latency).
  sim::Duration base_latency_ns = 150 * sim::kMicrosecond;
  /// Exponential jitter mean added to each delivery.
  sim::Duration jitter_mean_ns = 60 * sim::kMicrosecond;
};

class ControlNetwork {
 public:
  using Endpoint = std::function<void(const CtrlMsg&)>;

  ControlNetwork(sim::Simulator& s, int endpoints, ControlNetConfig cfg = {},
                 std::uint64_t seed = 0x7a94);

  int endpointCount() const { return static_cast<int>(endpoints_.size()); }

  void attach(int addr, Endpoint ep);

  /// Send one message; the sender's NIC/daemon is busy for tx_serialize_ns,
  /// so back-to-back sends from one endpoint (the masterd's "broadcast"
  /// loop) serialize — that is the whole point of the model.
  void send(int from, int to, CtrlMsg msg);

  std::uint64_t messagesDelivered() const { return delivered_; }

 private:
  std::size_t pairKey(int from, int to) const {
    return static_cast<std::size_t>(from) * endpoints_.size() +
           static_cast<std::size_t>(to);
  }

  sim::Simulator& sim_;
  ControlNetConfig cfg_;
  std::vector<Endpoint> endpoints_;
  std::vector<sim::SimTime> tx_busy_;
  std::vector<sim::SimTime> last_delivery_;
  sim::Xoshiro256 rng_;
  std::uint64_t delivered_ = 0;
};

}  // namespace gangcomm::parpar
