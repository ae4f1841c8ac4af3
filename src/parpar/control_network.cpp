#include "parpar/control_network.hpp"

#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/check.hpp"

namespace gangcomm::parpar {

ControlNetwork::ControlNetwork(sim::Simulator& s, int endpoints,
                               ControlNetConfig cfg, std::uint64_t seed)
    : sim_(s),
      cfg_(cfg),
      endpoints_(static_cast<std::size_t>(endpoints)),
      tx_busy_(static_cast<std::size_t>(endpoints), 0),
      last_delivery_(static_cast<std::size_t>(endpoints) * endpoints, 0),
      rng_(seed) {
  GC_CHECK_MSG(endpoints > 0, "control network needs endpoints");
}

void ControlNetwork::attach(int addr, Endpoint ep) {
  GC_CHECK(addr >= 0 && addr < endpointCount());
  endpoints_[static_cast<std::size_t>(addr)] = std::move(ep);
}

void ControlNetwork::send(int from, int to, CtrlMsg msg) {
  GC_CHECK(from >= 0 && from < endpointCount());
  GC_CHECK(to >= 0 && to < endpointCount());
  GC_CHECK_MSG(endpoints_[static_cast<std::size_t>(to)] != nullptr,
               "control endpoint not attached");

  sim::SimTime& busy = tx_busy_[static_cast<std::size_t>(from)];
  const sim::SimTime tx_start = busy > sim_.now() ? busy : sim_.now();
  const sim::SimTime tx_done = tx_start + cfg_.tx_serialize_ns;
  busy = tx_done;

  const auto jitter = static_cast<sim::Duration>(
      rng_.nextExp(static_cast<double>(cfg_.jitter_mean_ns)));
  sim::SimTime deliver = tx_done + cfg_.base_latency_ns + jitter;

  // Per-pair FIFO (the daemons speak over stream sockets): jitter must not
  // reorder messages between the same two endpoints.
  sim::SimTime& last = last_delivery_[pairKey(from, to)];
  if (deliver <= last) deliver = last + 1;
  last = deliver;

  sim::LpScope lp(sim_, sim::lpTag(sim::LpDomain::kGlobal));
  // deliver = tx_done + base latency + jitter, then clamped forward by the
  // per-pair FIFO branch above, so it is never in the past.
  sim_.scheduleAt(deliver, [this, to, msg = std::move(msg)] {
    ++delivered_;
    endpoints_[static_cast<std::size_t>(to)](msg);
  });
}

}  // namespace gangcomm::parpar
