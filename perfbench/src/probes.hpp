// Layer probes: host time per call into one layer's public functions, with
// inputs shaped like the workload (taken from the traced run's counters).
//
// Every probe repeats its measurement and returns the median, in host
// nanoseconds per operation.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "glue/policy.hpp"
#include "sim/time.hpp"

namespace gangcomm::perfbench {

/// sim: Simulator::schedule + one fired event with `depth` events pending.
double probeScheduleFire(std::uint64_t depth, std::uint64_t seed);

/// fm: FmLib::send -> Simulator::run -> FmLib::extract on one node pair, per
/// packet, averaged over `mix` = (message bytes, packets sent) weights.
double probeSendExtract(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& mix);

/// net.nic: host time per data packet sent by a NIC holding `allocated`
/// contexts of which `active` have packets queued.
double probeSendScan(int active, int allocated, std::uint32_t payload_bytes);

/// net.fabric: Fabric::inject + (batched) delivery per data packet, cycling
/// over `pairs` source/destination pairs of a `nodes`-node switch.
double probeInject(int nodes, bool all_pairs, std::uint32_t payload_bytes);

/// glue: BufferSwitcher::copyOut + copyIn of a context holding the given
/// valid send/receive packets.
double probeCopy(glue::BufferPolicy policy, std::uint32_t send_pkts,
                 std::uint32_t recv_pkts);

/// parpar: Cluster::runUntil across one quantum boundary (one gang switch
/// on every node) with two jobs that send nothing.  Returns -1 when no
/// switch happened.
double probeGangSwitch(int nodes, glue::BufferPolicy policy,
                       sim::Duration quantum, std::uint64_t seed);

}  // namespace gangcomm::perfbench
