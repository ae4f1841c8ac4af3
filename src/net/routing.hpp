// Source routing over the simulated Myrinet fabric.
//
// FM precomputes a single route between every pair of nodes, and the flush
// protocol's correctness rests on Myrinet's per-route FIFO delivery (paper
// §3.2: the halt broadcast "will indeed arrive after all previous packets").
// ParPar's 17 machines hang off one switch, but the model supports multi-hop
// routes so latency scaling and the FIFO property can be exercised on larger
// topologies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "util/check.hpp"

namespace gangcomm::net {

class RoutingTable {
 public:
  /// Single-switch topology: every distinct pair is `hops` apart (default 2:
  /// host link -> switch -> host link).
  static RoutingTable singleSwitch(int nodes, int hops = 2);

  /// Fat-tree-ish topology with `radix`-port switches; hop count grows
  /// logarithmically.  Used by scaling tests, not by the paper reproduction.
  static RoutingTable tree(int nodes, int radix);

  int nodeCount() const { return nodes_; }

  /// Number of switch hops on the precomputed src->dst route.  Every SAN
  /// route crosses a switch; the src==dst zero applies only to loopback,
  /// which Fabric::inject() asserts away.
  int hops(NodeId src, NodeId dst) const {
    GC_CHECK(valid(src) && valid(dst));
    if (src == dst) return 0;
    return hops_[static_cast<std::size_t>(src) * nodes_ + dst];
  }

  bool valid(NodeId n) const { return n >= 0 && n < nodes_; }

 private:
  explicit RoutingTable(int nodes)
      : nodes_(nodes), hops_(static_cast<std::size_t>(nodes) * nodes, 0) {}

  int nodes_;
  std::vector<int> hops_;
};

}  // namespace gangcomm::net
