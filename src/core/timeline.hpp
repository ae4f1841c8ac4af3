// Periodic throughput sampling over a running cluster.
//
// Samples the fabric's cumulative data-byte counter on a fixed simulated
// period and turns the deltas into a bandwidth series, with gang switches
// marked.  Used by examples and benches to show the delivered-bandwidth
// timeline around context switches (the dip during a switch is the whole
// overhead story of §4.2 in one picture).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.hpp"

namespace gangcomm::core {

class ThroughputTimeline {
 public:
  /// Starts sampling immediately; one sample per `bucket` of simulated time.
  ThroughputTimeline(Cluster& cluster, sim::Duration bucket);

  sim::Duration bucket() const { return bucket_; }

  struct Sample {
    double mbps = 0;       // delivered data bandwidth in this bucket
    bool switch_seen = false;  // a gang switch completed during the bucket
  };

  const std::vector<Sample>& samples() const { return samples_; }

  /// Peak bucket bandwidth observed so far.
  double peakMBps() const;

  /// ASCII sparkline of the series, eight levels plus 'x' marking buckets
  /// that contained a gang switch.
  std::string sparkline() const;

  /// Stop sampling after the next tick (sampling also self-terminates when
  /// every job has exited, so run() can drain).
  void stop();

 private:
  void tick();

  Cluster& cluster_;
  sim::Duration bucket_;
  std::uint64_t last_bytes_ = 0;
  std::size_t last_switch_records_ = 0;
  bool stopped_ = false;
  std::vector<Sample> samples_;
};

}  // namespace gangcomm::core
