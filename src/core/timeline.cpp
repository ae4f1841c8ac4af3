#include "core/timeline.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/check.hpp"

namespace gangcomm::core {

ThroughputTimeline::ThroughputTimeline(Cluster& cluster, sim::Duration bucket)
    : cluster_(cluster), bucket_(bucket) {
  GC_CHECK_MSG(bucket > 0, "timeline bucket must be positive");
  sim::LpScope lp(cluster_.sim(), sim::lpTag(sim::LpDomain::kGlobal));
  cluster_.sim().schedule(bucket_, [this] { tick(); });
}

void ThroughputTimeline::tick() {
  // Count only user payload on the wire: data packets' wire bytes.  The
  // aggregate `bytes` also includes halt/ready/refill control traffic, which
  // would inflate the delivered-bandwidth curve around every gang switch.
  const std::uint64_t bytes = cluster_.fabric().stats().data_bytes;
  Sample s;
  s.mbps = sim::bandwidthMBps(bytes - last_bytes_, bucket_);
  s.switch_seen = cluster_.switchRecords().size() != last_switch_records_;
  last_bytes_ = bytes;
  last_switch_records_ = cluster_.switchRecords().size();
  samples_.push_back(s);
  // Self-terminate once the machine is idle so Cluster::run() can drain.
  if (stopped_ || cluster_.master().jobCount() == 0) return;
  sim::LpScope lp(cluster_.sim(), sim::lpTag(sim::LpDomain::kGlobal));
  cluster_.sim().schedule(bucket_, [this] { tick(); });
}

void ThroughputTimeline::stop() { stopped_ = true; }

double ThroughputTimeline::peakMBps() const {
  double peak = 0;
  for (const auto& s : samples_) peak = std::max(peak, s.mbps);
  return peak;
}

std::string ThroughputTimeline::sparkline() const {
  static const char* kLevels = " .:-=+*#@";
  const double peak = peakMBps();
  std::string out;
  out.reserve(samples_.size());
  for (const auto& s : samples_) {
    if (s.switch_seen) {
      out += 'x';
      continue;
    }
    const int level =
        peak <= 0 ? 0
                  : static_cast<int>(s.mbps / peak * 8.0 + 0.5);
    out += kLevels[std::clamp(level, 0, 8)];
  }
  return out;
}

}  // namespace gangcomm::core
