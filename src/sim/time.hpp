// Simulated-time representation for the gangcomm discrete-event engine.
//
// All simulated time is held in integer nanoseconds (SimTime).  The paper's
// measurements are reported in cycles of a 200 MHz Pentium-Pro (5 ns/cycle),
// so we provide explicit conversion helpers; benches print cycles to match
// the paper's figures.
#pragma once

#include <cstdint>

namespace gangcomm::sim {

/// Simulated time in nanoseconds since simulation start.
using SimTime = std::uint64_t;

/// A duration in simulated nanoseconds.
using Duration = std::uint64_t;

/// Host CPU cycles (200 MHz Pentium-Pro in the paper's testbed).
using Cycles = std::uint64_t;

inline constexpr SimTime kNever = ~SimTime{0};

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1'000;
inline constexpr Duration kMillisecond = 1'000'000;
inline constexpr Duration kSecond = 1'000'000'000;

/// Nanoseconds per cycle of the modeled 200 MHz host CPU.
inline constexpr Duration kNsPerCycle = 5;

constexpr Duration cyclesToNs(Cycles c) { return c * kNsPerCycle; }
constexpr Cycles nsToCycles(Duration ns) { return ns / kNsPerCycle; }

constexpr double nsToUs(Duration ns) { return static_cast<double>(ns) / 1e3; }
constexpr double nsToMs(Duration ns) { return static_cast<double>(ns) / 1e6; }
constexpr double nsToSec(Duration ns) { return static_cast<double>(ns) / 1e9; }

constexpr Duration usToNs(double us) {
  return static_cast<Duration>(us * 1e3 + 0.5);
}
constexpr Duration msToNs(double ms) {
  return static_cast<Duration>(ms * 1e6 + 0.5);
}
constexpr Duration secToNs(double s) {
  return static_cast<Duration>(s * 1e9 + 0.5);
}

/// Duration (ns) to move `bytes` at `mb_per_s` megabytes per second.
/// Used for every bandwidth-limited cost in the model (links, DMA, PIO,
/// memcpy).  1 MB = 1e6 bytes, matching the paper's MB/s reporting.
// A transfer cost is nonnegative, and every modeled payload moves in well
// under a second.
constexpr Duration transferNs(std::uint64_t bytes, double mb_per_s) {
  return static_cast<Duration>(static_cast<double>(bytes) / mb_per_s * 1e3 +
                               0.5);
}

/// Bandwidth in MB/s achieved moving `bytes` in `ns`.
constexpr double bandwidthMBps(std::uint64_t bytes, Duration ns) {
  return ns == 0 ? 0.0
                 : static_cast<double>(bytes) / static_cast<double>(ns) * 1e3;
}

}  // namespace gangcomm::sim
