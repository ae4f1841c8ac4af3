// Benchmark workloads — the applications the paper runs.
//
//  * BandwidthSender/Receiver: the FM-distribution point-to-point bandwidth
//    benchmark of §4.1 (sender blasts N messages; receiver replies with a
//    finish message; the sender computes bandwidth over the full interval).
//  * AllToAllWorker: the all-to-all stress workload of §4.2 used to load the
//    buffers during context-switch measurements (Figures 7-9).
//  * PingPongWorker: a latency probe used by examples and tests.
#pragma once

#include <cstdint>
#include <limits>

#include "app/process.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"

namespace gangcomm::app {

/// FM handler ids shared by the workloads.
inline constexpr std::uint16_t kDataHandler = 1;
inline constexpr std::uint16_t kFinishHandler = 2;
inline constexpr std::uint16_t kPingHandler = 3;
inline constexpr std::uint16_t kPongHandler = 4;

class BandwidthSender final : public Process {
 public:
  BandwidthSender(Env env, int peer_rank, std::uint32_t msg_bytes,
                  std::uint64_t msg_count);

  /// Sender-measured bandwidth over start..finish wall time (MB/s); 0 when
  /// the configuration deadlocked.
  double bandwidthMBps() const;
  bool sawDeadlock() const { return deadlock_; }
  std::uint64_t messagesSent() const { return sent_; }

 protected:
  void step() override;

 private:
  int peer_;
  std::uint32_t msg_bytes_;
  std::uint64_t msg_count_;
  std::uint64_t sent_ = 0;
  bool got_finish_ = false;
  bool deadlock_ = false;
};

class BandwidthReceiver final : public Process {
 public:
  BandwidthReceiver(Env env, int peer_rank, std::uint64_t msg_count);

  std::uint64_t messagesReceived() const { return received_; }

 protected:
  void step() override;

 private:
  int peer_;
  std::uint64_t msg_count_;
  std::uint64_t received_ = 0;
  bool finish_sent_ = false;
  bool finish_pending_ = false;
};

class AllToAllWorker final : public Process {
 public:
  /// Every process sends `msg_bytes` to every peer, `rounds` times
  /// (std::numeric_limits<uint64_t>::max() => run until the simulation
  /// stops, the mode the switch-overhead experiments use).
  AllToAllWorker(Env env, std::uint32_t msg_bytes, std::uint64_t rounds);

  std::uint64_t messagesReceived() const { return received_; }
  std::uint64_t messagesSent() const { return sent_; }

 protected:
  void step() override;

 private:
  int nextPeer() const;

  std::uint32_t msg_bytes_;
  std::uint64_t rounds_;
  std::uint64_t round_ = 0;
  int peer_cursor_ = 0;  // 0..size-2, mapped around self
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

class PingPongWorker final : public Process {
 public:
  PingPongWorker(Env env, std::uint32_t msg_bytes, std::uint64_t reps);

  const util::Stats& rttStats() const { return rtt_us_; }

 protected:
  void step() override;

 private:
  std::uint32_t msg_bytes_;
  std::uint64_t reps_;
  std::uint64_t sent_ = 0;
  std::uint64_t pongs_ = 0;
  std::uint64_t pings_seen_ = 0;
  bool ping_outstanding_ = false;
  bool reply_due_ = false;
  sim::SimTime ping_sent_at_ = 0;
  util::Stats rtt_us_;
};

}  // namespace gangcomm::app
