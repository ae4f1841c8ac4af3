// Additional workloads exercising distinct traffic geometries.
//
//  * StencilWorker — 1-D halo exchange: each rank swaps boundary messages
//    with its two ring neighbours every iteration (nearest-neighbour
//    pattern: no incast, credit pressure concentrated on two peers).
//  * BroadcastWorker — rank 0 streams messages down a binomial tree every
//    round (fan-out pattern; interior ranks forward).
//  * PermutationWorker — every round each rank sends one message through a
//    deterministic pseudo-random permutation (shifting point contention).
//
// All three verify delivery counts exactly, so they double as protocol
// checks under gang switching.
#pragma once

#include <cstdint>

#include "app/process.hpp"
#include "sim/random.hpp"

namespace gangcomm::app {

inline constexpr std::uint16_t kStencilHandler = 8;
inline constexpr std::uint16_t kBcastHandler = 9;
inline constexpr std::uint16_t kPermHandler = 10;

class StencilWorker final : public Process {
 public:
  StencilWorker(Env env, std::uint32_t halo_bytes, std::uint64_t iterations);

  std::uint64_t iterationsDone() const { return iter_; }
  std::uint64_t halosReceived() const { return received_; }

 protected:
  void step() override;

 private:
  int left() const;
  int right() const;

  std::uint32_t halo_bytes_;
  std::uint64_t iterations_;
  std::uint64_t iter_ = 0;
  int send_phase_ = 0;  // 0: send left, 1: send right, 2: wait halos
  std::uint64_t received_ = 0;
  std::uint64_t received_target_ = 0;
};

class BroadcastWorker final : public Process {
 public:
  BroadcastWorker(Env env, std::uint32_t msg_bytes, std::uint64_t rounds);

  std::uint64_t roundsDone() const { return round_; }
  std::uint64_t messagesReceived() const { return received_; }
  bool sawBadValue() const { return bad_value_; }

 protected:
  void step() override;

 private:
  /// Children of this rank in the binomial tree rooted at 0.
  bool parentReceived() const { return received_ > round_; }

  std::uint32_t msg_bytes_;
  std::uint64_t rounds_;
  std::uint64_t round_ = 0;
  int child_cursor_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t last_value_ = 0;
  bool bad_value_ = false;
};

class PermutationWorker final : public Process {
 public:
  PermutationWorker(Env env, std::uint32_t msg_bytes, std::uint64_t rounds,
                    std::uint64_t seed = 99);

  std::uint64_t roundsDone() const { return round_; }
  std::uint64_t messagesReceived() const { return received_; }

 protected:
  void step() override;

 private:
  /// Destination of `rank` in round `r`: a shifted affine permutation that
  /// is identical on every rank (no coordination needed) and never maps a
  /// rank to itself.
  int destination(std::uint64_t r) const;

  std::uint32_t msg_bytes_;
  std::uint64_t rounds_;
  std::uint64_t seed_;
  std::uint64_t round_ = 0;
  bool sent_this_round_ = false;
  std::uint64_t received_ = 0;
};

}  // namespace gangcomm::app
