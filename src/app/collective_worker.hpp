// A workload driving the MPI layer: iterations of allreduce + barrier.
//
// Each iteration contributes a deterministic value, allreduces it, checks
// the sum against the closed form, and barriers.  Run under gang scheduling
// this verifies the whole claim of the paper end to end: collectives keep
// their exact semantics across buffer-switched context switches.
#pragma once

#include <cstdint>
#include <memory>

#include "app/process.hpp"
#include "mpi/communicator.hpp"

namespace gangcomm::app {

class CollectiveWorker final : public Process {
 public:
  CollectiveWorker(Env env, std::uint64_t iterations,
                   std::uint32_t msg_bytes = 256);

  std::uint64_t iterationsDone() const { return iter_; }
  std::uint64_t verifiedSums() const { return verified_; }
  bool sawMismatch() const { return mismatch_; }

 protected:
  void step() override;

 private:
  /// Contribution of `rank` at iteration `it` (deterministic, seedless).
  static std::uint64_t contribution(int rank, std::uint64_t it) {
    return static_cast<std::uint64_t>(rank + 1) * 1000003ULL + it * 17ULL;
  }
  std::uint64_t expectedSum(std::uint64_t it) const;

  mpi::Communicator comm_;
  std::uint64_t iterations_;
  std::uint32_t msg_bytes_;
  std::uint64_t iter_ = 0;
  std::uint64_t verified_ = 0;
  bool mismatch_ = false;
  std::unique_ptr<mpi::AllreduceOp> allreduce_;
  std::unique_ptr<mpi::BarrierOp> barrier_;
};

}  // namespace gangcomm::app
