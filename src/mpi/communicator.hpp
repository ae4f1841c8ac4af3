// A minimal MPI-style layer over FM.
//
// The paper notes (§3.2) that applications using a higher-level system such
// as MPI reach FM through MPI_initialize -> FM_initialize; the contemporary
// MPICH-FM stack worked exactly that way.  This module provides the pieces
// such a stack needs on top of fm::FmLib:
//
//   * Communicator — tag-matched, message-oriented send/receive with
//     reassembly of FM fragments and an unexpected-message queue;
//   * resumable collective operations (barrier, broadcast, reduce,
//     allreduce) built from point-to-point messages, designed to be driven
//     from an event-driven Process::step() loop: advance() either completes
//     (kOk) or asks to be re-driven after progress (kWouldBlock).
//
// Every message carries a 64-bit user word end-to-end, so the collectives'
// arithmetic is verified through the full simulated stack — NIC, wire,
// credits, buffer switches and all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "fm/fm_lib.hpp"
#include "util/status.hpp"

namespace gangcomm::mpi {

/// FM handler id reserved for the MPI layer.
inline constexpr std::uint16_t kMpiHandler = 32;

struct Message {
  int src = -1;
  int tag = 0;
  std::uint32_t bytes = 0;
  std::uint64_t data = 0;
};

inline constexpr int kAnySource = -1;

class Communicator {
 public:
  explicit Communicator(fm::FmLib& fmlib);

  int rank() const { return fm_.rank(); }
  int size() const { return fm_.jobSize(); }
  fm::FmLib& fmlib() { return fm_; }

  /// Post a message (fragmenting as needed).  Same contract as FmLib::send:
  /// kWouldBlock means "call again with identical arguments after progress".
  util::Status send(int dst, int tag, std::uint32_t bytes,
                    std::uint64_t data);

  /// Drain the FM receive queue into the matching engine.  Returns packets
  /// processed.
  int progress(int max_packets = 64);

  /// Non-blocking matched receive; src may be kAnySource.  Matching is FIFO
  /// per (src, tag), MPI-style.
  bool tryRecv(int src, int tag, Message* out);

  /// True if a matching message is queued.
  bool probe(int src, int tag) const;

  std::size_t pendingMessages() const { return queue_.size(); }

 private:
  void onPacket(const net::Packet& p);
  static bool matches(const Message& m, int src, int tag) {
    return (src == kAnySource || m.src == src) && m.tag == tag;
  }

  fm::FmLib& fm_;
  std::deque<Message> queue_;  // completed, unmatched messages
  // Fragment reassembly: (src rank, msg id) -> fragments seen so far.
  std::map<std::pair<int, std::uint64_t>, std::uint32_t> assembling_;
};

/// Base class for resumable collective operations.
class CollectiveOp {
 public:
  virtual ~CollectiveOp() = default;

  /// Drive the state machine: runs progress(), then advances as far as
  /// possible.  kOk when complete; kWouldBlock when waiting on the network
  /// (re-drive after onArrival/onSendable); kDeadlock propagated from FM.
  virtual util::Status advance() = 0;

  bool done() const { return done_; }

 protected:
  explicit CollectiveOp(Communicator& comm) : comm_(comm) {}
  Communicator& comm_;
  bool done_ = false;
};

/// Dissemination barrier: ceil(log2 p) rounds of token exchange.
class BarrierOp final : public CollectiveOp {
 public:
  BarrierOp(Communicator& comm, int tag_base);
  util::Status advance() override;

 private:
  int tag_base_;
  int round_ = 0;
  int rounds_;
  bool sent_this_round_ = false;
};

/// Binomial-tree broadcast of a 64-bit word (plus simulated bulk bytes).
class BcastOp final : public CollectiveOp {
 public:
  BcastOp(Communicator& comm, int root, int tag, std::uint32_t bytes,
          std::uint64_t data);
  util::Status advance() override;

  /// The broadcast value (valid once done()).
  std::uint64_t value() const { return data_; }

 private:
  int root_;
  int tag_;
  std::uint32_t bytes_;
  std::uint64_t data_;
  bool have_value_;
  int send_mask_ = 0;  // next child mask; 0 = not yet computed
};

/// Binomial-tree reduction (64-bit unsigned sum) toward `root`.
class ReduceOp final : public CollectiveOp {
 public:
  ReduceOp(Communicator& comm, int root, int tag, std::uint32_t bytes,
           std::uint64_t contribution);
  util::Status advance() override;

  /// The reduced value; meaningful at the root once done().
  std::uint64_t value() const { return acc_; }

 private:
  int root_;
  int tag_;
  std::uint32_t bytes_;
  std::uint64_t acc_;
  int mask_ = 1;
  bool sent_ = false;
};

/// Allreduce = Reduce to rank 0, then Bcast (sum of 64-bit words).
class AllreduceOp final : public CollectiveOp {
 public:
  AllreduceOp(Communicator& comm, int tag_base, std::uint32_t bytes,
              std::uint64_t contribution);
  util::Status advance() override;

  std::uint64_t value() const { return bcast_ ? bcast_->value() : 0; }

 private:
  int tag_base_;
  std::uint32_t bytes_;
  std::unique_ptr<ReduceOp> reduce_;
  std::unique_ptr<BcastOp> bcast_;
};

}  // namespace gangcomm::mpi
