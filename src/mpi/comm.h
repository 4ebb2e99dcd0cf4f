// Simulated MPI communicator.
//
// Point-to-point messages travel through the Fabric cost model with MPI
// matching semantics (FIFO per (source, tag), wildcards supported) and an
// eager/rendezvous protocol switch at `eager_threshold`. Collectives are
// modeled as synchronizing rendezvous: all participants leave at
// max(arrival) + an analytic tree cost — precisely the global-
// synchronisation behaviour the paper identifies as collective I/O's
// bottleneck (a slow rank delays everyone).
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "mpi/request.h"
#include "mpi/topology.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "sim/sync.h"

namespace e10::mpi {

inline constexpr int kAnySource = -2;
inline constexpr int kAnyTag = -1;

struct MpiParams {
  /// Per-tree-stage latency of collective algorithms.
  Time coll_alpha = units::microseconds(3);
  /// Serialization bandwidth used by the collective cost model.
  Offset coll_bytes_per_second = Offset{3400} * units::MiB;
  /// Messages larger than this use the rendezvous protocol (sender completes
  /// at delivery), smaller ones are eager (sender completes at tx-done).
  Offset eager_threshold = 256 * units::KiB;
};

class CommState;

/// Lightweight per-rank facade over a shared CommState; cheap to copy.
class Comm {
 public:
  Comm() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] std::size_t node() const;
  [[nodiscard]] std::size_t node_of(int rank) const;
  /// Lowest rank of this communicator hosted on the same node as `rank` —
  /// the node's leader in the two-level aggregation protocol. Communicator-
  /// relative: a split communicator elects its own leaders.
  [[nodiscard]] int node_leader(int rank) const;
  /// Ranks of this communicator hosted on `node`, ascending. Empty when the
  /// communicator has no rank there.
  [[nodiscard]] std::vector<int> node_ranks(std::size_t node) const;
  /// Largest number of this communicator's ranks sharing one node (1 means
  /// an intra-node gather stage has nothing to gather).
  [[nodiscard]] std::size_t max_ranks_per_node() const;
  sim::Engine& engine() const;
  const std::string& name() const;

  // ---- Point-to-point ----------------------------------------------------

  /// Nonblocking send of a type-erased payload charged as `bytes` on the
  /// wire. The payload is copied by value into the matching receive.
  Request isend(int dst, int tag, std::any payload, Offset bytes) const;

  /// Nonblocking receive from `src` (or kAnySource) with `tag` (or kAnyTag).
  Request irecv(int src, int tag) const;

  void send(int dst, int tag, std::any payload, Offset bytes) const;
  Packet recv(int src, int tag) const;

  // ---- Collectives (all synchronizing; see header comment) ---------------

  void barrier() const;

  template <typename T, typename BinaryOp>
  T allreduce(const T& value, BinaryOp op, Offset bytes = sizeof(T)) const {
    auto contribs = run_collective(Kind::allreduce, std::any(value), bytes);
    T acc = std::any_cast<const T&>((*contribs)[0]);
    for (std::size_t i = 1; i < contribs->size(); ++i) {
      acc = op(acc, std::any_cast<const T&>((*contribs)[i]));
    }
    return acc;
  }

  template <typename T>
  std::vector<T> allgather(const T& value, Offset bytes = sizeof(T)) const {
    auto contribs = run_collective(Kind::allgather, std::any(value), bytes);
    std::vector<T> out;
    out.reserve(contribs->size());
    for (const std::any& a : *contribs) out.push_back(std::any_cast<const T&>(a));
    return out;
  }

  /// Sparse alltoall. `send` holds this rank's (destination rank, value)
  /// pairs, destinations unique; the values are moved out of it (the
  /// vector and its capacity stay with the caller). When `recv` is non-null
  /// it is overwritten with every (source rank, value) addressed to this
  /// rank, ascending by source — the order of a dense alltoall's rows. A
  /// rank that passes nullptr skips extraction but still joins, and pays
  /// for, the collective. `bytes_each` is the wire size of one element of
  /// the dense form: the modeled cost is stages·α + ser(bytes_each·p)
  /// however sparse `send` is.
  template <typename T>
  void alltoall(std::vector<std::pair<int, T>>&& send,
                std::type_identity_t<std::vector<std::pair<int, T>>>* recv,
                Offset bytes_each = sizeof(T)) const;

  template <typename T>
  T bcast(const T& value, int root, Offset bytes = sizeof(T)) const {
    auto contribs = run_collective(Kind::bcast, std::any(value), bytes);
    return std::any_cast<const T&>((*contribs)[static_cast<std::size_t>(root)]);
  }

  /// Root receives everyone's value (rank order); non-roots get empty.
  template <typename T>
  std::vector<T> gather(const T& value, int root,
                        Offset bytes = sizeof(T)) const {
    auto contribs = run_collective(Kind::gather, std::any(value), bytes);
    if (rank_ != root) return {};
    std::vector<T> out;
    out.reserve(contribs->size());
    for (const std::any& a : *contribs) out.push_back(std::any_cast<const T&>(a));
    return out;
  }

  template <typename T, typename BinaryOp>
  T reduce(const T& value, BinaryOp op, int root,
           Offset bytes = sizeof(T)) const {
    auto contribs = run_collective(Kind::reduce, std::any(value), bytes);
    if (rank_ != root) return T{};
    T acc = std::any_cast<const T&>((*contribs)[0]);
    for (std::size_t i = 1; i < contribs->size(); ++i) {
      acc = op(acc, std::any_cast<const T&>((*contribs)[i]));
    }
    return acc;
  }

  /// MPI_Comm_split: ranks with equal color form a new communicator, ordered
  /// by (key, old rank).
  Comm split(int color, int key) const;

  /// MPI_Comm_dup: same group, fresh matching context.
  Comm dup() const;

 private:
  friend class World;
  friend class CommState;
  enum class Kind { barrier, allreduce, allgather, alltoall, bcast, gather, reduce };

  Comm(std::shared_ptr<CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  /// Deposits this rank's contribution and blocks until all ranks arrive;
  /// returns the full contribution vector indexed by rank.
  std::shared_ptr<const std::vector<std::any>> run_collective(
      Kind kind, std::any contribution, Offset bytes) const;

  std::shared_ptr<CommState> state_;
  int rank_ = -1;
};

/// Shared implementation of one communicator.
class CommState {
 public:
  CommState(sim::Engine& engine, net::Fabric& fabric,
            std::vector<std::size_t> rank_nodes, MpiParams params,
            std::string name);

  int size() const { return static_cast<int>(rank_nodes_.size()); }
  sim::Engine& engine() { return engine_; }
  const std::string& name() const { return name_; }
  std::size_t node_of(int rank) const;
  [[nodiscard]] int node_leader(int rank) const;
  [[nodiscard]] std::vector<int> node_ranks(std::size_t node) const;
  [[nodiscard]] std::size_t max_ranks_per_node() const;

  Request isend(int src, int dst, int tag, std::any payload, Offset bytes);
  Request irecv(int dst, int src, int tag);

  std::shared_ptr<const std::vector<std::any>> collective(
      int rank, Comm::Kind kind, std::any contribution, Offset bytes);

  std::shared_ptr<CommState> split_child(int caller_rank, int color, int key,
                                         int* new_rank);

  std::shared_ptr<CommState> dup_child(int caller_rank);

  /// Diagnostics.
  std::uint64_t p2p_messages() const { return p2p_messages_; }
  std::uint64_t collectives() const { return coll_ops_started_; }

 private:
  friend class Comm;  // Comm::alltoall keeps the typed half of the op

  struct PendingMsg {
    Packet packet;
    Time arrival = 0;
    std::shared_ptr<Request::State> send_state;  // open rendezvous send
    sim::CausalToken cause = 0;  // the send's causal emission
  };
  struct PendingRecv {
    std::shared_ptr<Request::State> state;
    int src = kAnySource;
    int tag = kAnyTag;
  };
  struct RankQueues {
    std::deque<PendingMsg> unexpected;
    std::deque<PendingRecv> posted;
  };
  /// One alltoall deposit; `value` indexes the op's typed value buffer.
  struct A2aEntry {
    int src = 0;
    int dst = 0;
    std::size_t value = 0;
  };

  struct CollOp {
    explicit CollOp(sim::Engine& engine) : release(engine) {}
    std::vector<std::any> contributions;
    /// Alltoall only: every rank's deposits, grouped by (dst, src) once
    /// the last rank arrives, and the std::vector<T> they index into.
    std::vector<A2aEntry> entries;
    std::any values;
    std::size_t arrived = 0;
    std::size_t departed = 0;
    Time max_arrival = 0;
    Offset max_bytes = 0;
    Comm::Kind kind = Comm::Kind::barrier;
    sim::SimEvent release;
    std::shared_ptr<std::vector<std::any>> result;
    sim::CausalToken cause = 0;  // last arriver's release emission
  };

  static bool matches(const PendingRecv& recv, const Packet& packet);
  Time collective_cost(Comm::Kind kind, Offset max_bytes) const;
  /// Finds or creates the caller's next collective slot (advancing its
  /// sequence number) and checks operation agreement across ranks.
  CollOp& collective_slot(int rank, Comm::Kind kind);
  /// Arrival bookkeeping after the caller deposited its contribution; the
  /// last arriver schedules the release and seals the result.
  void complete_arrival(CollOp& op, Offset bytes);
  /// Blocks until the op releases; records the straggler causal edge.
  void await_release(CollOp& op);
  /// Departure bookkeeping: the last leaver retires the op (ops retire
  /// strictly in sequence order, so only the deque front ever pops).
  void depart(CollOp& op);
  /// Joins the caller's next collective as an alltoall.
  CollOp& join_alltoall(int rank);
  /// Records one (rank -> dst) deposit at `value` in the typed buffer.
  void deposit(CollOp& op, int rank, int dst, std::size_t value);
  /// Arrives (the last arriver groups every deposit by destination and
  /// rejects a duplicate destination) and waits for the release. Returns
  /// the caller's group as an index range into op.entries, ascending by
  /// source.
  std::pair<std::size_t, std::size_t> arrive_alltoall(CollOp& op, int rank,
                                                      Offset bytes_each);

  sim::Engine& engine_;
  net::Fabric& fabric_;
  std::vector<std::size_t> rank_nodes_;
  MpiParams params_;
  std::string name_;
  std::vector<RankQueues> queues_;
  // Per-rank collective sequence numbers; in-flight ops live in a deque
  // indexed by (sequence - coll_base_). Ranks join ops in sequence order
  // and ops retire in sequence order, so the window is dense: no per-op
  // tree nodes or shared_ptr control blocks, and deque references stay
  // stable while ranks wait inside an op.
  std::vector<std::uint64_t> coll_seq_;
  std::deque<CollOp> coll_ops_;
  std::uint64_t coll_base_ = 0;
  // Retired alltoall entry lists awaiting reuse.
  std::vector<std::vector<A2aEntry>> entries_pool_;
  // Children created by split/dup at a given collective sequence.
  std::map<std::uint64_t, std::map<int, std::shared_ptr<CommState>>> children_;
  std::uint64_t p2p_messages_ = 0;
  std::uint64_t coll_ops_started_ = 0;
  int next_child_id_ = 0;
};

template <typename T>
void Comm::alltoall(std::vector<std::pair<int, T>>&& send,
                    std::type_identity_t<std::vector<std::pair<int, T>>>* recv,
                    Offset bytes_each) const {
  CommState::CollOp& op = state_->join_alltoall(rank_);
  if (!op.values.has_value()) op.values = std::vector<T>();
  auto* values = std::any_cast<std::vector<T>>(&op.values);
  if (values == nullptr) {
    throw std::logic_error("alltoall: ranks passed different value types");
  }
  for (auto& [dst, value] : send) {
    state_->deposit(op, rank_, dst, values->size());
    values->push_back(std::move(value));
  }
  const auto [first, last] = state_->arrive_alltoall(op, rank_, bytes_each);
  if (recv != nullptr) {
    recv->clear();
    for (std::size_t i = first; i < last; ++i) {
      const CommState::A2aEntry& entry = op.entries[i];
      recv->emplace_back(entry.src, std::move((*values)[entry.value]));
    }
  }
  state_->depart(op);
}

}  // namespace e10::mpi
