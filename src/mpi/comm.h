// Simulated MPI communicator.
//
// Point-to-point messages travel through the Fabric cost model with MPI
// matching semantics (FIFO per (source, tag), wildcards supported) and an
// eager/rendezvous protocol switch at `eager_threshold`. Collectives are
// modeled as synchronizing rendezvous: all participants leave at
// max(arrival) + an analytic tree cost — precisely the global-
// synchronisation behaviour the paper identifies as collective I/O's
// bottleneck (a slow rank delays everyone).
//
// Every rank runs in one address space, so a collective's data is single-
// copy: each rank moves its value into one typed std::vector<T> per
// operation, and the last rank to arrive seals it once — allreduce folds
// it in rank order, alltoall groups it by destination. allgather hands the
// buffer itself to every rank; nothing is boxed or copied per rank.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <typeinfo>
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
  [[nodiscard]] const std::vector<int>& node_ranks(std::size_t node) const;
  /// node -> node_ranks for every node hosting a rank of this communicator.
  [[nodiscard]] const std::map<std::size_t, std::vector<int>>& node_table()
      const;
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

  /// `op` folded over every rank's value in rank order 0..p-1. The last
  /// rank to arrive runs the p-1 calls once; everyone gets the result.
  template <typename T, typename BinaryOp>
  T allreduce(T value, BinaryOp op, Offset bytes = sizeof(T)) const;

  /// Every rank's value, indexed by rank, in one buffer all ranks share.
  template <typename T>
  std::shared_ptr<const std::vector<T>> allgather(
      T value, Offset bytes = sizeof(T)) const;

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
  T bcast(T value, int root, Offset bytes = sizeof(T)) const;

  /// MPI_Comm_split: ranks with equal color form a new communicator, ordered
  /// by (key, old rank).
  Comm split(int color, int key) const;

  /// MPI_Comm_dup: same group, fresh matching context.
  Comm dup() const;

 private:
  friend class World;
  friend class CommState;
  enum class Kind { barrier, allreduce, allgather, alltoall, bcast };

  Comm(std::shared_ptr<CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

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

  Request isend(int src, int dst, int tag, std::any payload, Offset bytes);
  Request irecv(int dst, int src, int tag);

  /// Joins `rank`'s next collective as a barrier; nothing is deposited.
  void barrier(int rank);

  /// Joins `rank`'s next collective of `kind`, moves `value` into the
  /// rank's slot of the op's buffer and waits for the release. The last
  /// arriver first runs seal(std::vector<T>&) on the full buffer. Returns
  /// the buffer, shared by every rank.
  template <typename T, typename Seal>
  std::shared_ptr<const std::vector<T>> collect(int rank, Comm::Kind kind,
                                                T value, Offset bytes,
                                                Seal seal);

  std::shared_ptr<CommState> split_child(int caller_rank, int color, int key,
                                         int* new_rank);

  std::shared_ptr<CommState> dup_child(int caller_rank);

  /// Diagnostics.
  std::uint64_t p2p_messages() const { return p2p_messages_; }
  std::uint64_t collectives() const { return coll_ops_started_; }

 private:
  friend class Comm;  // node queries; Comm::alltoall fills the op's buffer

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
    /// The op's one typed buffer, a std::vector<value_type> (null for a
    /// barrier): one slot per rank, or one value per alltoall deposit.
    std::shared_ptr<void> values;
    const std::type_info* value_type = nullptr;
    /// Alltoall only: every rank's deposits, grouped by (dst, src) once
    /// the last rank arrives.
    std::vector<A2aEntry> entries;
    std::size_t arrived = 0;
    std::size_t departed = 0;
    Time max_arrival = 0;
    Offset max_bytes = 0;
    Comm::Kind kind = Comm::Kind::barrier;
    /// Set by the last arriver with its collective emission.
    sim::SimEvent release;
  };

  static bool matches(const PendingRecv& recv, const Packet& packet);
  Time collective_cost(Comm::Kind kind, Offset max_bytes) const;
  /// Finds or creates the caller's next collective slot (advancing its
  /// sequence number) and checks operation agreement across ranks. A new
  /// alltoall takes its entry list from the pool.
  CollOp& collective_slot(int rank, Comm::Kind kind);
  /// The op's buffer as a std::vector<T>, created by the first depositor;
  /// throws when ranks deposit different types.
  template <typename T>
  std::vector<T>& typed_values(CollOp& op);
  /// Arrival bookkeeping after the caller deposited its contribution; the
  /// last arriver schedules the release and returns true — it must seal
  /// the op's buffer before it next blocks.
  bool complete_arrival(CollOp& op, Offset bytes);
  /// Departure bookkeeping: the last leaver retires the op (ops retire
  /// strictly in sequence order, so only the deque front ever pops).
  void depart(CollOp& op);
  /// Arrives (the last arriver groups every deposit by destination and
  /// rejects a duplicate destination) and waits for the release. Returns
  /// the caller's group as an index range into op.entries, ascending by
  /// source.
  std::pair<std::size_t, std::size_t> arrive_alltoall(CollOp& op, int rank,
                                                      Offset bytes_each);

  sim::Engine& engine_;
  net::Fabric& fabric_;
  std::vector<std::size_t> rank_nodes_;
  // Node -> ranks (ascending) table, built once by the constructor.
  std::map<std::size_t, std::vector<int>> node_table_;
  std::size_t max_ranks_per_node_ = 0;
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
std::vector<T>& CommState::typed_values(CollOp& op) {
  if (op.values == nullptr) {
    op.values = std::make_shared<std::vector<T>>();
    op.value_type = &typeid(T);
  } else if (*op.value_type != typeid(T)) {
    throw std::logic_error("collective on comm '" + name_ +
                           "': ranks passed different value types");
  }
  return *static_cast<std::vector<T>*>(op.values.get());
}

template <typename T, typename Seal>
std::shared_ptr<const std::vector<T>> CommState::collect(int rank,
                                                         Comm::Kind kind,
                                                         T value, Offset bytes,
                                                         Seal seal) {
  CollOp& op = collective_slot(rank, kind);
  std::vector<T>& slots = typed_values<T>(op);
  if (slots.empty()) slots.resize(static_cast<std::size_t>(size()));
  slots[static_cast<std::size_t>(rank)] = std::move(value);
  if (complete_arrival(op, bytes)) seal(slots);
  op.release.wait();
  auto result = std::static_pointer_cast<const std::vector<T>>(op.values);
  depart(op);
  return result;
}

template <typename T, typename BinaryOp>
T Comm::allreduce(T value, BinaryOp op, Offset bytes) const {
  return state_
      ->collect(rank_, Kind::allreduce, std::move(value), bytes,
                [&op](std::vector<T>& all) {
                  for (std::size_t i = 1; i < all.size(); ++i) {
                    all[0] = op(all[0], all[i]);
                  }
                })
      ->front();
}

template <typename T>
std::shared_ptr<const std::vector<T>> Comm::allgather(T value,
                                                      Offset bytes) const {
  return state_->collect(rank_, Kind::allgather, std::move(value), bytes,
                         [](std::vector<T>&) {});
}

template <typename T>
T Comm::bcast(T value, int root, Offset bytes) const {
  return state_
      ->collect(rank_, Kind::bcast, std::move(value), bytes,
                [](std::vector<T>&) {})
      ->at(static_cast<std::size_t>(root));
}

template <typename T>
void Comm::alltoall(std::vector<std::pair<int, T>>&& send,
                    std::type_identity_t<std::vector<std::pair<int, T>>>* recv,
                    Offset bytes_each) const {
  CommState::CollOp& op = state_->collective_slot(rank_, Kind::alltoall);
  std::vector<T>& values = state_->typed_values<T>(op);
  for (auto& [dst, value] : send) {
    if (dst < 0 || dst >= size()) {
      throw std::logic_error("alltoall: destination rank out of range");
    }
    op.entries.push_back(CommState::A2aEntry{rank_, dst, values.size()});
    values.push_back(std::move(value));
  }
  const auto [first, last] = state_->arrive_alltoall(op, rank_, bytes_each);
  if (recv != nullptr) {
    recv->clear();
    for (std::size_t i = first; i < last; ++i) {
      const CommState::A2aEntry& entry = op.entries[i];
      recv->emplace_back(entry.src, std::move(values[entry.value]));
    }
  }
  state_->depart(op);
}

}  // namespace e10::mpi
