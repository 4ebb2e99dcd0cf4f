// Process placement: which fabric node hosts each MPI rank.
//
// Ranks are placed block-wise (ranks [k*ppn, (k+1)*ppn) on node k), matching
// the paper's "512 MPI processes distributed over 64 nodes (8 procs/node)".
// The node_of/node_leader/node_ranks helpers are the one place the block
// placement arithmetic lives; layers above must not hand-roll
// `rank / ranks_per_node`.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace e10::mpi {

class Topology {
 public:
  Topology(std::size_t nodes, std::size_t ranks_per_node)
      : nodes_(nodes), ranks_per_node_(ranks_per_node) {
    if (nodes == 0 || ranks_per_node == 0) {
      throw std::logic_error("Topology: nodes and ranks_per_node must be > 0");
    }
  }

  [[nodiscard]] std::size_t nodes() const { return nodes_; }
  [[nodiscard]] std::size_t ranks_per_node() const { return ranks_per_node_; }
  [[nodiscard]] std::size_t ranks() const { return nodes_ * ranks_per_node_; }

  [[nodiscard]] std::size_t node_of(int rank) const {
    if (rank < 0 || static_cast<std::size_t>(rank) >= ranks()) {
      throw std::logic_error("Topology::node_of: rank out of range");
    }
    return static_cast<std::size_t>(rank) / ranks_per_node_;
  }

  /// Lowest rank hosted on the same node as `rank` — the node's leader in
  /// the two-level aggregation protocol (docs/two_level.md).
  [[nodiscard]] int node_leader(int rank) const {
    return static_cast<int>(node_of(rank) * ranks_per_node_);
  }

  /// Ranks hosted on `node`, in rank order. The first entry is the node
  /// leader.
  [[nodiscard]] std::vector<int> node_ranks(std::size_t node) const {
    if (node >= nodes_) {
      throw std::logic_error("Topology::node_ranks: bad node");
    }
    std::vector<int> out;
    out.reserve(ranks_per_node_);
    for (std::size_t i = 0; i < ranks_per_node_; ++i) {
      out.push_back(static_cast<int>(node * ranks_per_node_ + i));
    }
    return out;
  }

 private:
  std::size_t nodes_;
  std::size_t ranks_per_node_;
};

}  // namespace e10::mpi
