// Node-leader and node-membership helpers behind the two-level aggregation
// protocol (docs/two_level.md): the block-placement arithmetic lives in
// Topology, and the Comm surface must agree with it.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mpi/world.h"

namespace e10::mpi {
namespace {

TEST(Topology, NodeLeaderIsLowestRankOnNode) {
  const Topology t(4, 8);
  EXPECT_EQ(t.node_leader(0), 0);
  EXPECT_EQ(t.node_leader(7), 0);
  EXPECT_EQ(t.node_leader(8), 8);
  EXPECT_EQ(t.node_leader(15), 8);
  EXPECT_EQ(t.node_leader(31), 24);
  EXPECT_THROW((void)t.node_leader(32), std::logic_error);
}

TEST(Topology, NodeLeaderSingleRankPerNodeIsSelf) {
  const Topology t(4, 1);
  for (int r = 0; r < 4; ++r) EXPECT_EQ(t.node_leader(r), r);
}

TEST(Topology, NodeRanksListsNodeInRankOrder) {
  const Topology t(3, 4);
  EXPECT_EQ(t.node_ranks(0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(t.node_ranks(2), (std::vector<int>{8, 9, 10, 11}));
  EXPECT_THROW((void)t.node_ranks(3), std::logic_error);
  // Every node's first listed rank is its leader.
  for (std::size_t node = 0; node < t.nodes(); ++node) {
    const std::vector<int> ranks = t.node_ranks(node);
    EXPECT_EQ(ranks.front(), t.node_leader(ranks.front()));
    for (const int r : ranks) {
      EXPECT_EQ(t.node_of(r), node);
      EXPECT_EQ(t.node_leader(r), ranks.front());
    }
  }
}

TEST(Comm, NodeHelpersMatchTopology) {
  sim::Engine engine;
  net::Fabric fabric(3, net::FabricParams{});
  const Topology topology(3, 4);
  World world(engine, fabric, topology);
  world.launch([&](Comm comm) {
    EXPECT_EQ(comm.max_ranks_per_node(), 4u);
    EXPECT_EQ(comm.node_leader(comm.rank()), topology.node_leader(comm.rank()));
    EXPECT_EQ(comm.node_ranks(comm.node()), topology.node_ranks(comm.node()));
    // The leader is the lowest member; members agree on the leader.
    const std::vector<int> members = comm.node_ranks(comm.node());
    EXPECT_EQ(members.front(), comm.node_leader(comm.rank()));
  });
  engine.run();
}

TEST(Comm, NodeHelpersFollowASplitCommunicatorsRanks) {
  // Two nodes of three ranks; world rank 0 leaves and the rest reverse
  // their order, so the split's rank r is world rank 5 - r: ranks 0-2 sit
  // on node 1 and ranks 3-4 on node 0.
  sim::Engine engine;
  net::Fabric fabric(2, net::FabricParams{});
  World world(engine, fabric, Topology(2, 3));
  int checked = 0;
  world.launch([&](Comm comm) {
    const Comm sub = comm.split(comm.rank() == 0 ? -1 : 0, -comm.rank());
    if (!sub.valid()) return;
    EXPECT_EQ(sub.rank(), 5 - comm.rank());
    EXPECT_EQ(sub.node(), comm.node());
    EXPECT_EQ(sub.max_ranks_per_node(), 3u);
    EXPECT_EQ(sub.node_ranks(1), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(sub.node_ranks(0), (std::vector<int>{3, 4}));
    EXPECT_TRUE(sub.node_ranks(2).empty());
    EXPECT_EQ(sub.node_table(), (std::map<std::size_t, std::vector<int>>{
                                    {0, {3, 4}}, {1, {0, 1, 2}}}));
    EXPECT_EQ(sub.node_leader(sub.rank()), sub.node() == 1 ? 0 : 3);
    ++checked;
  });
  engine.run();
  EXPECT_EQ(checked, 5);
}

}  // namespace
}  // namespace e10::mpi
