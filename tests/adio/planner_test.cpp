// RoundPlanner unit tests: domain/round maths shared by the collective
// write and read paths, including the degenerate shapes (empty region,
// zero-length extents, single aggregator, hole-heavy patterns) and
// equivalence with the planning loop it replaced.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <tuple>
#include <vector>

#include "adio/aggregation.h"
#include "adio/pipeline.h"
#include "common/units.h"

namespace e10::adio {
namespace {

using namespace e10::units;

using Window = std::tuple<Offset, std::size_t, Offset, Offset>;

/// Aggregator nodes for `count` aggregators, one per node: the flat plan.
std::vector<std::size_t> one_per_node(std::size_t count) {
  std::vector<std::size_t> nodes(count);
  std::iota(nodes.begin(), nodes.end(), std::size_t{0});
  return nodes;
}

std::vector<Window> collect(RoundPlanner& planner,
                            const std::vector<Extent>& extents) {
  std::vector<Window> out;
  for (const Extent& e : extents) {
    planner.split(e, [&](Offset round, std::size_t agg, const Extent& sub) {
      out.emplace_back(round, agg, sub.offset, sub.length);
    });
  }
  return out;
}

TEST(RoundPlanner, EmptyRegionHasNoRoundsAndNoDomains) {
  RoundPlanner planner(Extent{0, 0}, one_per_node(4), 1 * MiB,
                       std::nullopt, /*two_level=*/false);
  EXPECT_EQ(planner.rounds(), 0);
  EXPECT_TRUE(planner.domains().empty());
}

TEST(RoundPlanner, ZeroLengthExtentEmitsNothing) {
  RoundPlanner planner(Extent{0, 4 * MiB}, one_per_node(2), 1 * MiB,
                       std::nullopt, /*two_level=*/false);
  const auto windows = collect(planner, {Extent{64, 0}, Extent{2 * MiB, 0}});
  EXPECT_TRUE(windows.empty());
}

TEST(RoundPlanner, SingleAggregatorOwnsEveryRound) {
  // One domain covering the region: rounds = ceil(len / cb).
  RoundPlanner planner(Extent{0, 10 * MiB}, one_per_node(1), 4 * MiB,
                       std::nullopt, /*two_level=*/false);
  ASSERT_EQ(planner.domains().size(), 1u);
  EXPECT_EQ(planner.rounds(), 3);
  const auto windows = collect(planner, {Extent{0, 10 * MiB}});
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0], Window(0, 0, 0, 4 * MiB));
  EXPECT_EQ(windows[1], Window(1, 0, 4 * MiB, 4 * MiB));
  EXPECT_EQ(windows[2], Window(2, 0, 8 * MiB, 2 * MiB));
}

TEST(RoundPlanner, SingleRoundWhenBufferCoversTheDomain) {
  // cb >= domain size: the pipeline degenerates to one round.
  RoundPlanner planner(Extent{0, 8 * MiB}, one_per_node(4), 16 * MiB,
                       std::nullopt, /*two_level=*/false);
  EXPECT_EQ(planner.rounds(), 1);
}

TEST(RoundPlanner, WindowsPartitionTheInputExactly) {
  RoundPlanner planner(Extent{3, 1000000}, one_per_node(3), 65536,
                       std::nullopt, /*two_level=*/false);
  const auto windows = collect(planner, {Extent{3, 1000000}});
  Offset cursor = 3;
  Offset total = 0;
  for (const auto& [round, agg, off, len] : windows) {
    EXPECT_EQ(off, cursor);  // contiguous, in file order
    EXPECT_GT(len, 0);
    ASSERT_LT(agg, planner.domains().size());
    const Extent& dom = planner.domains()[agg];
    EXPECT_GE(off, dom.offset);
    EXPECT_LE(off + len, dom.end());
    EXPECT_EQ(round, (off - dom.offset) / 65536);
    cursor += len;
    total += len;
  }
  EXPECT_EQ(total, 1000000);
}

TEST(RoundPlanner, HoleHeavyPatternKeepsRoundAndDomainMaths) {
  // Sparse extents with large holes; cursor must skip domains cleanly.
  RoundPlanner planner(Extent{0, 64 * MiB}, one_per_node(4), 4 * MiB,
                       std::nullopt, /*two_level=*/false);
  ASSERT_EQ(planner.domains().size(), 4u);
  std::vector<Extent> sparse;
  for (Offset off = 0; off < 64 * MiB; off += 8 * MiB) {
    sparse.push_back(Extent{off, 4 * KiB});  // 4 KiB every 8 MiB
  }
  const auto windows = collect(planner, sparse);
  ASSERT_EQ(windows.size(), sparse.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto& [round, agg, off, len] = windows[i];
    EXPECT_EQ(off, sparse[i].offset);
    EXPECT_EQ(len, sparse[i].length);
    const Extent& dom = planner.domains()[agg];
    EXPECT_TRUE(dom.contains(off));
  }
}

TEST(RoundPlanner, RewindAllowsASecondSortedPass) {
  RoundPlanner planner(Extent{0, 8 * MiB}, one_per_node(2), 1 * MiB,
                       std::nullopt, /*two_level=*/false);
  const auto first = collect(planner, {Extent{5 * MiB, 1 * MiB}});
  planner.rewind();
  const auto second = collect(planner, {Extent{1 * MiB, 1 * MiB}});
  EXPECT_FALSE(first.empty());
  EXPECT_FALSE(second.empty());
  EXPECT_EQ(std::get<2>(second.front()), 1 * MiB);
}

TEST(RoundPlanner, MatchesTheLegacyPlanningLoop) {
  // The planner replaced an inline loop in write_coll/read_coll; replicate
  // that loop here and require identical (round, aggregator, window) splits.
  const Extent region{4097, 33 * MiB + 131};
  const std::size_t aggregators = 5;
  const Offset cb = 3 * MiB;
  const std::optional<Offset> align = 4 * MiB;  // beegfs stripe alignment

  std::vector<Extent> extents;
  for (Offset off = region.offset; off < region.end(); off += 2 * MiB + 7) {
    extents.push_back(
        Extent{off, std::min<Offset>(1 * MiB + 13, region.end() - off)});
  }

  RoundPlanner planner(region, one_per_node(aggregators), cb,
                       align, /*two_level=*/false);
  const auto windows = collect(planner, extents);

  const std::vector<Extent> domains =
      partition_file_domains(region, aggregators, align);
  EXPECT_EQ(domains, planner.domains());
  std::vector<Window> legacy;
  std::size_t a = 0;
  for (const Extent& e : extents) {
    Offset cursor = e.offset;
    while (cursor < e.end()) {
      while (a + 1 < domains.size() &&
             (domains[a].empty() || cursor >= domains[a].end())) {
        ++a;
      }
      const Extent& dom = domains[a];
      const Offset round = (cursor - dom.offset) / cb;
      const Offset window_end =
          std::min(dom.offset + (round + 1) * cb, dom.end());
      const Offset take = std::min(e.end(), window_end) - cursor;
      legacy.emplace_back(round, a, cursor, take);
      cursor += take;
    }
  }
  EXPECT_EQ(windows, legacy);

  Offset max_round = -1;
  for (const auto& w : windows) max_round = std::max(max_round, std::get<0>(w));
  EXPECT_LT(max_round, planner.rounds());
}

TEST(RoundPlanner, NodeAwarePlanIsFlatWhenDisabled) {
  // e10_two_level_flag=disable must reproduce the flat plan bit-for-bit.
  const Extent region{4097, 33 * MiB + 131};
  const std::vector<std::size_t> nodes{0, 0, 1, 1, 2};  // rpn > 1
  RoundPlanner flat(region, one_per_node(nodes.size()), 3 * MiB,
                    std::nullopt, /*two_level=*/false);
  RoundPlanner off(region, nodes, 3 * MiB, std::nullopt, /*two_level=*/false);
  EXPECT_EQ(off.domains(), flat.domains());
  EXPECT_EQ(off.rounds(), flat.rounds());
}

TEST(RoundPlanner, NodeAwarePlanIsFlatWithOneRankPerNode) {
  // Every aggregator on its own node: nothing to gather intra-node, so the
  // two-level constructor must fall back to the flat split.
  const Extent region{0, 17 * MiB + 513};
  const std::vector<std::size_t> nodes{0, 1, 2, 3};
  RoundPlanner flat(region, one_per_node(nodes.size()), 4 * MiB,
                    std::nullopt, /*two_level=*/false);
  RoundPlanner two(region, nodes, 4 * MiB, std::nullopt, /*two_level=*/true);
  EXPECT_EQ(two.domains(), flat.domains());
  EXPECT_EQ(two.rounds(), flat.rounds());
}

TEST(RoundPlanner, NodeAwarePlanDelegatesToStripeAlignmentWhenSet) {
  // align_unit set: the BeeGFS stripe-aligned flat split wins over the
  // node grouping (no stripe false-sharing trumps locality).
  const Extent region{4097, 33 * MiB + 131};
  const std::vector<std::size_t> nodes{0, 0, 0, 1, 1};
  RoundPlanner flat(region, one_per_node(nodes.size()), 3 * MiB,
                    4 * MiB, /*two_level=*/false);
  RoundPlanner two(region, nodes, 3 * MiB, 4 * MiB, /*two_level=*/true);
  EXPECT_EQ(two.domains(), flat.domains());
  EXPECT_EQ(two.rounds(), flat.rounds());
}

TEST(RoundPlanner, NodeAwareDomainsCoverRegionExactlyUnevenNodes) {
  // Uneven node groups and a tiny collective buffer: the node-aware domains
  // must still tile the region — contiguous, ascending, every byte once —
  // and stay cb-block-quantized except at the file tail.
  const Extent region{12345, 5 * MiB + 6789};
  const std::vector<std::size_t> nodes{0, 0, 0, 1, 1, 2};
  const Offset cb = 256 * KiB;
  const auto domains = partition_node_aware_domains(region, nodes, cb,
                                                    std::nullopt);
  ASSERT_EQ(domains.size(), nodes.size());
  Offset cursor = region.offset;
  for (std::size_t i = 0; i < domains.size(); ++i) {
    EXPECT_EQ(domains[i].offset, cursor);
    if (i + 1 < domains.size()) {
      // Interior boundaries land on whole collective-buffer blocks.
      EXPECT_EQ(domains[i].length % cb, 0) << "domain " << i;
    }
    cursor = domains[i].end();
  }
  EXPECT_EQ(cursor, region.end());

  // The planner's round windows over those domains must partition the
  // region exactly, in file order.
  RoundPlanner planner(region, nodes, cb, std::nullopt, /*two_level=*/true);
  EXPECT_EQ(planner.domains(), domains);
  const auto windows = collect(planner, {region});
  Offset pos = region.offset;
  for (const auto& [round, agg, off, len] : windows) {
    EXPECT_EQ(off, pos);
    EXPECT_GT(len, 0);
    ASSERT_LT(agg, domains.size());
    EXPECT_GE(off, domains[agg].offset);
    EXPECT_LE(off + len, domains[agg].end());
    EXPECT_EQ(round, (off - domains[agg].offset) / cb);
    EXPECT_LE(len, cb);  // no window exceeds a collective buffer
    pos += len;
  }
  EXPECT_EQ(pos, region.end());
}

TEST(RoundPlanner, NodeAwareSharesAreProportionalToGroupSize) {
  // 3 aggregators on node 0, 1 on node 1: node 0's group serves a
  // contiguous span roughly three times node 1's, in whole cb blocks.
  const Extent region{0, 16 * MiB};
  const std::vector<std::size_t> nodes{0, 0, 0, 1};
  const Offset cb = 1 * MiB;
  const auto domains = partition_node_aware_domains(region, nodes, cb,
                                                    std::nullopt);
  ASSERT_EQ(domains.size(), 4u);
  const Offset node0 = domains[0].length + domains[1].length +
                       domains[2].length;
  const Offset node1 = domains[3].length;
  EXPECT_EQ(node0, 12 * MiB);
  EXPECT_EQ(node1, 4 * MiB);
  // Same-node aggregators form one contiguous span.
  EXPECT_EQ(domains[0].end(), domains[1].offset);
  EXPECT_EQ(domains[1].end(), domains[2].offset);
}

TEST(RoundPlanner, NodeAwareTinyRegionLeavesSomeDomainsEmpty) {
  // Region smaller than one cb block per aggregator: some domains collapse
  // to empty, but coverage and ordering of the rest still hold.
  const Extent region{512, 100 * KiB};
  const std::vector<std::size_t> nodes{0, 0, 1, 1};
  const auto domains = partition_node_aware_domains(region, nodes, 64 * KiB,
                                                    std::nullopt);
  ASSERT_EQ(domains.size(), 4u);
  Offset total = 0;
  Offset cursor = region.offset;
  for (const Extent& dom : domains) {
    if (!dom.empty()) {
      EXPECT_EQ(dom.offset, cursor);
      cursor = dom.end();
    }
    total += dom.length;
  }
  EXPECT_EQ(total, region.length);
  EXPECT_EQ(cursor, region.end());
}

}  // namespace
}  // namespace e10::adio
