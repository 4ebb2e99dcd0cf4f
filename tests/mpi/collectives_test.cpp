#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "mpi/world.h"

namespace e10::mpi {
namespace {

using namespace e10::units;

struct Fixture {
  Fixture(std::size_t nodes, std::size_t ppn)
      : fabric(nodes, net::FabricParams{}),
        world(engine, fabric, Topology(nodes, ppn)) {}
  sim::Engine engine;
  net::Fabric fabric;
  World world;
};

TEST(Collectives, BarrierSynchronizesToSlowest) {
  Fixture f(4, 1);
  std::vector<Time> leave(4, -1);
  f.world.launch([&](Comm comm) {
    comm.engine().delay(seconds(comm.rank() + 1));
    comm.barrier();
    leave[static_cast<std::size_t>(comm.rank())] = comm.engine().now();
  });
  f.engine.run();
  for (const Time t : leave) {
    EXPECT_GE(t, seconds(4));  // slowest rank arrived at 4 s
    EXPECT_LT(t, seconds(4) + milliseconds(1));
  }
}

TEST(Collectives, AllreduceMaxAndSum) {
  Fixture f(8, 1);
  std::vector<Offset> maxes(8), sums(8);
  f.world.launch([&](Comm comm) {
    const Offset mine = comm.rank() * 10;
    maxes[static_cast<std::size_t>(comm.rank())] = comm.allreduce(
        mine, [](Offset a, Offset b) { return std::max(a, b); });
    sums[static_cast<std::size_t>(comm.rank())] =
        comm.allreduce(mine, [](Offset a, Offset b) { return a + b; });
  });
  f.engine.run();
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(maxes[static_cast<std::size_t>(r)], 70);
    EXPECT_EQ(sums[static_cast<std::size_t>(r)], 280);
  }
}

TEST(Collectives, AllgatherOrderedByRank) {
  Fixture f(4, 2);
  std::vector<std::vector<int>> results(8);
  f.world.launch([&](Comm comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        *comm.allgather(comm.rank() * comm.rank());
  });
  f.engine.run();
  for (const auto& v : results) {
    ASSERT_EQ(v.size(), 8u);
    for (int r = 0; r < 8; ++r) EXPECT_EQ(v[static_cast<std::size_t>(r)], r * r);
  }
}

TEST(Collectives, AlltoallTransposes) {
  Fixture f(4, 1);
  std::vector<std::vector<std::pair<int, int>>> results(4);
  f.world.launch([&](Comm comm) {
    // Rank r sends value 100*r + d to rank d.
    std::vector<std::pair<int, int>> send;
    for (int d = 0; d < 4; ++d) send.emplace_back(d, 100 * comm.rank() + d);
    comm.alltoall(std::move(send),
                  &results[static_cast<std::size_t>(comm.rank())]);
  });
  f.engine.run();
  for (int r = 0; r < 4; ++r) {
    const auto& got = results[static_cast<std::size_t>(r)];
    ASSERT_EQ(got.size(), 4u);
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(got[static_cast<std::size_t>(s)], std::make_pair(s, 100 * s + r));
    }
  }
}

TEST(Collectives, AlltoallGroupsBySourceWhateverTheArrivalOrder) {
  Fixture f(6, 1);
  std::vector<std::vector<std::pair<int, std::string>>> results(6);
  f.world.launch([&](Comm comm) {
    // Higher ranks arrive first; each rank writes to itself and to the
    // next two ranks, in descending destination order.
    comm.engine().delay(microseconds(10 * (comm.size() - comm.rank())));
    std::vector<std::pair<int, std::string>> send;
    for (int k = 2; k >= 0; --k) {
      const int dst = (comm.rank() + k) % comm.size();
      send.emplace_back(dst, std::to_string(comm.rank()) + ">" +
                                 std::to_string(dst));
    }
    comm.alltoall(std::move(send),
                  &results[static_cast<std::size_t>(comm.rank())]);
  });
  f.engine.run();
  for (int r = 0; r < 6; ++r) {
    const auto& got = results[static_cast<std::size_t>(r)];
    std::vector<int> want_src;
    for (int k = 0; k < 3; ++k) want_src.push_back((r - k + 6) % 6);
    std::sort(want_src.begin(), want_src.end());
    ASSERT_EQ(got.size(), 3u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, want_src[i]);
      EXPECT_EQ(got[i].second,
                std::to_string(want_src[i]) + ">" + std::to_string(r));
    }
  }
}

TEST(Collectives, AlltoallCostsTheDenseFormula) {
  // stages·α + ser(bytes_each·p), however sparse the send lists are.
  constexpr int kRanks = 8;
  constexpr Offset kBytesEach = 64;
  const MpiParams params;
  const Time expected =
      3 * params.coll_alpha +  // ceil(log2 8) tree stages
      static_cast<Time>(static_cast<double>(kBytesEach * kRanks) * 1e9 /
                        static_cast<double>(params.coll_bytes_per_second));
  Fixture f(kRanks, 1);
  std::vector<Time> leave(kRanks, -1);
  f.world.launch([&](Comm comm) {
    std::vector<std::pair<int, Offset>> send;
    if (comm.rank() % 2 == 0) send.emplace_back(0, 7);
    std::vector<std::pair<int, Offset>> recv;
    comm.alltoall(std::move(send), &recv, kBytesEach);
    leave[static_cast<std::size_t>(comm.rank())] = comm.engine().now();
  });
  f.engine.run();
  for (const Time t : leave) EXPECT_EQ(t, expected);
}

TEST(Collectives, AlltoallRejectsBadDestinations) {
  for (const int bad : {-1, 3}) {
    Fixture f(3, 1);
    f.world.launch([&](Comm comm) {
      std::vector<std::pair<int, int>> send{{bad, 1}};
      comm.alltoall(std::move(send), nullptr);
    });
    EXPECT_THROW(f.engine.run(), std::logic_error) << "destination " << bad;
  }
  Fixture f(3, 1);
  f.world.launch([&](Comm comm) {
    std::vector<std::pair<int, int>> send{{1, 1}, {2, 2}, {1, 3}};
    comm.alltoall(std::move(send), nullptr);
  });
  EXPECT_THROW(f.engine.run(), std::logic_error);
}

TEST(Collectives, AlltoallMixedWithAnotherCollectiveThrows) {
  Fixture f(2, 1);
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      comm.alltoall(std::vector<std::pair<int, int>>{{1, 1}}, nullptr);
    } else {
      (void)comm.allgather(1);
    }
  });
  try {
    f.engine.run();
    FAIL() << "mismatched collectives ran to completion";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("collective mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Collectives, AlltoallWithoutOutputStillPays) {
  Fixture f(4, 1);
  std::vector<Time> leave(4, -1);
  std::vector<std::pair<int, int>> at_zero;
  f.world.launch([&](Comm comm) {
    comm.engine().delay(microseconds(comm.rank() == 3 ? 50 : 0));
    std::vector<std::pair<int, int>> send{{0, comm.rank()}};
    // Only rank 0 receives anything, so only it asks for its group.
    comm.alltoall(std::move(send), comm.rank() == 0 ? &at_zero : nullptr);
    leave[static_cast<std::size_t>(comm.rank())] = comm.engine().now();
  });
  f.engine.run();
  ASSERT_EQ(at_zero.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(at_zero[static_cast<std::size_t>(s)], std::make_pair(s, s));
  }
  // Everyone, output or not, leaves together after the straggler.
  for (const Time t : leave) {
    EXPECT_GT(t, microseconds(50));
    EXPECT_EQ(t, leave[0]);
  }
}

TEST(Collectives, BcastDeliversRootValue) {
  Fixture f(4, 1);
  std::vector<std::string> results(4);
  f.world.launch([&](Comm comm) {
    const std::string mine =
        comm.rank() == 2 ? std::string("root-data") : std::string("junk");
    results[static_cast<std::size_t>(comm.rank())] =
        comm.bcast(mine, /*root=*/2, 9);
  });
  f.engine.run();
  for (const auto& s : results) EXPECT_EQ(s, "root-data");
}

TEST(Collectives, AllreduceFoldsOnceInRankOrder) {
  // A non-commutative op that counts its calls: the fold runs once, over
  // ranks 0..p-1 in order, whatever order the ranks arrive in.
  constexpr int kRanks = 6;
  Fixture f(kRanks, 1);
  int calls = 0;
  std::vector<std::string> results(kRanks);
  f.world.launch([&](Comm comm) {
    comm.engine().delay(microseconds(kRanks - comm.rank()));
    results[static_cast<std::size_t>(comm.rank())] = comm.allreduce(
        std::to_string(comm.rank()),
        [&calls](const std::string& a, const std::string& b) {
          ++calls;
          return a + b;
        },
        8);
  });
  f.engine.run();
  EXPECT_EQ(calls, kRanks - 1);
  for (const std::string& s : results) EXPECT_EQ(s, "012345");
}

TEST(Collectives, AllgatherSharesOneBuffer) {
  Fixture f(4, 2);
  std::vector<std::shared_ptr<const std::vector<int>>> results(8);
  f.world.launch([&](Comm comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        comm.allgather(comm.rank() + 100);
  });
  f.engine.run();
  ASSERT_NE(results[0], nullptr);
  for (const auto& shared : results) EXPECT_EQ(shared.get(), results[0].get());
  EXPECT_EQ(*results[0], (std::vector<int>{100, 101, 102, 103, 104, 105, 106,
                                           107}));
}

TEST(Collectives, CollectiveTypeMismatchThrows) {
  Fixture f(2, 1);
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      (void)comm.allgather(1);
    } else {
      (void)comm.allgather(1.0);
    }
  });
  try {
    f.engine.run();
    FAIL() << "mismatched value types ran to completion";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("different value types"),
              std::string::npos)
        << e.what();
  }
}

TEST(Collectives, LargerPayloadCostsMore) {
  auto barrier_like_cost = [](Offset bytes) {
    Fixture f(16, 1);
    Time done = 0;
    f.world.launch([&, bytes](Comm comm) {
      (void)comm.allreduce(Offset{1}, [](Offset a, Offset b) { return a + b; },
                           bytes);
      if (comm.rank() == 0) done = comm.engine().now();
    });
    f.engine.run();
    return done;
  };
  EXPECT_GT(barrier_like_cost(4 * MiB), barrier_like_cost(8));
}

TEST(Collectives, MismatchedCollectivesThrow) {
  Fixture f(2, 1);
  f.world.launch([&](Comm comm) {
    if (comm.rank() == 0) {
      comm.barrier();
    } else {
      (void)comm.allgather(1);
    }
  });
  EXPECT_THROW(f.engine.run(), std::logic_error);
}

TEST(Collectives, RepeatedBarriersStayMatched) {
  Fixture f(3, 1);
  std::vector<int> rounds(3, 0);
  f.world.launch([&](Comm comm) {
    for (int i = 0; i < 10; ++i) {
      comm.engine().delay(microseconds(comm.rank() * 7 + 1));
      comm.barrier();
      ++rounds[static_cast<std::size_t>(comm.rank())];
    }
  });
  f.engine.run();
  EXPECT_EQ(rounds, (std::vector<int>{10, 10, 10}));
}

TEST(CommSplit, GroupsByColor) {
  Fixture f(4, 2);  // 8 ranks
  std::vector<int> new_rank(8, -9);
  std::vector<int> new_size(8, -9);
  f.world.launch([&](Comm comm) {
    const int color = comm.rank() % 2;
    const Comm sub = comm.split(color, comm.rank());
    new_rank[static_cast<std::size_t>(comm.rank())] = sub.rank();
    new_size[static_cast<std::size_t>(comm.rank())] = sub.size();
    // Sub-communicator collectives only involve the group.
    const auto members = sub.allgather(comm.rank());
    for (const int m : *members) EXPECT_EQ(m % 2, color);
  });
  f.engine.run();
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(new_size[static_cast<std::size_t>(r)], 4);
    EXPECT_EQ(new_rank[static_cast<std::size_t>(r)], r / 2);
  }
}

TEST(CommSplit, KeyControlsOrdering) {
  Fixture f(4, 1);
  std::vector<int> new_rank(4, -1);
  f.world.launch([&](Comm comm) {
    // Reverse ordering via key.
    const Comm sub = comm.split(0, comm.size() - comm.rank());
    new_rank[static_cast<std::size_t>(comm.rank())] = sub.rank();
  });
  f.engine.run();
  EXPECT_EQ(new_rank, (std::vector<int>{3, 2, 1, 0}));
}

TEST(CommSplit, NegativeColorExcluded) {
  Fixture f(4, 1);
  int excluded = 0;
  f.world.launch([&](Comm comm) {
    const Comm sub = comm.split(comm.rank() == 0 ? -1 : 0, 0);
    if (!sub.valid()) ++excluded;
  });
  f.engine.run();
  EXPECT_EQ(excluded, 1);
}

TEST(CommDup, IndependentMatchingContext) {
  Fixture f(2, 1);
  int got = 0;
  f.world.launch([&](Comm comm) {
    const Comm dup = comm.dup();
    if (comm.rank() == 0) {
      comm.send(1, 0, 111, 4);
      dup.send(1, 0, 222, 4);
    } else {
      // Receive on dup first: must get the dup message, not the world one.
      got = std::any_cast<int>(dup.recv(0, 0).payload);
      (void)comm.recv(0, 0);
    }
  });
  f.engine.run();
  EXPECT_EQ(got, 222);
}

}  // namespace
}  // namespace e10::mpi
