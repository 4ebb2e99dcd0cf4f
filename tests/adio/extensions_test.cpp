// Tests for the post-paper extensions: cache reads (the paper's §VI future
// work) and the cb_config_list hint subset.
#include <gtest/gtest.h>

#include "common/units.h"
#include "mpiio/file.h"
#include "adio/aggregation.h"
#include "workloads/testbed.h"

namespace e10::adio {
namespace {

using namespace e10::units;
using mpiio::File;
using workloads::Platform;
using workloads::small_testbed;

mpi::Info read_cache_info() {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("cb_buffer_size", "262144");
  info.set("e10_cache", "enable");
  info.set("e10_cache_path", "/scratch");
  info.set("e10_cache_flush_flag", "flush_onclose");  // keep data in cache
  info.set("e10_cache_read", "enable");
  return info;
}

TEST(CacheRead, HintParsesAndEchoes) {
  mpi::Info info;
  info.set("e10_cache_read", "enable");
  const Hints h = Hints::parse(info).value();
  EXPECT_TRUE(h.e10_cache_read);
  EXPECT_EQ(h.to_info().get_or("e10_cache_read", ""), "enable");
  info.set("e10_cache_read", "sometimes");
  EXPECT_FALSE(Hints::parse(info).is_ok());
  EXPECT_FALSE(Hints().e10_cache_read);  // off by default, as in the paper
}

TEST(CacheRead, ServesFullyCachedExtentWithoutPfs) {
  Platform p(small_testbed());
  std::uint64_t pfs_reads = 0;
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/cread",
                           amode::create | amode::rdwr, read_cache_info());
    ASSERT_TRUE(file.is_ok());
    // Aggregators cache their domain; with flush_onclose nothing reaches
    // the PFS yet, so reading own cached data MUST come from the cache.
    const Offset block = 64 * KiB;
    const Offset off = comm.rank() * block;
    ASSERT_TRUE(write_strided_coll(
        *file.value().raw(),
        {mpi::IoPiece{Extent{off, block}, DataView::synthetic(5, off, block)}}));
    comm.barrier();
    if (file.value().raw()->is_aggregator()) {
      // This aggregator's domain got cached on this rank; re-read part of it.
      const auto& cache = file.value().raw()->cache;
      ASSERT_NE(cache, nullptr);
      auto got = read_contig(*file.value().raw(), off, 1 * KiB);
      ASSERT_TRUE(got.is_ok());
      for (Offset i = 0; i < 1 * KiB; i += 97) {
        EXPECT_EQ(got.value().byte_at(i), DataView::pattern_byte(5, off + i));
      }
    }
    if (comm.rank() == 0) pfs_reads = p.pfs.stats().reads;
    comm.barrier();
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  EXPECT_EQ(pfs_reads, 0u);  // never touched the global file
}

TEST(CacheRead, PartiallyCachedExtentFallsBackToPfs) {
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    mpi::Info info = read_cache_info();
    info.set("e10_cache_flush_flag", "flush_immediate");
    auto file = File::open(p.ctx, comm, "/pfs/cfall",
                           amode::create | amode::rdwr, info);
    ASSERT_TRUE(file.is_ok());
    const Offset block = 64 * KiB;
    const Offset off = comm.rank() * block;
    ASSERT_TRUE(write_strided_coll(
        *file.value().raw(),
        {mpi::IoPiece{Extent{off, block}, DataView::synthetic(6, off, block)}}));
    ASSERT_TRUE(file.value().sync());
    // Read past the cached region: must fall back to the PFS and succeed.
    const auto got =
        file.value().read_at(0, static_cast<Offset>(comm.size()) * block);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value().size(), static_cast<Offset>(comm.size()) * block);
    EXPECT_EQ(got.value().byte_at(10), DataView::pattern_byte(6, 10));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  EXPECT_GT(p.pfs.stats().reads, 0u);
}

TEST(CacheRead, ShadowedWriteReturnsFreshData) {
  // Writing the same extent twice: the cache must serve the newer bytes.
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/cshadow",
                           amode::create | amode::rdwr, read_cache_info());
    ASSERT_TRUE(file.is_ok());
    const Offset block = 32 * KiB;
    const Offset off = comm.rank() * block;
    for (const std::uint64_t seed : {11ull, 22ull}) {
      ASSERT_TRUE(write_strided_coll(
          *file.value().raw(),
          {mpi::IoPiece{Extent{off, block},
                        DataView::synthetic(seed, off, block)}}));
    }
    if (file.value().raw()->is_aggregator()) {
      auto got = read_contig(*file.value().raw(), off, block);
      ASSERT_TRUE(got.is_ok());
      EXPECT_EQ(got.value().byte_at(7), DataView::pattern_byte(22, off + 7));
    }
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(CacheRead, DisabledByDefaultGoesToPfs) {
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    mpi::Info info = read_cache_info();
    info.erase("e10_cache_read");
    info.set("e10_cache_flush_flag", "flush_immediate");
    auto file = File::open(p.ctx, comm, "/pfs/cdef",
                           amode::create | amode::rdwr, info);
    ASSERT_TRUE(file.is_ok());
    ASSERT_TRUE(file.value().write_at_all(
        comm.rank() * 16 * KiB,
        DataView::synthetic(8, comm.rank() * 16 * KiB, 16 * KiB)));
    ASSERT_TRUE(file.value().sync());
    (void)file.value().read_at(comm.rank() * 16 * KiB, 16 * KiB);
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  EXPECT_GT(p.pfs.stats().reads, 0u);  // reads hit the global file
}

TEST(CbConfigList, ParsesSubset) {
  mpi::Info info;
  info.set("cb_config_list", "*:2");
  EXPECT_EQ(Hints::parse(info).value().cb_config_per_node, 2);
  info.set("cb_config_list", "*:*");
  EXPECT_GT(Hints::parse(info).value().cb_config_per_node, 1 << 20);
  info.set("cb_config_list", "host1:2");
  EXPECT_FALSE(Hints::parse(info).is_ok());  // unsupported form
  info.set("cb_config_list", "*:0");
  EXPECT_FALSE(Hints::parse(info).is_ok());
  EXPECT_EQ(Hints().cb_config_per_node, 1);  // ROMIO default "*:1"
}

TEST(CbConfigList, CapsAggregatorsPerNode) {
  // small testbed: 4 nodes x 2 ranks. cb_nodes=8 with the default "*:1"
  // yields only 4 aggregators; "*:2" allows all 8.
  auto count_aggs = [](const char* config_list) {
    Platform p(small_testbed());
    std::size_t count = 0;
    p.launch([&](mpi::Comm comm) {
      mpi::Info info;
      info.set("cb_nodes", "8");
      if (config_list != nullptr) info.set("cb_config_list", config_list);
      auto file = File::open(p.ctx, comm, "/pfs/cbl",
                             amode::create | amode::rdwr, info);
      ASSERT_TRUE(file.is_ok());
      if (comm.rank() == 0) count = file.value().aggregators().size();
      ASSERT_TRUE(file.value().close());
    });
    p.run();
    return count;
  };
  EXPECT_EQ(count_aggs(nullptr), 4u);   // default *:1
  EXPECT_EQ(count_aggs("*:2"), 8u);
  EXPECT_EQ(count_aggs("*:*"), 8u);
}

TEST(CbConfigList, SelectAggregatorsHonorsCap) {
  sim::Engine engine;
  net::Fabric fabric(4, net::FabricParams{});
  mpi::World world(engine, fabric, mpi::Topology(4, 2));
  engine.spawn("probe", [&] {
    EXPECT_EQ(select_aggregators(world.comm(0), 8, 1).size(), 4u);
    EXPECT_EQ(select_aggregators(world.comm(0), 8, 2).size(), 8u);
    EXPECT_EQ(select_aggregators(world.comm(0), 3, 1),
              (std::vector<int>{0, 2, 4}));
    EXPECT_THROW((void)select_aggregators(world.comm(0), 4, 0),
                 std::logic_error);
  });
  engine.run();
}

TEST(Fallback, CacheOpenFailureRevertsToStandardOpen) {
  // Paper §III-A: "If for any reason the open of the cache file fails, the
  // implementation reverts to standard open." Inject failures on every
  // node's local FS and verify the write path still works, uncached.
  Platform p(small_testbed());
  fault::FaultInjector open_failures(p.engine);
  open_failures.force_failures(fault::FaultOp::lfs_open, 100);
  for (std::size_t node = 0; node < p.params().compute_nodes; ++node) {
    p.lfs.at(node).set_fault_injector(&open_failures);
  }
  p.launch([&](mpi::Comm comm) {
    mpi::Info info = read_cache_info();
    info.set("e10_cache_flush_flag", "flush_immediate");
    auto file = File::open(p.ctx, comm, "/pfs/nofallback",
                           amode::create | amode::rdwr, info);
    ASSERT_TRUE(file.is_ok());  // open succeeds despite the cache failing
    EXPECT_EQ(file.value().raw()->cache, nullptr);  // reverted
    const Offset block = 32 * KiB;
    const Offset off = comm.rank() * block;
    ASSERT_TRUE(file.value().write_at_all(
        off, DataView::synthetic(3, off, block)));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  const ByteStore* store = p.pfs.peek("/pfs/nofallback");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->byte_at(100), DataView::pattern_byte(3, 100));
  EXPECT_EQ(store->extent_end(), 8 * 32 * KiB);
}

TEST(Fallback, PartialCacheFailureStaysCorrect) {
  // Only some nodes lose their cache: mixed cached/uncached aggregators
  // must still produce a byte-exact file.
  Platform p(small_testbed());
  fault::FaultInjector open_failures(p.engine);
  open_failures.force_failures(fault::FaultOp::lfs_open, 100);
  p.lfs.at(0).set_fault_injector(&open_failures);
  p.lfs.at(2).set_fault_injector(&open_failures);
  p.launch([&](mpi::Comm comm) {
    mpi::Info info = read_cache_info();
    info.set("e10_cache_flush_flag", "flush_immediate");
    info.set("e10_cache_read", "disable");
    auto file = File::open(p.ctx, comm, "/pfs/mixed",
                           amode::create | amode::rdwr, info);
    ASSERT_TRUE(file.is_ok());
    const Offset block = 32 * KiB;
    const Offset off = comm.rank() * block;
    ASSERT_TRUE(file.value().write_at_all(
        off, DataView::synthetic(4, off, block)));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  const ByteStore* store = p.pfs.peek("/pfs/mixed");
  const Offset end = 8 * 32 * KiB;
  ASSERT_EQ(store->extent_end(), end);
  for (Offset pos = 0; pos < end; pos += 1021) {
    ASSERT_EQ(store->byte_at(pos), DataView::pattern_byte(4, pos)) << pos;
  }
}

}  // namespace
}  // namespace e10::adio
