// Two-phase collective write: virtual-time pins. One fixed interleaved
// collective write over 8 ranks, run through the flat synchronous, flat
// pipelined, two-level and romio_cb_write=disable paths, and once pipelined
// through the NVM cache. The constants are exact; any change to the write
// path's modeled cost, or to how its in-flight writes are joined, shows up
// here.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "mpiio/file.h"
#include "obs/metrics.h"
#include "prof/profiler.h"
#include "workloads/testbed.h"

namespace e10::mpiio {
namespace {

using namespace e10::units;
using adio::amode::create;
using adio::amode::rdwr;
using workloads::Platform;
using workloads::small_testbed;

struct WritePin {
  Time end = 0;  // latest rank's return from write_at_all
  std::array<Time, prof::kPhaseCount> phases{};  // summed over ranks
  std::int64_t pipeline_writes = 0;
  // Join accounting of the aggregators' in-flight writes (coll.pipeline.*)
  // and of the sync threads' stream window (cache.sync.streams.*).
  std::int64_t pipeline_stalls = 0;
  std::int64_t pipeline_write_ns = 0;
  std::int64_t pipeline_hidden_ns = 0;
  std::int64_t pipeline_stall_ns = 0;
  std::int64_t sync_write_ns = 0;
  std::int64_t sync_hidden_ns = 0;
  std::int64_t sync_stalls = 0;
  std::int64_t sync_stall_ns = 0;
  std::int64_t tl_rounds = 0;
  std::int64_t tl_intra_msgs = 0;
  std::int64_t tl_inter_msgs = 0;
};

WritePin pinned_strided_write(const char* cb_write, const char* pipeline,
                              const char* two_level, bool cached = false) {
  Platform p(small_testbed());
  constexpr Offset kChunk = 16 * KiB;
  constexpr int kChunks = 8;
  WritePin pin;
  p.launch([&](mpi::Comm comm) {
    mpi::Info info;
    info.set("romio_cb_write", cb_write);
    info.set("cb_buffer_size", "65536");  // several rounds per aggregator
    info.set("e10_pipeline_flag", pipeline);
    info.set("e10_two_level_flag", two_level);
    if (cached) {
      info.set("e10_cache", "enable");
      info.set("e10_cache_path", "/scratch");
      info.set("e10_cache_flush_flag", "flush_immediate");
      // 16 KiB staging buffers: each sync thread's drain needs more
      // dispatches than it has streams, so its joins stall too.
      info.set("ind_wr_buffer_size", "16384");
    }
    auto file = File::open(p.ctx, comm, "/pfs/wpin", create | rdwr, info);
    ASSERT_TRUE(file.is_ok());
    const auto type =
        mpi::FlatType::vector(kChunks, kChunk, kChunk * comm.size());
    ASSERT_TRUE(file.value().set_view(comm.rank() * kChunk, type));
    comm.barrier();
    std::array<Time, prof::kPhaseCount> before{};
    for (std::size_t ph = 0; ph < prof::kPhaseCount; ++ph) {
      before[ph] = p.profiler.rank_total(comm.rank(), prof::Phase(ph));
    }
    const Status written = file.value().write_at_all(
        0, DataView::synthetic(61, comm.rank() * kChunk, kChunks * kChunk));
    pin.end = std::max(pin.end, comm.engine().now());
    for (std::size_t ph = 0; ph < prof::kPhaseCount; ++ph) {
      pin.phases[ph] +=
          p.profiler.rank_total(comm.rank(), prof::Phase(ph)) - before[ph];
    }
    ASSERT_TRUE(written);
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  namespace names = obs::names;
  pin.pipeline_writes = p.metrics.counter_value(names::kPipelineWrites);
  pin.pipeline_stalls = p.metrics.counter_value(names::kPipelineStalls);
  pin.pipeline_write_ns = p.metrics.counter_value(names::kPipelineWriteNs);
  pin.pipeline_hidden_ns = p.metrics.counter_value(names::kPipelineHiddenNs);
  pin.pipeline_stall_ns = p.metrics.counter_value(names::kPipelineStallNs);
  pin.sync_write_ns = p.metrics.counter_value(names::kSyncStreamWriteNs);
  pin.sync_hidden_ns = p.metrics.counter_value(names::kSyncStreamHiddenNs);
  pin.sync_stalls = p.metrics.counter_value(names::kSyncStreamStalls);
  pin.sync_stall_ns = p.metrics.counter_value(names::kSyncStreamStallNs);
  pin.tl_rounds = p.metrics.counter_value(names::kTwoLevelRounds);
  pin.tl_intra_msgs = p.metrics.counter_value(names::kTwoLevelIntraMsgs);
  pin.tl_inter_msgs = p.metrics.counter_value(names::kTwoLevelInterMsgs);
  return pin;
}

void expect_pin(const WritePin& pin, Time end,
                const std::vector<std::pair<prof::Phase, Time>>& nonzero) {
  EXPECT_EQ(pin.end, end);
  std::array<Time, prof::kPhaseCount> want{};
  for (const auto& [phase, total] : nonzero) {
    want[static_cast<std::size_t>(phase)] = total;
  }
  for (std::size_t ph = 0; ph < prof::kPhaseCount; ++ph) {
    EXPECT_EQ(pin.phases[ph], want[ph]) << prof::phase_name(prof::Phase(ph));
  }
}

// Exact modeled cost of the write path. A change that means to move the
// write model says so and updates these; any other change must keep them.
TEST(CollWritePin, FlatSynchronous) {
  const WritePin pin = pinned_strided_write("enable", "disable", "disable");
  expect_pin(pin, 5064164,
             {{prof::Phase::offset_exchange, 72280},
              {prof::Phase::shuffle_all2all, 3713716},
              {prof::Phase::exchange, 778594},
              {prof::Phase::write_contig, 2216308},
              {prof::Phase::post_write, 1224974}});
  EXPECT_EQ(pin.pipeline_writes, 16);
  EXPECT_EQ(pin.tl_rounds, 0);
  EXPECT_EQ(pin.tl_intra_msgs, 0);
  EXPECT_EQ(pin.tl_inter_msgs, 0);
}

TEST(CollWritePin, FlatPipelined) {
  const WritePin pin = pinned_strided_write("enable", "enable", "disable");
  expect_pin(pin, 4807142,
             {{prof::Phase::offset_exchange, 72280},
              {prof::Phase::shuffle_all2all, 1248143},
              {prof::Phase::exchange, 908722},
              {prof::Phase::write_contig, 1568710},
              {prof::Phase::post_write, 2151841}});
  EXPECT_EQ(pin.pipeline_writes, 16);
  EXPECT_EQ(pin.pipeline_stalls, 15);
  EXPECT_EQ(pin.pipeline_write_ns, 3667688);
  EXPECT_EQ(pin.pipeline_hidden_ns, 2098978);
  EXPECT_EQ(pin.pipeline_stall_ns, 1568710);
  EXPECT_EQ(pin.tl_rounds, 0);
  EXPECT_EQ(pin.tl_intra_msgs, 0);
  EXPECT_EQ(pin.tl_inter_msgs, 0);
}

// Pipelined through the cache: the aggregators' writes land in the NVM
// cache, and each sync thread drains them to the PFS over its stream
// window. Both joins are pinned.
TEST(CollWritePin, CachedPipelined) {
  const WritePin pin =
      pinned_strided_write("enable", "enable", "disable", /*cached=*/true);
  expect_pin(pin, 5042398,
             {{prof::Phase::offset_exchange, 72280},
              {prof::Phase::shuffle_all2all, 1519703},
              {prof::Phase::exchange, 640269},
              {prof::Phase::write_contig, 3066857},
              {prof::Phase::post_write, 2484635}});
  EXPECT_EQ(pin.pipeline_writes, 16);
  EXPECT_EQ(pin.pipeline_stalls, 16);
  EXPECT_EQ(pin.pipeline_write_ns, 5902755);
  EXPECT_EQ(pin.pipeline_hidden_ns, 2835898);
  EXPECT_EQ(pin.pipeline_stall_ns, 3066857);
  EXPECT_EQ(pin.sync_write_ns, 3724853740);
  EXPECT_EQ(pin.sync_hidden_ns, 2960018613);
  EXPECT_EQ(pin.sync_stalls, 48);
  EXPECT_EQ(pin.sync_stall_ns, 764835127);
  EXPECT_EQ(pin.tl_rounds, 0);
}

TEST(CollWritePin, TwoLevel) {
  const WritePin pin = pinned_strided_write("enable", "enable", "enable");
  expect_pin(pin, 4805656,
             {{prof::Phase::offset_exchange, 72280},
              {prof::Phase::shuffle_intra, 109910},
              {prof::Phase::shuffle_inter, 1049562},
              {prof::Phase::write_contig, 1585208},
              {prof::Phase::post_write, 3120848}});
  EXPECT_EQ(pin.pipeline_writes, 16);
  EXPECT_EQ(pin.tl_rounds, 4);
  EXPECT_EQ(pin.tl_intra_msgs, 16);
  EXPECT_EQ(pin.tl_inter_msgs, 44);
}

TEST(CollWritePin, DisabledCbWriteFallback) {
  const WritePin pin = pinned_strided_write("disable", "enable", "disable");
  expect_pin(pin, 70740034,
             {{prof::Phase::offset_exchange, 72280},
              {prof::Phase::write_contig, 4459895},
              {prof::Phase::post_write, 188306470},
              {prof::Phase::read_contig, 340574187}});
  EXPECT_EQ(pin.pipeline_writes, 0);
  EXPECT_EQ(pin.tl_rounds, 0);
  EXPECT_EQ(pin.tl_intra_msgs, 0);
  EXPECT_EQ(pin.tl_inter_msgs, 0);
}

}  // namespace
}  // namespace e10::mpiio
