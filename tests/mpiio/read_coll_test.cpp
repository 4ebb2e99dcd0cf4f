// Two-phase collective read: coverage beyond the round-trip smoke tests —
// holes, EOF clamping, interleaved views, romio_cb_read toggles, error
// agreement, and pinned virtual timings.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/units.h"
#include "fault/fault_plan.h"
#include "mpiio/file.h"
#include "prof/profiler.h"
#include "workloads/testbed.h"

namespace e10::mpiio {
namespace {

using namespace e10::units;
using adio::amode::create;
using adio::amode::rdwr;
using workloads::Platform;
using workloads::small_testbed;

mpi::Info coll_read_info() {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("romio_cb_read", "enable");
  info.set("cb_buffer_size", "131072");
  return info;
}

void write_rank_blocks(Platform& p, mpi::Comm comm, const std::string& path,
                       Offset block) {
  auto file = File::open(p.ctx, comm, path, create | rdwr, coll_read_info());
  ASSERT_TRUE(file.is_ok());
  ASSERT_TRUE(file.value().write_at_all(
      comm.rank() * block,
      DataView::synthetic(50, comm.rank() * block, block)));
  ASSERT_TRUE(file.value().close());
}

TEST(CollRead, EveryRankReadsWholeFile) {
  Platform p(small_testbed());
  constexpr Offset kBlock = 64 * KiB;
  p.launch([&](mpi::Comm comm) {
    write_rank_blocks(p, comm, "/pfs/whole", kBlock);
    auto file =
        File::open(p.ctx, comm, "/pfs/whole", rdwr, coll_read_info());
    ASSERT_TRUE(file.is_ok());
    const Offset total = static_cast<Offset>(comm.size()) * kBlock;
    const auto got = file.value().read_at_all(0, total);
    ASSERT_TRUE(got.is_ok());
    ASSERT_EQ(got.value().size(), total);
    for (Offset i = 0; i < total; i += 4099) {
      ASSERT_EQ(got.value().byte_at(i), DataView::pattern_byte(50, i));
    }
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(CollRead, InterleavedStridedReads) {
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    constexpr Offset kChunk = 8 * KiB;
    write_rank_blocks(p, comm, "/pfs/strided", kChunk * 8);
    auto file =
        File::open(p.ctx, comm, "/pfs/strided", rdwr, coll_read_info());
    ASSERT_TRUE(file.is_ok());
    // Each rank reads a strided view over the whole file: chunk r, r+P, ...
    const auto type = mpi::FlatType::vector(
        8, kChunk, kChunk * comm.size());
    ASSERT_TRUE(file.value().set_view(comm.rank() * kChunk, type));
    const auto got = file.value().read_all(8 * kChunk);
    ASSERT_TRUE(got.is_ok());
    ASSERT_EQ(got.value().size(), 8 * kChunk);
    // The j-th chunk of the stream is file offset (j*P + r) * kChunk.
    for (int j = 0; j < 8; ++j) {
      const Offset file_off =
          (static_cast<Offset>(j) * comm.size() + comm.rank()) * kChunk;
      ASSERT_EQ(got.value().byte_at(j * kChunk),
                DataView::pattern_byte(50, file_off))
          << "rank " << comm.rank() << " chunk " << j;
    }
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(CollRead, ReadPastEofZeroFills) {
  Platform p(small_testbed());
  constexpr Offset kBlock = 16 * KiB;
  p.launch([&](mpi::Comm comm) {
    write_rank_blocks(p, comm, "/pfs/eofr", kBlock);
    auto file = File::open(p.ctx, comm, "/pfs/eofr", rdwr, coll_read_info());
    ASSERT_TRUE(file.is_ok());
    const Offset total = static_cast<Offset>(comm.size()) * kBlock;
    // Request one block beyond EOF: delivered zero-padded.
    const auto got = file.value().read_at_all(total - kBlock, 2 * kBlock);
    ASSERT_TRUE(got.is_ok());
    ASSERT_EQ(got.value().size(), 2 * kBlock);
    EXPECT_EQ(got.value().byte_at(0),
              DataView::pattern_byte(50, total - kBlock));
    EXPECT_EQ(got.value().byte_at(kBlock + 5), std::byte{0});
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(CollRead, HolesReadAsZero) {
  Platform p(small_testbed());
  p.launch([&](mpi::Comm comm) {
    auto file = File::open(p.ctx, comm, "/pfs/holes", create | rdwr,
                           coll_read_info());
    ASSERT_TRUE(file.is_ok());
    // Only even ranks write; odd blocks are holes.
    const Offset block = 16 * KiB;
    if (comm.rank() % 2 == 0) {
      ASSERT_TRUE(file.value().write_at_all(
          comm.rank() * block,
          DataView::synthetic(51, comm.rank() * block, block)));
    } else {
      ASSERT_TRUE(file.value().write_at_all(0, DataView()));
    }
    ASSERT_TRUE(file.value().sync());
    const Offset total = static_cast<Offset>(comm.size()) * block;
    const auto got = file.value().read_at_all(0, total - block);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value().byte_at(0), DataView::pattern_byte(51, 0));
    EXPECT_EQ(got.value().byte_at(block + 7), std::byte{0});  // hole
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(CollRead, DisabledCbReadUsesIndependentPath) {
  Platform p(small_testbed());
  constexpr Offset kBlock = 16 * KiB;
  p.launch([&](mpi::Comm comm) {
    write_rank_blocks(p, comm, "/pfs/nocoll", kBlock);
    mpi::Info info;
    info.set("romio_cb_read", "disable");
    auto file = File::open(p.ctx, comm, "/pfs/nocoll", rdwr, info);
    ASSERT_TRUE(file.is_ok());
    const auto got = file.value().read_at_all(comm.rank() * kBlock, kBlock);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value().byte_at(3),
              DataView::pattern_byte(50, comm.rank() * kBlock + 3));
    ASSERT_TRUE(file.value().close());
  });
  p.run();
}

TEST(CollRead, ReadersShareAggregatorWindowReads) {
  // With collective reads, P ranks reading the whole file cost far fewer
  // PFS requests than P independent full-file reads.
  auto pfs_reads_with = [](const char* cb_read) {
    Platform p(small_testbed());
    constexpr Offset kBlock = 32 * KiB;
    p.launch([&, cb_read](mpi::Comm comm) {
      write_rank_blocks(p, comm, "/pfs/shared", kBlock);
      mpi::Info info;
      info.set("romio_cb_read", cb_read);
      info.set("cb_buffer_size", "262144");
      auto file = File::open(p.ctx, comm, "/pfs/shared", rdwr, info);
      ASSERT_TRUE(file.is_ok());
      const Offset total = static_cast<Offset>(comm.size()) * kBlock;
      const auto got = file.value().read_at_all(0, total);
      ASSERT_TRUE(got.is_ok());
      ASSERT_TRUE(file.value().close());
    });
    p.run();
    return p.pfs.stats().reads;
  };
  EXPECT_LT(pfs_reads_with("enable"), pfs_reads_with("disable"));
}

TEST(CollRead, AggregatorReadErrorReachesEveryRank) {
  // A failed aggregator window read must still answer its requesters;
  // otherwise they block forever on the reply.
  Platform p(small_testbed());
  constexpr Offset kBlock = 16 * KiB;
  std::vector<Errc> codes(static_cast<std::size_t>(p.ranks()), Errc::ok);
  p.launch([&](mpi::Comm comm) {
    write_rank_blocks(p, comm, "/pfs/rerr", kBlock);
    auto file = File::open(p.ctx, comm, "/pfs/rerr", rdwr, coll_read_info());
    ASSERT_TRUE(file.is_ok());
    comm.barrier();
    if (comm.rank() == 0) {
      p.faults.arm(fault::FaultPlan::parse("pfs_read=1.0/io_error").value());
    }
    comm.barrier();
    const Offset total = static_cast<Offset>(comm.size()) * kBlock;
    codes[static_cast<std::size_t>(comm.rank())] =
        file.value().read_at_all(0, total).status().code();
    (void)file.value().close();
  });
  p.run();  // a missing reply surfaces here as a DeadlockError
  for (const Errc code : codes) EXPECT_EQ(code, Errc::io_error);
}

// Virtual-time pins for one fixed collective read: an interleaved strided
// view over 8 ranks, read back after a collective write. The constants are
// exact; any change to the read path's modeled cost shows up here.
struct ReadPin {
  Time end = 0;  // latest rank's return from read_at_all
  std::array<Time, prof::kPhaseCount> phases{};  // read-only, summed over ranks
};

ReadPin pinned_strided_read(const char* cb_read, bool cache_read) {
  Platform p(small_testbed());
  constexpr Offset kChunk = 8 * KiB;
  ReadPin pin;
  p.launch([&](mpi::Comm comm) {
    mpi::Info info = coll_read_info();
    info.set("romio_cb_read", cb_read);
    if (cache_read) {
      info.set("e10_cache", "enable");
      info.set("e10_cache_path", "/scratch");
      info.set("e10_cache_flush_flag", "flush_onclose");
      info.set("e10_cache_read", "enable");
    }
    auto file = File::open(p.ctx, comm, "/pfs/pin", create | rdwr, info);
    ASSERT_TRUE(file.is_ok());
    const auto type = mpi::FlatType::vector(8, kChunk, kChunk * comm.size());
    ASSERT_TRUE(file.value().set_view(comm.rank() * kChunk, type));
    ASSERT_TRUE(file.value().write_at_all(
        0, DataView::synthetic(60, comm.rank() * kChunk, 8 * kChunk)));
    comm.barrier();
    std::array<Time, prof::kPhaseCount> before{};
    for (std::size_t ph = 0; ph < prof::kPhaseCount; ++ph) {
      before[ph] = p.profiler.rank_total(comm.rank(), prof::Phase(ph));
    }
    const auto got = file.value().read_at_all(0, 8 * kChunk);
    pin.end = std::max(pin.end, comm.engine().now());
    for (std::size_t ph = 0; ph < prof::kPhaseCount; ++ph) {
      pin.phases[ph] +=
          p.profiler.rank_total(comm.rank(), prof::Phase(ph)) - before[ph];
    }
    ASSERT_TRUE(got.is_ok());
    ASSERT_EQ(got.value().size(), 8 * kChunk);
    for (Offset i = 0; i < 8 * kChunk; i += 1021) {
      ASSERT_EQ(got.value().byte_at(i),
                DataView::pattern_byte(60, comm.rank() * kChunk + i));
    }
    ASSERT_TRUE(file.value().close());
  });
  p.run();
  return pin;
}

void expect_pin(const ReadPin& pin, Time end,
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

// Exact modeled cost of the read path. A change that means to move the
// read model says so and updates these; any other change must keep them.
TEST(CollReadPin, InterleavedFromPfs) {
  expect_pin(pinned_strided_read("enable", false), 26025105,
             {{prof::Phase::offset_exchange, 72280},
              {prof::Phase::shuffle_all2all, 73144},
              {prof::Phase::exchange, 89726359},
              {prof::Phase::read_contig, 83109880},
              {prof::Phase::post_write, 197217}});
}

TEST(CollReadPin, InterleavedFromCache) {
  expect_pin(pinned_strided_read("enable", true), 5059215,
             {{prof::Phase::offset_exchange, 72280},
              {prof::Phase::shuffle_all2all, 73144},
              {prof::Phase::exchange, 1762896},
              {prof::Phase::read_contig, 1417664},
              {prof::Phase::post_write, 196736}});
}

TEST(CollReadPin, DisabledCbReadFallback) {
  expect_pin(pinned_strided_read("disable", false), 45018536,
             {{prof::Phase::offset_exchange, 72280},
              {prof::Phase::read_contig, 248871164}});
}

}  // namespace
}  // namespace e10::mpiio
