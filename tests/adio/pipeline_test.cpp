// WritePipeline end-to-end tests: pipelined vs synchronous collective
// writes must produce byte-identical files, the pipelined run must never be
// slower in virtual time, and the pipeline's shared state must stay clean
// under the concurrency checker. Plus sim::join_async unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "common/units.h"
#include "mpiio/file.h"
#include "obs/causal.h"
#include "sim/async.h"
#include "workloads/testbed.h"

namespace e10::adio {
namespace {

using namespace e10::units;
using mpiio::File;
using workloads::Platform;
using workloads::small_testbed;

mpi::Info coll_info(bool pipelined, bool cached = false) {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("cb_buffer_size", "262144");  // 256 KiB: forces several rounds
  info.set("e10_pipeline_flag", pipelined ? "enable" : "disable");
  if (cached) {
    info.set("e10_cache", "enable");
    info.set("e10_cache_path", "/scratch");
    info.set("e10_cache_flush_flag", "flush_immediate");
    info.set("e10_cache_discard_flag", "enable");
  }
  return info;
}

void expect_matches(const pfs::Pfs& pfs, const std::string& path,
                    const ByteStore& reference) {
  const ByteStore* actual = pfs.peek(path);
  ASSERT_NE(actual, nullptr) << path;
  ASSERT_EQ(actual->extent_end(), reference.extent_end());
  const Offset end = reference.extent_end();
  const Offset step = std::max<Offset>(1, end / 997);
  for (Offset pos = 0; pos < end; pos += step) {
    ASSERT_EQ(actual->byte_at(pos), reference.byte_at(pos)) << "pos " << pos;
  }
  ASSERT_EQ(actual->byte_at(end - 1), reference.byte_at(end - 1));
}

/// Runs one round-robin interleaved collective write and returns the
/// virtual completion time (max over ranks at close).
Time run_interleaved(Platform& p, const std::string& path,
                     const mpi::Info& info, Offset block, int blocks) {
  Time completed = 0;
  p.launch([&, info, path, block, blocks](mpi::Comm comm) {
    auto file =
        File::open(p.ctx, comm, path, amode::create | amode::rdwr, info);
    ASSERT_TRUE(file.is_ok());
    std::vector<mpi::IoPiece> pieces;
    for (int b = 0; b < blocks; ++b) {
      const Offset off = (b * comm.size() + comm.rank()) * block;
      pieces.push_back(mpi::IoPiece{Extent{off, block},
                                    DataView::synthetic(42, off, block)});
    }
    ASSERT_TRUE(write_strided_coll(*file.value().raw(), pieces));
    ASSERT_TRUE(file.value().close());
    completed = std::max(completed, p.ctx.engine.now());
  });
  p.run();
  return completed;
}

ByteStore interleaved_reference(int ranks, Offset block, int blocks) {
  ByteStore reference;
  for (int r = 0; r < ranks; ++r) {
    for (int b = 0; b < blocks; ++b) {
      const Offset off = (b * ranks + r) * block;
      reference.write(off, DataView::synthetic(42, off, block));
    }
  }
  return reference;
}

TEST(WritePipeline_, PipelinedContentMatchesSynchronous) {
  constexpr Offset kBlock = 64 * KiB;
  constexpr int kBlocks = 16;  // several rounds at 256 KiB cb
  Platform on(small_testbed());
  Platform off(small_testbed());
  const ByteStore reference =
      interleaved_reference(on.ranks(), kBlock, kBlocks);
  run_interleaved(on, "/pfs/pipe_on", coll_info(true), kBlock, kBlocks);
  run_interleaved(off, "/pfs/pipe_off", coll_info(false), kBlock, kBlocks);
  expect_matches(on.pfs, "/pfs/pipe_on", reference);
  expect_matches(off.pfs, "/pfs/pipe_off", reference);
}

// Regression for the fuzzer-caught crash-point terminate (docs/fuzzing.md):
// a stop_at() cancels every fiber mid-collective, so ~WritePipeline runs
// during ProcessCancelled unwinding with rounds still in flight. The
// destructor must not drain (block) then — blocking rethrows the
// cancellation inside a noexcept context and aborts the whole binary.
// e10_lint's unwind-blocking rule pins the guarded destructor statically;
// this pins the runtime behavior. Crash times sweep the run so at least
// one lands inside the pipelined exchange regardless of phase timing.
TEST(WritePipeline_, CrashMidWriteUnwindsWithoutTerminating) {
  constexpr Offset kBlock = 64 * KiB;
  constexpr int kBlocks = 16;
  Time end = 0;
  {
    Platform clean(small_testbed());
    end = run_interleaved(clean, "/pfs/unwind", coll_info(true), kBlock,
                          kBlocks);
  }
  ASSERT_GT(end, 0);
  for (int eighth = 1; eighth < 8; ++eighth) {
    Platform p(small_testbed());
    p.engine.stop_at(end * eighth / 8);
    run_interleaved(p, "/pfs/unwind", coll_info(true), kBlock, kBlocks);
    EXPECT_TRUE(p.engine.stopped()) << "crash point " << eighth << "/8";
  }
}

TEST(WritePipeline_, PipelinedIsNeverSlowerThanSynchronous) {
  constexpr Offset kBlock = 64 * KiB;
  constexpr int kBlocks = 16;
  Platform on(small_testbed());
  Platform off(small_testbed());
  const Time t_on =
      run_interleaved(on, "/pfs/t_on", coll_info(true), kBlock, kBlocks);
  const Time t_off =
      run_interleaved(off, "/pfs/t_off", coll_info(false), kBlock, kBlocks);
  EXPECT_LE(t_on, t_off);
}

TEST(WritePipeline_, SingleRoundDegeneratesToSynchronous) {
  // One block per rank fits a single round: with nothing to overlap, the
  // pipelined schedule must equal the synchronous one exactly.
  constexpr Offset kBlock = 8 * KiB;
  Platform on(small_testbed());
  Platform off(small_testbed());
  const Time t_on =
      run_interleaved(on, "/pfs/one_on", coll_info(true), kBlock, 1);
  const Time t_off =
      run_interleaved(off, "/pfs/one_off", coll_info(false), kBlock, 1);
  EXPECT_EQ(t_on, t_off);
  expect_matches(on.pfs, "/pfs/one_on",
                 interleaved_reference(on.ranks(), kBlock, 1));
}

TEST(WritePipeline_, CachedPipelinedContentMatchesSynchronous) {
  // Through the cache tier (write to local cache + async flush to the
  // global file) the pipelined path must still land identical bytes.
  constexpr Offset kBlock = 64 * KiB;
  constexpr int kBlocks = 8;
  Platform on(small_testbed());
  Platform off(small_testbed());
  const ByteStore reference =
      interleaved_reference(on.ranks(), kBlock, kBlocks);
  const Time t_on = run_interleaved(on, "/pfs/cpipe_on",
                                    coll_info(true, true), kBlock, kBlocks);
  const Time t_off = run_interleaved(off, "/pfs/cpipe_off",
                                     coll_info(false, true), kBlock, kBlocks);
  expect_matches(on.pfs, "/pfs/cpipe_on", reference);
  expect_matches(off.pfs, "/pfs/cpipe_off", reference);
  // Tolerance: the cached path ends on background-flush completions whose
  // virtual-time arithmetic rounds per advance point, so the two schedules
  // can differ by a few ns without either being slower in any real sense.
  EXPECT_LE(t_on, t_off + units::microseconds(1));
}

TEST(WritePipeline_, PipelineOverlapIsObserved) {
  Platform p(small_testbed());
  constexpr Offset kBlock = 64 * KiB;
  run_interleaved(p, "/pfs/pipe_obs", coll_info(true), kBlock, 16);
  namespace names = obs::names;
  const std::int64_t writes = p.metrics.counter_value(names::kPipelineWrites);
  const std::int64_t write_ns =
      p.metrics.counter_value(names::kPipelineWriteNs);
  const std::int64_t hidden_ns =
      p.metrics.counter_value(names::kPipelineHiddenNs);
  const std::int64_t stall_ns =
      p.metrics.counter_value(names::kPipelineStallNs);
  EXPECT_GT(writes, 0);
  EXPECT_GT(write_ns, 0);
  EXPECT_EQ(hidden_ns + stall_ns, write_ns);
  EXPECT_GT(hidden_ns, 0);  // multi-round: something must overlap
}

TEST(WritePipeline_, CheckerFindsNoRacesInPipelinedWrites) {
  Platform p(small_testbed());
  analysis::ConcurrencyChecker checker(p.engine);
  run_interleaved(p, "/pfs/pipe_chk", coll_info(true, true), 64 * KiB, 8);
  const analysis::AnalysisSummary summary = checker.summary();
  EXPECT_EQ(summary.races.size(), 0u);
  EXPECT_EQ(summary.cycles.size(), 0u);
  EXPECT_GT(summary.shared_accesses, 0u);
}

/// Joins one write issued at `issued` and complete at `done` from a process
/// whose clock is at `join_at`, with a causal recorder attached. Returns the
/// split, the clock after the join and the bridges recorded.
struct JoinRun {
  sim::JoinOutcome outcome;
  Time end = -1;
  std::vector<obs::CausalRecorder::Bridge> bridges;
};

JoinRun join_once(Time issued, Time done, Time join_at) {
  sim::Engine engine;
  obs::CausalRecorder recorder(engine);
  JoinRun run;
  engine.spawn("joiner", [&] {
    engine.advance_to(join_at);
    run.outcome = sim::join_async(engine, sim::EdgeKind::write_join,
                                  sim::Interval{issued, done});
    run.end = engine.now();
  });
  engine.run();
  run.bridges = recorder.bridges();
  return run;
}

TEST(JoinAsync, FullyHiddenJoin) {
  // Write issued at 100, done at 200, joined at 250: fully hidden, the
  // clock stays put and nothing gated the joiner.
  const JoinRun run = join_once(100, 200, 250);
  EXPECT_EQ(run.outcome.hidden, 100);
  EXPECT_EQ(run.outcome.stall, 0);
  EXPECT_EQ(run.end, 250);
  EXPECT_TRUE(run.bridges.empty());
}

TEST(JoinAsync, PartialStall) {
  // Joined at 150, write completes at 200: 50 hidden, 50 stalled, and the
  // stall records the write's whole service interval as a bridge.
  const JoinRun run = join_once(100, 200, 150);
  EXPECT_EQ(run.outcome.hidden, 50);
  EXPECT_EQ(run.outcome.stall, 50);
  EXPECT_EQ(run.end, 200);
  ASSERT_EQ(run.bridges.size(), 1u);
  EXPECT_EQ(run.bridges[0].kind, sim::EdgeKind::write_join);
  EXPECT_EQ(run.bridges[0].issue, 100);
  EXPECT_EQ(run.bridges[0].done, 200);
}

TEST(JoinAsync, ImmediateJoinHidesNothing) {
  const JoinRun run = join_once(100, 200, 100);
  EXPECT_EQ(run.outcome.hidden, 0);
  EXPECT_EQ(run.outcome.stall, 100);
  EXPECT_EQ(run.end, 200);
  ASSERT_EQ(run.bridges.size(), 1u);
  EXPECT_EQ(run.bridges[0].kind, sim::EdgeKind::write_join);
}

}  // namespace
}  // namespace e10::adio
