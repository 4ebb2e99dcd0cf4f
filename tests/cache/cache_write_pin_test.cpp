// Pins the observable behaviour of the two cache-write entry points,
// CacheFile::write (blocking) and CacheFile::iwrite (nonblocking): the
// caller's clock and the completion time, when the sync request reaches the
// sync thread (its sync_queue causal emission), the journal records and the
// failure bookkeeping (coherent lock release, quarantine). The blocking call
// waits after each device call, so it is not "iwrite, then advance to the
// completion": its journal append is issued after the data write finished
// and its sync request is queued at completion, not at issue.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "cache/cache_file.h"
#include "common/units.h"
#include "fault/fault_injector.h"
#include "obs/causal.h"
#include "obs/metrics.h"

namespace e10::cache {
namespace {

using namespace e10::units;

// One compute node (0), one data server (1), one metadata server (2).
struct Fixture {
  Fixture()
      : fabric(3, net::FabricParams{}),
        pfs(engine, fabric, {1}, 2, quiet_pfs(), 11),
        local_fs(engine, 0, quiet_lfs(), 12),
        locks(engine),
        injector(engine) {
    local_fs.set_fault_injector(&injector);
  }

  static pfs::PfsParams quiet_pfs() {
    pfs::PfsParams p;
    p.data_servers = 1;
    p.target.jitter_sigma = 0.0;
    return p;
  }
  static lfs::LfsParams quiet_lfs() {
    lfs::LfsParams p;
    p.device.jitter_sigma = 0.0;
    p.capacity = 64 * MiB;
    return p;
  }

  CacheFileParams params(FlushPolicy flush, bool journal) {
    CacheFileParams p;
    p.global_path = "/pfs/global";
    p.cache_path = "/scratch/global.cache.0";
    p.flush_policy = flush;
    p.journal = journal;
    p.discard = false;  // keep the journal sidecar for inspection
    p.flush.staging_bytes = 512 * KiB;
    p.alloc_chunk = 4 * MiB;
    p.metrics = &metrics;
    return p;
  }

  /// Opens the global file and a cache over it, runs `body`, closes.
  void run(const CacheFileParams& p, std::function<void(CacheFile&)> body) {
    engine.spawn("app", [&, p, body = std::move(body)] {
      pfs::OpenOptions opts;
      opts.create = true;
      const auto global = pfs.open("/pfs/global", 0, opts).value();
      auto cache =
          CacheFile::open(engine, local_fs, pfs, global, p, &locks);
      ASSERT_TRUE(cache.is_ok());
      body(*cache.value());
      (void)cache.value()->close();
    });
    engine.run();
  }

  /// The journal sidecar's records, read back after the run.
  std::vector<WriteRecord> journal_records() {
    std::vector<WriteRecord> records;
    engine.spawn("reader", [&] {
      const auto handle = local_fs.open(
          CacheFile::journal_path("/scratch/global.cache.0"), false);
      ASSERT_TRUE(handle.is_ok());
      const Offset size = local_fs.file_size(handle.value()).value();
      records = scan_write_records(
          local_fs.read(handle.value(), 0, size).value());
      EXPECT_EQ(size, static_cast<Offset>(records.size()) * kWriteRecordBytes);
    });
    engine.run();
    return records;
  }

  sim::Engine engine;
  net::Fabric fabric;
  pfs::Pfs pfs;
  lfs::LocalFs local_fs;
  LockTable locks;
  fault::FaultInjector injector;
  obs::MetricsRegistry metrics;
};

DataView pattern(Offset offset, Offset size) {
  return DataView::synthetic(77, offset, size);
}

/// One cache write through either entry point. Returns the completion time
/// (for write(): the caller's clock on return), or the error.
Result<Time> write_via(CacheFile& cache, sim::Engine& engine, bool blocking,
                       const Extent& extent) {
  const DataView data = pattern(extent.offset, extent.length);
  if (!blocking) return cache.iwrite(extent, data);
  const Status s = cache.write(extent, data);
  if (!s.is_ok()) return s;
  return engine.now();
}

/// What the caller saw of each write, and every sync_queue emission.
struct Timeline {
  std::vector<Time> returned;  // caller's clock right after the call
  std::vector<Time> done;      // completion time
  std::vector<std::string> sync_queue;  // "p<pid>@<at>"
};

/// Two back-to-back 1 MiB writes at 1 ms into a fresh immediate-flush
/// cache, the second immediately after the first returns.
Timeline two_writes(bool blocking, bool journal) {
  Fixture f;
  obs::CausalRecorder recorder(f.engine);
  Timeline timeline;
  f.run(f.params(FlushPolicy::immediate, journal), [&](CacheFile& cache) {
    f.engine.delay(milliseconds(1));
    for (Offset offset : {Offset{0}, 1 * MiB}) {
      const auto done = write_via(cache, f.engine, blocking, {offset, 1 * MiB});
      ASSERT_TRUE(done.is_ok());
      timeline.returned.push_back(f.engine.now());
      timeline.done.push_back(done.value());
    }
  });
  for (const obs::CausalRecorder::Emission& e : recorder.emissions()) {
    if (e.kind != sim::EdgeKind::sync_queue) continue;
    timeline.sync_queue.push_back("p" + std::to_string(e.pid) + "@" +
                                  std::to_string(e.at));
  }
  return timeline;
}

TEST(CacheWritePin, BlockingWriteJournalOff) {
  const Timeline t = two_writes(/*blocking=*/true, /*journal=*/false);
  EXPECT_EQ(t.returned, (std::vector<Time>{4299318, 7334494}));
  EXPECT_EQ(t.done, t.returned);
  // Queued once the data is in the cache.
  EXPECT_EQ(t.sync_queue,
            (std::vector<std::string>{"p0@4299318", "p0@7334494"}));
}

TEST(CacheWritePin, BlockingWriteJournalOn) {
  const Timeline t = two_writes(/*blocking=*/true, /*journal=*/true);
  // The journal append is issued after the data write completed, so each
  // write pays the local syscall overhead twice.
  EXPECT_EQ(t.returned, (std::vector<Time>{4401430, 8478384}));
  EXPECT_EQ(t.done, t.returned);
  EXPECT_EQ(t.sync_queue,
            (std::vector<std::string>{"p0@4401430", "p0@8478384"}));
}

TEST(CacheWritePin, IwriteJournalOff) {
  const Timeline t = two_writes(/*blocking=*/false, /*journal=*/false);
  // The caller's clock does not move; the request is queued at issue.
  EXPECT_EQ(t.returned, (std::vector<Time>{1264142, 1264142}));
  EXPECT_EQ(t.done, (std::vector<Time>{4299318, 7240494}));
  EXPECT_EQ(t.sync_queue,
            (std::vector<std::string>{"p0@1264142", "p0@1264142"}));
}

TEST(CacheWritePin, IwriteJournalOn) {
  const Timeline t = two_writes(/*blocking=*/false, /*journal=*/true);
  EXPECT_EQ(t.returned, (std::vector<Time>{1272142, 1272142}));
  EXPECT_EQ(t.done, (std::vector<Time>{4307430, 7248718}));
  EXPECT_EQ(t.sync_queue,
            (std::vector<std::string>{"p0@1272142", "p0@1272142"}));
}

/// Journal cursor and record sequence across both entry points, with a
/// failed data write and a failed journal append in between: neither
/// consumes a sequence number or advances a cursor.
void check_journal_sequence(bool blocking) {
  Fixture f;
  f.run(f.params(FlushPolicy::onclose, /*journal=*/true),
        [&](CacheFile& cache) {
          ASSERT_TRUE(write_via(cache, f.engine, blocking, {0, 64 * KiB}));
          ASSERT_TRUE(write_via(cache, f.engine, !blocking,
                                {1 * MiB, 32 * KiB}));
          // Data write fails.
          f.injector.force_failures(fault::FaultOp::lfs_write, 1);
          EXPECT_FALSE(
              write_via(cache, f.engine, blocking, {2 * MiB, 16 * KiB}));
          // Data write succeeds, its journal append fails.
          f.injector.force_failures(fault::FaultOp::lfs_write, 1,
                                    Errc::io_error, /*after=*/1);
          EXPECT_FALSE(
              write_via(cache, f.engine, blocking, {3 * MiB, 16 * KiB}));
          ASSERT_TRUE(write_via(cache, f.engine, blocking, {0, 8 * KiB}));
          EXPECT_EQ(cache.stats().writes, 3u);
          EXPECT_EQ(cache.stats().bytes_cached, 104 * KiB);
        });
  const std::vector<WriteRecord> records = f.journal_records();
  ASSERT_EQ(records.size(), 3u);
  const Offset cache_offsets[] = {0, 64 * KiB, 96 * KiB};
  const Offset global_offsets[] = {0, 1 * MiB, 0};
  const Offset lengths[] = {64 * KiB, 32 * KiB, 8 * KiB};
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i + 1);
    EXPECT_EQ(records[i].cache_offset, cache_offsets[i]);
    EXPECT_EQ(records[i].global_offset, global_offsets[i]);
    EXPECT_EQ(records[i].length, lengths[i]);
  }
}

TEST(CacheWritePin, JournalSequenceBlocking) {
  check_journal_sequence(/*blocking=*/true);
}

TEST(CacheWritePin, JournalSequenceNonblocking) {
  check_journal_sequence(/*blocking=*/false);
}

/// Coherent mode locks the extent before the device calls; a failed data
/// write or journal append must release it again.
void check_lock_released_on_error(bool blocking, bool journal) {
  Fixture f;
  CacheFileParams p = f.params(FlushPolicy::onclose, journal);
  p.coherent = true;
  f.run(p, [&](CacheFile& cache) {
    ASSERT_TRUE(write_via(cache, f.engine, blocking, {0, 64 * KiB}));
    EXPECT_EQ(f.locks.held_count("/pfs/global"), 1u);
    f.injector.force_failures(fault::FaultOp::lfs_write, 1);
    EXPECT_FALSE(write_via(cache, f.engine, blocking, {1 * MiB, 64 * KiB}));
    EXPECT_FALSE(f.locks.is_locked("/pfs/global", {1 * MiB, 64 * KiB}));
    if (journal) {
      f.injector.force_failures(fault::FaultOp::lfs_write, 1,
                                Errc::io_error, /*after=*/1);
      EXPECT_FALSE(
          write_via(cache, f.engine, blocking, {2 * MiB, 64 * KiB}));
      EXPECT_FALSE(f.locks.is_locked("/pfs/global", {2 * MiB, 64 * KiB}));
    }
    EXPECT_EQ(f.locks.held_count("/pfs/global"), 1u);
    // The extents that failed can be written (and locked) again.
    ASSERT_TRUE(write_via(cache, f.engine, blocking, {1 * MiB, 64 * KiB}));
    EXPECT_EQ(f.locks.held_count("/pfs/global"), 2u);
  });
  EXPECT_EQ(f.locks.held_count("/pfs/global"), 0u);
}

TEST(CacheWritePin, DeviceErrorReleasesCoherentLock) {
  for (bool blocking : {true, false}) {
    for (bool journal : {false, true}) {
      SCOPED_TRACE(std::string(blocking ? "write" : "iwrite") +
                   (journal ? " journal" : ""));
      check_lock_released_on_error(blocking, journal);
    }
  }
}

/// Device errors from either entry point count toward the quarantine; a
/// successful write resets the run; quarantine then fails fast without
/// touching the device.
void check_quarantine(bool journal) {
  Fixture f;
  CacheFileParams p = f.params(FlushPolicy::onclose, journal);
  p.quarantine_after = 3;
  f.run(p, [&](CacheFile& cache) {
    ASSERT_TRUE(write_via(cache, f.engine, true, {0, 64 * KiB}));
    const auto fail = [&](bool blocking, int after) {
      f.injector.force_failures(fault::FaultOp::lfs_write, 1, Errc::io_error,
                                after);
      const auto r = write_via(cache, f.engine, blocking, {1 * MiB, 4 * KiB});
      ASSERT_FALSE(r.is_ok());
      EXPECT_EQ(r.code(), Errc::io_error);
    };
    // With the journal on, the second failure hits the journal append.
    const int journal_after = journal ? 1 : 0;
    fail(true, 0);
    fail(false, journal_after);
    ASSERT_TRUE(write_via(cache, f.engine, false, {2 * MiB, 4 * KiB}));
    fail(false, 0);
    fail(true, journal_after);
    EXPECT_FALSE(cache.degraded());
    fail(false, 0);
    EXPECT_TRUE(cache.degraded());
    // Quarantined: both entry points fail fast, the device is not touched.
    f.injector.force_failures(fault::FaultOp::lfs_write, 5);
    for (bool blocking : {true, false}) {
      const auto r = write_via(cache, f.engine, blocking, {3 * MiB, 4 * KiB});
      ASSERT_FALSE(r.is_ok());
      EXPECT_EQ(r.code(), Errc::unavailable);
    }
    EXPECT_EQ(f.injector.forced_remaining(fault::FaultOp::lfs_write), 5);
    EXPECT_EQ(cache.stats().writes, 2u);
    f.injector.force_failures(fault::FaultOp::lfs_write, 0);
  });
  EXPECT_EQ(f.metrics.counter_value(obs::names::kCacheDegraded), 1);
}

TEST(CacheWritePin, QuarantineAfterConsecutiveFailures) {
  check_quarantine(/*journal=*/false);
}

TEST(CacheWritePin, QuarantineCountsJournalFailures) {
  check_quarantine(/*journal=*/true);
}

}  // namespace
}  // namespace e10::cache
