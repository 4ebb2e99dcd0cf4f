// Quickstart: stand up the simulated DEEP-ER-like cluster, write a shared
// file collectively with the E10 cache enabled, and read it back.
//
//   $ ./examples/quickstart
//
// Exits nonzero when any rank's open, write, close or read-back fails, so
// ctest runs it as an end-to-end check.
//
// Walks through the core API: Platform, MPI ranks, MPI-IO hints (Tables I
// and II of the paper), collective write, close-with-flush, verification.
#include <cstdio>

#include "mpiio/file.h"
#include "workloads/testbed.h"

using namespace e10;
using namespace e10::units;

int main() {
  // A small cluster: 4 compute nodes x 2 ranks, 2 PFS data servers, one
  // 30 GiB-scaled-down SSD scratch partition per node.
  workloads::Platform platform(workloads::small_testbed());

  // MPI-IO hints: force collective buffering and enable the E10 cache with
  // immediate background flushing (paper Table II).
  mpi::Info hints;
  hints.set("romio_cb_write", "enable");
  hints.set("cb_buffer_size", "1048576");
  hints.set("e10_cache", "enable");
  hints.set("e10_cache_path", "/scratch");
  hints.set("e10_cache_flush_flag", "flush_immediate");
  hints.set("e10_cache_discard_flag", "enable");

  constexpr Offset kBlock = 256 * KiB;
  bool failed = false;
  const auto fail = [&failed](const char* what, const Status& s) {
    std::fprintf(stderr, "%s failed: %s\n", what, s.to_string().c_str());
    failed = true;
  };

  platform.launch([&](mpi::Comm comm) {
    auto file = mpiio::File::open(platform.ctx, comm, "/pfs/quickstart",
                                  adio::amode::create | adio::amode::rdwr,
                                  hints);
    if (!file.is_ok()) return fail("open", file.status());

    // Interleaved pattern: rank r owns blocks r, r+P, r+2P, ...
    const Time t0 = comm.engine().now();
    for (int b = 0; b < 4; ++b) {
      const Offset offset = (b * comm.size() + comm.rank()) * kBlock;
      const DataView data = DataView::synthetic(
          static_cast<std::uint64_t>(comm.rank()), offset, kBlock);
      if (const Status s = file.value().write_at_all(offset, data);
          !s.is_ok()) {
        return fail("write", s);
      }
    }
    const Time write_done = comm.engine().now();

    // The close waits for the background cache synchronisation (§III-B).
    if (const Status s = file.value().close(); !s.is_ok()) {
      return fail("close", s);
    }
    const Time close_done = comm.engine().now();

    if (comm.rank() == 0) {
      const Offset total = 4 * kBlock * comm.size();
      std::printf("collective write: %s in %s (%s)\n",
                  format_bytes(total).c_str(),
                  format_time(write_done - t0).c_str(),
                  format_bandwidth(total, write_done - t0).c_str());
      std::printf("close (cache flush wait): %s\n",
                  format_time(close_done - write_done).c_str());
    }

    // Reopen and read a peer's block back from the global file through
    // the two-phase collective read, then spot-check it.
    mpi::Info read_hints;
    read_hints.set("romio_cb_read", "enable");
    auto reader = mpiio::File::open(platform.ctx, comm, "/pfs/quickstart",
                                    adio::amode::rdonly, read_hints);
    if (!reader.is_ok()) return fail("reopen", reader.status());
    const int peer = (comm.rank() + 1) % comm.size();
    const auto block = reader.value().read_at_all(peer * kBlock, kBlock);
    const bool ok =
        block.is_ok() &&
        block.value().byte_at(0) ==
            DataView::pattern_byte(static_cast<std::uint64_t>(peer),
                                   peer * kBlock);
    if (!ok) {
      std::fprintf(stderr, "rank %d: verification FAILED\n", comm.rank());
      failed = true;
    }
    (void)reader.value().close();
    if (comm.rank() == 0) {
      std::printf("read-back verification: %s\n", ok ? "OK" : "FAILED");
    }
  });

  platform.run();
  std::printf("simulated virtual time: %s\n",
              format_time(platform.engine.now()).c_str());
  return failed ? 1 : 0;
}
