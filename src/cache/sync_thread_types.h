// Shared vocabulary of the background cache synchronisation: the sync
// request a cache write produces, the retry/backoff policy of the drain,
// and the per-thread counters. Split out of sync_thread.h so the flush
// scheduler (flush_scheduler.h) and the sync thread can both speak it
// without a circular include.
#pragma once

#include <cstdint>

#include "common/extent.h"
#include "common/units.h"
#include "mpi/request.h"

namespace e10::cache {

struct SyncRequest {
  /// Extent of the *global* file this data belongs to.
  Extent global;
  /// Where the bytes sit in the local cache file.
  Offset cache_offset = 0;
  /// Journal sequence number of the write that produced the extent (0 when
  /// journaling is off); committed to the sidecar once durable.
  std::uint64_t seq = 0;
  /// Completed (MPI_Grequest_complete) when the extent is persistent in the
  /// global file — or when the request is abandoned/cancelled, so waiters
  /// never hang (the failure is reported out of band).
  mpi::Request grequest;
  /// Coherent mode: release this extent's lock once persistent.
  bool release_lock = false;
  /// Shutdown sentinel (internal).
  bool shutdown = false;
  /// Times this request went back to the queue after exhausting its
  /// in-place retry attempts (internal).
  int requeues = 0;
  /// Bytes at the front of the extent already durable from earlier
  /// dispatches (internal); a requeued request resumes here instead of
  /// re-sending what already reached the media — including when the flush
  /// scheduler later coalesces it into a batch, which plans only the
  /// remaining extent [global.offset + synced, global.end()).
  Offset synced = 0;

  /// The part of the extent not yet durable.
  Extent remaining() const {
    return Extent{global.offset + synced, global.length - synced};
  }
};

/// Retry/backoff knobs for the sync thread's drain loop. The backoff for
/// attempt k is min(cap, base * 2^(k-1)) stretched by up to `jitter` drawn
/// from a seeded stream — deterministic for a fixed seed, but decorrelated
/// across ranks so retry storms do not synchronise.
struct RetryPolicy {
  int max_attempts = 6;  // in-place attempts per dispatch (>= 1)
  int max_requeues = 8;  // re-dispatches before the request is abandoned
  Time backoff_base = units::milliseconds(1);
  Time backoff_cap = units::milliseconds(250);
  double jitter = 0.25;  // max relative stretch of each backoff
};

struct SyncStats {
  std::uint64_t requests = 0;
  Offset bytes_synced = 0;
  std::uint64_t staging_chunks = 0;
  /// In-place retries after a retryable staging-read/global-write failure.
  std::uint64_t retries = 0;
  /// Requests sent to the back of the queue after exhausting attempts.
  std::uint64_t requeues = 0;
  /// Requests given up on entirely: grequest completed, extent NOT durable.
  std::uint64_t abandoned = 0;
  /// Deepest the inbox ever got (requests waiting behind the one in
  /// service) — a sustained high value means the device or the PFS cannot
  /// keep up with the write burst.
  std::uint64_t queue_depth_high_water = 0;
  /// Virtual time spent servicing requests (staging reads + global writes,
  /// including backoff waits).
  Time busy_time = 0;
};

}  // namespace e10::cache
