// Joining asynchronous, completion-time-based operations.
//
// Layers that model asynchronous I/O compute a completion time from their
// resource timelines and return it instead of advancing the caller's clock
// (LocalFs::write_async, Pfs::write_async, CacheFile::iwrite,
// adio::iwrite_contig). The issuer keeps the write as its service interval
// [issued, done) — a sim::Interval, the same slot type a resource timeline
// grants — and joins it later through join_async: the aggregator's
// write pipeline and the sync thread's flush stream window both do. The
// join splits the interval into a hidden part (already elapsed while the
// issuer did other work) and a stall part (still ahead of the joiner),
// records the stall for critical-path attribution, and advances the
// joiner's clock to the completion.
#pragma once

#include <algorithm>

#include "common/units.h"
#include "sim/causal.h"
#include "sim/engine.h"
#include "sim/resource.h"

namespace e10::sim {

/// Outcome of joining one async operation.
struct JoinOutcome {
  Time hidden = 0;  // service time that elapsed before the join
  Time stall = 0;   // service time the joiner had to wait out
};

/// Joins the operation issued at `op.start` and complete (on the media) at
/// `op.end` from the running process: splits its service interval at the
/// current clock, records a `kind` bridge when the join stalled (this lane
/// was gated on the operation's service time), and advances the clock to
/// `op.end` (a no-op when that is already past). Inline, so the join adds
/// no frame to the fiber's stack at the blocking point.
inline JoinOutcome join_async(Engine& engine, EdgeKind kind, Interval op) {
  const Time done = std::max(op.end, op.start);
  const Time join_at = std::max(engine.now(), op.start);
  JoinOutcome outcome;
  outcome.hidden = std::min(join_at, done) - op.start;
  outcome.stall = done - op.start - outcome.hidden;
  if (outcome.stall > 0) engine.bridge_edge(kind, op.start, op.end);
  engine.advance_to(op.end);
  return outcome;
}

}  // namespace e10::sim
