// Shared services the ADIO layer runs against: the simulation engine, the
// global parallel file system, the per-node local file systems (cache tier)
// and the coherency lock table. A Platform (workloads/testbed.h) wires one
// up for the DEEP-ER-like cluster.
#pragma once

#include <optional>

#include "cache/lock_table.h"
#include "lfs/local_fs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pfs/pfs.h"
#include "prof/profiler.h"
#include "sim/engine.h"

namespace e10::fault {
class FaultInjector;
}

namespace e10::adio {

struct IoContext {
  IoContext(sim::Engine& engine_in, pfs::Pfs& pfs_in, lfs::LocalFsSet& lfs_in,
            cache::LockTable& locks_in)
      : engine(engine_in), pfs(pfs_in), lfs(lfs_in), locks(locks_in) {}

  sim::Engine& engine;
  pfs::Pfs& pfs;
  lfs::LocalFsSet& lfs;
  cache::LockTable& locks;
  /// Optional MPE-style instrumentation of the collective write path.
  prof::Profiler* profiler = nullptr;
  /// Optional metrics sink (counters/gauges/histograms); nullptr = off.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional span tracer; nullptr or disabled = off.
  obs::Tracer* tracer = nullptr;
  /// Optional fault injector (rank-crash queries on the cache path);
  /// nullptr or unarmed = off.
  fault::FaultInjector* fault = nullptr;
};

/// RAII for one pipeline phase on one rank: records the interval in the
/// profiler (when attached) and emits a trace span on the rank's track
/// (when tracing). Either sink may be absent; both off costs two branches.
class PhaseScope {
 public:
  PhaseScope(IoContext& ctx, int rank, prof::Phase phase) {
    if (ctx.profiler != nullptr) scope_.emplace(*ctx.profiler, rank, phase);
    if (ctx.tracer != nullptr && ctx.tracer->enabled()) {
      span_ = obs::Span(ctx.tracer, ctx.tracer->rank_track(rank), phase);
    }
  }

  /// The underlying span, for attaching args (inactive when not tracing).
  obs::Span& span() { return span_; }

 private:
  std::optional<prof::Profiler::Scope> scope_;
  obs::Span span_;
};

}  // namespace e10::adio
