// Causal-edge observer hook for critical-path analysis.
//
// The DES engine schedules fibers over virtual time, but the *reasons* a
// process resumed — a message arrived, a collective released, a flush batch
// reached the media, a stripe lock was handed over — are known only where
// the wake-up is produced. The run's causal structure is a DAG of
// emissions (potential wake-up sources) and acknowledgements (a waiter's
// clock was advanced by that source), which obs/critical_path.{h,cpp}
// walks backward from job completion to attribute end-to-end time to
// phases and resources.
//
// Who records what:
//  - Emissions stay at the site that knows the edge's kind, time and
//    contention (a send, a collective's last arrival, a grequest
//    completion, a sync-queue enqueue, a lock release, a process finish),
//    each one Engine::emit_edge call. The token travels with the wake-up:
//    SimEvent::set_at and Mailbox::send take it.
//  - Acks are recorded by the primitives that block: SimEvent::wait,
//    Mailbox::recv and ProcessHandle::join ack the token they were woken
//    by when the wait advanced the clock. LockTable's one wait helper is
//    the only ack outside sim.
//  - Bridges (an async service interval waited out) and overlays (lock
//    wait inside a write's service time) are one Engine call at the site.
// A wake-up alone cannot express these: a wait on an already-set event
// advances the clock without any make_ready, and message, collective and
// grequest waits all block in the same SimEvent::wait.
//
// Mirrors sim/concurrency.h: detached (the default) every call is a single
// null-pointer branch; attaching never changes virtual time, so a traced
// run is byte-identical to an untraced one.
#pragma once

#include "common/units.h"
#include "sim/engine.h"

namespace e10::sim {

/// What kind of dependency an edge expresses. The analyzer uses it to
/// attribute the virtual-time gap between the emission and the wake-up.
enum class EdgeKind {
  message,     ///< point-to-point send -> matched receive (mpi/net)
  collective,  ///< last arriver -> every released participant (mpi)
  grequest,    ///< generalized-request completion -> waiter (cache sync)
  sync_queue,  ///< sync-request enqueue -> sync-thread drain (cache)
  batch_done,  ///< flush batch issue -> media-durable completion (cache)
  write_join,  ///< nonblocking write issue -> pipeline join (adio)
  lock_wait,   ///< lock release -> blocked acquirer (cache/pfs stripe lock)
  process,     ///< process finish -> joiner (engine)
};

const char* edge_kind_name(EdgeKind kind);

class CausalObserver {
 public:
  virtual ~CausalObserver() = default;

  /// Records a potential causal source: process `pid` produced, at virtual
  /// time `at` (which may lie in the emitter's future for completion-time
  /// models), something another process may wait on. `contended_ns` carries
  /// resource queueing embedded in the edge latency (NIC queue wait for
  /// messages). Returns the token a later ack() refers to.
  virtual CausalToken emit(EdgeKind kind, ProcessId pid, Time at,
                           Time contended_ns = 0) = 0;

  /// Records that process `pid`'s progress to time `at` was gated on the
  /// emission identified by `token` (its blocking wait ended there).
  virtual void ack(CausalToken token, ProcessId pid, Time at) = 0;

  /// Records an asynchronous service interval [issue, done] whose
  /// completion gated `pid`'s progress at `done` (a stalled pipeline join,
  /// a deferred flush batch waited out): the service ran on a background
  /// resource while the issuer's lane shows unrelated foreground work.
  virtual void bridge(EdgeKind kind, ProcessId pid, Time issue,
                      Time done) = 0;

  /// Records an attribution overlay: within work already attributed to
  /// `pid`, the sub-interval [begin, end] was spent in `kind` (e.g. PFS
  /// stripe-lock wait inside a write's service time).
  virtual void interval(EdgeKind kind, ProcessId pid, Time begin,
                        Time end) = 0;
};

inline const char* edge_kind_name(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::message: return "message";
    case EdgeKind::collective: return "collective";
    case EdgeKind::grequest: return "grequest";
    case EdgeKind::sync_queue: return "sync_queue";
    case EdgeKind::batch_done: return "batch_done";
    case EdgeKind::write_join: return "write_join";
    case EdgeKind::lock_wait: return "lock_wait";
    case EdgeKind::process: return "process";
  }
  return "?";
}

}  // namespace e10::sim
