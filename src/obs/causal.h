// Causal-edge recorder: the concrete sim::CausalObserver.
//
// Synchronization sites across the stack (mpi, net, cache, adio, pfs, the
// engine itself) report emissions, acknowledgements, bridges and overlays
// through the observer hook in sim/causal.h. This recorder stores them as
// flat vectors over virtual time — the event DAG obs/critical_path.{h,cpp}
// walks backward from job completion. An attached Tracer draws each
// cross-process acknowledgement as a Chrome-trace flow arrow at export.
//
// Attaching is RAII: construction registers with the engine (and the
// tracer, if given), destruction detaches. Recording never touches virtual
// time, so a recorded run stays byte-identical to an unrecorded one.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_safety.h"
#include "common/units.h"
#include "sim/causal.h"
#include "sim/concurrency.h"
#include "sim/engine.h"

namespace e10::obs {

class Tracer;

class CausalRecorder : public sim::CausalObserver {
 public:
  struct Emission {
    sim::EdgeKind kind;
    sim::ProcessId pid;
    Time at;
    Time contended_ns;
  };
  struct Ack {
    sim::CausalToken token;  // 1-based index into emissions()
    sim::ProcessId pid;
    Time at;
  };
  struct Bridge {
    sim::EdgeKind kind;
    sim::ProcessId pid;
    Time issue;
    Time done;
  };
  struct Overlay {
    sim::EdgeKind kind;
    sim::ProcessId pid;
    Time begin;
    Time end;
  };

  /// Attaches to `engine` and, if given, to `tracer` (which must outlive
  /// the recorder) so that its exports draw the flow arrows.
  explicit CausalRecorder(sim::Engine& engine, Tracer* tracer = nullptr);
  ~CausalRecorder() override;
  CausalRecorder(const CausalRecorder&) = delete;
  CausalRecorder& operator=(const CausalRecorder&) = delete;

  sim::CausalToken emit(sim::EdgeKind kind, sim::ProcessId pid, Time at,
                        Time contended_ns = 0) override;
  void ack(sim::CausalToken token, sim::ProcessId pid, Time at) override;
  void bridge(sim::EdgeKind kind, sim::ProcessId pid, Time issue,
              Time done) override;
  void interval(sim::EdgeKind kind, sim::ProcessId pid, Time begin,
                Time end) override;

  const std::vector<Emission>& emissions() const { return emissions_; }
  const std::vector<Ack>& acks() const { return acks_; }
  const std::vector<Bridge>& bridges() const { return bridges_; }
  const std::vector<Overlay>& overlays() const { return overlays_; }

  /// Emission an ack's token refers to.
  const Emission& source_of(const Ack& ack) const {
    return emissions_[ack.token - 1];
  }

  void clear();

 private:
  sim::Engine& engine_;
  Tracer* tracer_;
  /// The event log is appended by every process in the run — engine-
  /// atomically, since no hook yields. Each hook claims the recorder
  /// monitor, so a checker-attached run verifies that discipline (the
  /// pthread mutex a threaded tracer would need, see sim/concurrency.h).
  sim::SharedVar state_var_;
  std::vector<Emission> emissions_ E10_TRACKED_BY(state_var_);
  std::vector<Ack> acks_ E10_TRACKED_BY(state_var_);
  std::vector<Bridge> bridges_ E10_TRACKED_BY(state_var_);
  std::vector<Overlay> overlays_ E10_TRACKED_BY(state_var_);
};

}  // namespace e10::obs
