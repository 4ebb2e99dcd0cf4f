#include "obs/causal.h"

#include "obs/trace.h"

namespace e10::obs {

namespace {
/// Monitor name for the recorder's engine-atomic critical sections.
constexpr const char* kRecorderMonitor = "obs.causal.recorder_monitor";
}  // namespace

CausalRecorder::CausalRecorder(sim::Engine& engine, Tracer* tracer)
    : engine_(engine),
      tracer_(tracer),
      state_var_(engine, "obs.causal.recorder") {
  engine_.set_causal_observer(this);
  if (tracer_ != nullptr) tracer_->causal_ = this;
}

CausalRecorder::~CausalRecorder() {
  if (engine_.causal_observer() == this) engine_.set_causal_observer(nullptr);
  if (tracer_ != nullptr && tracer_->causal_ == this) {
    tracer_->causal_ = nullptr;
  }
}

sim::CausalToken CausalRecorder::emit(sim::EdgeKind kind, sim::ProcessId pid,
                                      Time at, Time contended_ns) {
  const sim::MonitorGuard monitor(engine_, this, kRecorderMonitor);
  E10_SHARED_WRITE(state_var_);
  emissions_.push_back(Emission{kind, pid, at, contended_ns});
  return static_cast<sim::CausalToken>(emissions_.size());
}

void CausalRecorder::ack(sim::CausalToken token, sim::ProcessId pid, Time at) {
  if (token == 0 || token > emissions_.size()) return;
  const sim::MonitorGuard monitor(engine_, this, kRecorderMonitor);
  E10_SHARED_WRITE(state_var_);
  const Emission& src = emissions_[token - 1];
  // A process acking its own emission at the emission time carries no
  // dependency (e.g. a rank waiting on a grequest it completed itself).
  if (src.pid == pid && src.at == at) return;
  acks_.push_back(Ack{token, pid, at});
}

void CausalRecorder::bridge(sim::EdgeKind kind, sim::ProcessId pid, Time issue,
                            Time done) {
  if (done <= issue) return;
  const sim::MonitorGuard monitor(engine_, this, kRecorderMonitor);
  E10_SHARED_WRITE(state_var_);
  bridges_.push_back(Bridge{kind, pid, issue, done});
}

void CausalRecorder::interval(sim::EdgeKind kind, sim::ProcessId pid,
                              Time begin, Time end) {
  if (end <= begin) return;
  const sim::MonitorGuard monitor(engine_, this, kRecorderMonitor);
  E10_SHARED_WRITE(state_var_);
  overlays_.push_back(Overlay{kind, pid, begin, end});
}

void CausalRecorder::clear() {
  emissions_.clear();
  acks_.clear();
  bridges_.clear();
  overlays_.clear();
}

}  // namespace e10::obs
