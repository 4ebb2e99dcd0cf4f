// Host-time spans the benchmark records around its own calls into each
// module of the simulator (platform construction, rank launch, the engine
// run, every MPI-IO call of every rank, the compute phase, the run report
// and the critical-path analyzer). Spans are kept in memory and reduced
// once at the end of a run; nothing is written while the simulation runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One closed (or still open) span. Times are host nanoseconds since the
/// recorder was created.
struct SpanRecord {
  const char* name = "";  // static layer name, e.g. "mpiio.write_all"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  int parent = -1;           // index into the recorder, -1 for a root
  int point = 0;             // shared by every span of one sweep point
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  int begin(const char* name, int parent, int point);
  void end(int id);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Spans begun but never ended (a benchmark bug if non-zero).
  std::size_t open_spans() const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null recorder makes it a no-op, so untraced runs pay one
/// branch per call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int parent, int point)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->begin(name, parent, point) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Total and self host time of every span name. Total is the length of the
/// union of all intervals with that name (so overlapping per-rank spans of
/// one MPI-IO call count once: the host time while any rank was inside
/// it); self is that union minus the part covered by the spans' children.
struct SpanTime {
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTime> span_times(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
