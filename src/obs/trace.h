// Span tracer over virtual time, emitting Chrome trace-event JSON.
//
// The paper argues with MPE phase timelines (Fig. 2): to see that a cache
// flush overlapped a compute phase you need *when*, not just totals. The
// Tracer records named, nested spans per simulated process — each MPI rank
// is one "thread" track, each cache sync thread its own track — plus
// counter samples (e.g. sync queue depth over time). The output loads
// directly in chrome://tracing or https://ui.perfetto.dev.
//
// Each fact is stored once: event names and arg keys are interned ids (a
// phase's id is its prof::Phase value), span args live in one Tracer-owned
// pool, and flow arrows are drawn at export from the attached
// CausalRecorder's acks instead of being stored as events.
//
// Tracing is off by default; a Span on a disabled tracer costs one branch.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "prof/profiler.h"
#include "sim/engine.h"

namespace e10::obs {

class CausalRecorder;
class Tracer;

/// Interned event name; ids below prof::kPhaseCount are the phases.
using NameId = std::uint32_t;

/// Index into the Tracer's arg pool; kNoArg ends a span's chain.
using ArgIndex = std::uint32_t;
inline constexpr ArgIndex kNoArg = ~ArgIndex{0};

/// One key/value attribute attached to a span ("args" in the trace JSON).
/// A span's args are chained through `next` in insertion order: spans nest
/// and fibers interleave, so they are not contiguous in the pool.
struct SpanArg {
  NameId key = 0;
  NameId text = 0;         // interned value, when !numeric
  std::int64_t value = 0;  // when numeric
  ArgIndex next = kNoArg;
  bool numeric = false;
};

/// RAII span: starts at construction, ends at destruction (or end()), both
/// timestamped in virtual time. Inactive (moved-from / disabled-tracer)
/// spans are free.
class Span {
 public:
  Span() = default;
  Span(Tracer* tracer, int track, std::string_view name);
  Span(Tracer* tracer, int track, prof::Phase phase);
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  ~Span() { end(); }

  /// Attaches an attribute (no-op on an inactive span).
  void arg(std::string_view key, std::int64_t value);
  void arg(std::string_view key, std::string_view value);

  /// Ends the span now instead of at destruction.
  void end() { if (tracer_ != nullptr) record(); }

  bool active() const { return tracer_ != nullptr; }

 private:
  // Copies every field; only the move uses it, and then disarms the source.
  Span& operator=(const Span&) = default;
  void start(Tracer* tracer, int track, NameId name);
  void add_arg(const SpanArg& arg);
  void record();

  Tracer* tracer_ = nullptr;
  int track_ = 0;
  NameId name_ = 0;
  Time start_ = 0;
  sim::ProcessId pid_ = sim::kNoProcess;
  ArgIndex first_arg_ = kNoArg;
  ArgIndex last_arg_ = kNoArg;
};
// Every PhaseScope on every fiber stack holds one.
static_assert(sizeof(Span) <= 56);

class Tracer {
 public:
  /// One recorded trace event. Spans ('X') carry the simulated process
  /// that emitted them so the critical-path analyzer (critical_path.h) can
  /// join lanes against causal edges, which are keyed by ProcessId.
  struct Event {
    Time ts = 0;
    Time dur = 0;  // a span's duration; a counter's ('C') sample value
    sim::ProcessId pid = sim::kNoProcess;
    int track = 0;
    NameId name = 0;
    ArgIndex args = kNoArg;  // first of a span's args in the pool
    char phase = 'X';
  };
  struct TrackInfo {
    std::string name;
    int sort_index = 0;
    int rank = -1;  // set by rank_track; -1 for non-rank tracks
  };

  explicit Tracer(sim::Engine& engine) : engine_(engine) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on);

  /// Registers (or looks up) a named track — one "thread" row in the
  /// viewer. `sort_index` orders tracks top-to-bottom; -1 appends after
  /// everything registered so far.
  int track(const std::string& name, int sort_index = -1);

  /// Cached per-rank track ("rank N", sorted by rank).
  int rank_track(int rank);

  /// Counter sample: plots `value` over virtual time as its own series.
  void counter(std::string_view name, std::int64_t value);

  /// Zero-duration marker on a track.
  void instant(int track, std::string_view name);

  const std::string& name(NameId id) const { return names_[id]; }
  std::size_t names() const { return names_.size(); }

  std::size_t events() const { return events_.size(); }
  /// Spans constructed but not yet ended. A clean run ends at zero; a
  /// dangling-open span (lost on an error path) never reaches the JSON, so
  /// the fault smoke asserts this instead of grepping the output.
  std::size_t open_spans() const { return open_spans_; }
  const std::vector<Event>& event_list() const { return events_; }
  const std::vector<TrackInfo>& track_list() const { return tracks_; }
  /// Drops tracks, events and args; no span may be open across it.
  void clear();

  /// Chrome trace-event JSON: {"traceEvents": [...]} with thread-name
  /// metadata, complete ("X") spans, counter ("C") samples, instant ("i")
  /// markers and one flow arrow ('s'/'f' pair, id = token) per recorded
  /// cross-process ack between the two processes' lanes, the tracks their
  /// spans are on. Timestamps are virtual microseconds.
  std::string to_json() const;

  Status write(const std::string& path) const;

 private:
  friend class Span;
  friend class CausalRecorder;  // attaches itself for the flow arrows

  /// Id of `name`, registering it on first use (only while enabled).
  NameId intern(std::string_view name);

  sim::Engine& engine_;
  bool enabled_ = false;
  std::size_t open_spans_ = 0;
  const CausalRecorder* causal_ = nullptr;
  std::vector<TrackInfo> tracks_;
  std::unordered_map<std::string, int> track_ids_;
  std::vector<int> rank_tracks_;  // rank -> track id (-1 unregistered)
  // A deque never moves its elements, so the map's views stay valid.
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, NameId> name_ids_;
  std::vector<Event> events_;
  std::vector<SpanArg> args_;
};
static_assert(sizeof(Tracer::Event) <= 40);

}  // namespace e10::obs
