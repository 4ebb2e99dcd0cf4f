#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>
#include <span>

#include "prof/profiler.h"

namespace e10::obs {

namespace {

using sim::EdgeKind;
using sim::ProcessId;

/// Phase -> category table.
PathCategory categorize(prof::Phase phase) {
  switch (phase) {
    case prof::Phase::shuffle_intra:
    case prof::Phase::shuffle_all2all:
    case prof::Phase::shuffle_inter:
    case prof::Phase::exchange:
      return PathCategory::shuffle;
    case prof::Phase::write_contig:
    case prof::Phase::read_contig:
      return PathCategory::write;
    case prof::Phase::flush_wait:
    case prof::Phase::not_hidden_sync:
    case prof::Phase::close:
      return PathCategory::flush;
    case prof::Phase::calc:
      return PathCategory::compute;
    case prof::Phase::open:
    case prof::Phase::offset_exchange:
    case prof::Phase::post_write:
      return PathCategory::coordination;
    case prof::Phase::count:
      break;
  }
  return PathCategory::other;
}

/// Category of each interned span name, computed once per name. Innermost
/// span wins on nesting, so outer workload wrappers (write_file,
/// write_round) only absorb their own glue.
std::vector<PathCategory> categorize(const Tracer& tracer) {
  std::vector<PathCategory> out(tracer.names(), PathCategory::other);
  for (NameId id = 0; id < out.size(); ++id) {
    const std::string& name = tracer.name(id);
    if (id < prof::kPhaseCount) {
      out[id] = categorize(static_cast<prof::Phase>(id));
    } else if (name == "flush_batch") {
      out[id] = PathCategory::flush;
    } else if (name == "compute") {
      out[id] = PathCategory::compute;
    } else if (name == "write_round" || name == "write_file") {
      out[id] = PathCategory::coordination;
    }
  }
  return out;
}

/// Flattened, innermost-wins segmentation of one process's spans. Gaps are
/// implicit (attributed as idle by attribute_range).
struct FlatSeg {
  Time begin;
  Time end;
  NameId name;
};

std::vector<FlatSeg> flatten(std::vector<FlatSeg> spans) {
  // Stable: coincident spans keep their recording order. An unstable sort
  // would let unrelated spans elsewhere on the lane (even zero-length ones)
  // decide which of two coincident spans wins.
  std::stable_sort(spans.begin(), spans.end(),
            [](const FlatSeg& a, const FlatSeg& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.end > b.end;  // outer first at equal begin
            });
  std::vector<FlatSeg> out;
  std::vector<const FlatSeg*> stack;
  Time cursor = 0;
  auto emit = [&](Time b, Time e, const FlatSeg* s) {
    if (e > b) out.push_back(FlatSeg{b, e, s->name});
  };
  std::size_t i = 0;
  while (i < spans.size() || !stack.empty()) {
    const Time next_begin =
        i < spans.size() ? spans[i].begin : std::numeric_limits<Time>::max();
    if (!stack.empty() && stack.back()->end <= next_begin) {
      emit(cursor, stack.back()->end, stack.back());
      cursor = std::max(cursor, stack.back()->end);
      stack.pop_back();
    } else {
      if (!stack.empty()) emit(cursor, next_begin, stack.back());
      cursor = std::max(cursor, next_begin);
      stack.push_back(&spans[i]);
      ++i;
    }
  }
  return out;
}

/// Items grouped by pid with a counting sort, pids up to the largest seen:
/// pid p's items are [offsets[p], offsets[p + 1]) in the order `each` gave
/// them. `each(put)` calls put(pid, item) per item, twice (count, place).
template <typename T>
struct ByPid {
  std::vector<std::uint32_t> offsets{0};
  std::vector<T> items;

  template <typename Each>
  explicit ByPid(Each each) {
    each([&](ProcessId pid, const T&) {
      if (pid == sim::kNoProcess) return;
      if (pid >= pids()) offsets.resize(pid + 2, 0);
      ++offsets[pid + 1];
    });
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    items.resize(offsets.back());
    std::vector<std::uint32_t> next(offsets.begin(), offsets.end() - 1);
    each([&](ProcessId pid, const T& item) {
      if (pid != sim::kNoProcess) items[next[pid]++] = item;
    });
  }

  template <typename Key>  // a pointer to T's sort-key member
  void sort_each(Key key) {
    for (ProcessId pid = 0; pid < pids(); ++pid) {
      const std::span<T> list = of(pid);
      std::sort(list.begin(), list.end(),
                [key](const T& a, const T& b) { return a.*key < b.*key; });
    }
  }

  std::size_t pids() const { return offsets.size() - 1; }
  std::span<T> of(ProcessId pid) {
    if (pid >= pids()) return {};
    return {items.data() + offsets[pid], items.data() + offsets[pid + 1]};
  }
};

struct PidEvent {  // one ack or bridge, per-pid, for the backward walk
  Time at;          // ack time / bridge done time
  std::uint32_t index;  // into recorder.acks() / recorder.bridges()
  bool is_bridge;
};

class Walker {
 public:
  Walker(const Tracer& tracer, const CausalRecorder& recorder,
         CriticalPathReport& report)
      : tracer_(tracer),
        recorder_(recorder),
        report_(report),
        categories_(categorize(tracer)),
        spans_([&](auto put) {
          const auto& events = tracer.event_list();
          for (std::uint32_t i = 0; i < events.size(); ++i) {
            if (events[i].phase == 'X') put(events[i].pid, i);
          }
        }),
        events_([&](auto put) {
          const auto& acks = recorder.acks();
          for (std::uint32_t i = 0; i < acks.size(); ++i) {
            put(acks[i].pid, PidEvent{acks[i].at, i, false});
          }
          const auto& bridges = recorder.bridges();
          for (std::uint32_t i = 0; i < bridges.size(); ++i) {
            put(bridges[i].pid, PidEvent{bridges[i].done, i, true});
          }
        }),
        overlays_([&](auto put) {
          for (const auto& o : recorder.overlays()) put(o.pid, o);
        }),
        cursors_(events_.offsets.begin() + 1, events_.offsets.end()),
        lanes_(spans_.pids()) {
    events_.sort_each(&PidEvent::at);
    overlays_.sort_each(&CausalRecorder::Overlay::begin);
  }

  void run() {
    ProcessId pid = sim::kNoProcess;
    Time t = 0;
    // Ties (several ranks finishing at the same virtual time — the normal
    // case at a final join) break toward the smallest pid: lanes are
    // visited in ascending pid order and only a later end replaces one.
    const auto& events = tracer_.event_list();
    for (ProcessId lane_pid = 0; lane_pid < spans_.pids(); ++lane_pid) {
      Time end = -1;  // stays -1 for a pid without a lane
      for (const std::uint32_t i : spans_.of(lane_pid)) {
        end = std::max(end, events[i].ts + events[i].dur);
      }
      if (end > t || (end == t && pid == sim::kNoProcess)) {
        t = end;
        pid = lane_pid;
      }
    }
    // Job completion can also be a pure emission (no span open at the end).
    for (const auto& e : recorder_.emissions()) {
      if (e.at > t) {
        t = e.at;
        pid = e.pid;
      }
    }
    report_.total_ns = t;
    if (pid == sim::kNoProcess || t == 0) return;

    const std::size_t cap =
        recorder_.acks().size() + recorder_.bridges().size() + 16;
    std::size_t steps = 0;
    while (t > 0) {
      if (++steps > cap) {
        report_.truncated = true;
        attribute_range(pid, 0, t);
        return;
      }
      const PidEvent* binding = take_binding(pid, t);
      if (binding == nullptr) {
        attribute_range(pid, 0, t);
        return;
      }
      ++report_.hops;
      if (binding->is_bridge) {
        const CausalRecorder::Bridge& br =
            recorder_.bridges()[binding->index];
        attribute_range(pid, br.done, t);
        // The background service interval itself: write/flush machinery,
        // with lock-wait overlays carved out.
        attribute_service(pid, br);
        t = br.issue;
      } else {
        const CausalRecorder::Ack& ack = recorder_.acks()[binding->index];
        const CausalRecorder::Emission& src = recorder_.source_of(ack);
        attribute_range(pid, std::min(ack.at, t), t);
        const Time jump_at = std::min(src.at, ack.at);
        if (ack.at > jump_at) attribute_edge(pid, src, jump_at, ack.at);
        pid = src.pid;
        t = jump_at;
      }
    }
  }

 private:
  /// Latest unconsumed ack/bridge for pid at or before t; consumes it.
  /// Per-lane walk positions only move backward, so a cursor suffices.
  const PidEvent* take_binding(ProcessId pid, Time t) {
    if (pid >= events_.pids()) return nullptr;
    const std::uint32_t first = events_.offsets[pid];
    std::uint32_t& cursor = cursors_[pid];
    while (cursor > first && events_.items[cursor - 1].at > t) --cursor;
    if (cursor == first) return nullptr;
    return &events_.items[--cursor];
  }

  /// pid's flattened spans, built on the walk's first visit to the lane.
  std::span<const FlatSeg> segments(ProcessId pid) {
    if (pid >= lanes_.size()) return {};
    std::optional<std::vector<FlatSeg>>& lane = lanes_[pid];
    if (!lane) {
      std::vector<FlatSeg> spans;
      for (const std::uint32_t i : spans_.of(pid)) {
        const Tracer::Event& e = tracer_.event_list()[i];
        spans.push_back(FlatSeg{e.ts, e.ts + e.dur, e.name});
      }
      lane = flatten(std::move(spans));
    }
    return *lane;
  }

  void add(PathCategory c, Time ns) {
    report_.category_ns[static_cast<std::size_t>(c)] += ns;
  }

  /// Lock-wait overlay time for pid within [b, e).
  Time overlay_within(ProcessId pid, Time b, Time e) {
    Time covered = 0;
    for (const CausalRecorder::Overlay& o : overlays_.of(pid)) {
      if (o.begin >= e) break;
      covered += std::max<Time>(0, std::min(o.end, e) - std::max(o.begin, b));
    }
    return covered;
  }

  /// Splits [a, t) along pid's flattened spans; uncovered time is idle;
  /// lock-wait overlays inside write/flush segments are re-labelled.
  void attribute_range(ProcessId pid, Time a, Time t) {
    if (t <= a) return;
    const std::string* label = nullptr;  // innermost span name seen last
    std::array<Time, kPathCategoryCount> local{};
    Time cursor = a;
    const std::span<const FlatSeg> segs = segments(pid);
    auto seg = std::lower_bound(
        segs.begin(), segs.end(), a,
        [](const FlatSeg& s, Time value) { return s.end <= value; });
    for (; seg != segs.end() && seg->begin < t; ++seg) {
      const Time b = std::max(cursor, seg->begin);
      const Time e = std::min(t, seg->end);
      if (seg->begin > cursor) {
        local[static_cast<std::size_t>(PathCategory::idle)] +=
            seg->begin - cursor;
      }
      if (e > b) {
        PathCategory cat = categories_[seg->name];
        Time span_ns = e - b;
        if (cat == PathCategory::write || cat == PathCategory::flush) {
          const Time locked = overlay_within(pid, b, e);
          local[static_cast<std::size_t>(PathCategory::lock_wait)] += locked;
          span_ns -= locked;
        }
        local[static_cast<std::size_t>(cat)] += span_ns;
        label = &tracer_.name(seg->name);
      }
      cursor = std::max(cursor, e);
    }
    if (cursor < t) {
      local[static_cast<std::size_t>(PathCategory::idle)] += t - cursor;
    }
    PathCategory top = PathCategory::idle;
    for (std::size_t c = 0; c < kPathCategoryCount; ++c) {
      report_.category_ns[c] += local[c];
      if (local[c] > local[static_cast<std::size_t>(top)]) {
        top = static_cast<PathCategory>(c);
      }
    }
    record_segment(pid, a, t, top, label != nullptr ? *label : std::string());
  }

  /// In-flight edge latency between an emission and the wake-up it gated.
  void attribute_edge(ProcessId pid, const CausalRecorder::Emission& src,
                      Time from, Time to) {
    const Time gap = to - from;
    PathCategory cat = PathCategory::coordination;
    switch (src.kind) {
      case EdgeKind::message: {
        const Time queued = std::min(src.contended_ns, gap);
        add(PathCategory::nic_contention, queued);
        add(PathCategory::shuffle, gap - queued);
        record_segment(pid, from, to, PathCategory::shuffle,
                       sim::edge_kind_name(src.kind));
        return;
      }
      case EdgeKind::sync_queue:
      case EdgeKind::grequest:
      case EdgeKind::batch_done:
        cat = PathCategory::flush;
        break;
      case EdgeKind::write_join:
        cat = PathCategory::write;
        break;
      case EdgeKind::lock_wait:
        cat = PathCategory::lock_wait;
        break;
      case EdgeKind::collective:
      case EdgeKind::process:
        cat = PathCategory::coordination;
        break;
    }
    add(cat, gap);
    record_segment(pid, from, to, cat, sim::edge_kind_name(src.kind));
  }

  /// Asynchronous service interval a stalled join waited out.
  void attribute_service(ProcessId pid, const CausalRecorder::Bridge& br) {
    const PathCategory cat = br.kind == EdgeKind::write_join
                                 ? PathCategory::write
                                 : PathCategory::flush;
    const Time locked = overlay_within(pid, br.issue, br.done);
    add(PathCategory::lock_wait, locked);
    add(cat, br.done - br.issue - locked);
    record_segment(pid, br.issue, br.done, cat, sim::edge_kind_name(br.kind));
  }

  void record_segment(ProcessId pid, Time begin, Time end, PathCategory cat,
                      std::string label) {
    if (end <= begin) return;
    if (report_.segments.size() >= CriticalPathReport::kMaxSegments) return;
    // The lane's track is the track of its last span.
    const std::span<std::uint32_t> spans = spans_.of(pid);
    const auto& tracks = tracer_.track_list();
    const int track =
        spans.empty() ? -1 : tracer_.event_list()[spans.back()].track;
    const bool named =
        track >= 0 && static_cast<std::size_t>(track) < tracks.size();
    report_.segments.push_back(PathSegment{
        named ? tracks[static_cast<std::size_t>(track)].name : std::string(),
        begin, end, cat, std::move(label)});
  }

  const Tracer& tracer_;
  const CausalRecorder& recorder_;
  CriticalPathReport& report_;
  const std::vector<PathCategory> categories_;  // by span NameId
  // Per-pid state, indexed by ProcessId.
  ByPid<std::uint32_t> spans_;  // indices into tracer.event_list()
  ByPid<PidEvent> events_;      // sorted by `at`
  ByPid<CausalRecorder::Overlay> overlays_;  // sorted by `begin`
  std::vector<std::uint32_t> cursors_;  // end of pid's unconsumed events_
  // Flattened on first visit: sorted by begin, non-overlapping.
  std::vector<std::optional<std::vector<FlatSeg>>> lanes_;
};

/// Per-rank skew over the rank tracks' last span ends and, with a profiler,
/// the phase self-check: one pass over the rank tracks' spans.
void fill_rank_stats(const Tracer& tracer, const prof::Profiler* profiler,
                     CriticalPathReport& report) {
  const auto& tracks = tracer.track_list();
  int ranks = profiler != nullptr ? profiler->ranks() : 0;
  for (const Tracer::TrackInfo& t : tracks) ranks = std::max(ranks, t.rank + 1);
  // rank -> last span end on its track (-1: no span); [rank][phase] -> ns.
  std::vector<Time> rank_ends(static_cast<std::size_t>(ranks), -1);
  std::vector<std::array<Time, prof::kPhaseCount>> traced(rank_ends.size());
  for (const Tracer::Event& e : tracer.event_list()) {
    const auto track = static_cast<std::size_t>(e.track);
    const int rank = track < tracks.size() ? tracks[track].rank : -1;
    if (e.phase != 'X' || rank < 0) continue;
    const auto r = static_cast<std::size_t>(rank);
    rank_ends[r] = std::max(rank_ends[r], e.ts + e.dur);
    if (e.name < prof::kPhaseCount) traced[r][e.name] += e.dur;
  }
  std::erase(rank_ends, Time{-1});
  std::sort(rank_ends.begin(), rank_ends.end());
  if (!rank_ends.empty()) {
    report.rank_end_min_ns = rank_ends.front();
    report.rank_end_max_ns = rank_ends.back();
    report.rank_end_p50_ns = rank_ends[(rank_ends.size() - 1) / 2];
  }
  if (rank_ends.size() > 1 && rank_ends.back() > 0) {
    report.rank_skew =
        static_cast<double>(rank_ends.back() - rank_ends.front()) /
        static_cast<double>(rank_ends.back());
  }
  if (profiler == nullptr) return;
  // Phase groups the consistency check compares. PhaseScope records each
  // phase in both sinks, so the trace and profiler see the same intervals.
  // not_hidden_sync is deliberately absent: it is a workflow-level timer
  // around the deferred close with no PhaseScope span of its own.
  using prof::Phase;
  const std::vector<std::vector<Phase>> groups = {
      {Phase::shuffle_intra, Phase::shuffle_all2all, Phase::shuffle_inter,
       Phase::exchange},
      {Phase::write_contig, Phase::read_contig},
      {Phase::flush_wait},
  };
  for (int rank = 0; rank < profiler->ranks(); ++rank) {
    for (const std::vector<Phase>& group : groups) {
      Time expected = 0;
      Time got = 0;
      for (const Phase phase : group) {
        expected += profiler->rank_total(rank, phase);
        got += traced[static_cast<std::size_t>(rank)]
                     [static_cast<std::size_t>(phase)];
      }
      if (expected <= 0) continue;
      const double rel =
          static_cast<double>(got > expected ? got - expected
                                             : expected - got) /
          static_cast<double>(expected);
      report.phase_consistency_dev =
          std::max(report.phase_consistency_dev, rel);
    }
  }
}

double seconds(Time ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace

const char* path_category_name(PathCategory category) {
  static constexpr const char* kNames[kPathCategoryCount] = {
      "shuffle", "write",        "flush", "lock_wait", "nic_contention",
      "compute", "coordination", "idle",  "other"};
  const auto c = static_cast<std::size_t>(category);
  return c < kPathCategoryCount ? kNames[c] : "?";
}

CriticalPathReport analyze_critical_path(const Tracer& tracer,
                                         const CausalRecorder& recorder,
                                         const prof::Profiler* profiler) {
  CriticalPathReport report;
  Walker walker(tracer, recorder, report);
  walker.run();
  Time named = 0;
  for (std::size_t c = 0; c < kPathCategoryCount; ++c) {
    if (c != static_cast<std::size_t>(PathCategory::other)) {
      named += report.category_ns[c];
    }
    if (report.category_ns[c] >
        report.category_ns[static_cast<std::size_t>(report.bottleneck)]) {
      report.bottleneck = static_cast<PathCategory>(c);
    }
  }
  report.attributed_fraction =
      report.total_ns > 0
          ? static_cast<double>(named) / static_cast<double>(report.total_ns)
          : 1.0;
  fill_rank_stats(tracer, profiler, report);
  return report;
}

Json critical_path_json(const CriticalPathReport& report,
                        const prof::Profiler* profiler) {
  Json out = Json::object();
  out.set("total_s", Json::number(seconds(report.total_ns)));
  out.set("bottleneck", Json::str(path_category_name(report.bottleneck)));
  out.set("attributed_fraction", Json::number(report.attributed_fraction));
  out.set("hops", Json::integer(report.hops));
  out.set("truncated", Json::boolean(report.truncated));
  Json categories = Json::object();
  for (std::size_t c = 0; c < kPathCategoryCount; ++c) {
    Json entry = Json::object();
    entry.set("s", Json::number(seconds(report.category_ns[c])));
    entry.set("fraction",
              Json::number(report.fraction(static_cast<PathCategory>(c))));
    categories.set(path_category_name(static_cast<PathCategory>(c)),
                   std::move(entry));
  }
  out.set("categories", std::move(categories));
  Json skew = Json::object();
  skew.set("min_s", Json::number(seconds(report.rank_end_min_ns)));
  skew.set("p50_s", Json::number(seconds(report.rank_end_p50_ns)));
  skew.set("max_s", Json::number(seconds(report.rank_end_max_ns)));
  skew.set("skew", Json::number(report.rank_skew));
  out.set("rank_skew", std::move(skew));
  out.set("phase_consistency_dev",
          Json::number(report.phase_consistency_dev));
  if (profiler != nullptr) {
    Json tails = Json::object();
    for (std::size_t p = 0; p < prof::kPhaseCount; ++p) {
      const auto phase = static_cast<prof::Phase>(p);
      Json row = Json::object();
      for (const auto& [key, q] :
           {std::pair{"p50_s", 0.50}, {"p95_s", 0.95}, {"p99_s", 0.99}}) {
        row.set(key, Json::number(seconds(
                         profiler->percentile_over_ranks(phase, q))));
      }
      row.set("max_s", Json::number(seconds(profiler->max_over_ranks(phase))));
      tails.set(prof::phase_name(phase), std::move(row));
    }
    out.set("phase_tails", std::move(tails));
  }
  Json segments = Json::array();
  for (const PathSegment& seg : report.segments) {
    Json row = Json::object();
    row.set("process", Json::str(seg.process));
    row.set("begin_s", Json::number(seconds(seg.begin)));
    row.set("end_s", Json::number(seconds(seg.end)));
    row.set("category", Json::str(path_category_name(seg.category)));
    if (!seg.label.empty()) row.set("label", Json::str(seg.label));
    segments.push(std::move(row));
  }
  out.set("segments", std::move(segments));
  return out;
}

std::string critical_path_table(const CriticalPathReport& report) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "critical path: %.6f s end-to-end, bottleneck=%s, "
                "%d hops, %.1f%% attributed\n",
                seconds(report.total_ns),
                path_category_name(report.bottleneck), report.hops,
                report.attributed_fraction * 100.0);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  %-16s %12s %8s\n", "category",
                "seconds", "share");
  out += buf;
  for (std::size_t c = 0; c < kPathCategoryCount; ++c) {
    const auto cat = static_cast<PathCategory>(c);
    if (report.category_ns[c] == 0) continue;
    std::snprintf(buf, sizeof(buf), "  %-16s %12.6f %7.1f%%\n",
                  path_category_name(cat), seconds(report.category_ns[c]),
                  report.fraction(cat) * 100.0);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  rank completion: min=%.6f p50=%.6f max=%.6f s "
                "(skew %.1f%%)\n",
                seconds(report.rank_end_min_ns),
                seconds(report.rank_end_p50_ns),
                seconds(report.rank_end_max_ns), report.rank_skew * 100.0);
  out += buf;
  return out;
}

}  // namespace e10::obs
