#include "spans.h"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Sorts and merges overlapping intervals into a disjoint ascending list.
std::vector<Interval> merged(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> out;
  for (const Interval& iv : intervals) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

std::int64_t length(const std::vector<Interval>& disjoint) {
  std::int64_t total = 0;
  for (const Interval& iv : disjoint) total += iv.second - iv.first;
  return total;
}

/// Length of the intersection of two disjoint ascending interval lists.
std::int64_t overlap(const std::vector<Interval>& a,
                     const std::vector<Interval>& b) {
  std::int64_t total = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const std::int64_t lo = std::max(a[i].first, b[j].first);
    const std::int64_t hi = std::min(a[i].second, b[j].second);
    if (lo < hi) total += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

}  // namespace

int SpanRecorder::begin(const char* name, int parent, int point) {
  SpanRecord span;
  span.name = name;
  span.start_ns = now_ns();
  span.parent = parent;
  span.point = point;
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::size_t SpanRecorder::open_spans() const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [](const SpanRecord& s) { return s.end_ns < 0; }));
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::map<std::string, SpanTime> span_times(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, std::vector<Interval>> own;
  std::map<std::string, std::vector<Interval>> children;
  for (const SpanRecord& span : spans) {
    if (span.end_ns < 0) continue;
    own[span.name].emplace_back(span.start_ns, span.end_ns);
    if (span.parent >= 0) {
      const SpanRecord& parent = spans[static_cast<std::size_t>(span.parent)];
      children[parent.name].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, SpanTime> out;
  for (auto& [name, intervals] : own) {
    const std::vector<Interval> covered = merged(std::move(intervals));
    const std::int64_t total = length(covered);
    std::int64_t child = 0;
    if (const auto it = children.find(name); it != children.end()) {
      child = overlap(covered, merged(std::move(it->second)));
    }
    out[name] = SpanTime{static_cast<double>(total) * 1e-9,
                         static_cast<double>(total - child) * 1e-9};
  }
  return out;
}

}  // namespace perfbench
