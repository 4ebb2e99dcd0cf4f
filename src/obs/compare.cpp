#include "obs/compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace e10::obs {

namespace {

/// One normalized measurement extracted from either input shape.
struct Point {
  double io_time_s = 0.0;
  std::string checksum;  // empty = not recorded
  std::vector<std::pair<std::string, double>> phase_max_s;
  /// Deterministic scheduler counters (derived "engine.*" keys). Unlike
  /// io_time_s these carry no model jitter at all: the same build on the
  /// same spec reproduces them exactly, so the gate compares them with no
  /// threshold.
  std::vector<std::pair<std::string, double>> engine_counters;
  /// The run report's "critical_path" section (null when absent). Built
  /// from virtual time alone, so it is gated exactly like the counters.
  const Json* critical_path = nullptr;
};

/// Normalized document: insertion-ordered key -> point.
using PointMap = std::vector<std::pair<std::string, Point>>;

const Point* find_point(const PointMap& map, const std::string& key) {
  for (const auto& [k, p] : map) {
    if (k == key) return &p;
  }
  return nullptr;
}

std::string config_str(const Json& config, const char* key) {
  const Json* value = config.find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::string();
}

Result<PointMap> from_run_report_array(const Json& doc) {
  PointMap out;
  for (const Json& entry : doc.elements()) {
    const Json* config = entry.find("config");
    const Json* derived = entry.find("derived");
    if (config == nullptr || derived == nullptr) {
      return Status::error(Errc::invalid_argument,
                           "compare: run-report entry without config/derived");
    }
    const Json* io_time = derived->find("io_time_s");
    if (io_time == nullptr || !io_time->is_numeric()) {
      return Status::error(Errc::invalid_argument,
                           "compare: run-report entry without io_time_s");
    }
    std::string key = config_str(*config, "combo") + "/" +
                      config_str(*config, "cache_case");
    for (const char* extra : {"pipeline", "sync_streams", "coalesce"}) {
      const std::string value = config_str(*config, extra);
      if (!value.empty()) key += "/" + std::string(extra) + "=" + value;
    }
    Point point;
    point.io_time_s = io_time->as_number();
    point.checksum = config_str(*config, "content_checksum");
    for (const auto& [name, value] : derived->members()) {
      if (name.rfind("engine.", 0) == 0 && value.is_numeric()) {
        point.engine_counters.emplace_back(name, value.as_number());
      }
    }
    if (const Json* section = entry.find("critical_path");
        section != nullptr && section->is_object()) {
      point.critical_path = section;
    }
    if (const Json* phases = entry.find("phases");
        phases != nullptr && phases->is_object()) {
      for (const auto& [phase, row] : phases->members()) {
        if (const Json* max_s = row.find("max_s");
            max_s != nullptr && max_s->is_numeric()) {
          point.phase_max_s.emplace_back(phase, max_s->as_number());
        }
      }
    }
    out.emplace_back(std::move(key), std::move(point));
  }
  return out;
}

Result<PointMap> from_bench_entries(const Json& doc) {
  PointMap out;
  const Json& entries = doc.at("entries");
  if (!entries.is_array()) {
    return Status::error(Errc::invalid_argument,
                         "compare: 'entries' is not an array");
  }
  for (const Json& entry : entries.elements()) {
    if (!entry.is_object()) {
      return Status::error(Errc::invalid_argument,
                           "compare: BENCH entry is not an object");
    }
    const std::string base = config_str(entry, "combo") + "/" +
                             config_str(entry, "cache_case");
    bool any = false;
    for (const auto& [key, value] : entry.members()) {
      if (key.rfind("io_time_s", 0) != 0 || !value.is_numeric()) continue;
      Point point;
      point.io_time_s = value.as_number();
      std::string suffix = key.substr(9);  // "" or "_pipelined" etc.
      if (!suffix.empty() && suffix.front() == '_') suffix.erase(0, 1);
      out.emplace_back(suffix.empty() ? base : base + "/" + suffix,
                       std::move(point));
      any = true;
    }
    if (!any) {
      return Status::error(Errc::invalid_argument,
                           "compare: BENCH entry without io_time_s columns");
    }
  }
  return out;
}

Result<PointMap> normalize(const Json& doc) {
  if (doc.is_array()) return from_run_report_array(doc);
  if (doc.is_object() && doc.find("entries") != nullptr) {
    return from_bench_entries(doc);
  }
  return Status::error(
      Errc::invalid_argument,
      "compare: document is neither a run-report array nor a BENCH file");
}

/// Names of the members whose values differ between two critical-path
/// sections, comma-separated; empty when the sections are identical.
std::string critical_path_drift(const Json& base, const Json& cand) {
  std::string drift;
  const auto note = [&](const std::string& name) {
    drift += (drift.empty() ? "" : ", ") + name;
  };
  for (const auto& [name, value] : base.members()) {
    const Json* other = cand.find(name);
    if (other == nullptr || other->dump() != value.dump()) note(name);
  }
  for (const auto& [name, value] : cand.members()) {
    if (base.find(name) == nullptr) note(name);
  }
  return drift;
}

}  // namespace

Result<CompareReport> compare_runs(const Json& baseline, const Json& candidate,
                                   const CompareOptions& options) {
  auto base_points = normalize(baseline);
  if (!base_points.is_ok()) return base_points.status();
  auto cand_points = normalize(candidate);
  if (!cand_points.is_ok()) return cand_points.status();
  // An empty side makes every verdict vacuous; a gate that can "pass" on a
  // truncated or mis-generated document is worse than one that errors.
  if (base_points.value().empty()) {
    return Status::error(Errc::invalid_argument,
                         "compare: baseline contains no measurements");
  }
  if (cand_points.value().empty()) {
    return Status::error(Errc::invalid_argument,
                         "compare: candidate contains no measurements");
  }

  CompareReport report;
  for (const auto& [key, base] : base_points.value()) {
    const Point* cand = find_point(cand_points.value(), key);
    if (cand == nullptr) {
      report.missing_in_candidate.push_back(key);
      continue;
    }
    PointDiff diff;
    diff.key = key;
    diff.baseline_s = base.io_time_s;
    diff.candidate_s = cand->io_time_s;
    diff.ratio = base.io_time_s > 0 ? cand->io_time_s / base.io_time_s : 1.0;
    diff.regression =
        cand->io_time_s > base.io_time_s * (1.0 + options.threshold);
    diff.improved =
        cand->io_time_s < base.io_time_s * (1.0 - options.threshold);
    diff.checksum_mismatch = !base.checksum.empty() &&
                             !cand->checksum.empty() &&
                             base.checksum != cand->checksum;
    // Phase attribution: where did the time move? Largest slowdown first.
    for (const auto& [phase, base_s] : base.phase_max_s) {
      for (const auto& [cand_phase, cand_s] : cand->phase_max_s) {
        if (cand_phase == phase) {
          diff.phase_deltas.emplace_back(phase, cand_s - base_s);
          break;
        }
      }
    }
    std::sort(diff.phase_deltas.begin(), diff.phase_deltas.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    // Deterministic-counter gate: any engine.* counter present on both
    // sides must match exactly — a drift means the scheduler did different
    // work for the same spec, which io_time thresholds would absorb.
    for (const auto& [name, base_value] : base.engine_counters) {
      for (const auto& [cand_name, cand_value] : cand->engine_counters) {
        if (cand_name != name) continue;
        if (base_value != cand_value) {
          char buf[128];
          std::snprintf(buf, sizeof(buf), "%s: %.0f -> %.0f", name.c_str(),
                        base_value, cand_value);
          diff.counter_mismatches.emplace_back(buf);
        }
        break;
      }
    }
    // The critical path is as deterministic as the counters: any drift in
    // a section both sides carry means the run's causal structure changed.
    if (base.critical_path != nullptr && cand->critical_path != nullptr) {
      const std::string drift =
          critical_path_drift(*base.critical_path, *cand->critical_path);
      if (!drift.empty()) {
        diff.counter_mismatches.push_back("critical_path: " + drift);
      }
    }
    if (!diff.counter_mismatches.empty()) diff.regression = true;
    if (diff.regression) ++report.regressions;
    if (diff.improved) ++report.improvements;
    if (diff.checksum_mismatch) report.checksum_mismatch = true;
    report.points.push_back(std::move(diff));
  }
  for (const auto& [key, point] : cand_points.value()) {
    if (find_point(base_points.value(), key) == nullptr) {
      report.missing_in_baseline.push_back(key);
    }
  }
  if (report.points.empty()) {
    // Both sides parsed but share no point keys — almost certainly two
    // documents from different sweeps (mismatched schema/configs), not a
    // clean run.
    return Status::error(
        Errc::invalid_argument,
        "compare: no overlapping points between baseline and candidate");
  }
  return report;
}

std::string compare_table(const CompareReport& report,
                          const CompareOptions& options) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-44s %12s %12s %8s  %s\n", "point",
                "baseline_s", "candidate_s", "ratio", "verdict");
  out += buf;
  for (const PointDiff& point : report.points) {
    const char* verdict = point.regression    ? "REGRESSION"
                          : point.improved    ? "improved"
                                              : "ok";
    std::snprintf(buf, sizeof(buf), "%-44s %12.6f %12.6f %8.4f  %s%s\n",
                  point.key.c_str(), point.baseline_s, point.candidate_s,
                  point.ratio, verdict,
                  point.checksum_mismatch ? " [checksum mismatch]" : "");
    out += buf;
    if (point.regression) {
      // Attribute: phases whose max-over-ranks time grew, biggest first.
      int shown = 0;
      for (const auto& [phase, delta] : point.phase_deltas) {
        if (delta <= 0 || shown >= 3) break;
        std::snprintf(buf, sizeof(buf), "    %-24s +%.6f s\n", phase.c_str(),
                      delta);
        out += buf;
        ++shown;
      }
    }
    for (const std::string& mismatch : point.counter_mismatches) {
      out += "    counter drift: " + mismatch + "\n";
    }
  }
  for (const std::string& key : report.missing_in_candidate) {
    out += "missing in candidate: " + key + "\n";
  }
  for (const std::string& key : report.missing_in_baseline) {
    out += "new in candidate: " + key + "\n";
  }
  std::snprintf(buf, sizeof(buf),
                "%zu point(s), %zu regression(s), %zu improvement(s), "
                "threshold %.1f%% -> %s\n",
                report.points.size(), report.regressions, report.improvements,
                options.threshold * 100.0,
                report.ok(options) ? "PASS" : "FAIL");
  out += buf;
  return out;
}

}  // namespace e10::obs
