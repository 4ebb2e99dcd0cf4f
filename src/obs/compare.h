// Run-report comparison: the never-slower perf gate.
//
// Diffs two performance documents point by point and flags regressions
// beyond a relative threshold, with per-phase attribution of where the lost
// time went. Two input shapes are understood:
//
//  * a run-report JSON array (bench --report=): one object per experiment
//    with "config" (combo, cache_case, pipeline, ...), "derived"
//    (io_time_s) and "phases" (per-phase max_s) — phase attribution works;
//  * a checked-in BENCH_*.json results file: {"entries": [...]} rows keyed
//    by (combo, cache_case) whose io_time_s_* columns are each compared.
//
// bench/bench_compare.cpp wraps this as the CLI the CI regression gate
// runs against the checked-in baselines.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/json.h"

namespace e10::obs {

struct CompareOptions {
  /// Relative io-time tolerance: candidate > baseline * (1 + threshold)
  /// counts as a regression. 2% absorbs libm/platform jitter in the
  /// virtual-time models while catching real slowdowns.
  double threshold = 0.02;
  /// Treat content-checksum mismatches as failures (default: warn only —
  /// an intentional workload change legitimately moves the checksum).
  bool strict_checksums = false;
};

/// One compared sweep point (one experiment / one BENCH column).
struct PointDiff {
  std::string key;        // e.g. "8_4m/cache_enabled/pipeline=on"
  double baseline_s = 0;  // baseline io time
  double candidate_s = 0;
  double ratio = 1.0;     // candidate / baseline (>1 = slower)
  bool regression = false;
  bool improved = false;
  bool checksum_mismatch = false;
  /// Deterministic "engine.*" scheduler counters (run-report derived keys)
  /// present on both sides that do not match EXACTLY — no threshold, since
  /// the same build on the same spec reproduces them bit-for-bit — plus
  /// one "critical_path: <members>" entry when both sides carry a
  /// critical_path section and it differs. Any entry marks the point as a
  /// regression: the scheduler did different work.
  std::vector<std::string> counter_mismatches;
  /// Per-phase max_s deltas (candidate - baseline, seconds), largest
  /// slowdown first; empty when the inputs carry no phase table.
  std::vector<std::pair<std::string, double>> phase_deltas;
};

struct CompareReport {
  std::vector<PointDiff> points;
  std::vector<std::string> missing_in_candidate;  // baseline-only keys
  std::vector<std::string> missing_in_baseline;   // candidate-only keys
  std::size_t regressions = 0;
  std::size_t improvements = 0;
  bool checksum_mismatch = false;

  bool ok(const CompareOptions& options) const {
    return regressions == 0 &&
           (!options.strict_checksums || !checksum_mismatch);
  }
};

/// Compares two parsed documents (either supported shape, independently
/// detected per side). Errors when a document matches neither shape.
Result<CompareReport> compare_runs(const Json& baseline, const Json& candidate,
                                   const CompareOptions& options);

/// Human-readable table: one row per point, regressions flagged, phase
/// attribution for each regressed point, and a final verdict line.
std::string compare_table(const CompareReport& report,
                          const CompareOptions& options);

}  // namespace e10::obs
