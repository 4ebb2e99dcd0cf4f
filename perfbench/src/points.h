// The benchmark's workloads and the closed-loop rank program that drives
// one sweep point through the simulator's public API.
//
// Every simulated rank issues its next MPI-IO call only after the previous
// one returned (a closed loop, one client per rank); the whole load runs in
// one process on one host thread, because the DES engine is single-threaded.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "workloads/experiment.h"

namespace perfbench {

class SpanRecorder;

/// One sweep point: a coll_perf-style 3-D block-distributed array written
/// with one subarray write_all per file.
struct Point {
  std::string name;
  /// Testbed, aggregator count, collective buffer and cache case; the
  /// MPI-IO hints come from workloads::experiment_hints(spec).
  e10::workloads::ExperimentSpec spec;
  std::array<e10::Offset, 3> grid{};   // process grid, product = ranks
  std::array<e10::Offset, 3> block{};  // per-rank block in 8-byte elements
  int files = 1;
  e10::Time compute = 0;  // compute phase between files
  /// Checkpoint/restart loop: write, read back through the open handle,
  /// close, compute; after every file, reopen each one and read it again.
  /// Otherwise the paper's workflow (Fig. 3): deferred close when the cache
  /// is on, compute between files only.
  bool readback = false;

  e10::Offset bytes_per_rank() const {
    return block[0] * block[1] * block[2] * kElemBytes;
  }
  static constexpr e10::Offset kElemBytes = 8;
};

struct Workload {
  std::string name;
  std::vector<Point> points;
  /// The program's critical-path analyzer is on in untraced runs.
  bool analyzer = false;
};

/// The workload called `name` with its testbed jitter seeded from `seed`;
/// throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);
std::vector<std::string> workload_names();

/// Eight-rank readback point for the self-check.
Point self_check_point();

/// Golden fingerprints are stored per payload family; the payload seeds of
/// a run derive from its family, the jitter seed from the full seed.
constexpr std::uint64_t kPayloadFamilies = 16;

struct PointConfig {
  bool analyzer = false;
  SpanRecorder* spans = nullptr;  // null: untraced
  int point_id = 0;
  std::uint64_t payload_family = 0;
  /// Expected content fingerprint; null skips the comparison.
  const std::string* golden = nullptr;
  /// Self-check only: flips one byte of rank 0's first read-back result
  /// before it is verified.
  bool flip_read_byte = false;
  /// Stop after the rank launch and tear the platform down unrun: a
  /// set-up sample with nothing else measured.
  bool setup_only = false;
};

struct PointResult {
  double setup_s = 0.0;  // Platform construction + rank launch
  double host_s = 0.0;   // engine run + run report + analyzer
  double run_s = 0.0;    // engine run alone
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double bytes = 0.0;       // application bytes written and read
  e10::Time io_time = 0;    // Eq. 2 denominator
  std::string fingerprint;  // sampled FNV-1a of the output files
  /// Deterministic per-layer values (sums unless noted in merge_counters).
  std::map<std::string, double> counters;
  std::vector<std::string> errors;  // one line per failure
};

PointResult run_point(const Point& point, const PointConfig& config);

/// Folds one point's counters into a running per-workload total.
void merge_counters(std::map<std::string, double>& total,
                    const std::map<std::string, double>& point);

/// Turns merged raw counters into the reported deterministic metrics
/// (ratios computed from pooled numerators and denominators).
std::map<std::string, double> finish_counters(
    const std::map<std::string, double>& raw);

/// Expected fingerprint from the access pattern alone (no simulator): the
/// independent oracle the stored goldens are checked against when printed.
std::string reference_fingerprint(const Point& point,
                                  std::uint64_t payload_family);

}  // namespace perfbench
