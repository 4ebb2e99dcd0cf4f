// perfbench: the repository benchmark. One invocation runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --golden FILE
//   perfbench --workload NAME --seed N --print-golden
//
// --trace 0 measures the end-to-end metrics: it repeats the workload's
// points for S seconds (at least three passes) and reports medians.
// --trace 1 is the traced run: it alternates untraced passes with passes
// that record the benchmark's host-time spans and turn the program's
// critical-path analyzer on, and reports the per-layer metrics. Either way
// the last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --print-golden prints the content fingerprints of the seed's payload
// family after checking them against the access-pattern reference.
// perfbench/README.md describes the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.h"
#include "points.h"
#include "spans.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Passes a measuring run makes at least, and the host time after which it
/// stops adding passes beyond that minimum, so a run ends within 180 s.
constexpr int kMinPasses = 3;
constexpr int kMinTracedRounds = 2;
constexpr double kSoftDeadlineS = 120.0;

/// Every span the benchmark records; the traced run reports total and self
/// host time for each.
constexpr const char* kSpanNames[] = {
    "bench.point",     "workloads.platform", "workloads.launch",
    "sim.run",         "mpiio.open",         "mpiio.write_all",
    "mpiio.read_all",  "mpiio.close",        "workloads.compute",
    "obs.analyze",     "obs.report",         "bench.check",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string golden_path;
  bool print_golden = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --golden FILE\n"
               "       perfbench --workload NAME --seed N --print-golden\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-golden") {
      args.print_golden = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--golden") {
        args.golden_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  if (!args.print_golden && args.golden_path.empty()) {
    usage("--golden is required");
  }
  return args;
}

/// "workload point family" -> fingerprint.
using Goldens = std::map<std::string, std::string>;

std::string golden_key(const std::string& workload, const std::string& point,
                       std::uint64_t family) {
  return workload + " " + point + " " + std::to_string(family);
}

Goldens load_goldens(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot read golden file " + path);
  Goldens goldens;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, point, fingerprint;
    std::uint64_t family = 0;
    if (!(fields >> workload >> point >> family >> fingerprint)) {
      usage("malformed golden line: " + line);
    }
    goldens[golden_key(workload, point, family)] = fingerprint;
  }
  return goldens;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Whether to start another pass (or round) after `done` of them took
/// `elapsed` seconds: until the minimum is reached, then while one more of
/// average length still ends within the run's `seconds`. Past the soft
/// deadline only the minimum is kept.
bool keep_going(std::size_t done, std::size_t minimum, double elapsed,
                double seconds) {
  if (done == 0) return true;
  const double next_end = elapsed + elapsed / static_cast<double>(done);
  if (done < minimum) return next_end <= kSoftDeadlineS;
  return next_end <= seconds;
}

/// One pass over every point of a workload.
struct Pass {
  double setup_s = 0.0;
  double host_s = 0.0;
  double run_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double bytes = 0.0;
  e10::Time io_time = 0;
  std::map<std::string, double> counters;  // finished deterministic values
  std::vector<std::string> errors;

  double virt_bw_gib() const {
    const double io_s = e10::units::to_seconds(io_time);
    return io_s > 0 ? bytes / static_cast<double>(e10::units::GiB) / io_s
                    : 0.0;
  }
};

const std::string kNoGolden = "<none>";

/// Set-ups per point and pass that are torn down unrun, on top of the
/// measured point's own, until their count or their host time (tearing
/// down thousands of unstarted rank fibers is slow) runs out; setup_s is
/// the median of them all, because one set-up takes milliseconds.
constexpr int kExtraSetups = 16;
constexpr double kExtraSetupBudgetS = 0.3;

Pass run_pass(const Workload& workload, const Goldens& goldens,
              std::uint64_t family, bool analyzer, SpanRecorder* spans,
              int& next_point_id, int extra_setups = 0) {
  Pass pass;
  std::map<std::string, double> raw;
  for (const Point& point : workload.points) {
    const auto golden =
        goldens.find(golden_key(workload.name, point.name, family));
    PointConfig config;
    config.analyzer = analyzer;
    config.spans = spans;
    config.point_id = next_point_id++;
    config.payload_family = family;
    config.golden = golden != goldens.end() ? &golden->second : &kNoGolden;
    const PointResult r = run_point(point, config);
    std::vector<double> setups = {r.setup_s};
    PointConfig setup_only = config;
    setup_only.setup_only = true;
    const Clock::time_point setup_start = Clock::now();
    for (int i = 0; i < extra_setups &&
                    seconds_since(setup_start) < kExtraSetupBudgetS;
         ++i) {
      setups.push_back(run_point(point, setup_only).setup_s);
    }
    pass.setup_s += median(setups);
    pass.host_s += r.host_s;
    pass.run_s += r.run_s;
    pass.attempted += r.attempted;
    pass.failed += r.failed;
    pass.bytes += r.bytes;
    pass.io_time += r.io_time;
    merge_counters(raw, r.counters);
    pass.errors.insert(pass.errors.end(), r.errors.begin(), r.errors.end());
  }
  pass.counters = finish_counters(raw);
  return pass;
}

/// Runs the eight-rank readback point clean (expecting no failure) and
/// with a corrupted golden fingerprint plus one flipped read-back byte
/// (expecting exactly those two failures, counted rather than crashing).
bool self_check(std::vector<std::string>& errors) {
  const Point point = self_check_point();
  const std::string golden = reference_fingerprint(point, 0);
  std::string corrupted = golden;
  corrupted.back() = corrupted.back() == '0' ? '1' : '0';

  PointConfig clean;
  clean.golden = &golden;
  const PointResult a = run_point(point, clean);
  PointConfig broken;
  broken.golden = &corrupted;
  broken.flip_read_byte = true;
  const PointResult b = run_point(point, broken);
  bool ok = true;
  if (a.failed != 0) {
    errors.push_back("self-check: clean point failed " +
                     std::to_string(a.failed) + " operations");
    errors.insert(errors.end(), a.errors.begin(), a.errors.end());
    ok = false;
  }
  if (b.failed != 2) {
    errors.push_back("self-check: corrupted golden + flipped byte counted " +
                     std::to_string(b.failed) + " failures, expected 2");
    ok = false;
  }
  return ok;
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string unit_of(const std::string& name) {
  const auto ends_with = [&name](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends_with("_gib")) return "GiB/s";
  if (ends_with("_ns_per_event")) return "ns";
  if (ends_with("_s")) return "s";
  if (name.find("bytes") != std::string::npos) return "bytes";
  if (ends_with("ratio") || ends_with("fraction") || ends_with("_max") ||
      ends_with("overhead")) {
    return "ratio";
  }
  return "count";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_errors(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) std::printf("FAIL %s\n", e.c_str());
}

/// Laplace's rule of succession, (failed + 1) / (attempted + 2), per pass
/// and averaged: the failure metric never reads 0, so the relative change
/// between two runs stays defined; `failed` and `attempted` give the raw
/// counts.
double fail_ratio(const std::vector<Pass>& passes) {
  double sum = 0.0;
  for (const Pass& p : passes) {
    sum += (static_cast<double>(p.failed) + 1.0) /
           (static_cast<double>(p.attempted) + 2.0);
  }
  return passes.empty() ? 1.0 : sum / static_cast<double>(passes.size());
}

/// Compares a pass's deterministic outputs with the first pass's.
bool same_counters(const Pass& a, const Pass& b,
                   std::vector<std::string>& errors) {
  bool same = true;
  if (a.virt_bw_gib() != b.virt_bw_gib()) {
    errors.push_back("virt_bw_gib differs between passes of one seed");
    same = false;
  }
  if (a.counters != b.counters) {
    for (const auto& [name, value] : a.counters) {
      const auto it = b.counters.find(name);
      if (it == b.counters.end() || it->second != value) {
        errors.push_back("counter " + name +
                         " differs between passes of one seed");
      }
    }
    same = false;
  }
  return same;
}

int measure(const Workload& workload, const Goldens& goldens,
            std::uint64_t family, double seconds) {
  std::vector<std::string> errors;
  bool correct = self_check(errors);
  const Clock::time_point start = Clock::now();
  std::vector<Pass> passes;
  double rss_mib = 0.0;
  int point_id = 0;
  while (keep_going(passes.size(), kMinPasses, seconds_since(start),
                    seconds)) {
    passes.push_back(run_pass(workload, goldens, family, workload.analyzer,
                              nullptr, point_id, kExtraSetups));
    // Peak memory of a process that ran the workload once: later passes
    // only add allocator reuse noise.
    if (passes.size() == 1) rss_mib = peak_rss_mib();
    const Pass& p = passes.back();
    std::printf("pass %zu: setup_s %.4f host_s %.4f virt_bw_gib %.6f "
                "failed %llu/%llu\n",
                passes.size(), p.setup_s, p.host_s, p.virt_bw_gib(),
                static_cast<unsigned long long>(p.failed),
                static_cast<unsigned long long>(p.attempted));
    std::fflush(stdout);
  }
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> host, setup;
  for (const Pass& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    host.push_back(p.host_s);
    setup.push_back(p.setup_s);
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    if (!same_counters(passes.front(), p, errors)) {
      correct = false;
      ++failed;
    }
  }
  correct = correct && failed == 0;
  print_errors(errors);
  const double ratio = fail_ratio(passes);
  std::printf("%s seed family %llu: %zu passes, failed %llu of %llu "
              "operations\n",
              workload.name.c_str(), static_cast<unsigned long long>(family),
              passes.size(), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  print_result(correct, attempted, failed,
               {{"host_s", median(host), "s"},
                {"setup_s", median(setup), "s"},
                {"peak_rss_mib", rss_mib, "MiB"},
                {"virt_bw_gib", passes.front().virt_bw_gib(), "GiB/s"},
                {"fail_ratio", ratio, "ratio"}});
  return 0;
}

int traced(const Workload& workload, const Goldens& goldens,
           std::uint64_t family, double seconds) {
  std::vector<std::string> errors;
  bool correct = self_check(errors);
  const Clock::time_point start = Clock::now();
  std::vector<Pass> traced_passes;
  std::vector<double> untraced_host, traced_host, record_host;
  std::map<std::string, std::vector<double>> span_total, span_self;
  std::uint64_t attempted = 0, failed = 0;
  int point_id = 0;
  while (keep_going(traced_passes.size(), kMinTracedRounds,
                    seconds_since(start), seconds)) {
    // Untraced pass as measured by --trace 0, an analyzer-off pass (the
    // untraced pass when the workload already runs without the analyzer),
    // and a pass with spans recorded and the analyzer on.
    std::vector<Pass> round;
    round.push_back(run_pass(workload, goldens, family, workload.analyzer,
                             nullptr, point_id));
    if (workload.analyzer) {
      round.push_back(
          run_pass(workload, goldens, family, false, nullptr, point_id));
    }
    SpanRecorder spans;
    round.push_back(
        run_pass(workload, goldens, family, true, &spans, point_id));
    const Pass& untraced = round.front();
    const Pass& off = round[round.size() - 2];
    const Pass& on = round.back();
    untraced_host.push_back(untraced.host_s);
    traced_host.push_back(on.host_s);
    record_host.push_back(on.run_s - off.run_s);
    for (const auto& [name, time] : span_times(spans.spans())) {
      span_total[name].push_back(time.total_s);
      span_self[name].push_back(time.self_s);
    }
    if (spans.open_spans() != 0) {
      errors.push_back("benchmark left " +
                       std::to_string(spans.open_spans()) + " spans open");
      ++failed;
    }
    if (on.virt_bw_gib() != untraced.virt_bw_gib()) {
      errors.push_back("virt_bw_gib differs between traced and untraced runs");
      ++failed;
    }
    for (const Pass& p : round) {
      attempted += p.attempted;
      failed += p.failed;
      errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    }
    traced_passes.push_back(on);
    if (!same_counters(traced_passes.front(), on, errors)) ++failed;
    std::printf("round %zu: untraced host_s %.4f traced host_s %.4f\n",
                traced_passes.size(), untraced.host_s, on.host_s);
    std::fflush(stdout);
  }
  correct = correct && failed == 0;
  print_errors(errors);

  std::vector<Metric> metrics;
  const std::map<std::string, double>& counters =
      traced_passes.front().counters;
  for (const auto& [name, value] : counters) {
    metrics.push_back({name, value, unit_of(name)});
  }
  const auto span_median =
      [](const std::map<std::string, std::vector<double>>& by_name,
         const std::string& name) {
        const auto it = by_name.find(name);
        return it != by_name.end() ? median(it->second) : 0.0;
      };
  for (const char* name : kSpanNames) {
    metrics.push_back(
        {std::string(name) + "_host_s", span_median(span_total, name), "s"});
    metrics.push_back({std::string(name) + "_self_host_s",
                       span_median(span_self, name), "s"});
  }
  const double events = counters.at("sim.events");
  metrics.push_back({"sim.host_ns_per_event",
                     events > 0 ? span_median(span_total, "sim.run") * 1e9 /
                                      events
                                : 0.0,
                     "ns"});
  metrics.push_back({"obs.record_host_s", median(record_host), "s"});
  const double untraced_median = median(untraced_host);
  metrics.push_back({"bench.trace_overhead",
                     untraced_median > 0
                         ? median(traced_host) / untraced_median
                         : 0.0,
                     "ratio"});
  std::printf("%s seed family %llu: %zu traced rounds, failed %llu of %llu "
              "operations\n",
              workload.name.c_str(), static_cast<unsigned long long>(family),
              traced_passes.size(), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const Metric& m : metrics) {
    std::printf("  %-36s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

int print_golden(const Workload& workload, std::uint64_t family) {
  int status = 0;
  for (const Point& point : workload.points) {
    PointConfig config;
    config.payload_family = family;
    const PointResult r = run_point(point, config);
    const std::string reference = reference_fingerprint(point, family);
    if (r.failed != 0 || r.fingerprint != reference) {
      std::fprintf(stderr,
                   "%s %s family %llu: fingerprint %s, reference %s, "
                   "%llu failed\n",
                   workload.name.c_str(), point.name.c_str(),
                   static_cast<unsigned long long>(family),
                   r.fingerprint.c_str(), reference.c_str(),
                   static_cast<unsigned long long>(r.failed));
      for (const std::string& e : r.errors) {
        std::fprintf(stderr, "  %s\n", e.c_str());
      }
      status = 1;
      continue;
    }
    std::printf("%s\n",
                (golden_key(workload.name, point.name, family) + " " +
                 r.fingerprint)
                    .c_str());
  }
  return status;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  Workload workload;
  try {
    workload = make_workload(args.workload, args.seed);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  const std::uint64_t family = args.seed % kPayloadFamilies;
  if (args.print_golden) return print_golden(workload, family);
  const Goldens goldens = load_goldens(args.golden_path);
  return args.trace == 1 ? traced(workload, goldens, family, args.seconds)
                         : measure(workload, goldens, family, args.seconds);
}
