#include "points.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>

#include "adio/adio_file.h"
#include "common/dataview.h"
#include "common/rng.h"
#include "mpi/datatype.h"
#include "mpiio/file.h"
#include "obs/causal.h"
#include "obs/critical_path.h"
#include "obs/report.h"
#include "spans.h"
#include "workloads/testbed.h"

namespace perfbench {

namespace {

using namespace e10;
using workloads::CacheCase;

constexpr int kMaxErrorsPerPoint = 8;
/// Read-back bytes compared against the written pattern per read_all call.
constexpr Offset kReadSamples = 64;
/// Positions hashed per file by the content fingerprint.
constexpr Offset kFingerprintSamples = 65536;

Point collperf_point(std::string name, const workloads::TestbedParams& testbed,
                     int aggregators, Offset cb, CacheCase cache_case,
                     std::array<Offset, 3> grid, std::array<Offset, 3> block) {
  Point point;
  point.name = std::move(name);
  point.spec.testbed = testbed;
  point.spec.aggregators = aggregators;
  point.spec.cb_buffer_size = cb;
  point.spec.cache_case = cache_case;
  point.grid = grid;
  point.block = block;
  return point;
}

workloads::TestbedParams jittered(workloads::TestbedParams testbed,
                                  std::uint64_t seed) {
  testbed.seed = Rng::derive(seed, "perfbench.testbed");
  return testbed;
}

std::string file_path(const Point& point, int file) {
  return "/pfs/" + point.name + "_" + std::to_string(file);
}

std::uint64_t payload_seed(std::uint64_t family, const Point& point,
                           int file, int rank) {
  return Rng::derive(Rng::derive(family, "perfbench." + point.name),
                     std::to_string(file) + ":" + std::to_string(rank));
}

/// FNV-1a over a file's extent end and evenly strided sample bytes.
class Fingerprint {
 public:
  template <class ByteAt>
  void add_file(Offset end, const ByteAt& byte_at) {
    mix(static_cast<std::uint64_t>(end));
    if (end <= 0) return;
    const Offset stride = std::max<Offset>(1, end / kFingerprintSamples);
    for (Offset pos = 0; pos < end; pos += stride) mix(byte_at(pos));
    mix(byte_at(end - 1));
  }
  void add_missing() { mix(0); }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  void mix(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash_ ^= (value >> shift) & 0xff;
      hash_ *= 1099511628211ULL;
    }
  }
  void mix(std::byte value) { mix(static_cast<std::uint64_t>(value)); }

  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::string pfs_fingerprint(const Point& point, const pfs::Pfs& pfs) {
  Fingerprint fp;
  for (int k = 0; k < point.files; ++k) {
    const ByteStore* store = pfs.peek(file_path(point, k));
    if (store == nullptr) {
      fp.add_missing();
      continue;
    }
    fp.add_file(store->extent_end(),
                [store](Offset pos) { return store->byte_at(pos); });
  }
  return fp.hex();
}

/// Sampled comparison of one read_all result with the written pattern.
bool read_matches(const DataView& data, std::uint64_t seed, Offset expected) {
  if (data.size() != expected) return false;
  if (expected == 0) return true;
  const Offset stride = std::max<Offset>(1, expected / kReadSamples);
  for (Offset pos = 0; pos < expected; pos += stride) {
    if (data.byte_at(pos) != DataView::pattern_byte(seed, pos)) return false;
  }
  return data.byte_at(expected - 1) ==
         DataView::pattern_byte(seed, expected - 1);
}

DataView with_flipped_first_byte(const DataView& data) {
  if (data.empty()) return data;
  const std::byte flipped = data.byte_at(0) ^ std::byte{0xff};
  return DataView::concat({DataView::real({flipped}),
                           data.slice(1, data.size() - 1)});
}

struct RankLog {
  struct Read {
    int file = 0;
    std::uint64_t seed = 0;
    DataView data;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Read> reads;  // verified after the run, outside host_s
  std::string first_error;
};

Time max_over_ranks(const std::vector<Time>& per_rank) {
  return per_rank.empty() ? 0
                          : *std::max_element(per_rank.begin(),
                                              per_rank.end());
}

double seconds_since(std::chrono::steady_clock::time_point t0,
                     std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

void collect_counters(const workloads::Platform& platform,
                      const obs::CausalRecorder* causal,
                      const obs::CriticalPathReport* path,
                      std::map<std::string, double>& c) {
  namespace names = obs::names;
  const obs::MetricsRegistry& m = platform.metrics;
  const auto counter = [&m](const char* name) {
    return static_cast<double>(m.counter_value(name));
  };
  const sim::EngineStats& engine = platform.engine.stats();
  c["sim.events"] = static_cast<double>(engine.events);
  c["sim.switches"] = static_cast<double>(engine.switches);
  c["sim.spawned"] = static_cast<double>(engine.spawned);
  c["sim.max_ready_depth"] = static_cast<double>(engine.max_ready_depth);

  // A histogram of per-call send bytes, fed by the write path only.
  const obs::Histogram* a2a = m.find_histogram(names::kAlltoallSendBytes);
  c["mpi.alltoall_send_bytes"] =
      a2a != nullptr ? static_cast<double>(a2a->sum()) : 0.0;

  c["adio.pipeline.writes"] = counter(names::kPipelineWrites);
  c["adio.pipeline.stalls"] = counter(names::kPipelineStalls);
  c["raw.pipeline_write_ns"] = counter(names::kPipelineWriteNs);
  c["raw.pipeline_hidden_ns"] = counter(names::kPipelineHiddenNs);

  c["cache.writes"] = counter(names::kCacheWrites);
  c["cache.bytes_cached"] = counter(names::kCacheBytes);
  c["cache.sync.requests"] = counter(names::kSyncRequests);
  c["cache.sync.queue_hwm"] =
      static_cast<double>(m.gauge_high_water(names::kSyncQueueDepth));
  c["cache.read_hit_bytes"] = counter(names::kCacheReadHitBytes);
  c["cache.read_misses"] = counter(names::kCacheReadMisses);
  const double busy_ns = counter(names::kSyncBusyNs);
  c["raw.sync_batch_members"] = counter(names::kSyncBatchMembers);
  c["raw.sync_batches"] = counter(names::kSyncBatches);
  c["raw.sync_bytes"] = counter(names::kSyncBytes);
  c["raw.sync_busy_ns"] = busy_ns;
  c["raw.flush_overlap_weighted"] =
      obs::flush_overlap_ratio(m, platform.profiler) * busy_ns;

  double lfs_read = 0.0, lfs_written = 0.0;
  for (std::size_t node = 0; node < platform.lfs.size(); ++node) {
    lfs_read += static_cast<double>(platform.lfs.at(node).stats().bytes_read);
    lfs_written +=
        static_cast<double>(platform.lfs.at(node).stats().bytes_written);
  }
  c["lfs.bytes_read"] = lfs_read;
  c["lfs.bytes_written"] = lfs_written;

  const pfs::PfsStats& pfs = platform.pfs.stats();
  c["pfs.reads"] = static_cast<double>(pfs.reads);
  c["pfs.bytes_read"] = static_cast<double>(pfs.bytes_read);
  c["pfs.writes"] = static_cast<double>(pfs.writes);
  c["pfs.bytes_written"] = static_cast<double>(pfs.bytes_written);
  c["pfs.lock.waits"] = static_cast<double>(pfs.lock_waits);
  c["pfs.lock.wait_s"] = units::to_seconds(pfs.lock_wait_time);
  c["pfs.lock.handoffs"] = static_cast<double>(pfs.lock_handoffs);
  double util = 0.0;
  const double end = static_cast<double>(platform.engine.now());
  for (std::size_t s = 0; s < platform.params().pfs.data_servers; ++s) {
    const double busy =
        static_cast<double>(platform.pfs.server_device(s).busy_time());
    if (end > 0) util = std::max(util, busy / end);
  }
  c["pfs.server_util_max"] = util;

  constexpr std::pair<prof::Phase, const char*> kPhases[] = {
      {prof::Phase::open, "open"},
      {prof::Phase::offset_exchange, "offset_exchange"},
      {prof::Phase::calc, "calc"},
      {prof::Phase::shuffle_all2all, "shuffle_all2all"},
      {prof::Phase::exchange, "exchange"},
      {prof::Phase::write_contig, "write_contig"},
      {prof::Phase::read_contig, "read_contig"},
      {prof::Phase::post_write, "post_write"},
      {prof::Phase::flush_wait, "flush_wait"},
      {prof::Phase::not_hidden_sync, "not_hidden_sync"},
      {prof::Phase::close, "close"},
  };
  for (const auto& [phase, name] : kPhases) {
    c[std::string("prof.") + name + "_s"] =
        units::to_seconds(platform.profiler.max_over_ranks(phase));
  }

  c["obs.trace_events"] =
      platform.tracer.enabled()
          ? static_cast<double>(platform.tracer.events())
          : 0.0;
  c["obs.causal_edges"] =
      causal != nullptr ? static_cast<double>(causal->emissions().size() +
                                              causal->bridges().size())
                        : 0.0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::PathCategory::other);
       ++i) {
    const auto category = static_cast<obs::PathCategory>(i);
    c[std::string("obs.path.") + obs::path_category_name(category) + "_s"] =
        path != nullptr ? units::to_seconds(path->category_ns[i]) : 0.0;
  }
  c["raw.path_total_ns"] =
      path != nullptr ? static_cast<double>(path->total_ns) : 0.0;
  c["raw.path_other_ns"] =
      path != nullptr
          ? static_cast<double>(path->category_ns[static_cast<std::size_t>(
                obs::PathCategory::other)])
          : 0.0;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"paper_cache", "scale_4k", "readback"};
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  constexpr std::array<Offset, 3> kPaperBlock = {4, 16, 131072};  // 64 MiB
  Workload w;
  w.name = name;
  if (name == "paper_cache") {
    // The paper's §IV cache-enabled coll_perf case: 512 ranks, 4 files,
    // 30 s compute between them, deferred close; one many-round point
    // (256 rounds per file) and one few-round point (8 rounds).
    const auto testbed = jittered(workloads::deep_er_testbed(), seed);
    for (const auto& [aggregators, cb] :
         {std::pair<int, Offset>{32, 4 * units::MiB},
          std::pair<int, Offset>{64, 64 * units::MiB}}) {
      Point p = collperf_point("", testbed, aggregators, cb,
                               CacheCase::enabled, {8, 8, 8}, kPaperBlock);
      p.name = workloads::combo_label(p.spec);
      p.files = 4;
      p.compute = units::seconds(30);
      w.points.push_back(std::move(p));
    }
    w.analyzer = true;
  } else if (name == "scale_4k") {
    // 4096 ranks straight to the PFS, one file: the replicated O(N)
    // per-rank collective work dominates. 64 aggregators give
    // stripe-aligned file domains, 48 misaligned ones that share boundary
    // stripes and exercise the stripe lock table.
    auto testbed = workloads::deep_er_testbed();
    testbed.compute_nodes = 512;
    testbed = jittered(testbed, seed);
    for (const auto& [label, aggregators] :
         {std::pair<const char*, int>{"aligned", 64},
          std::pair<const char*, int>{"misaligned", 48}}) {
      w.points.push_back(collperf_point(label, testbed, aggregators,
                                        64 * units::MiB, CacheCase::disabled,
                                        {16, 16, 16}, kPaperBlock));
    }
  } else if (name == "readback") {
    // Checkpoint/restart at 512 ranks: the only workload that issues
    // collective reads, served by the cache while the file is open and by
    // the PFS after it was closed (cache discarded) and reopened.
    const auto testbed = jittered(workloads::deep_er_testbed(), seed);
    Point p = collperf_point("", testbed, 16, 16 * units::MiB,
                             CacheCase::enabled, {8, 8, 8}, kPaperBlock);
    p.name = workloads::combo_label(p.spec);
    p.files = 2;
    p.compute = units::seconds(5);
    p.readback = true;
    w.points.push_back(std::move(p));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

Point self_check_point() {
  Point p = collperf_point("self_check", workloads::small_testbed(), 2,
                           1 * units::MiB, CacheCase::enabled, {2, 2, 2},
                           {2, 4, 4096});
  p.files = 2;
  p.compute = units::seconds(1);
  p.readback = true;
  return p;
}

PointResult run_point(const Point& point, const PointConfig& config) {
  using Clock = std::chrono::steady_clock;
  SpanRecorder* spans = config.spans;
  const int id = config.point_id;
  PointResult result;
  ScopedSpan point_span(spans, "bench.point", -1, id);

  const int nranks = static_cast<int>(point.grid[0] * point.grid[1] *
                                      point.grid[2]);
  const auto ranks = static_cast<std::size_t>(nranks);
  const Offset bytes = point.bytes_per_rank();
  const bool deferred_close = point.spec.cache_case != CacheCase::disabled;
  // Per-rank MPI-IO calls: open, set_view, write_all, close per file, plus
  // read_all and a reopen (open, set_view, read_all, close) for readback.
  const std::uint64_t ops_per_rank =
      static_cast<std::uint64_t>(point.files) * (point.readback ? 9 : 4);
  const std::size_t data_calls =
      static_cast<std::size_t>(point.files) * (point.readback ? 3 : 1);
  const std::size_t closes =
      static_cast<std::size_t>(point.files) * (point.readback ? 2 : 1);

  mpi::Info hints = workloads::experiment_hints(point.spec);
  if (point.readback) hints.set("e10_cache_read", "enable");

  std::vector<RankLog> logs(ranks);
  std::vector<std::vector<Time>> call_time(data_calls,
                                           std::vector<Time>(ranks, 0));
  std::vector<std::vector<Time>> close_time(closes,
                                            std::vector<Time>(ranks, 0));
  int run_span = -1;

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<workloads::Platform> platform;
  {
    ScopedSpan span(spans, "workloads.platform", point_span.id(), id);
    platform = std::make_unique<workloads::Platform>(point.spec.testbed);
  }
  // The analyzer walks the program's trace spans, so it needs the tracer.
  platform->tracer.set_enabled(config.analyzer);
  std::unique_ptr<obs::CausalRecorder> causal;
  if (config.analyzer) {
    causal = std::make_unique<obs::CausalRecorder>(platform->engine,
                                                   &platform->tracer);
  }
  workloads::Platform& plat = *platform;
  {
    ScopedSpan span(spans, "workloads.launch", point_span.id(), id);
    plat.launch([&](mpi::Comm comm) {
      sim::Engine& engine = comm.engine();
      const int rank = comm.rank();
      const auto r = static_cast<std::size_t>(rank);
      RankLog& log = logs[r];
      obs::Tracer* tracer =
          plat.tracer.enabled() ? &plat.tracer : nullptr;
      const int track = tracer != nullptr ? tracer->rank_track(rank) : 0;
      const Offset gx = rank / (point.grid[1] * point.grid[2]);
      const Offset gy = (rank / point.grid[2]) % point.grid[1];
      const Offset gz = rank % point.grid[2];
      const mpi::FlatType type = mpi::FlatType::subarray(
          {point.grid[0] * point.block[0], point.grid[1] * point.block[1],
           point.grid[2] * point.block[2]},
          {point.block[0], point.block[1], point.block[2]},
          {gx * point.block[0], gy * point.block[1], gz * point.block[2]},
          Point::kElemBytes);
      std::size_t call = 0;
      std::size_t close_slot = 0;

      const auto ok = [&log](const Status& status, const char* what,
                             int file) {
        ++log.attempted;
        if (status.is_ok()) return true;
        ++log.failed;
        if (log.first_error.empty()) {
          log.first_error = std::string(what) + " file " +
                            std::to_string(file) + ": " + status.to_string();
        }
        return false;
      };
      const auto open = [&](int k, int mode) -> std::optional<mpiio::File> {
        ScopedSpan span(spans, "mpiio.open", run_span, id);
        auto opened = mpiio::File::open(plat.ctx, comm, file_path(point, k),
                                        mode, hints);
        if (!ok(opened.status(), "open", k)) return std::nullopt;
        mpiio::File file = std::move(opened).value();
        if (!ok(file.set_view(0, type), "set_view", k)) return std::nullopt;
        return file;
      };
      const auto close = [&](mpiio::File& file, int k) {
        ScopedSpan span(spans, "mpiio.close", run_span, id);
        obs::Span trace(tracer, track, "close");
        const Time start = engine.now();
        const Status closed = file.close();
        const Time elapsed = engine.now() - start;
        close_time[close_slot++][r] = elapsed;
        plat.profiler.record(rank, prof::Phase::not_hidden_sync, elapsed);
        return ok(closed, "close", k);
      };
      const auto read_back = [&](mpiio::File& file, int k) {
        file.seek(0);
        ScopedSpan span(spans, "mpiio.read_all", run_span, id);
        const Time start = engine.now();
        auto data = file.read_all(bytes);
        call_time[call++][r] = engine.now() - start;
        if (!ok(data.status(), "read_all", k)) return false;
        log.reads.push_back(RankLog::Read{
            k, payload_seed(config.payload_family, point, k, rank),
            std::move(data).value()});
        return true;
      };
      const auto compute = [&] {
        ScopedSpan span(spans, "workloads.compute", run_span, id);
        obs::Span trace(tracer, track, "compute");
        engine.delay(point.compute);
      };

      // A failed call ends this rank's loop; its remaining calls count as
      // failed, and peers blocked in a collective surface as a deadlock.
      std::optional<mpiio::File> previous;
      int previous_k = -1;
      for (int k = 0; k < point.files; ++k) {
        if (previous) {  // Fig. 3: file k-1 closes right before file k opens
          if (!close(*previous, previous_k)) return;
          previous.reset();
        }
        std::optional<mpiio::File> file =
            open(k, adio::amode::create | adio::amode::rdwr);
        if (!file) return;
        {
          ScopedSpan span(spans, "mpiio.write_all", run_span, id);
          obs::Span trace(tracer, track, "write_file");
          const Time start = engine.now();
          const Status written = file->write_all(DataView::synthetic(
              payload_seed(config.payload_family, point, k, rank), 0, bytes));
          call_time[call++][r] = engine.now() - start;
          if (!ok(written, "write_all", k)) return;
        }
        if (point.readback) {
          if (!read_back(*file, k) || !close(*file, k)) return;
          compute();
          continue;
        }
        if (deferred_close) {
          previous = std::move(file);
          previous_k = k;
        } else if (!close(*file, k)) {
          return;
        }
        if (k + 1 < point.files) compute();
      }
      if (previous && !close(*previous, previous_k)) return;
      if (!point.readback) return;
      for (int k = 0; k < point.files; ++k) {
        std::optional<mpiio::File> file = open(k, adio::amode::rdwr);
        if (!file || !read_back(*file, k) || !close(*file, k)) return;
      }
    });
  }
  const Clock::time_point t1 = Clock::now();
  result.setup_s = seconds_since(t0, t1);
  if (config.setup_only) return result;

  bool run_ok = true;
  {
    ScopedSpan span(spans, "sim.run", point_span.id(), id);
    run_span = span.id();
    try {
      plat.run();
    } catch (const std::exception& e) {
      run_ok = false;
      result.errors.push_back(point.name + ": run aborted: " + e.what());
    }
  }
  const Clock::time_point t2 = Clock::now();

  // The program's own outputs: critical-path analysis, then the run report.
  std::optional<obs::CriticalPathReport> path;
  obs::Json path_json;
  if (causal != nullptr && run_ok) {
    ScopedSpan span(spans, "obs.analyze", point_span.id(), id);
    path = obs::analyze_critical_path(plat.tracer, *causal, &plat.profiler);
    path_json = obs::critical_path_json(*path, &plat.profiler);
  }
  // Eq. 2 as coll_perf counts it: the last close, which no compute phase
  // can hide, is left out.
  const Offset total_bytes = bytes * nranks * static_cast<Offset>(data_calls);
  Time io_time = 0;
  for (const auto& per_rank : call_time) io_time += max_over_ranks(per_rank);
  for (std::size_t c = 0; c + 1 < closes; ++c) {
    io_time += max_over_ranks(close_time[c]);
  }
  {
    ScopedSpan span(spans, "obs.report", point_span.id(), id);
    plat.pfs.export_device_metrics(plat.metrics);
    obs::RunReportInputs inputs;
    inputs.config.emplace_back("point", point.name);
    inputs.config.emplace_back("ranks", std::to_string(nranks));
    for (const std::string& key : hints.keys()) {
      inputs.config.emplace_back("hint." + key, hints.get_or(key, ""));
    }
    inputs.profiler = &plat.profiler;
    inputs.metrics = &plat.metrics;
    inputs.derived["perceived_bandwidth_gib"] =
        bandwidth_gib(total_bytes, io_time);
    inputs.derived["io_time_s"] = units::to_seconds(io_time);
    inputs.derived["total_bytes"] = static_cast<double>(total_bytes);
    inputs.derived["flush_overlap_ratio"] =
        obs::flush_overlap_ratio(plat.metrics, plat.profiler);
    const sim::EngineStats& stats = plat.engine.stats();
    inputs.derived["engine.events"] = static_cast<double>(stats.events);
    inputs.derived["engine.switches"] = static_cast<double>(stats.switches);
    obs::Json report = obs::run_report_json(inputs);
    if (path) report.set("critical_path", path_json);
    static_cast<void>(report.dump());  // what --report would write
  }
  const Clock::time_point t3 = Clock::now();
  result.run_s = seconds_since(t1, t2);
  result.host_s = seconds_since(t1, t3);

  // The benchmark's own checks; excluded from host_s.
  ScopedSpan check_span(spans, "bench.check", point_span.id(), id);
  result.bytes = static_cast<double>(total_bytes);
  result.io_time = io_time;
  std::uint64_t attempted = 0, failed = 0;
  bool flip = config.flip_read_byte;
  for (RankLog& log : logs) {
    attempted += log.attempted;
    failed += log.failed;
    if (!log.first_error.empty() &&
        result.errors.size() < kMaxErrorsPerPoint) {
      result.errors.push_back(point.name + ": " + log.first_error);
    }
    for (RankLog::Read& read : log.reads) {
      if (flip) {
        read.data = with_flipped_first_byte(read.data);
        flip = false;
      }
      if (!read_matches(read.data, read.seed, bytes)) {
        ++failed;
        if (result.errors.size() < kMaxErrorsPerPoint) {
          result.errors.push_back(point.name + ": read-back mismatch, file " +
                                  std::to_string(read.file));
        }
      }
    }
  }
  const std::uint64_t expected = ops_per_rank * ranks;
  failed += expected - std::min(expected, attempted);  // never attempted

  // The point's output check: content fingerprint, leaked program trace
  // spans, abandoned sync requests.
  result.fingerprint = pfs_fingerprint(point, plat.pfs);
  std::vector<std::string> check_errors;
  if (config.golden != nullptr && result.fingerprint != *config.golden) {
    check_errors.push_back("fingerprint " + result.fingerprint +
                           " != golden " + *config.golden);
  }
  if (plat.tracer.enabled() && plat.tracer.open_spans() != 0) {
    check_errors.push_back(std::to_string(plat.tracer.open_spans()) +
                           " leaked trace spans");
  }
  if (const auto abandoned =
          plat.metrics.counter_value(obs::names::kSyncAbandoned);
      abandoned != 0) {
    check_errors.push_back(std::to_string(abandoned) +
                           " abandoned sync requests");
  }
  if (!check_errors.empty()) ++failed;
  for (const std::string& e : check_errors) {
    result.errors.push_back(point.name + ": " + e);
  }
  result.attempted = expected + 1;
  result.failed = failed;
  collect_counters(plat, causal.get(), path ? &*path : nullptr,
                   result.counters);
  return result;
}

void merge_counters(std::map<std::string, double>& total,
                    const std::map<std::string, double>& point) {
  for (const auto& [name, value] : point) {
    const bool is_max = name == "sim.max_ready_depth" ||
                        name == "cache.sync.queue_hwm" ||
                        name == "pfs.server_util_max";
    double& slot = total[name];
    slot = is_max ? std::max(slot, value) : slot + value;
  }
}

std::map<std::string, double> finish_counters(
    const std::map<std::string, double>& raw) {
  const auto get = [&raw](const char* name) {
    const auto it = raw.find(name);
    return it != raw.end() ? it->second : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  std::map<std::string, double> out;
  for (const auto& [name, value] : raw) {
    if (name.rfind("raw.", 0) != 0) out[name] = value;
  }
  out["adio.pipeline.overlap_ratio"] =
      ratio(get("raw.pipeline_hidden_ns"), get("raw.pipeline_write_ns"));
  out["cache.sync.coalesce_ratio"] =
      ratio(get("raw.sync_batch_members"), get("raw.sync_batches"));
  out["cache.sync.flush_bw_gib"] =
      ratio(get("raw.sync_bytes") / static_cast<double>(units::GiB),
            get("raw.sync_busy_ns") * 1e-9);
  out["cache.flush_overlap_ratio"] =
      ratio(get("raw.flush_overlap_weighted"), get("raw.sync_busy_ns"));
  const double path_total = get("raw.path_total_ns");
  out["obs.path.attributed_fraction"] =
      path_total > 0 ? 1.0 - get("raw.path_other_ns") / path_total : 0.0;
  return out;
}

std::string reference_fingerprint(const Point& point,
                                  std::uint64_t payload_family) {
  const std::array<Offset, 3>& g = point.grid;
  const std::array<Offset, 3>& b = point.block;
  const Offset dim1 = g[1] * b[1];
  const Offset dim2 = g[2] * b[2];
  const Offset end = g[0] * b[0] * dim1 * dim2 * Point::kElemBytes;
  Fingerprint fp;
  for (int k = 0; k < point.files; ++k) {
    fp.add_file(end, [&](Offset pos) {
      // File byte -> global element (row-major, last dim contiguous) ->
      // owning rank and its position in that rank's write stream.
      const Offset elem = pos / Point::kElemBytes;
      const Offset i2 = elem % dim2;
      const Offset i1 = (elem / dim2) % dim1;
      const Offset i0 = elem / (dim2 * dim1);
      const Offset rank =
          (i0 / b[0]) * g[1] * g[2] + (i1 / b[1]) * g[2] + i2 / b[2];
      const Offset local =
          ((i0 % b[0]) * b[1] + i1 % b[1]) * b[2] + i2 % b[2];
      const Offset stream =
          local * Point::kElemBytes + pos % Point::kElemBytes;
      return DataView::pattern_byte(
          payload_seed(payload_family, point, k, static_cast<int>(rank)),
          stream);
    });
  }
  return fp.hex();
}

}  // namespace perfbench
