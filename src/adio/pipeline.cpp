#include "adio/pipeline.h"

#include <exception>

#include "adio/aggregation.h"

namespace e10::adio {

namespace {

const Extent& extent_of(const Extent& extent) { return extent; }
const Extent& extent_of(const mpi::IoPiece& piece) { return piece.file; }

Extent part_of(const Extent& /*extent*/, const Extent& sub) { return sub; }
mpi::IoPiece part_of(const mpi::IoPiece& piece, const Extent& sub) {
  return mpi::IoPiece{
      sub, piece.data.slice(sub.offset - piece.file.offset, sub.length)};
}

}  // namespace

template <typename T>
std::optional<CollPlan<T>> plan_collective(AdioFile& fd, std::vector<T>& items,
                                           Toggle cb, bool two_level) {
  IoContext& ctx = *fd.ctx;
  const mpi::Comm& comm = fd.comm;
  std::erase_if(items, [](const T& item) { return extent_of(item).empty(); });
  std::sort(items.begin(), items.end(), [](const T& a, const T& b) {
    return extent_of(a).offset < extent_of(b).offset;
  });

  // --- Step 1: access-pattern exchange ------------------------------------
  Offset my_start = kNoOffset;
  Offset my_end = kNoOffset;  // exclusive
  if (!items.empty()) {
    my_start = extent_of(items.front()).offset;
    my_end = extent_of(items.back()).end();
  }
  CollPlan<T> plan;
  {
    PhaseScope scope(ctx, comm.rank(), prof::Phase::offset_exchange);
    plan.all_offsets = comm.allgather(std::make_pair(my_start, my_end),
                                      Offset{2} * sizeof(Offset));
  }

  // Interleave check (ROMIO: collective buffering pays off only when rank
  // regions interleave; otherwise independent I/O is better) and the
  // global region [gmin, gmax).
  bool interleaved = false;
  Offset prev_end = -1;
  Offset gmin = kNoOffset;
  Offset gmax = -1;
  for (const auto& [start, end] : *plan.all_offsets) {
    if (start == kNoOffset) continue;
    if (prev_end >= 0 && start < prev_end) interleaved = true;
    prev_end = std::max(prev_end, end);
    gmin = std::min(gmin, start);
    gmax = std::max(gmax, end);
  }
  if (cb == Toggle::disable || (cb == Toggle::automatic && !interleaved) ||
      gmin == kNoOffset) {
    return std::nullopt;
  }

  // --- Step 2: file domains and this rank's round plan ---------------------
  PhaseScope scope(ctx, comm.rank(), prof::Phase::calc);
  // The BeeGFS/Lustre driver aligns file domains to stripe boundaries so
  // aggregators never false-share a stripe lock (paper footnote 1).
  std::optional<Offset> align;
  if (fd.driver == Driver::beegfs && fd.stripe_unit > 0) {
    align = fd.stripe_unit;
  }
  std::vector<std::size_t> aggregator_nodes;
  aggregator_nodes.reserve(fd.aggregators.size());
  for (int agg : fd.aggregators) aggregator_nodes.push_back(comm.node_of(agg));
  RoundPlanner planner(Extent{gmin, gmax - gmin}, aggregator_nodes,
                       fd.hints.cb_buffer_size, align, two_level);
  plan.domains = planner.domains();
  plan.rounds.resize(static_cast<std::size_t>(planner.rounds()));
  // Items are sorted, so the planner's monotonic domain cursor never needs
  // to rewind.
  for (const T& item : items) {
    planner.split(extent_of(item), [&](Offset round, std::size_t agg_index,
                                       const Extent& sub) {
      plan_append(plan.rounds, round, agg_index, part_of(item, sub));
    });
  }
  return plan;
}

template std::optional<CollPlan<Extent>> plan_collective(
    AdioFile&, std::vector<Extent>&, Toggle, bool);
template std::optional<CollPlan<mpi::IoPiece>> plan_collective(
    AdioFile&, std::vector<mpi::IoPiece>&, Toggle, bool);

RoundPlanner::RoundPlanner(const Extent& region,
                           const std::vector<std::size_t>& aggregator_nodes,
                           Offset cb_buffer_size, std::optional<Offset> align,
                           bool two_level)
    : cb_(cb_buffer_size) {
  if (region.length <= 0 || aggregator_nodes.empty() || cb_ <= 0) return;
  // Node-aware planning only changes anything when some node hosts more
  // than one aggregator (select_aggregators returns ascending ranks under
  // block placement, so same-node entries are adjacent). One aggregator per
  // node — every ranks_per_node == 1 layout — or the flag off must
  // reproduce the flat plan byte-for-byte.
  const bool grouped =
      std::adjacent_find(aggregator_nodes.begin(), aggregator_nodes.end()) !=
      aggregator_nodes.end();
  domains_ =
      two_level && grouped
          ? partition_node_aware_domains(region, aggregator_nodes, cb_, align)
          : partition_file_domains(region, aggregator_nodes.size(), align);
  for (const Extent& d : domains_) {
    rounds_ = std::max(rounds_, (d.length + cb_ - 1) / cb_);
  }
}

WritePipeline::WritePipeline(AdioFile& fd, bool enabled)
    : fd_(fd),
      enabled_(enabled),
      state_var_(fd.ctx->engine, "adio.pipeline:" + fd.path + ":r" +
                                     std::to_string(fd.rank())) {
  if (obs::MetricsRegistry* metrics = fd.ctx->metrics) {
    // Instrument resolution mutates the shared registry from every rank's
    // collective call; claim the registry monitor for the checker.
    const sim::MonitorGuard monitor(fd.ctx->engine, metrics,
                                    obs::names::kMetricsMonitor);
    sim::shared_access(fd.ctx->engine, metrics,
                       obs::names::kMetricsRegistryVar,
                       /*is_write=*/true, E10_SITE);
    writes_counter_ = &metrics->counter(obs::names::kPipelineWrites);
    stalls_counter_ = &metrics->counter(obs::names::kPipelineStalls);
    stall_ns_counter_ = &metrics->counter(obs::names::kPipelineStallNs);
    write_ns_counter_ = &metrics->counter(obs::names::kPipelineWriteNs);
    hidden_ns_counter_ = &metrics->counter(obs::names::kPipelineHiddenNs);
  }
}

// e10-lint-allow(unwind-blocking): drain() is gated on uncaught_exceptions
WritePipeline::~WritePipeline() {
  // Draining blocks, and a blocking call must not run while the fiber is
  // unwinding: a crash/cancellation would re-throw ProcessCancelled inside
  // this (noexcept) destructor and terminate the program. When an exception
  // is in flight the collective is being abandoned anyway — the in-flight
  // rounds' writes are dropped, not joined.
  if (std::uncaught_exceptions() == 0) drain();
}

void WritePipeline::acquire_buffer() {
  if (!enabled_ || in_flight_.empty()) return;
  E10_SHARED_READ(state_var_);
  while (in_flight_.size() >= kBuffers) join_oldest();
}

Status WritePipeline::issue_round(Offset round,
                                  const std::vector<mpi::IoPiece>& pieces) {
  if (pieces.empty()) return Status::ok();
  E10_SHARED_WRITE(state_var_);
  InFlightRound entry;
  entry.round = round;
  Status status = Status::ok();

  // Issue the round's content as maximal contiguous runs — holes split the
  // write, exactly what flushing the collective buffer does in ROMIO.
  std::size_t i = 0;
  while (i < pieces.size()) {
    std::size_t j = i + 1;
    Offset run_end = pieces[i].file.end();
    while (j < pieces.size() && pieces[j].file.offset == run_end) {
      run_end = pieces[j].file.end();
      ++j;
    }
    std::vector<DataView> parts;
    parts.reserve(j - i);
    for (std::size_t k = i; k < j; ++k) parts.push_back(pieces[k].data);
    const Time issued = fd_.ctx->engine.now();
    const Result<Time> done =
        iwrite_contig(fd_, pieces[i].file.offset, DataView::concat(parts));
    if (!done.is_ok() && status.is_ok()) status = done.status();
    if (writes_counter_ != nullptr) writes_counter_->increment();
    // A failed write stays in the round as a zero-length interval: it
    // still occupies the buffer and is joined like the others.
    entry.writes.push_back(
        sim::Interval{issued, done.is_ok() ? done.value() : issued});
    i = j;
  }

  in_flight_.push_back(std::move(entry));
  if (!enabled_) {
    // Synchronous ext2ph: the round's write is joined before the next
    // round's dissemination starts.
    while (!in_flight_.empty()) join_oldest();
  }
  return status;
}

void WritePipeline::drain() {
  if (in_flight_.empty()) return;
  E10_SHARED_WRITE(state_var_);
  while (!in_flight_.empty()) join_oldest();
}

void WritePipeline::join_oldest() {
  InFlightRound entry = std::move(in_flight_.front());
  in_flight_.pop_front();
  // The stall (if any) is write time the pipeline failed to hide; it lands
  // in the same profiler phase the blocking write path charged.
  PhaseScope scope(*fd_.ctx, fd_.rank(), prof::Phase::write_contig);
  scope.span().arg("round", static_cast<std::int64_t>(entry.round));
  for (const sim::Interval& write : entry.writes) {
    const sim::JoinOutcome outcome =
        sim::join_async(fd_.ctx->engine, sim::EdgeKind::write_join, write);
    if (write_ns_counter_ != nullptr) {
      write_ns_counter_->add(write.end - write.start);
      hidden_ns_counter_->add(outcome.hidden);
      stall_ns_counter_->add(outcome.stall);
      if (outcome.stall > 0) stalls_counter_->increment();
    }
  }
  // The joined writes' completion synchronised with this rank: ownership of
  // the buffer (and the interval bookkeeping) is exclusively ours again.
  state_var_.handoff();
}

}  // namespace e10::adio
