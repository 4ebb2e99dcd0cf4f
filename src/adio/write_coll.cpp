// Extended two-phase collective write (ADIOI_GEN_WriteStridedColl +
// ADIOI_Exch_and_write + ADIOI_W_Exchange_data), the paper's Fig. 2:
//
//   1. all ranks exchange access-pattern offsets        (MPI_Allgather)
//   2. file domains are computed from the global region (RoundPlanner)
//      -- steps 1-2 are plan_collective, shared with the read path
//   3. per round: an exchange moves the round's data to the aggregators,
//                 aggregators write the collective buffer (WritePipeline)
//   4. error codes are exchanged                        (MPI_Allreduce)
//
// Step 3 is one round body around one of two exchanges, picked once per
// collective. FlatExchange is classic ext2ph: dissemination of send sizes
// (MPI_Alltoall), then the data shuffle (isend/irecv/waitall). With
// e10_two_level_flag active (docs/two_level.md) TwoLevelExchange instead
// gathers each node's contributions to the node leader over the cheap
// intra-node transport (shuffle_intra), and only leaders send data to the
// aggregators (shuffle_inter) — p-to-A NIC flows collapse to L-to-A. It has
// no dissemination: both sides derive which (leader, aggregator) pairs talk
// from the step-1 allgather, and the exact segment count rides in-band in
// the pair's first message (the manifest), so its rounds have no collective
// synchronisation at all.
//
// Steps 1, 4 and the flat dissemination are the global synchronisation
// points whose cost the paper's breakdown figures measure. The aggregator
// write is double-buffered (e10_pipeline_flag, docs/pipeline.md): round r's
// write stays in flight while round r+1's exchange proceeds, and each
// exchange joins the oldest write (WritePipeline::acquire_buffer) before
// the round's data can land in its buffer.
#include <algorithm>
#include <utility>

#include "adio/adio_file.h"
#include "adio/pipeline.h"
#include "common/log.h"

namespace e10::adio {

namespace {

using Pieces = std::vector<mpi::IoPiece>;
using Buckets = RoundPlan<mpi::IoPiece>;

Offset piece_bytes(const Pieces& pieces) {
  Offset bytes = 0;
  for (const mpi::IoPiece& piece : pieces) bytes += piece.file.length;
  return bytes;
}

/// Moves `more` onto the end of `into`.
void append(Pieces& into, Pieces&& more) {
  into.insert(into.end(), std::make_move_iterator(more.begin()),
              std::make_move_iterator(more.end()));
}

/// Greedy packing for the two-level data stage: distributes `pieces` over
/// exactly `segments` buckets of at most `seg_bytes` each, cutting
/// individual pieces at segment boundaries. Callers guarantee the total
/// piece length fits (segments * seg_bytes).
std::vector<Pieces> pack_segments(Pieces pieces, std::size_t segments,
                                  Offset seg_bytes) {
  std::vector<Pieces> out(segments);
  std::size_t seg = 0;
  Offset fill = 0;
  for (mpi::IoPiece& piece : pieces) {
    while (piece.file.length > 0) {
      if (fill == seg_bytes) {
        ++seg;
        fill = 0;
      }
      const Offset take = std::min(piece.file.length, seg_bytes - fill);
      mpi::IoPiece part;
      part.file = Extent{piece.file.offset, take};
      part.data = piece.data.slice(0, take);
      out[seg].push_back(std::move(part));
      piece.file.offset += take;
      piece.file.length -= take;
      piece.data = piece.data.slice(take, piece.file.length);
      fill += take;
    }
  }
  return out;
}

/// What both exchanges share: the file, this rank, and the send-size
/// histogram (null when no registry is attached).
struct ExchangeBase {
  explicit ExchangeBase(AdioFile& file)
      : fd(file), ctx(*file.ctx), comm(file.comm), me(file.comm.rank()) {
    if (ctx.metrics != nullptr) {
      a2a_hist = &ctx.metrics->histogram(obs::names::kAlltoallSendBytes,
                                         obs::exponential_bounds(4096, 14));
    }
  }
  AdioFile& fd;
  IoContext& ctx;
  const mpi::Comm& comm;
  const int me;
  obs::Histogram* a2a_hist = nullptr;
};

/// Classic ext2ph exchange. The counts vectors and the request list survive
/// across rounds so the steady state allocates nothing. send_counts carries
/// only this round's nonzero (aggregator, bytes) pairs, and only
/// aggregators ask the alltoall for their (source, bytes) recv_counts.
struct FlatExchange : ExchangeBase {
  using ExchangeBase::ExchangeBase;

  void run(Offset round, Buckets& buckets, Offset /*send_bytes*/,
           WritePipeline& pipeline, Pieces& received) {
    const int tag = static_cast<int>(round);
    send_counts.clear();
    for (const auto& [agg_index, pieces] : buckets) {
      const Offset bytes = piece_bytes(pieces);
      send_counts.emplace_back(fd.aggregators[agg_index], bytes);
      // Flat mode observes every rank's per-aggregator flow.
      if (a2a_hist != nullptr) a2a_hist->observe(bytes);
    }
    {
      PhaseScope scope(ctx, me, prof::Phase::shuffle_all2all);
      comm.alltoall(std::move(send_counts),
                    fd.is_aggregator() ? &recv_counts : nullptr);
    }

    // The shuffle lands in a collective buffer; with the pipeline enabled
    // the oldest in-flight round's write must be joined before its buffer
    // is reused for this round's receives.
    pipeline.acquire_buffer();

    requests.clear();
    std::size_t nrecv = 0;
    if (fd.is_aggregator()) {
      for (const auto& [src, bytes] : recv_counts) {
        if (bytes > 0) {
          requests.push_back(comm.irecv(src, tag));
          ++nrecv;
        }
      }
    }
    for (auto& [agg_index, pieces] : buckets) {
      const Offset bytes = piece_bytes(pieces);
      requests.push_back(comm.isend(fd.aggregators[agg_index], tag,
                                    std::move(pieces), bytes));
    }
    {
      PhaseScope scope(ctx, me, prof::Phase::exchange);
      scope.span().arg("requests", static_cast<std::int64_t>(requests.size()));
      mpi::Request::wait_all(requests);
    }
    received.clear();
    for (std::size_t i = 0; i < nrecv; ++i) {
      append(received, requests[i].take_payload<Pieces>());
    }
  }

  std::vector<std::pair<int, Offset>> send_counts;
  std::vector<std::pair<int, Offset>> recv_counts;
  std::vector<mpi::Request> requests;
};

/// Node-leader gather plus manifest segments (docs/two_level.md). The
/// topology is fixed for the operation and built once here (pure
/// computation — no virtual time passes).
struct TwoLevelExchange : ExchangeBase {
  TwoLevelExchange(AdioFile& file, const CollPlan<mpi::IoPiece>& plan)
      : ExchangeBase(file),
        domains(plan.domains),
        leader(comm.node_leader(me)) {
    if (ctx.metrics != nullptr) {
      rounds = &ctx.metrics->counter(obs::names::kTwoLevelRounds);
      intra_msgs = &ctx.metrics->counter(obs::names::kTwoLevelIntraMsgs);
      intra_bytes = &ctx.metrics->counter(obs::names::kTwoLevelIntraBytes);
      inter_msgs = &ctx.metrics->counter(obs::names::kTwoLevelInterMsgs);
      inter_bytes = &ctx.metrics->counter(obs::names::kTwoLevelInterBytes);
    }
    // Leaders appear in ascending world-rank order; block placement keeps
    // each node's ranks contiguous, so the single pass below sees every
    // node's leader first.
    for (int r = 0; r < comm.size(); ++r) {
      if (comm.node_leader(r) == r) {
        if (r == leader) leader_index = leader_ranks.size();
        leader_ranks.push_back(r);
        node_hull.emplace_back(kNoOffset, kNoOffset);
      }
      auto& hull = node_hull.back();
      const auto& [start, end] =
          (*plan.all_offsets)[static_cast<std::size_t>(r)];
      if (start == kNoOffset) continue;
      if (hull.first == kNoOffset) {
        hull = {start, end};
      } else {
        hull.first = std::min(hull.first, start);
        hull.second = std::max(hull.second, end);
      }
    }
    if (me == leader) members = comm.node_ranks(comm.node());
  }

  void run(Offset round, Buckets& buckets, Offset send_bytes,
           WritePipeline& pipeline, Pieces& received) {
    // Two tags per round keep the stages' matching separate; members race
    // ahead into round r+1's gather while round r's write is in flight,
    // exactly like the flat shuffle overlaps under the pipeline.
    const int tag_gather = 2 * static_cast<int>(round);
    if (rounds != nullptr && me == leader_ranks.front()) rounds->increment();
    Buckets merged = gather(tag_gather, buckets, send_bytes);
    // Same buffer discipline as the flat exchange: join the oldest
    // in-flight round's write before posting this round's data receives.
    pipeline.acquire_buffer();
    to_aggregators(round, tag_gather + 1, merged, received);
  }

  /// Stage 1: gathers this node's buckets to the leader (shared memory) and
  /// returns them merged there (empty on members). Members always send —
  /// possibly an empty bucket — so the leader's per-member receive
  /// matching stays deterministic.
  Buckets gather(int tag, Buckets& buckets, Offset send_bytes) {
    if (me != leader) {
      PhaseScope scope(ctx, me, prof::Phase::shuffle_intra);
      mpi::Request req =
          comm.isend(leader, tag, std::move(buckets), send_bytes);
      req.wait();
      if (intra_msgs != nullptr) {
        intra_msgs->increment();
        intra_bytes->add(send_bytes);
      }
      return {};
    }
    Buckets merged = std::move(buckets);
    gathers.clear();
    {
      PhaseScope scope(ctx, me, prof::Phase::shuffle_intra);
      scope.span().arg("members", static_cast<std::int64_t>(members.size()));
      for (int r : members) {
        if (r != me) gathers.push_back(comm.irecv(r, tag));
      }
      mpi::Request::wait_all(gathers);
    }
    // Merge member buckets in ascending rank order; the leader (lowest
    // rank on the node) contributed first via the move above.
    for (mpi::Request& req : gathers) {
      plan_merge(merged, req.take_payload<Buckets>());
    }
    return merged;
  }

  /// Stage 2: leaders send merged data to the aggregators. Which pairs talk
  /// is the hull-vs-window overlap both sides computed up front — no
  /// per-round count dissemination and no leader barrier. Each talking
  /// pair exchanges one manifest (follow-on segment count + the first,
  /// possibly empty, segment) and that many extra segments, every one at
  /// most Hints::kTwoLevelSegmentBytes so it stays under the fabric's eager
  /// threshold and streams while the previous round's write drains. Holes
  /// inside a hull (common for strided patterns) thus cost one near-empty
  /// message, and by the time a manifest is decoded its extras have
  /// already buffered at the receiver. Manifest receives are posted before
  /// any send; a leader-aggregator's self-destined bucket short-circuits
  /// locally with no message.
  void to_aggregators(Offset round, int tag, Buckets& merged,
                      Pieces& received) {
    using Manifest = std::pair<std::size_t, Pieces>;
    sends.clear();
    manifests.clear();
    manifest_src.clear();
    Pieces local;
    PhaseScope scope(ctx, me, prof::Phase::shuffle_inter);
    if (fd.is_aggregator()) {
      const Extent my_window =
          window(static_cast<std::size_t>(fd.aggregator_index()), round);
      for (std::size_t l = 0; l < leader_ranks.size(); ++l) {
        if (leader_ranks[l] == me) continue;
        if (!overlaps(node_hull[l], my_window)) continue;
        manifests.push_back(comm.irecv(leader_ranks[l], tag));
        manifest_src.push_back(leader_ranks[l]);
      }
    }
    if (me == leader) {
      // merged ascends by agg_index, so one forward cursor serves the
      // ascending aggregator scan.
      auto merged_it = merged.begin();
      for (std::size_t a = 0; a < fd.aggregators.size(); ++a) {
        if (!overlaps(node_hull[leader_index], window(a, round))) continue;
        while (merged_it != merged.end() && merged_it->agg_index < a) {
          ++merged_it;
        }
        Pieces pieces;
        if (merged_it != merged.end() && merged_it->agg_index == a) {
          pieces = std::move(merged_it->items);
        }
        const int agg_rank = fd.aggregators[a];
        if (agg_rank == me) {
          local = std::move(pieces);
          continue;
        }
        const auto nsegs = static_cast<std::size_t>(std::max<Offset>(
            1, (piece_bytes(pieces) + Hints::kTwoLevelSegmentBytes - 1) /
                   Hints::kTwoLevelSegmentBytes));
        auto segments = pack_segments(std::move(pieces), nsegs,
                                      Hints::kTwoLevelSegmentBytes);
        const bool same_node = comm.node_of(agg_rank) == comm.node();
        for (std::size_t s = 0; s < segments.size(); ++s) {
          const Offset bytes = piece_bytes(segments[s]);
          // Two-level mode observes the leaders' merged flows.
          if (a2a_hist != nullptr) a2a_hist->observe(bytes);
          if (inter_msgs != nullptr) {
            (same_node ? intra_msgs : inter_msgs)->increment();
            (same_node ? intra_bytes : inter_bytes)->add(bytes);
          }
          // Segment 0 doubles as the manifest carrying the extra count.
          sends.push_back(
              s == 0 ? comm.isend(agg_rank, tag,
                                  Manifest{nsegs - 1, std::move(segments[s])},
                                  bytes)
                     : comm.isend(agg_rank, tag, std::move(segments[s]),
                                  bytes));
        }
      }
    }
    received = std::move(local);
    for (std::size_t i = 0; i < manifests.size(); ++i) {
      manifests[i].wait();
      auto [extra, pieces] = manifests[i].take_payload<Manifest>();
      append(received, std::move(pieces));
      extras.clear();
      for (std::size_t e = 0; e < extra; ++e) {
        extras.push_back(comm.irecv(manifest_src[i], tag));
      }
      mpi::Request::wait_all(extras);
      for (mpi::Request& req : extras) {
        append(received, req.take_payload<Pieces>());
      }
    }
    scope.span().arg("requests", static_cast<std::int64_t>(sends.size() +
                                                           manifests.size()));
    mpi::Request::wait_all(sends);
  }

  /// Round-r window of aggregator a's file domain (empty when the domain
  /// is exhausted).
  Extent window(std::size_t agg, Offset round) const {
    const Offset cb = fd.hints.cb_buffer_size;
    const Extent& dom = domains[agg];
    const Offset start = dom.offset + round * cb;
    if (dom.empty() || start >= dom.end()) return Extent{0, 0};
    return Extent{start, std::min(cb, dom.end() - start)};
  }

  static bool overlaps(const std::pair<Offset, Offset>& hull, const Extent& w) {
    if (hull.first == kNoOffset || w.empty()) return false;
    return std::max(hull.first, w.offset) < std::min(hull.second, w.end());
  }

  const std::vector<Extent>& domains;
  obs::Counter* rounds = nullptr;
  obs::Counter* intra_msgs = nullptr;
  obs::Counter* intra_bytes = nullptr;
  obs::Counter* inter_msgs = nullptr;
  obs::Counter* inter_bytes = nullptr;
  const int leader;                // my node's leader
  std::vector<int> leader_ranks;   // all leaders, ascending world rank
  std::size_t leader_index = 0;    // my leader's position in leader_ranks
  std::vector<int> members;        // leader only: my node's ranks (incl. me)
  // Per leader index: the [min start, max end) hull of that node's rank
  // extents, (kNoOffset, kNoOffset) when the node has no data. Every rank
  // computes the same hulls from the step-1 allgather: leader l sends
  // aggregator a a (possibly empty) bucket in round r exactly when l's
  // hull intersects a's round-r window.
  std::vector<std::pair<Offset, Offset>> node_hull;
  std::vector<mpi::Request> gathers, sends, manifests, extras;
  std::vector<int> manifest_src;  // leader world rank per manifest
};

/// Step 3: the round loop, one body around either exchange.
template <typename Exchange>
Status write_rounds(AdioFile& fd, std::vector<Buckets>& plan,
                    Exchange exchange) {
  IoContext& ctx = *fd.ctx;
  WritePipeline pipeline(fd, fd.hints.e10_pipeline);
  Status my_status = Status::ok();
  Pieces received;  // the aggregator's receive staging, round-persistent
  for (Offset round = 0; round < static_cast<Offset>(plan.size()); ++round) {
    const Time tr0 = ctx.engine.now();
    Buckets& buckets = plan[static_cast<std::size_t>(round)];

    obs::Span round_span;
    if (ctx.tracer != nullptr && ctx.tracer->enabled()) {
      round_span = obs::Span(ctx.tracer, ctx.tracer->rank_track(fd.rank()),
                             "write_round");
      round_span.arg("round", static_cast<std::int64_t>(round));
      round_span.arg("pipelined",
                     static_cast<std::int64_t>(pipeline.enabled() ? 1 : 0));
    }
    Offset send_bytes = 0;
    for (const auto& bucket : buckets) send_bytes += piece_bytes(bucket.items);
    round_span.arg("send_bytes", static_cast<std::int64_t>(send_bytes));

    exchange.run(round, buckets, send_bytes, pipeline, received);

    const Time tr1 = ctx.engine.now();
    if (!received.empty()) {  // only aggregators ever receive
      std::sort(received.begin(), received.end(),
                [](const mpi::IoPiece& a, const mpi::IoPiece& b) {
                  return a.file.offset < b.file.offset;
                });
      const Status written = pipeline.issue_round(round, received);
      if (my_status.is_ok()) my_status = written;
    }
    log::debug("adio", "write_coll round ", round,
               ": exchange=", units::to_milliseconds(tr1 - tr0),
               "ms write=", units::to_milliseconds(ctx.engine.now() - tr1),
               "ms");
  }
  // Join every in-flight write before the caller agrees on the outcome; the
  // drain stalls (if any) are charged to the write phase by the pipeline.
  pipeline.drain();
  return my_status;
}

}  // namespace

Status write_strided_coll(AdioFile& fd,
                          const std::vector<mpi::IoPiece>& mine_in) {
  std::vector<mpi::IoPiece> mine = mine_in;
  auto planned = plan_collective(fd, mine, fd.hints.romio_cb_write,
                                 fd.two_level);
  Status my_status = Status::ok();
  if (!planned) {
    my_status = write_strided(fd, mine);
  } else if (fd.two_level) {
    my_status = write_rounds(fd, planned->rounds,
                             TwoLevelExchange(fd, *planned));
  } else {
    my_status = write_rounds(fd, planned->rounds, FlatExchange(fd));
  }

  // --- Step 4: error-code exchange -----------------------------------------
  PhaseScope scope(*fd.ctx, fd.rank(), prof::Phase::post_write);
  return agree_status(fd.comm, my_status);
}

}  // namespace e10::adio
