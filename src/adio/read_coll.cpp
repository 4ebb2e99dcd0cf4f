// Two-phase collective read (ADIOI_GEN_ReadStridedColl): after the shared
// ext2ph prologue (plan_collective), aggregators read their file-domain
// windows and scatter the pieces to the requesting ranks. The window read
// goes through read_contig, so with e10_cache_read it is served from the
// aggregator's cache file when that holds the whole window; coherent mode
// blocks on in-transit extents there.
#include <algorithm>
#include <utility>

#include "adio/adio_file.h"
#include "adio/pipeline.h"

namespace e10::adio {

namespace {

/// One piece per requested extent out of the aggregator's window read at
/// `lo`. Reads near EOF may come back short; the tail is zero-padded so
/// the requester always gets what it asked for.
std::vector<mpi::IoPiece> cut_window(const DataView& window, Offset lo,
                                     const std::vector<Extent>& extents) {
  std::vector<mpi::IoPiece> pieces;
  pieces.reserve(extents.size());
  for (const Extent& e : extents) {
    const Offset rel = e.offset - lo;
    const Offset take = std::clamp<Offset>(window.size() - rel, 0, e.length);
    std::vector<DataView> parts;
    if (take > 0) parts.push_back(window.slice(rel, take));
    if (take < e.length) {
      parts.push_back(DataView::real(std::vector<std::byte>(
          static_cast<std::size_t>(e.length - take), std::byte{0})));
    }
    pieces.push_back(mpi::IoPiece{e, DataView::concat(parts)});
  }
  return pieces;
}

}  // namespace

Result<std::vector<DataView>> read_strided_coll(
    AdioFile& fd, const std::vector<Extent>& wanted) {
  IoContext& ctx = *fd.ctx;
  const mpi::Comm& comm = fd.comm;
  const int me = comm.rank();

  // Reads stay single-level even under e10_two_level_flag: they already
  // fan out aggregator → rank (one message per reader), so an intra-node
  // gather stage has no p-to-A flow to collapse.
  std::vector<Extent> sorted = wanted;
  auto plan = plan_collective(fd, sorted, fd.hints.romio_cb_read,
                              /*two_level=*/false);
  if (!plan) {
    auto result = read_strided(fd, wanted);
    const Status agreed = agree_status(comm, result.status());
    if (!agreed.is_ok()) return agreed;
    return result;
  }

  Status my_status = Status::ok();
  ByteStore assembled;  // pieces land here, keyed by file offset

  // Round-persistent exchange buffers: (aggregator, extents) requests out,
  // (requester, extents) requests in, ascending by requester.
  std::vector<std::pair<int, std::vector<Extent>>> requests;
  std::vector<std::pair<int, std::vector<Extent>>> incoming;
  std::vector<mpi::Request> recv_requests;
  std::vector<mpi::Request> send_requests;

  for (std::size_t round = 0; round < plan->rounds.size(); ++round) {
    const int tag = static_cast<int>(round);
    RoundPlan<Extent>& round_plan = plan->rounds[round];

    // Dissemination: every rank tells every aggregator which extents it
    // wants this round (the read-side analogue of the counts alltoall).
    requests.clear();
    for (auto& [agg_index, extents] : round_plan) {
      requests.emplace_back(fd.aggregators[agg_index], std::move(extents));
    }
    {
      PhaseScope scope(ctx, me, prof::Phase::shuffle_all2all);
      comm.alltoall(std::move(requests),
                    fd.is_aggregator() ? &incoming : nullptr,
                    2 * sizeof(Offset) * 4);
    }

    // Post receives for the data I asked for.
    recv_requests.clear();
    for (const auto& [agg_index, extents] : round_plan) {
      recv_requests.push_back(comm.irecv(fd.aggregators[agg_index], tag));
    }

    // Aggregator: read the covering window once and answer each requester
    // with one message. A failed read still answers everyone (with no
    // pieces), so every rank reaches the error agreement below.
    send_requests.clear();
    if (fd.is_aggregator() && !incoming.empty()) {
      Offset lo = kNoOffset;
      Offset hi = -1;
      for (const auto& [src, extents] : incoming) {
        for (const Extent& e : extents) {
          lo = std::min(lo, e.offset);
          hi = std::max(hi, e.end());
        }
      }
      auto window = read_contig(fd, lo, hi - lo);
      if (!window.is_ok() && my_status.is_ok()) my_status = window.status();
      for (const auto& [src, extents] : incoming) {
        std::vector<mpi::IoPiece> pieces;
        Offset bytes = 0;
        if (window.is_ok()) {
          pieces = cut_window(window.value(), lo, extents);
          for (const Extent& e : extents) bytes += e.length;
        }
        send_requests.push_back(
            comm.isend(src, tag, std::move(pieces), bytes));
      }
    }

    {
      PhaseScope scope(ctx, me, prof::Phase::exchange);
      mpi::Request::wait_all(recv_requests);
      mpi::Request::wait_all(send_requests);
    }

    for (mpi::Request& request : recv_requests) {
      for (const mpi::IoPiece& piece :
           request.take_payload<std::vector<mpi::IoPiece>>()) {
        assembled.write(piece.file.offset, piece.data);
      }
    }
  }

  {
    PhaseScope scope(ctx, me, prof::Phase::post_write);
    const Status agreed = agree_status(comm, my_status);
    if (!agreed.is_ok()) return agreed;
  }

  return cut_wanted(assembled, wanted);
}

}  // namespace e10::adio
