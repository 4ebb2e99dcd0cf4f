// Independent strided I/O with data sieving (ADIOI_GEN_WriteStrided /
// ADIOI_GEN_ReadStrided): instead of issuing one request per tiny extent,
// nearby extents are coalesced into a single covering request — for writes a
// read-modify-write of the covering range — trading extra bytes moved for
// far fewer RPCs. The sieve buffer size follows ROMIO's ind_wr_buffer_size.
#include <algorithm>

#include "adio/adio_file.h"

namespace e10::adio {

namespace {

/// Groups sorted extents into covering ranges: extents join a group while
/// the group's span stays within `buffer_bytes`. Returns indices [begin,
/// end) per group.
std::vector<std::pair<std::size_t, std::size_t>> sieve_groups(
    const std::vector<Extent>& sorted, Offset buffer_bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i + 1;
    while (j < sorted.size() &&
           sorted[j].end() - sorted[i].offset <= buffer_bytes) {
      ++j;
    }
    groups.emplace_back(i, j);
    i = j;
  }
  return groups;
}

}  // namespace

Status write_strided(AdioFile& fd, const std::vector<mpi::IoPiece>& pieces_in) {
  std::vector<mpi::IoPiece> pieces = pieces_in;
  std::erase_if(pieces,
                [](const mpi::IoPiece& piece) { return piece.file.empty(); });
  std::sort(pieces.begin(), pieces.end(),
            [](const mpi::IoPiece& a, const mpi::IoPiece& b) {
              return a.file.offset < b.file.offset;
            });
  if (pieces.empty()) return Status::ok();

  std::vector<Extent> extents;
  extents.reserve(pieces.size());
  for (const mpi::IoPiece& piece : pieces) extents.push_back(piece.file);

  for (const auto& [begin, end] :
       sieve_groups(extents, fd.hints.ind_wr_buffer_size)) {
    const Offset lo = pieces[begin].file.offset;
    const Offset hi = pieces[end - 1].file.end();

    // Contiguous group (no holes): plain writes, no sieving needed.
    bool holes = false;
    Offset cursor = lo;
    for (std::size_t k = begin; k < end; ++k) {
      if (pieces[k].file.offset > cursor) holes = true;
      cursor = std::max(cursor, pieces[k].file.end());
    }

    if (!holes || end - begin == 1) {
      for (std::size_t k = begin; k < end; ++k) {
        if (const Status s =
                write_contig(fd, pieces[k].file.offset, pieces[k].data);
            !s.is_ok()) {
          return s;
        }
      }
      continue;
    }

    // Data sieving: read the covering range, patch in the new pieces, write
    // it back as one request.
    auto cover = read_contig(fd, lo, hi - lo);
    if (!cover.is_ok()) return cover.status();
    ByteStore patch;
    if (!cover.value().empty()) patch.write(lo, cover.value());
    for (std::size_t k = begin; k < end; ++k) {
      patch.write(pieces[k].file.offset, pieces[k].data);
    }
    if (const Status s = write_contig(fd, lo, patch.read(lo, hi - lo));
        !s.is_ok()) {
      return s;
    }
  }
  return Status::ok();
}

Result<std::vector<DataView>> read_strided(AdioFile& fd,
                                           const std::vector<Extent>& wanted) {
  std::vector<Extent> sorted = wanted;
  std::erase_if(sorted, [](const Extent& e) { return e.empty(); });
  std::sort(sorted.begin(), sorted.end(),
            [](const Extent& a, const Extent& b) {
              return a.offset < b.offset;
            });

  ByteStore assembled;
  for (const auto& [begin, end] :
       sieve_groups(sorted, fd.hints.ind_wr_buffer_size)) {
    const Offset lo = sorted[begin].offset;
    const Offset hi = sorted[end - 1].end();
    auto cover = read_contig(fd, lo, hi - lo);
    if (!cover.is_ok()) return cover.status();
    if (!cover.value().empty()) assembled.write(lo, cover.value());
  }

  return cut_wanted(assembled, wanted);
}

std::vector<DataView> cut_wanted(const ByteStore& assembled,
                                 const std::vector<Extent>& wanted) {
  std::vector<DataView> out;
  out.reserve(wanted.size());
  for (const Extent& want : wanted) {
    out.push_back(want.empty() ? DataView()
                               : assembled.read(want.offset, want.length));
  }
  return out;
}

}  // namespace e10::adio
