#include "adio/adio_file.h"
#include "common/log.h"

namespace e10::adio {

namespace {

/// Completion of a blocking call: the caller's clock once it returned.
Result<Time> now_if_ok(const AdioFile& fd, const Status& status) {
  if (!status.is_ok()) return status;
  return fd.ctx->engine.now();
}

/// The routing both contiguous writes share: into the cache when the file
/// has one, through to the global file when it has none or the cache cannot
/// take the data (e.g. the scratch partition filled up), so no data is
/// lost. `wait` picks the blocking calls; returns the completion time.
Result<Time> route_write(AdioFile& fd, Offset offset, const DataView& data,
                         bool wait) {
  if (fd.cache != nullptr) {
    const Extent extent{offset, data.size()};
    const auto cached = wait ? now_if_ok(fd, fd.cache->write(extent, data))
                             : fd.cache->iwrite(extent, data);
    if (cached.is_ok()) return cached;
    log::warn("adio", "cache write failed (", cached.status().to_string(),
              "), writing through to the global file");
    if (fd.ctx->metrics != nullptr) {
      fd.ctx->metrics->counter(obs::names::kCacheFallbackWrites).increment();
    }
  }
  return wait ? now_if_ok(fd, fd.ctx->pfs.write(fd.handle, offset, data))
              : fd.ctx->pfs.write_async(fd.handle, offset, data);
}

}  // namespace

Status write_contig(AdioFile& fd, Offset offset, const DataView& data) {
  if (offset < 0) {
    return Status::error(Errc::invalid_argument, "write_contig: offset < 0");
  }
  if (data.empty()) return Status::ok();

  PhaseScope scope(*fd.ctx, fd.rank(), prof::Phase::write_contig);
  scope.span().arg("bytes", static_cast<std::int64_t>(data.size()));
  return route_write(fd, offset, data, /*wait=*/true).status();
}

Result<Time> iwrite_contig(AdioFile& fd, Offset offset, const DataView& data) {
  if (offset < 0) {
    return Status::error(Errc::invalid_argument, "iwrite_contig: offset < 0");
  }
  if (data.empty()) return fd.ctx->engine.now();
  return route_write(fd, offset, data, /*wait=*/false);
}

Result<DataView> read_contig(AdioFile& fd, Offset offset, Offset length) {
  if (offset < 0 || length < 0) {
    return Status::error(Errc::invalid_argument, "read_contig: bad range");
  }
  if (length == 0) return DataView();

  PhaseScope scope(*fd.ctx, fd.rank(), prof::Phase::read_contig);
  scope.span().arg("bytes", static_cast<std::int64_t>(length));

  // EXTENSION (paper §VI future work, off by default): serve the read from
  // the local cache when the whole extent is cached here. The layout map in
  // CacheFile provides the metadata §III-B says generic cache reads need.
  if (fd.cache != nullptr && fd.hints.e10_cache_read) {
    if (auto hit = fd.cache->try_read(Extent{offset, length})) {
      if (fd.ctx->metrics != nullptr) {
        fd.ctx->metrics->counter(obs::names::kCacheReadHitBytes).add(length);
      }
      return std::move(*hit);
    }
    if (fd.ctx->metrics != nullptr) {
      fd.ctx->metrics->counter(obs::names::kCacheReadMisses).increment();
    }
  }

  // Otherwise reads are served by the global file; the cache is write-only
  // (§III-B). Coherent mode blocks while any overlapping extent is still in
  // transit from a cache to the global file.
  if (fd.hints.e10_cache == CacheMode::coherent) {
    fd.ctx->locks.wait_unlocked(fd.path, Extent{offset, length});
  }
  return fd.ctx->pfs.read(fd.handle, offset, length);
}

}  // namespace e10::adio
