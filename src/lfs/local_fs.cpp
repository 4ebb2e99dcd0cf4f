#include "lfs/local_fs.h"

#include <algorithm>

#include "fault/fault_injector.h"

namespace e10::lfs {

LocalFs::LocalFs(sim::Engine& engine, std::size_t node,
                 const LfsParams& params, std::uint64_t seed)
    : engine_(engine),
      node_(node),
      params_(params),
      device_("ssd-node-" + std::to_string(node), params.device,
              Rng::derive(seed, "ssd-node-" + std::to_string(node))) {}

Status LocalFs::check_fault(fault::FaultOp op) {
  if (Status s = fault_->check(op); !s) {
    return Status::error(s.code(), s.message() + " (node " +
                                       std::to_string(node_) + ")");
  }
  return Status::ok();
}

Result<FileHandle> LocalFs::open(const std::string& path, bool create,
                                 bool truncate) {
  engine_.delay(params_.syscall_overhead);
  if (has_faults()) {
    if (Status s = check_fault(fault::FaultOp::lfs_open); !s) return s;
  }
  auto it = namespace_.find(path);
  if (it == namespace_.end()) {
    if (!create) return Status::error(Errc::no_such_file, "lfs: " + path);
    it = namespace_.emplace(path, std::make_shared<Inode>()).first;
  } else if (truncate) {
    Inode& inode = *it->second;
    used_ -= inode.allocated;
    inode.data.clear();
    inode.size = 0;
    inode.allocated = 0;
  }
  ++it->second->open_count;
  const FileHandle handle = next_handle_++;
  handles_.emplace(handle, it->second);
  return handle;
}

Status LocalFs::close(FileHandle handle) {
  const auto it = handles_.find(handle);
  if (it == handles_.end()) {
    return Status::error(Errc::invalid_argument, "lfs: bad handle");
  }
  engine_.delay(params_.syscall_overhead);
  --it->second->open_count;
  handles_.erase(it);
  return Status::ok();
}

Status LocalFs::charge(Inode& inode, Offset new_allocated) {
  if (new_allocated <= inode.allocated) return Status::ok();
  const Offset delta = new_allocated - inode.allocated;
  if (used_ + delta > params_.capacity) {
    return Status::error(Errc::no_space,
                         "lfs: scratch partition full on node " +
                             std::to_string(node_));
  }
  used_ += delta;
  inode.allocated = new_allocated;
  return Status::ok();
}

Status LocalFs::fallocate(FileHandle handle, Offset length) {
  const auto it = handles_.find(handle);
  if (it == handles_.end()) {
    return Status::error(Errc::invalid_argument, "lfs: bad handle");
  }
  if (length < 0) {
    return Status::error(Errc::invalid_argument, "lfs: negative fallocate");
  }
  Inode& inode = *it->second;
  // Extent reservation hits the same device/driver path as a data write, so
  // it shares the write fault class (a dying disk fails both the same way).
  if (has_faults()) {
    if (Status s = check_fault(fault::FaultOp::lfs_write); !s) return s;
  }
  ++stats_.fallocates;
  if (const Status s = charge(inode, length); !s.is_ok()) return s;
  if (params_.supports_fallocate) {
    // Extent reservation is a metadata operation.
    engine_.delay(params_.syscall_overhead);
    return Status::ok();
  }
  // Fallback: physically write zeros at device speed (paper §III-A, fn. 2).
  const Offset to_fill = std::max<Offset>(0, length - inode.size);
  if (to_fill > 0) {
    const Time done = device_.submit(engine_.now(), storage::IoKind::write,
                                     inode.size, to_fill);
    engine_.advance_to(done);
  }
  return Status::ok();
}

Status LocalFs::write(FileHandle handle, Offset offset, const DataView& data) {
  const auto done = write_async(handle, offset, data);
  if (!done.is_ok()) return done.status();
  engine_.advance_to(done.value());
  return Status::ok();
}

Result<Time> LocalFs::write_async(FileHandle handle, Offset offset,
                                  const DataView& data) {
  const auto it = handles_.find(handle);
  if (it == handles_.end()) {
    return Status::error(Errc::invalid_argument, "lfs: bad handle");
  }
  if (offset < 0) {
    return Status::error(Errc::invalid_argument, "lfs: negative offset");
  }
  if (data.empty()) return engine_.now();
  if (has_faults()) {
    if (Status s = check_fault(fault::FaultOp::lfs_write); !s) return s;
  }
  Inode& inode = *it->second;
  if (const Status s = charge(inode, offset + data.size()); !s.is_ok()) {
    return s;
  }
  ++stats_.writes;
  stats_.bytes_written += data.size();
  const Time done =
      device_.submit(engine_.now() + params_.syscall_overhead,
                     storage::IoKind::write, offset, data.size());
  inode.data.write(offset, data);
  inode.size = std::max(inode.size, offset + data.size());
  return done;
}

Result<DataView> LocalFs::read(FileHandle handle, Offset offset,
                               Offset length) {
  const auto it = handles_.find(handle);
  if (it == handles_.end()) {
    return Status::error(Errc::invalid_argument, "lfs: bad handle");
  }
  if (offset < 0 || length < 0) {
    return Status::error(Errc::invalid_argument, "lfs: negative read range");
  }
  Inode& inode = *it->second;
  const Offset clamped =
      std::max<Offset>(0, std::min(length, inode.size - offset));
  if (clamped == 0) return DataView();
  if (has_faults()) {
    if (Status s = check_fault(fault::FaultOp::lfs_read); !s) return s;
  }
  ++stats_.reads;
  stats_.bytes_read += clamped;
  const Time done =
      device_.submit(engine_.now() + params_.syscall_overhead,
                     storage::IoKind::read, offset, clamped);
  engine_.advance_to(done);
  return inode.data.read(offset, clamped);
}

Result<Offset> LocalFs::file_size(FileHandle handle) const {
  const auto it = handles_.find(handle);
  if (it == handles_.end()) {
    return Status::error(Errc::invalid_argument, "lfs: bad handle");
  }
  return it->second->size;
}

Status LocalFs::unlink(const std::string& path) {
  const auto it = namespace_.find(path);
  if (it == namespace_.end()) {
    return Status::error(Errc::no_such_file, "lfs: " + path);
  }
  engine_.delay(params_.syscall_overhead);
  used_ -= it->second->allocated;
  // Reset the charge so writes through still-open handles account from zero.
  it->second->allocated = 0;
  namespace_.erase(it);
  return Status::ok();
}

bool LocalFs::exists(const std::string& path) const {
  return namespace_.contains(path);
}

const ByteStore* LocalFs::peek(const std::string& path) const {
  const auto it = namespace_.find(path);
  return it == namespace_.end() ? nullptr : &it->second->data;
}

LocalFsSet::LocalFsSet(sim::Engine& engine, std::size_t nodes,
                       const LfsParams& params, std::uint64_t seed) {
  nodes_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    nodes_.push_back(std::make_unique<LocalFs>(engine, i, params, seed));
  }
}

}  // namespace e10::lfs
