// Node-local file system on a non-volatile memory device.
//
// Models the per-node ext4 '/scratch' partition of the DEEP-ER testbed
// (30 GiB on an 80 GB SATA SSD) that the E10 cache layer writes to. There is
// one LocalFs per compute node; access is local (no fabric cost), paying a
// small syscall overhead plus device service time.
//
// fallocate() mirrors the paper's ADIOI_Cache_alloc(): with device support
// it reserves space in O(metadata); without, the implementation reverts to
// physically writing zeros at device speed (paper §III-A footnote 2).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/dataview.h"
#include "common/status.h"
#include "common/units.h"
#include "fault/fault_plan.h"
#include "sim/engine.h"
#include "storage/device.h"

namespace e10::fault {
class FaultInjector;
}

namespace e10::lfs {

struct LfsParams {
  storage::DeviceParams device = storage::local_ssd_params();
  /// Scratch partition capacity; writes beyond it fail with no_space.
  Offset capacity = 30 * units::GiB;
  /// Whether the file system supports fallocate(2).
  bool supports_fallocate = true;
  /// Local syscall/VFS overhead per operation.
  Time syscall_overhead = units::microseconds(4);
};

using FileHandle = std::uint64_t;

struct LfsStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  Offset bytes_written = 0;
  Offset bytes_read = 0;
  std::uint64_t fallocates = 0;
};

/// One node's local file system. All calls must run inside a simulated
/// process and block the caller in virtual time.
class LocalFs {
 public:
  LocalFs(sim::Engine& engine, std::size_t node, const LfsParams& params,
          std::uint64_t seed);

  Result<FileHandle> open(const std::string& path, bool create,
                          bool truncate = false);
  Status close(FileHandle handle);
  /// Reserves space so subsequent writes cannot fail with no_space.
  Status fallocate(FileHandle handle, Offset length);
  Status write(FileHandle handle, Offset offset, const DataView& data);
  /// Nonblocking write: validates, applies the content, reserves the device
  /// timeline and returns the completion time *without* advancing the
  /// caller's clock. The device timeline is FIFO, so an operation issued
  /// later still serializes after this write on the media. write() is
  /// write_async() + advance_to().
  Result<Time> write_async(FileHandle handle, Offset offset,
                           const DataView& data);
  Result<DataView> read(FileHandle handle, Offset offset, Offset length);
  Result<Offset> file_size(FileHandle handle) const;
  Status unlink(const std::string& path);
  bool exists(const std::string& path) const;

  Offset used_bytes() const { return used_; }
  Offset capacity() const { return params_.capacity; }
  std::size_t node() const { return node_; }
  const LfsStats& stats() const { return stats_; }
  const storage::Device& device() const { return device_; }

  /// Test access to file content (no timing cost); nullptr if absent.
  const ByteStore* peek(const std::string& path) const;

  /// Attaches a fault injector (or detaches with nullptr) driving
  /// lfs_open / lfs_read / lfs_write failures: the platform-wide scenario
  /// injector, or a test's own one scoped to this node.
  void set_fault_injector(fault::FaultInjector* fault) { fault_ = fault; }

 private:
  struct Inode {
    ByteStore data;
    Offset size = 0;       // written extent end
    Offset allocated = 0;  // capacity charged to this file
    std::uint32_t open_count = 0;
  };

  /// Grows the file's allocation charge; fails if the partition is full.
  Status charge(Inode& inode, Offset new_allocated);

  /// Draws from the attached injector. The call sites guard on
  /// has_faults() so a fault-free run pays one null check per operation.
  Status check_fault(fault::FaultOp op);
  bool has_faults() const { return fault_ != nullptr; }

  sim::Engine& engine_;
  std::size_t node_;
  LfsParams params_;
  storage::Device device_;
  std::map<std::string, std::shared_ptr<Inode>> namespace_;
  std::unordered_map<FileHandle, std::shared_ptr<Inode>> handles_;
  FileHandle next_handle_ = 1;
  Offset used_ = 0;
  fault::FaultInjector* fault_ = nullptr;
  LfsStats stats_;
};

/// The cluster's set of per-node local file systems.
class LocalFsSet {
 public:
  LocalFsSet(sim::Engine& engine, std::size_t nodes, const LfsParams& params,
             std::uint64_t seed);

  LocalFs& at(std::size_t node) { return *nodes_.at(node); }
  const LocalFs& at(std::size_t node) const { return *nodes_.at(node); }
  std::size_t size() const { return nodes_.size(); }

 private:
  std::vector<std::unique_ptr<LocalFs>> nodes_;
};

}  // namespace e10::lfs
