#include "cache/lock_table.h"

#include <algorithm>
#include <stdexcept>

#include "sim/causal.h"

namespace e10::cache {

namespace {

/// Static name for the table monitor (one per LockTable instance; identity
/// comes from the table's address).
const std::string kMonitorName = "cache.lock_table.monitor";  // NOLINT

/// 64-bit FNV-1a, the deterministic extent-lock identity. Pointer ids
/// would vary across runs and break byte-identical analysis reports.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string extent_lock_name(const std::string& path, const Extent& extent) {
  return path + "[" + std::to_string(extent.offset) + ",+" +
         std::to_string(extent.length) + ")";
}

}  // namespace

sim::LockId LockTable::extent_lock_id(const std::string& path,
                                      const Extent& extent) {
  std::uint64_t hash = fnv1a(path.data(), path.size());
  hash = fnv1a(&extent.offset, sizeof(extent.offset), hash);
  hash = fnv1a(&extent.length, sizeof(extent.length), hash);
  return hash;
}

bool LockTable::overlaps_held(const FileLocks& locks,
                              const Extent& extent) const {
  return std::any_of(locks.held.begin(), locks.held.end(),
                     [&](const Extent& h) { return h.overlaps(extent); });
}

void LockTable::wake_all(FileLocks& locks) {
  // Woken processes re-check their predicate and may block again; FIFO
  // wake order keeps the schedule deterministic.
  while (!locks.waiters.empty()) {
    const sim::ProcessId pid = locks.waiters.front();
    locks.waiters.pop_front();
    engine_.make_ready(pid, engine_.now());
  }
}

void LockTable::wait_clear(FileLocks& locks, const Extent& extent,
                           const char* why) {
  const Time before = engine_.now();
  while (overlaps_held(locks, extent)) {
    locks.waiters.push_back(engine_.current());
    engine_.block(why);
  }
  // The release that finally let us through gated this lane.
  engine_.ack_edge(locks.last_release, before);
}

void LockTable::lock(const std::string& path, const Extent& extent) {
  if (extent.empty()) return;
  const sim::MonitorGuard monitor(engine_, this, kMonitorName);
  sim::ConcurrencyObserver* observer =
      engine_.in_process() ? engine_.concurrency_observer() : nullptr;
  if (observer != nullptr) {
    observer->on_acquiring(engine_.current(), extent_lock_id(path, extent),
                           sim::LockKind::extent,
                           extent_lock_name(path, extent));
  }
  E10_SHARED_WRITE(tables_var_);
  FileLocks& locks = files_[path];
  wait_clear(locks, extent, "LockTable::lock");
  locks.held.push_back(extent);
  if (observer != nullptr) {
    observer->on_acquired(engine_.current(), extent_lock_id(path, extent),
                          sim::LockKind::extent,
                          extent_lock_name(path, extent));
  }
}

void LockTable::unlock(const std::string& path, const Extent& extent) {
  if (extent.empty()) return;
  const sim::MonitorGuard monitor(engine_, this, kMonitorName);
  E10_SHARED_WRITE(tables_var_);
  const auto file_it = files_.find(path);
  if (file_it == files_.end()) {
    throw std::logic_error("LockTable::unlock: no locks for " + path);
  }
  FileLocks& locks = file_it->second;
  const auto it = std::find(locks.held.begin(), locks.held.end(), extent);
  if (it == locks.held.end()) {
    throw std::logic_error("LockTable::unlock: extent not held");
  }
  locks.held.erase(it);
  if (sim::ConcurrencyObserver* observer = engine_.concurrency_observer();
      observer != nullptr && engine_.in_process()) {
    observer->on_released(engine_.current(), extent_lock_id(path, extent));
  }
  if (!locks.waiters.empty()) {
    locks.last_release =
        engine_.emit_edge(sim::EdgeKind::lock_wait, engine_.now());
  }
  wake_all(locks);
}

void LockTable::wait_unlocked(const std::string& path, const Extent& extent) {
  if (extent.empty()) return;
  const sim::MonitorGuard monitor(engine_, this, kMonitorName);
  E10_SHARED_READ(tables_var_);
  const auto file_it = files_.find(path);
  if (file_it == files_.end()) return;
  wait_clear(file_it->second, extent, "LockTable::wait_unlocked");
}

bool LockTable::is_locked(const std::string& path, const Extent& extent) const {
  const sim::MonitorGuard monitor(engine_, this, kMonitorName);
  E10_SHARED_READ(tables_var_);
  const auto it = files_.find(path);
  if (it == files_.end()) return false;
  return overlaps_held(it->second, extent);
}

std::size_t LockTable::held_count(const std::string& path) const {
  const sim::MonitorGuard monitor(engine_, this, kMonitorName);
  E10_SHARED_READ(tables_var_);
  const auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second.held.size();
}

}  // namespace e10::cache
