// Per-node object store backed by a simulated local file system.
//
// "Internally, it uses a standard file system to represent objects, using a
// one-to-one mapping of objects to files" (§III). Each node divides its
// storage into a *mandatory bin* (resources for applications hosted on the
// node itself) and a *voluntary bin* (space contributed to the aggregate
// pool and usable by any node in the home cloud). A file-system watcher
// tracks the free space of both bins for the resource monitor.
#pragma once

#include <string>
#include <unordered_map>

#include "src/common/result.hpp"
#include "src/common/units.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/simulation.hpp"
#include "src/sim/task.hpp"

namespace c4h::vstore {

enum class Bin : std::uint8_t { mandatory, voluntary };

struct ObjectFsConfig {
  Bytes mandatory_capacity = 4_GB;
  Bytes voluntary_capacity = 2_GB;
  Rate write_rate = mib_per_sec(55.0);  // netbook-class disk
  Rate read_rate = mib_per_sec(75.0);
  Duration seek = milliseconds(4);
};

class ObjectFs {
 public:
  ObjectFs(sim::Simulation& sim, ObjectFsConfig config = {}) : sim_(sim), config_(config) {}

  /// Writes the object's file; fails with no_capacity when the bin is full.
  /// Overwrites reuse the old file's space; the old file survives a failed
  /// overwrite (capacity is checked before anything is destroyed). A non-null
  /// `ctx` records the disk write as an `fs.write` span.
  [[nodiscard]] sim::Task<Result<void>> write(const std::string& name, Bytes size, Bin bin,
                                              obs::Ctx ctx = {}) {
    obs::ScopedSpan sp(ctx, "fs.write");
    sp.attr("bytes", static_cast<std::uint64_t>(size));
    if (sim::FaultPlan* fp = sim_.fault(); fp != nullptr) {
      // Spurious bin-full and flaky-media faults; both leave the old file
      // (if any) untouched, like the real failure modes they model.
      if (fp->inject_bin_full()) {
        sp.set_error("bin full");
        co_return Error{Errc::no_capacity, "bin full: " + name};
      }
      if (fp->inject_io_error()) {
        co_await sim_.delay(config_.seek);
        sp.set_error("io error");
        co_return Error{Errc::io_error, "write error: " + name};
      }
    }
    Bytes free = bin == Bin::mandatory ? mandatory_free() : voluntary_free();
    const auto it = files_.find(name);
    if (it != files_.end() && it->second.bin == bin) {
      free += it->second.size;  // the old copy's space is reclaimable
    }
    if (size > free) {
      sp.set_error("bin full");
      co_return Error{Errc::no_capacity, "bin full: " + name};
    }
    if (it != files_.end()) {
      release(it->second);
      files_.erase(it);
      ++erasures_;  // the name is gone until the new copy lands
    }
    co_await sim_.delay(config_.seek + transfer_time(size, config_.write_rate));
    files_.emplace(name, FileEntry{size, bin});
    (bin == Bin::mandatory ? mandatory_used_ : voluntary_used_) += size;
    co_return Result<void>{};
  }

  /// Reads the object's file; returns its size. A non-null `ctx` records the
  /// disk read as an `fs.read` span.
  [[nodiscard]] sim::Task<Result<Bytes>> read(const std::string& name, obs::Ctx ctx = {}) {
    obs::ScopedSpan sp(ctx, "fs.read");
    const auto it = files_.find(name);
    if (it == files_.end()) {
      sp.set_error("not found");
      co_return Error{Errc::not_found, "no file: " + name};
    }
    if (sim::FaultPlan* fp = sim_.fault(); fp != nullptr && fp->inject_io_error()) {
      co_await sim_.delay(config_.seek);
      sp.set_error("io error");
      co_return Error{Errc::io_error, "read error: " + name};
    }
    // Copy the size before suspending: a concurrent write/remove can rehash
    // or erase `files_` during the transfer delay, invalidating `it`.
    const Bytes size = it->second.size;
    sp.attr("bytes", static_cast<std::uint64_t>(size));
    co_await sim_.delay(config_.seek + transfer_time(size, config_.read_rate));
    co_return size;
  }

  [[nodiscard]] Result<void> remove(const std::string& name) {
    const auto it = files_.find(name);
    if (it == files_.end()) return Error{Errc::not_found, "no file: " + name};
    release(it->second);
    files_.erase(it);
    ++erasures_;
    return Result<void>{};
  }

  bool contains(const std::string& name) const { return files_.contains(name); }

  Bytes size_of(const std::string& name) const {
    const auto it = files_.find(name);
    return it != files_.end() ? it->second.size : 0;
  }

  // File-system watcher interface (feeds the resource monitor).
  Bytes mandatory_free() const { return config_.mandatory_capacity - mandatory_used_; }
  Bytes voluntary_free() const { return config_.voluntary_capacity - voluntary_used_; }
  Bytes mandatory_used() const { return mandatory_used_; }
  Bytes voluntary_used() const { return voluntary_used_; }
  std::size_t file_count() const { return files_.size(); }

  /// Files dropped so far, by remove() or by an overwriting write() (which
  /// erases the old file before its disk delay). The only ways a name this
  /// fs holds can stop being held.
  std::uint64_t erasures() const { return erasures_; }

  const ObjectFsConfig& config() const { return config_; }

 private:
  struct FileEntry {
    Bytes size;
    Bin bin;
  };

  void release(const FileEntry& f) {
    (f.bin == Bin::mandatory ? mandatory_used_ : voluntary_used_) -= f.size;
  }

  sim::Simulation& sim_;
  ObjectFsConfig config_;
  std::unordered_map<std::string, FileEntry> files_;
  Bytes mandatory_used_ = 0;
  Bytes voluntary_used_ = 0;
  std::uint64_t erasures_ = 0;
};

}  // namespace c4h::vstore
