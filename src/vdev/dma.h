// DMA engine.
//
// Thin accounting layer between a device and guest memory: all bulk
// transfers go through it so benchmarks can report DMA byte counts and
// tests can assert on transfer activity.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "vdev/memory.h"

namespace sedspec {

class DmaEngine {
 public:
  explicit DmaEngine(GuestMemory* mem) : mem_(mem) {}

  /// Fault-injection seam (faultinject layer 3): consulted before every
  /// transfer. Returning a DmaFault makes the transfer fail outright
  /// (`fail`) or complete only `short_len` bytes (reads zero-fill the
  /// rest); nullopt leaves the transfer untouched. Devices already handle
  /// `false` returns (they model real DMA to unmapped guest pages), so an
  /// injected fault exercises exactly those paths.
  struct DmaFault {
    bool fail = false;
    uint64_t short_len = 0;  // honored when !fail
  };
  using FaultHook = std::function<std::optional<DmaFault>(
      bool is_read, uint64_t addr, size_t len)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Guest memory -> device buffer. Returns false on an out-of-range guest
  /// address (the span is zero-filled).
  bool from_guest(uint64_t addr, std::span<uint8_t> out) {
    bytes_read_ += out.size();
    ++transfers_;
    check_owner();
    if (fault_hook_) {
      if (auto f = fault_hook_(/*is_read=*/true, addr, out.size())) {
        ++faults_injected_;
        std::fill(out.begin(), out.end(), uint8_t{0});
        if (f->fail) {
          return false;
        }
        const size_t n = std::min<size_t>(f->short_len, out.size());
        return mem_->read(addr, out.subspan(0, n));
      }
    }
    return mem_->read(addr, out);
  }

  /// Device buffer -> guest memory. Returns false on out-of-range address.
  bool to_guest(uint64_t addr, std::span<const uint8_t> data) {
    bytes_written_ += data.size();
    ++transfers_;
    check_owner();
    if (fault_hook_) {
      if (auto f = fault_hook_(/*is_read=*/false, addr, data.size())) {
        ++faults_injected_;
        if (f->fail) {
          return false;
        }
        const size_t n = std::min<size_t>(f->short_len, data.size());
        return mem_->write(addr, data.subspan(0, n));
      }
    }
    return mem_->write(addr, data);
  }

  [[nodiscard]] GuestMemory& memory() { return *mem_; }

  [[nodiscard]] uint64_t bytes_read() const { return bytes_read_; }
  [[nodiscard]] uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] uint64_t transfer_count() const { return transfers_; }
  [[nodiscard]] uint64_t faults_injected() const { return faults_injected_; }
  void reset_stats() {
    bytes_read_ = bytes_written_ = transfers_ = faults_injected_ = 0;
  }

  /// Shard-ownership guard, mirroring IoBus: the engine's plain counters
  /// assume single-threaded use, so the concurrency tests bind each engine
  /// to its shard thread and assert owner_violations() stays zero.
  void bind_owner_thread() {
    owner_token_.store(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1,
        std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t owner_violations() const {
    return owner_violations_.load(std::memory_order_relaxed);
  }

 private:
  void check_owner() {
    const uint64_t owner = owner_token_.load(std::memory_order_relaxed);
    if (owner != 0 &&
        owner != (std::hash<std::thread::id>{}(std::this_thread::get_id()) |
                  1)) {
      owner_violations_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  GuestMemory* mem_;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t transfers_ = 0;
  uint64_t faults_injected_ = 0;
  std::atomic<uint64_t> owner_token_{0};
  std::atomic<uint64_t> owner_violations_{0};
  FaultHook fault_hook_;
};

}  // namespace sedspec
