// Guest physical memory.
//
// A flat, page-lazy RAM image (ZeroPages) shared by the guest-side driver models (which place DMA
// descriptors and data buffers in it) and the devices (which access it
// through the DmaEngine). Out-of-range accesses never fault the host: reads
// return zeroes and writes are dropped, with a counter — a device given a
// hostile DMA address must not crash the harness.
#pragma once

#include <cstdint>
#include <span>

#include "vdev/zero_pages.h"

namespace sedspec {

class GuestMemory {
 public:
  explicit GuestMemory(size_t size) : ram_(size) {}

  [[nodiscard]] size_t size() const { return ram_.size(); }
  /// The RAM image itself, for inspecting which of its pages are resident.
  [[nodiscard]] std::span<const uint8_t> bytes() const { return ram_.span(); }

  /// Returns false (and zero-fills `out`) if the range is out of bounds.
  bool read(uint64_t addr, std::span<uint8_t> out) const;
  /// Returns false (and drops the data) if the range is out of bounds.
  bool write(uint64_t addr, std::span<const uint8_t> data);

  [[nodiscard]] uint8_t r8(uint64_t addr) const { return rn<uint8_t>(addr); }
  [[nodiscard]] uint16_t r16(uint64_t addr) const { return rn<uint16_t>(addr); }
  [[nodiscard]] uint32_t r32(uint64_t addr) const { return rn<uint32_t>(addr); }
  [[nodiscard]] uint64_t r64(uint64_t addr) const { return rn<uint64_t>(addr); }

  void w8(uint64_t addr, uint8_t v) { wn(addr, v); }
  void w16(uint64_t addr, uint16_t v) { wn(addr, v); }
  void w32(uint64_t addr, uint32_t v) { wn(addr, v); }
  void w64(uint64_t addr, uint64_t v) { wn(addr, v); }

  void fill(uint64_t addr, size_t len, uint8_t byte);

  /// Count of dropped/zero-filled out-of-range accesses.
  [[nodiscard]] uint64_t fault_count() const { return faults_; }

 private:
  template <typename T>
  [[nodiscard]] T rn(uint64_t addr) const {
    T v{};
    read(addr, {reinterpret_cast<uint8_t*>(&v), sizeof(T)});
    return v;
  }

  template <typename T>
  void wn(uint64_t addr, T v) {
    write(addr, {reinterpret_cast<const uint8_t*>(&v), sizeof(T)});
  }

  ZeroPages ram_;
  mutable uint64_t faults_ = 0;
};

}  // namespace sedspec
