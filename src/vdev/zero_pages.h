// Page-lazy zero-initialised byte store.
//
// Backs the devices' disks and cards and the guest RAM the way QEMU backs
// guest RAM: an anonymous private mapping whose pages the kernel supplies,
// zeroed, on first touch. A store therefore costs only the pages the guest
// writes, not its whole size up front. The bytes end right before a
// PROT_NONE guard page, so an index past the end faults in every build
// (the store lives outside the ASan heap, which would otherwise catch it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace sedspec {

class ZeroPages {
 public:
  ZeroPages() = default;
  /// Maps `size` zero bytes. Throws std::bad_alloc if the mapping fails.
  explicit ZeroPages(size_t size);
  ~ZeroPages();

  ZeroPages(ZeroPages&& other) noexcept;
  ZeroPages& operator=(ZeroPages&& other) noexcept;
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] uint8_t* data() { return data_; }
  [[nodiscard]] const uint8_t* data() const { return data_; }
  uint8_t& operator[](size_t i) { return data_[i]; }
  const uint8_t& operator[](size_t i) const { return data_[i]; }
  [[nodiscard]] std::span<uint8_t> span() { return {data_, size_}; }
  [[nodiscard]] std::span<const uint8_t> span() const {
    return {data_, size_};
  }

 private:
  void* map_ = nullptr;  // the whole mapping, guard page included
  size_t map_len_ = 0;
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace sedspec
