#include "vdev/zero_pages.h"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <utility>

namespace sedspec {

ZeroPages::ZeroPages(size_t size) {
  const auto page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  if (size > SIZE_MAX - 2 * page) {
    throw std::bad_alloc();
  }
  const size_t body = (size + page - 1) / page * page;
  void* map = mmap(nullptr, body + page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) {
    throw std::bad_alloc();
  }
  auto* base = static_cast<uint8_t*>(map);
  if (mprotect(base + body, page, PROT_NONE) != 0) {
    munmap(map, body + page);
    throw std::bad_alloc();
  }
  // One 4 KiB page per touched page on every host, also where transparent
  // huge pages are on for all mappings: a huge page would fault in (and
  // zero) 2 MiB for the first byte a guest writes. Best effort; a kernel
  // without THP rejects the advice and has nothing to turn off.
  (void)madvise(base, body, MADV_NOHUGEPAGE);
  map_ = map;
  map_len_ = body + page;
  data_ = base + body - size;  // the last byte sits right before the guard
  size_ = size;
}

ZeroPages::~ZeroPages() {
  if (map_ != nullptr) {
    munmap(map_, map_len_);
  }
}

ZeroPages::ZeroPages(ZeroPages&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_len_(std::exchange(other.map_len_, 0)),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

ZeroPages& ZeroPages::operator=(ZeroPages&& other) noexcept {
  ZeroPages old(std::move(*this));
  map_ = std::exchange(other.map_, nullptr);
  map_len_ = std::exchange(other.map_len_, 0);
  data_ = std::exchange(other.data_, nullptr);
  size_ = std::exchange(other.size_, 0);
  return *this;
}

}  // namespace sedspec
