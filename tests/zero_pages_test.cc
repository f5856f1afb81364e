// The page-lazy byte store behind the device disks/cards and guest RAM:
// zero reads, persistence, move ownership, the guard page, and that a
// store (and a freshly made workload's stores) maps only the pages that
// were written. Residency is read with mincore(2), so the counts are exact.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "devices/ehci.h"
#include "devices/esp_scsi.h"
#include "devices/fdc.h"
#include "devices/sdhci.h"
#include "guest/sdhci_driver.h"
#include "guest/workload.h"
#include "vdev/dma.h"
#include "vdev/memory.h"
#include "vdev/zero_pages.h"

namespace sedspec {
namespace {

size_t page_size() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }

// Pages of `bytes` that are mapped in. The range must be mapped: mincore
// fails on a range that is not, which the test reports.
size_t resident_pages(std::span<const uint8_t> bytes) {
  const size_t page = page_size();
  const auto begin = reinterpret_cast<uintptr_t>(bytes.data()) / page * page;
  const auto end = reinterpret_cast<uintptr_t>(bytes.data() + bytes.size());
  std::vector<unsigned char> vec((end - begin + page - 1) / page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(begin), end - begin, vec.data()),
            0);
  return static_cast<size_t>(std::count_if(
      vec.begin(), vec.end(), [](unsigned char v) { return (v & 1) != 0; }));
}

TEST(ZeroPages, FreshStoreReadsZero) {
  const ZeroPages z(8u << 20);
  ASSERT_EQ(z.size(), 8u << 20);
  EXPECT_EQ(z.span().size(), z.size());
  EXPECT_EQ(z[0], 0);
  EXPECT_EQ(z[z.size() / 2], 0);
  EXPECT_EQ(z[z.size() - 1], 0);
}

TEST(ZeroPages, WritesPersist) {
  ZeroPages z(1u << 20);
  z[0] = 0x11;
  z[4097] = 0x22;
  z.span()[z.size() - 1] = 0x33;
  EXPECT_EQ(z.span()[0], 0x11);
  EXPECT_EQ(z.data()[4097], 0x22);
  EXPECT_EQ(z[z.size() - 1], 0x33);
  EXPECT_EQ(z[4096], 0);
}

TEST(ZeroPages, MoveLeavesSourceEmptyAndOneOwner) {
  ZeroPages a(16 * page_size());
  a[5] = 7;
  const uint8_t* bytes = a.data();
  ZeroPages b(std::move(a));
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.span().empty());
  EXPECT_EQ(b.data(), bytes);
  EXPECT_EQ(b[5], 7);

  ZeroPages c(page_size());
  {
    ZeroPages moved_from(std::move(b));
    c = std::move(moved_from);
    EXPECT_EQ(moved_from.data(), nullptr);
  }  // the empty source's destructor must not unmap c's pages
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(c.data(), bytes);
  EXPECT_EQ(c[5], 7);
  c[16 * page_size() - 1] = 9;
  EXPECT_EQ(resident_pages(c.span()), 2u);  // fails if unmapped
}

TEST(ZeroPages, MapsOnlyWrittenPages) {
  const size_t page = page_size();
  ZeroPages z(64 * page);
  EXPECT_EQ(resident_pages(z.span()), 0u);
  z[0] = 1;
  z[5 * page + 17] = 2;
  z[5 * page + 18] = 3;  // same page again
  z[z.size() - 1] = 4;
  EXPECT_EQ(resident_pages(z.span()), 3u);
}

TEST(ZeroPages, IndexPastTheEndFaults) {
  ZeroPages z(3 * page_size());
  auto* bytes = static_cast<volatile uint8_t*>(z.data());
  bytes[z.size() - 1] = 1;
  EXPECT_DEATH(bytes[z.size()] = 1, "");
}

// The byte store behind a workload's device, empty for pcnet (no store).
std::span<const uint8_t> device_store(Device& dev) {
  if (auto* fdc = dynamic_cast<devices::FdcDevice*>(&dev)) return fdc->disk();
  if (auto* sd = dynamic_cast<devices::SdhciDevice*>(&dev)) return sd->card();
  if (auto* esp = dynamic_cast<devices::EspScsiDevice*>(&dev)) {
    return esp->disk();
  }
  if (auto* ehci = dynamic_cast<devices::EhciDevice*>(&dev)) {
    return ehci->storage();
  }
  return {};
}

TEST(DeviceStores, FreshWorkloadTouchesNoStorePage) {
  size_t stores = 0;
  size_t rams = 0;
  for (const std::string& name : guest::workload_names()) {
    SCOPED_TRACE(name);
    const auto w = guest::make_workload(name);
    const std::span<const uint8_t> store = device_store(w->device());
    if (!store.empty()) {
      ++stores;
      EXPECT_EQ(resident_pages(store), 0u);
    }
    if (DmaEngine* dma = w->device().dma_engine()) {
      ++rams;
      EXPECT_EQ(resident_pages(dma->memory().bytes()), 0u);
    }
  }
  EXPECT_EQ(stores, 4u);  // fdc, sdhci, scsi-esp, usb-ehci
  EXPECT_EQ(rams, 3u);    // usb-ehci, pcnet, scsi-esp

  const auto w = guest::make_workload("sdhci");
  guest::SdhciDriver drv(&w->bus());
  drv.init_card();
  drv.write_block(7, std::vector<uint8_t>(512, 0x5a));
  EXPECT_EQ(resident_pages(device_store(w->device())), 1u);
}

}  // namespace
}  // namespace sedspec
