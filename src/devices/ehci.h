// USB EHCI — enhanced host controller with an attached USB storage device
// (after QEMU's hw/usb/hcd-ehci.c + the USB core in hw/usb/core.c, whose
// USBDevice struct carries the CVE-2020-14364 state).
//
// MMIO register block: USBCMD (0x00, RUN bit 0, DOORBELL bit 6), USBSTS
// (0x04), ASYNCLISTADDR (0x18), PORTSC (0x44). The guest queues one
// simplified qTD {u32 token = pid | (len << 16), u32 buffer} in guest
// memory, points ASYNCLISTADDR at it and rings the doorbell; the controller
// processes SETUP/IN/OUT tokens against the attached device's control
// endpoint. A vendor protocol on the control endpoint exposes block
// storage: SETUP {bmRequestType dir, bRequest 0xA0 write / 0xA1 read,
// wValue block number, wLength bytes} followed by IN/OUT data stages and a
// zero-length status stage.
//
// Vulnerabilities:
//  - CVE-2020-14364: the unpatched SETUP handler stores wLength into
//    setup_len without bounding it by sizeof(data_buf); later OUT/IN stages
//    index data_buf with setup_index up to setup_len, writing past the
//    4096-byte buffer over setup_state/setup_len/setup_index (the attacker
//    can make setup_index negative — the paper's second out-of-bounds
//    instance) and the irq handler pointer. Parameter check catches both
//    out-of-bounds instances; the indirect-jump check catches the clobbered
//    pointer at the completion interrupt. Patched: setup_len bounded.
//  - CVE-2016-1568 (the paper's known miss): a premature status stage frees
//    the in-flight packet, and the unpatched cleanup path forgets to clear
//    the pointer; a later idle IN poll (a perfectly trained operation)
//    touches the freed packet. No device-state parameter transitions are
//    involved, so SEDSpec cannot see it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "program/program.h"
#include "vdev/device.h"
#include "vdev/dma.h"
#include "vdev/zero_pages.h"

namespace sedspec::devices {

class EhciDevice final : public sedspec::Device {
 public:
  struct Vulns {
    bool cve_2020_14364 = false;  // unchecked setup_len
    bool cve_2016_1568 = false;   // stale freed-packet pointer
  };

  static constexpr uint64_t kBaseAddr = 0x20000000;
  static constexpr uint64_t kMmioSpan = 0x100;
  static constexpr uint64_t kRegUsbCmd = 0x00;
  static constexpr uint64_t kRegUsbSts = 0x04;
  static constexpr uint64_t kRegAsyncListAddr = 0x18;
  static constexpr uint64_t kRegPortSc = 0x44;

  static constexpr uint32_t kCmdRun = 0x01;
  static constexpr uint32_t kCmdDoorbell = 0x40;

  static constexpr uint32_t kPidOut = 0;
  static constexpr uint32_t kPidIn = 1;
  static constexpr uint32_t kPidSetup = 2;

  static constexpr uint32_t kSetupBufSize = 8;
  static constexpr uint32_t kDataBufSize = 4096;
  static constexpr uint32_t kBlockSize = 512;
  static constexpr size_t kStorageSize = 8ull << 20;

  // Vendor storage protocol.
  static constexpr uint8_t kReqWrite = 0xa0;
  static constexpr uint8_t kReqRead = 0xa1;

  EhciDevice(sedspec::GuestMemory* mem, Vulns vulns);
  explicit EhciDevice(sedspec::GuestMemory* mem) : EhciDevice(mem, Vulns{}) {}
  ~EhciDevice() override;

  uint64_t io_read(const sedspec::IoAccess& io) override;
  void io_write(const sedspec::IoAccess& io) override;
  std::optional<uint64_t> resolve_sync(
      sedspec::LocalId local, const sedspec::IoAccess& io,
      const sedspec::StateAccess& view) override;
  sedspec::DmaEngine* dma_engine() override { return &dma_; }

  [[nodiscard]] std::span<uint8_t> storage() { return storage_.span(); }

  struct Blueprint;
  [[nodiscard]] const Blueprint& blueprint() const { return *bp_; }

 protected:
  void reset_device() override;

 private:
  EhciDevice(std::unique_ptr<Blueprint> bp, sedspec::GuestMemory* mem,
             Vulns vulns);

  void usbcmd_write(const sedspec::IoAccess& io);
  void process_qtd();
  void do_setup(uint64_t buf_addr);
  void do_in(uint32_t len, uint64_t buf_addr);
  void do_out(uint32_t len, uint64_t buf_addr);
  [[nodiscard]] uint64_t qtd_addr(const sedspec::StateAccess& view) const;

  std::unique_ptr<Blueprint> bp_;
  Vulns vulns_;
  sedspec::DmaEngine dma_;
  sedspec::ZeroPages storage_;

  // Native packet lifetime state (heap objects in real QEMU; not part of
  // the control structure, hence invisible to SEDSpec — the CVE-2016-1568
  // surface).
  enum class PacketState { kNone, kLive, kFreed };
  PacketState packet_ = PacketState::kNone;
  bool storage_loaded_ = false;  // lazy data_buf fill for read requests
};

struct EhciDevice::Blueprint {
  std::unique_ptr<sedspec::DeviceProgram> program;

  // EHCI + USBDevice fields. setup_state/len/index sit AFTER data_buf, as
  // in the real USBDevice struct — the overflow path of CVE-2020-14364.
  sedspec::ParamId usbcmd, usbsts, asynclistaddr, portsc;
  sedspec::ParamId setup_buf, data_buf;
  sedspec::ParamId setup_state;  // 0 idle, 1 data, 2 status-pending
  sedspec::ParamId setup_len, setup_index;  // i32, like USBDevice
  sedspec::ParamId irq_fn;

  // Sync locals (qTD / setup-packet derived).
  sedspec::LocalId l_pid, l_len, l_s0, l_s6, l_s7;

  // Sites.
  sedspec::SiteId s_usbcmd_set, s_doorbellq, s_runq, s_run, s_halt;
  sedspec::SiteId s_sts_read, s_sts_clear, s_portsc_read, s_portsc_set;
  sedspec::SiteId s_async_set;
  sedspec::SiteId s_pid_setupq, s_do_setup, s_setup_boundq, s_setup_stall,
      s_setup_done, s_irq_setup;
  sedspec::SiteId s_pid_inq, s_in_activeq, s_in_clampq, s_in_clamped,
      s_in_full, s_in_doneq, s_in_complete, s_irq_in, s_in_idle, s_irq_poll;
  sedspec::SiteId s_pid_outq, s_out_zeroq, s_status_out, s_irq_status;
  sedspec::SiteId s_out_activeq, s_out_clampq, s_out_clamped, s_out_full,
      s_out_doneq, s_out_complete, s_irq_out, s_out_idle;
  sedspec::SiteId s_bad_pid;

  sedspec::FuncAddr f_irq;
};

}  // namespace sedspec::devices
