// FDC — floppy disk controller (Intel 82078 style, after QEMU's fdc.c).
//
// PMIO register block at 0x3f0: DOR (+2), TDR (+3), MSR/DSR (+4), FIFO (+5),
// DIR/CCR (+7). The controller implements the classic three-phase command
// protocol (command bytes -> optional execution/data phase -> result bytes)
// over a 512-byte FIFO, PIO mode (no DMA), with an interrupt callback held
// as a function pointer in the control structure (FDCtrl.irq_fn).
//
// Commands implemented: SPECIFY, SENSE DRIVE STATUS, RECALIBRATE,
// SENSE INTERRUPT, SEEK, VERSION, CONFIGURE, READ, WRITE — plus the rare
// READ ID, DUMPREG and PERPENDICULAR commands (legal, but excluded from the
// training mix; they are the device's false-positive source), and DRIVE
// SPECIFICATION (0x8e), the command whose unpatched parameter loop is
// CVE-2015-3456 "Venom": parameter bytes are accumulated into
// fifo[data_pos++] and, as long as the terminator bit is absent, the
// expected length keeps growing — so a guest can push data_pos past the
// FIFO and overwrite adjacent control-structure state. The patched variant
// (QEMU >= 2.3.1) bails out of the command instead of extending it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "program/program.h"
#include "vdev/device.h"
#include "vdev/zero_pages.h"

namespace sedspec::devices {

class FdcDevice final : public sedspec::Device {
 public:
  struct Vulns {
    bool cve_2015_3456 = false;  // Venom: unbounded DRIVE SPEC parameters
  };

  static constexpr uint64_t kBasePort = 0x3f0;
  static constexpr uint64_t kPortSpan = 8;
  static constexpr uint32_t kFifoSize = 512;
  static constexpr uint32_t kSectorSize = 512;
  // 2.88 MB: 80 tracks x 2 heads x 36 sectors x 512 bytes.
  static constexpr uint32_t kTracks = 80;
  static constexpr uint32_t kHeads = 2;
  static constexpr uint32_t kSectorsPerTrack = 36;
  static constexpr size_t kDiskSize =
      size_t{kTracks} * kHeads * kSectorsPerTrack * kSectorSize;

  // Command opcodes (as written to the FIFO).
  static constexpr uint8_t kCmdSpecify = 0x03;
  static constexpr uint8_t kCmdSenseDrive = 0x04;
  static constexpr uint8_t kCmdRecalibrate = 0x07;
  static constexpr uint8_t kCmdSenseInt = 0x08;
  static constexpr uint8_t kCmdSeek = 0x0f;
  static constexpr uint8_t kCmdVersion = 0x10;
  static constexpr uint8_t kCmdConfigure = 0x13;
  static constexpr uint8_t kCmdRead = 0x46;   // MFM read
  static constexpr uint8_t kCmdWrite = 0x45;  // MFM write
  static constexpr uint8_t kCmdReadId = 0x4a;        // rare
  static constexpr uint8_t kCmdDumpReg = 0x0e;       // rare
  static constexpr uint8_t kCmdPerpendicular = 0x12;  // rare
  static constexpr uint8_t kCmdDriveSpec = 0x8e;      // CVE-2015-3456

  // MSR bits.
  static constexpr uint8_t kMsrRqm = 0x80;
  static constexpr uint8_t kMsrDio = 0x40;
  static constexpr uint8_t kMsrBusy = 0x10;

  FdcDevice() : FdcDevice(Vulns{}) {}
  explicit FdcDevice(Vulns vulns);
  ~FdcDevice() override;

  uint64_t io_read(const sedspec::IoAccess& io) override;
  void io_write(const sedspec::IoAccess& io) override;

  [[nodiscard]] std::span<uint8_t> disk() { return disk_.span(); }
  [[nodiscard]] const Vulns& vulns() const { return vulns_; }

  /// Named program handles, exposed for tests and the guest driver model.
  struct Blueprint;
  [[nodiscard]] const Blueprint& blueprint() const { return *bp_; }

 protected:
  void reset_device() override;

 private:
  explicit FdcDevice(std::unique_ptr<Blueprint> bp, Vulns vulns);

  void fifo_write(const sedspec::IoAccess& io);
  uint64_t fifo_read(const sedspec::IoAccess& io);
  void run_command(uint8_t cmd);
  void exec_after_params(uint8_t cmd);
  [[nodiscard]] size_t chs_offset() const;

  std::unique_ptr<Blueprint> bp_;
  Vulns vulns_;
  sedspec::ZeroPages disk_;
};

/// The FDC's "compiled source": control-structure layout handles, site ids,
/// and the interrupt-callback function address.
struct FdcDevice::Blueprint {
  std::unique_ptr<sedspec::DeviceProgram> program;

  // FDCtrl fields.
  sedspec::ParamId msr, dor, tdr, dsr;
  sedspec::ParamId phase;  // 0 command, 1 result, 2 exec-write, 3 exec-read
  sedspec::ParamId cur_cmd, st0, st1, st2, track, head, sector;
  sedspec::ParamId irq_fn;
  sedspec::ParamId fifo, data_pos, data_len;

  // Register access sites.
  sedspec::SiteId s_dor_write, s_dor_reset, s_dor_set;
  sedspec::SiteId s_dsr_write, s_dsr_reset, s_dsr_set;
  sedspec::SiteId s_tdr_set, s_msr_read, s_dir_read, s_dor_read, s_tdr_read;

  // FIFO write path.
  sedspec::SiteId s_fifo_w_phase, s_fifo_w_cmdq, s_cmd_decode;
  sedspec::SiteId s_fifo_w_param, s_fifo_w_pdone, s_exec_dispatch;
  sedspec::SiteId s_fifo_w_xferq, s_fifo_w_xfer, s_fifo_w_xdone;

  // Command setup/exec blocks.
  sedspec::SiteId s_setup_specify, s_setup_sensed, s_setup_recal;
  sedspec::SiteId s_setup_seek, s_setup_configure, s_setup_perp;
  sedspec::SiteId s_setup_read, s_setup_write, s_setup_dspec;
  sedspec::SiteId s_exec_sensei, s_exec_version, s_exec_readid;
  sedspec::SiteId s_exec_dumpreg, s_exec_invalid;
  sedspec::SiteId s_exec_specify, s_exec_sensed, s_exec_recal, s_exec_seek;
  sedspec::SiteId s_exec_configure, s_exec_read, s_exec_writesetup;
  sedspec::SiteId s_exec_writedone, s_exec_readdone;
  sedspec::SiteId s_exec_dspec, s_dspec_more;

  // FIFO read path.
  sedspec::SiteId s_fifo_r_phase3, s_fifo_r_data, s_fifo_r_ddone;
  sedspec::SiteId s_fifo_r_phase1, s_fifo_r_res, s_fifo_r_rdone;

  // Interrupt call sites and command ends.
  sedspec::SiteId s_irq_recal, s_irq_seek, s_irq_read, s_irq_write,
      s_irq_wdone;
  sedspec::SiteId s_cmd_end_imm, s_cmd_end_res;

  sedspec::FuncAddr f_irq;
};

}  // namespace sedspec::devices
