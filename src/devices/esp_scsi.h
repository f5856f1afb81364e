// ESP SCSI — NCR53C9x-style SCSI controller with an attached disk (after
// QEMU's hw/scsi/esp.c).
//
// PMIO byte registers at 0x230: TCLO (+0), TCMID (+1), FIFO (+2), CMD (+3),
// STATUS (+4, read), INTR (+5, read), SEQ (+6, read), and a board DMA
// address latch (+8..+11). The guest selects a target with ATN (0x42:
// CDB from the FIFO; 0xc2: DMA select — the CDB is fetched from guest
// memory with the transfer-count registers giving its length), transfers
// data with DMA TRANSFER INFO (0x90), completes with ICCS (0x11) and
// MESSAGE ACCEPTED (0x12).
//
// Vulnerabilities:
//  - CVE-2015-5158: the DMA select's CDB fetch trusts the transfer count —
//    get_cmd copies dmalen bytes into the 16-byte cmdbuf. The length
//    reaches the copy through a temporary (LLVM temp chain), so SEDSpec's
//    parameter check is blind; the exploit's oversized CDB carries an
//    untrained opcode, so the conditional-jump check flags the command
//    decode. Patched: dmalen bounded by the cmdbuf size.
//  - CVE-2016-4439: the FIFO write path stores through a temporary pointer
//    (ti_buf[ti_wptr++] with no bound); flooding the FIFO runs past the
//    16-byte ti_buf into the adjacent cursor fields. The store index is a
//    non-state temporary (parameter check blind, like CVE-2015-7504); the
//    public PoC then issues a bare TRANSFER INFO (0x10), a command no
//    benign driver uses, which the conditional-jump check flags. Patched:
//    bound check before the FIFO store.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "program/program.h"
#include "vdev/device.h"
#include "vdev/dma.h"
#include "vdev/zero_pages.h"

namespace sedspec::devices {

class EspScsiDevice final : public sedspec::Device {
 public:
  struct Vulns {
    bool cve_2015_5158 = false;  // unchecked DMA CDB length
    bool cve_2016_4439 = false;  // unchecked FIFO write pointer
  };

  static constexpr uint64_t kBasePort = 0x230;
  static constexpr uint64_t kPortSpan = 0x10;
  static constexpr uint64_t kRegTclo = 0x0;
  static constexpr uint64_t kRegTcmid = 0x1;
  static constexpr uint64_t kRegFifo = 0x2;
  static constexpr uint64_t kRegCmd = 0x3;
  static constexpr uint64_t kRegStatus = 0x4;
  static constexpr uint64_t kRegIntr = 0x5;
  static constexpr uint64_t kRegSeq = 0x6;
  static constexpr uint64_t kRegDma0 = 0x8;  // .. +3

  static constexpr uint32_t kTiBufSize = 16;
  static constexpr uint32_t kCmdBufSize = 16;
  static constexpr uint32_t kBlockSize = 512;
  static constexpr size_t kDiskSize = 8ull << 20;

  // Controller commands.
  static constexpr uint8_t kCmdFlush = 0x01;
  static constexpr uint8_t kCmdBusReset = 0x03;
  static constexpr uint8_t kCmdTi = 0x10;      // bare TI: not in training
  static constexpr uint8_t kCmdIccs = 0x11;
  static constexpr uint8_t kCmdMsgAcc = 0x12;
  static constexpr uint8_t kCmdSetAtn = 0x1a;  // rare-but-legal (FP source)
  static constexpr uint8_t kCmdSelAtn = 0x42;
  static constexpr uint8_t kCmdSelAtnDma = 0xc2;
  static constexpr uint8_t kCmdTiDma = 0x90;

  // SCSI opcodes (trained set).
  static constexpr uint8_t kScsiTestUnitReady = 0x00;
  static constexpr uint8_t kScsiRequestSense = 0x03;
  static constexpr uint8_t kScsiRead6 = 0x08;
  static constexpr uint8_t kScsiWrite6 = 0x0a;
  static constexpr uint8_t kScsiInquiry = 0x12;

  // Bus phases.
  static constexpr uint8_t kPhaseIdle = 0;
  static constexpr uint8_t kPhaseDataIn = 2;
  static constexpr uint8_t kPhaseDataOut = 3;
  static constexpr uint8_t kPhaseStatus = 4;

  EspScsiDevice(sedspec::GuestMemory* mem, Vulns vulns);
  explicit EspScsiDevice(sedspec::GuestMemory* mem)
      : EspScsiDevice(mem, Vulns{}) {}
  ~EspScsiDevice() override;

  uint64_t io_read(const sedspec::IoAccess& io) override;
  void io_write(const sedspec::IoAccess& io) override;
  std::optional<uint64_t> resolve_sync(
      sedspec::LocalId local, const sedspec::IoAccess& io,
      const sedspec::StateAccess& view) override;
  sedspec::DmaEngine* dma_engine() override { return &dma_; }

  [[nodiscard]] std::span<uint8_t> disk() { return disk_.span(); }

  struct Blueprint;
  [[nodiscard]] const Blueprint& blueprint() const { return *bp_; }

 protected:
  void reset_device() override;

 private:
  EspScsiDevice(std::unique_ptr<Blueprint> bp, sedspec::GuestMemory* mem,
                Vulns vulns);

  void fifo_write(const sedspec::IoAccess& io);
  uint64_t fifo_read();
  void command_write(const sedspec::IoAccess& io);
  void execute_cdb();
  void dma_transfer_info();

  std::unique_ptr<Blueprint> bp_;
  Vulns vulns_;
  sedspec::DmaEngine dma_;
  sedspec::ZeroPages disk_;
  bool last_select_dma_ = false;
  // Pending data transfer derived from the current CDB (native bookkeeping,
  // like QEMU's async request state).
  uint64_t xfer_lba_ = 0;
  uint32_t xfer_len_ = 0;
  std::vector<uint8_t> inquiry_data_;
};

struct EspScsiDevice::Blueprint {
  std::unique_ptr<sedspec::DeviceProgram> program;

  // ESPState fields.
  sedspec::ParamId tclo, tcmid, status, intr, seq_reg, cmd_reg;
  sedspec::ParamId phase, selected, dmaddr;
  sedspec::ParamId irq_fn;  // before the buffers: FIFO overflow misses it
  sedspec::ParamId cmdbuf, cmdlen;
  sedspec::ParamId ti_buf, ti_rptr, ti_wptr, ti_size;

  // Locals.
  sedspec::LocalId l_ti_ptr;   // sync: FIFO store temp pointer
  sedspec::LocalId l_dmalen;   // sync: CDB fetch length temp
  sedspec::LocalId l_cdb0;     // sync: CDB opcode (may come via DMA)

  // Sites.
  sedspec::SiteId s_tclo_set, s_tcmid_set, s_dma0, s_dma1, s_dma2, s_dma3;
  sedspec::SiteId s_fifo_boundq, s_fifo_overrun, s_fifo_store;
  sedspec::SiteId s_fifo_r_emptyq, s_fifo_pop, s_fifo_r_empty;
  sedspec::SiteId s_status_read, s_intr_read, s_seq_read;
  sedspec::SiteId s_cmd_latch;
  sedspec::SiteId s_cmd_flush, s_cmd_busreset, s_irq_reset;
  sedspec::SiteId s_seln_emptyq, s_seln_noop;
  sedspec::SiteId s_select_n, s_getcmd_boundq, s_getcmd_fail, s_select_dma_go,
      s_irq_sel;
  sedspec::SiteId s_cdb_group;
  sedspec::SiteId s_cdb_tur, s_cdb_sense, s_cdb_read, s_cdb_write,
      s_cdb_inquiry, s_cdb_unknown, s_irq_exec;
  sedspec::SiteId s_cmd_ti, s_dmati_dirq, s_dmati_in, s_dmati_outq,
      s_dmati_out, s_dmati_bad, s_irq_xfer;
  sedspec::SiteId s_cmd_iccs, s_irq_iccs, s_cmd_msgacc, s_cmd_setatn,
      s_cmd_unknown;
  sedspec::SiteId s_cmd_end;

  sedspec::FuncAddr f_irq;
};

}  // namespace sedspec::devices
