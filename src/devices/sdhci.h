// SDHCI — SD host controller (after QEMU's hw/sd/sdhci.c), PIO mode.
//
// MMIO register block: BLKSIZE (0x04), BLKCNT (0x06), ARG (0x08), TRNMOD
// (0x0c), CMDREG (0x0e), RESP (0x10), BDATA (0x20, byte data port),
// PRNSTS (0x24), NORINTSTS (0x30). Commands are issued by writing CMDREG;
// the command index is CMDREG >> 8. CMD17/18/24/25 start PIO block
// transfers through the 512-byte fifo_buffer, indexed by data_count and
// bounded by blksize.
//
// CVE-2021-3409: the unpatched controller lets the guest rewrite BLKSIZE
// while a transfer is in flight. The transfer code computes the remaining
// bytes of the current block as (blksize - data_count); shrinking blksize
// below data_count underflows that unsigned expression, and growing blksize
// beyond the 512-byte fifo drives fifo_buffer[data_count] out of bounds.
// The patched variant (QEMU >= 6.0) ignores BLKSIZE writes while
// transfer_active is set.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "program/program.h"
#include "vdev/device.h"
#include "vdev/zero_pages.h"

namespace sedspec::devices {

class SdhciDevice final : public sedspec::Device {
 public:
  struct Vulns {
    bool cve_2021_3409 = false;  // BLKSIZE mutable during transfer
  };

  static constexpr uint64_t kBaseAddr = 0x10000000;
  static constexpr uint64_t kMmioSpan = 0x100;
  static constexpr uint32_t kFifoSize = 512;
  static constexpr uint32_t kBlockSize = 512;
  static constexpr size_t kCardSize = 8ull << 20;  // 8 MiB card

  // Register offsets.
  static constexpr uint64_t kRegBlkSize = 0x04;
  static constexpr uint64_t kRegBlkCnt = 0x06;
  static constexpr uint64_t kRegArg = 0x08;
  static constexpr uint64_t kRegTrnMod = 0x0c;
  static constexpr uint64_t kRegCmd = 0x0e;
  static constexpr uint64_t kRegResp = 0x10;
  static constexpr uint64_t kRegBData = 0x20;
  static constexpr uint64_t kRegPrnSts = 0x24;
  static constexpr uint64_t kRegNorIntSts = 0x30;

  // Command indices (written as CMDREG = idx << 8).
  static constexpr uint8_t kCmdGoIdle = 0;
  static constexpr uint8_t kCmdAllSendCid = 2;
  static constexpr uint8_t kCmdSendRelAddr = 3;
  static constexpr uint8_t kCmdSelect = 7;
  static constexpr uint8_t kCmdSendCsd = 9;
  static constexpr uint8_t kCmdStop = 12;
  static constexpr uint8_t kCmdSendStatus = 13;
  static constexpr uint8_t kCmdSetBlockLen = 16;
  static constexpr uint8_t kCmdReadSingle = 17;
  static constexpr uint8_t kCmdReadMulti = 18;
  static constexpr uint8_t kCmdWriteSingle = 24;
  static constexpr uint8_t kCmdWriteMulti = 25;
  static constexpr uint8_t kCmdSwitch = 6;   // rare
  static constexpr uint8_t kCmdGenCmd = 56;  // rare

  // NORINTSTS bits.
  static constexpr uint16_t kIntCmdDone = 0x0001;
  static constexpr uint16_t kIntXferDone = 0x0002;

  SdhciDevice() : SdhciDevice(Vulns{}) {}
  explicit SdhciDevice(Vulns vulns);
  ~SdhciDevice() override;

  uint64_t io_read(const sedspec::IoAccess& io) override;
  void io_write(const sedspec::IoAccess& io) override;

  [[nodiscard]] std::span<uint8_t> card() { return card_.span(); }

  struct Blueprint;
  [[nodiscard]] const Blueprint& blueprint() const { return *bp_; }

 protected:
  void reset_device() override;

 private:
  SdhciDevice(std::unique_ptr<Blueprint> bp, Vulns vulns);

  void issue_command(uint8_t index);
  void bdata_write(const sedspec::IoAccess& io);
  uint64_t bdata_read();
  void block_to_card();
  void card_to_fifo();
  [[nodiscard]] size_t card_offset() const;

  std::unique_ptr<Blueprint> bp_;
  Vulns vulns_;
  sedspec::ZeroPages card_;
};

struct SdhciDevice::Blueprint {
  std::unique_ptr<sedspec::DeviceProgram> program;

  // SDHCIState fields.
  sedspec::ParamId blksize, blkcnt, argument, trnmod, cmdreg;
  sedspec::ParamId response, prnsts, norintsts;
  sedspec::ParamId transfer_active, is_write, blocks_left, cur_block;
  sedspec::ParamId irq_fn;
  sedspec::ParamId fifo_buffer, data_count;

  // Locals.
  sedspec::LocalId l_remaining;  // blksize - data_count (inlined)

  // Sites.
  sedspec::SiteId s_blksize_guard, s_blksize_ignored, s_blksize_set;
  sedspec::SiteId s_blkcnt_set, s_arg_set, s_trnmod_set;
  sedspec::SiteId s_cmd_issue;
  sedspec::SiteId s_cmd_reset, s_cmd_simple, s_cmd_setblocklen;
  sedspec::SiteId s_cmd_read_single, s_cmd_read_multi;
  sedspec::SiteId s_cmd_write_single, s_cmd_write_multi;
  sedspec::SiteId s_cmd_stop, s_cmd_rare, s_cmd_unknown;
  sedspec::SiteId s_irq_cmd;
  sedspec::SiteId s_bdata_w_act, s_bdata_w_dir, s_bdata_store,
      s_bdata_w_blkdone;
  sedspec::SiteId s_blk_written, s_blk_w_more, s_blk_w_next, s_xfer_w_done;
  sedspec::SiteId s_bdata_r_act, s_bdata_r_dir, s_bdata_load,
      s_bdata_r_blkdone;
  sedspec::SiteId s_blk_read_done, s_blk_r_more, s_blk_r_next, s_xfer_r_done;
  sedspec::SiteId s_irq_xfer_w, s_irq_xfer_r;
  sedspec::SiteId s_cmd_end_xfer_w, s_cmd_end_xfer_r, s_cmd_end_simple;
  sedspec::SiteId s_resp_read, s_prnsts_read, s_intsts_read, s_intsts_clear;

  sedspec::FuncAddr f_irq;
};

}  // namespace sedspec::devices
