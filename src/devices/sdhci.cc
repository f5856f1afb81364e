#include "devices/sdhci.h"

#include <algorithm>

#include "common/assert.h"

namespace sedspec::devices {

namespace {

using sedspec::eb::add;
using sedspec::eb::band;
using sedspec::eb::bor;
using sedspec::eb::c;
using sedspec::eb::eq;
using sedspec::eb::ge;
using sedspec::eb::gt;
using sedspec::eb::io_value;
using sedspec::eb::param;
using sedspec::eb::shr;
using sedspec::eb::sub;
using sedspec::eb::un;

constexpr IntType U8 = IntType::kU8;
constexpr IntType U16 = IntType::kU16;
constexpr IntType U32 = IntType::kU32;

}  // namespace

SdhciDevice::SdhciDevice(Vulns vulns)
    : SdhciDevice(std::make_unique<Blueprint>([&] {
        Blueprint bp;
        StateLayout layout("SDHCIState");
        bp.blksize = layout.add_scalar("blksize", FieldKind::kLength, U16);
        bp.blkcnt = layout.add_scalar("blkcnt", FieldKind::kLength, U16);
        bp.argument = layout.add_scalar("argument", FieldKind::kRegister, U32);
        bp.trnmod = layout.add_scalar("trnmod", FieldKind::kRegister, U16);
        bp.cmdreg = layout.add_scalar("cmdreg", FieldKind::kRegister, U16);
        bp.response = layout.add_scalar("response", FieldKind::kRegister, U32);
        bp.prnsts = layout.add_scalar("prnsts", FieldKind::kRegister, U32);
        bp.norintsts =
            layout.add_scalar("norintsts", FieldKind::kRegister, U16);
        bp.transfer_active =
            layout.add_scalar("transfer_active", FieldKind::kFlag, U8);
        bp.is_write = layout.add_scalar("is_write", FieldKind::kFlag, U8);
        bp.blocks_left =
            layout.add_scalar("blocks_left", FieldKind::kLength, U16);
        bp.cur_block = layout.add_scalar("cur_block", FieldKind::kIndex, U16);
        bp.irq_fn = layout.add_funcptr("irq_fn");
        bp.fifo_buffer = layout.add_buffer("fifo_buffer", 1, kFifoSize);
        bp.data_count = layout.add_scalar("data_count", FieldKind::kIndex, U32);

        DeviceProgram prog("sdhci", std::move(layout), /*code_base=*/0x500000);
        bp.f_irq = prog.add_function("sdhci_raise_irq");
        bp.l_remaining = prog.add_local("remaining");

        auto P = [&](ParamId p, IntType t) { return param(p, t); };
        ExprRef blksize_masked = band(P(bp.blksize, U16), c(0xfff, U16), U16);

        // --- Plain register writes ------------------------------------
        bp.s_blksize_guard = prog.add_conditional(
            "sdhci_write_blksize.guard",
            eq(P(bp.transfer_active, U8), c(1, U8)));
        bp.s_blksize_ignored =
            prog.add_plain("sdhci_write_blksize.ignored", {});
        bp.s_blksize_set = prog.add_plain(
            "sdhci_write_blksize.set",
            {sb::assign(bp.blksize, io_value(U16), "blksize = value")});
        bp.s_blkcnt_set = prog.add_plain(
            "sdhci_write_blkcnt", {sb::assign(bp.blkcnt, io_value(U16))});
        bp.s_arg_set = prog.add_plain(
            "sdhci_write_arg", {sb::assign(bp.argument, io_value(U32))});
        bp.s_trnmod_set = prog.add_plain(
            "sdhci_write_trnmod", {sb::assign(bp.trnmod, io_value(U16))});

        // --- Command issue ----------------------------------------------
        bp.s_cmd_issue = prog.add_cmd_decision(
            "sdhci_send_command",
            band(shr(io_value(U16), c(8, U16), U16), c(0x3f, U16), U16),
            {sb::assign(bp.cmdreg, io_value(U16), "cmdreg = value")});

        auto respond = [&](sedspec::StmtList extra) {
          sedspec::StmtList out = {
              sb::assign(bp.response, c(0x900, U32), "response = R1 ready"),
              sb::assign(bp.norintsts,
                         bor(P(bp.norintsts, U16), c(kIntCmdDone, U16), U16),
                         "norintsts |= CMD_DONE")};
          out.insert(out.end(), extra.begin(), extra.end());
          return out;
        };

        bp.s_cmd_reset = prog.add_plain(
            "sdhci_cmd_go_idle",
            respond({sb::assign(bp.transfer_active, c(0, U8)),
                     sb::assign(bp.data_count, c(0, U32)),
                     sb::assign(bp.blocks_left, c(0, U16))}));
        bp.s_cmd_simple = prog.add_plain("sdhci_cmd_simple", respond({}));
        bp.s_cmd_setblocklen = prog.add_plain(
            "sdhci_cmd_set_blocklen",
            respond({sb::assign(bp.blksize,
                                band(P(bp.argument, U32), c(0xfff, U32), U32),
                                "blksize = arg & 0xfff")}));

        auto start_xfer = [&](bool write, bool multi) {
          sedspec::StmtList out =
              respond({sb::assign(bp.transfer_active, c(1, U8)),
                       sb::assign(bp.is_write, c(write ? 1 : 0, U8)),
                       sb::assign(bp.cur_block, c(0, U16)),
                       sb::assign(bp.data_count, c(0, U32))});
          if (multi) {
            out.push_back(sb::assign(bp.blocks_left, P(bp.blkcnt, U16),
                                     "blocks_left = blkcnt"));
          } else {
            out.push_back(sb::assign(bp.blocks_left, c(1, U16)));
          }
          if (!write) {
            out.push_back(sb::buf_fill(bp.fifo_buffer, c(0, U32),
                                       sedspec::eb::cast(blksize_masked, U32),
                                       "fifo <- card block"));
          }
          return out;
        };
        bp.s_cmd_read_single =
            prog.add_plain("sdhci_cmd_read_single", start_xfer(false, false));
        bp.s_cmd_read_multi =
            prog.add_plain("sdhci_cmd_read_multi", start_xfer(false, true));
        bp.s_cmd_write_single =
            prog.add_plain("sdhci_cmd_write_single", start_xfer(true, false));
        bp.s_cmd_write_multi =
            prog.add_plain("sdhci_cmd_write_multi", start_xfer(true, true));
        bp.s_cmd_stop = prog.add_plain(
            "sdhci_cmd_stop",
            respond({sb::assign(bp.transfer_active, c(0, U8)),
                     sb::assign(bp.data_count, c(0, U32))}));
        bp.s_cmd_rare = prog.add_plain("sdhci_cmd_rare", respond({}));
        bp.s_cmd_unknown = prog.add_plain("sdhci_cmd_unknown", respond({}));

        bp.s_irq_cmd = prog.add_indirect("sdhci_irq.cmd_done", bp.irq_fn);
        bp.s_cmd_end_simple = prog.add_cmd_end("sdhci_cmd_complete", {});

        // --- BDATA write path (PIO to card) -----------------------------
        bp.s_bdata_w_act = prog.add_conditional(
            "sdhci_write_dataport.active",
            eq(P(bp.transfer_active, U8), c(1, U8)));
        bp.s_bdata_w_dir = prog.add_conditional(
            "sdhci_write_dataport.dir", eq(P(bp.is_write, U8), c(1, U8)));
        bp.s_bdata_store = prog.add_plain(
            "sdhci_write_dataport.store",
            {sb::assign_local(bp.l_remaining,
                              sub(sedspec::eb::cast(blksize_masked, U32),
                                  P(bp.data_count, U32), U32),
                              "remaining = blksize - data_count"),
             sb::buf_store(bp.fifo_buffer, P(bp.data_count, U32),
                           io_value(U8), "fifo_buffer[data_count] = value"),
             sb::assign(bp.data_count,
                        add(P(bp.data_count, U32), c(1, U32), U32),
                        "data_count++")});
        bp.s_bdata_w_blkdone = prog.add_conditional(
            "sdhci_write_block_gap",
            ge(P(bp.data_count, U32), sedspec::eb::cast(blksize_masked, U32)));
        bp.s_blk_written = prog.add_plain(
            "sdhci_block_written", {sb::assign(bp.data_count, c(0, U32))});
        bp.s_blk_w_more = prog.add_conditional(
            "sdhci_write_more_blocks", gt(P(bp.blocks_left, U16), c(1, U16)));
        bp.s_blk_w_next = prog.add_plain(
            "sdhci_write_next_block",
            {sb::assign(bp.blocks_left,
                        sub(P(bp.blocks_left, U16), c(1, U16), U16)),
             sb::assign(bp.cur_block,
                        add(P(bp.cur_block, U16), c(1, U16), U16))});
        bp.s_xfer_w_done = prog.add_plain(
            "sdhci_write_transfer_done",
            {sb::assign(bp.transfer_active, c(0, U8)),
             sb::assign(bp.norintsts,
                        bor(P(bp.norintsts, U16), c(kIntXferDone, U16), U16),
                        "norintsts |= XFER_DONE")});
        bp.s_irq_xfer_w = prog.add_indirect("sdhci_irq.write_done", bp.irq_fn);
        bp.s_cmd_end_xfer_w = prog.add_cmd_end("sdhci_write_cmd_end", {});

        // --- BDATA read path ------------------------------------------
        bp.s_bdata_r_act = prog.add_conditional(
            "sdhci_read_dataport.active",
            eq(P(bp.transfer_active, U8), c(1, U8)));
        bp.s_bdata_r_dir = prog.add_conditional(
            "sdhci_read_dataport.dir", eq(P(bp.is_write, U8), c(0, U8)));
        bp.s_bdata_load = prog.add_plain(
            "sdhci_read_dataport.advance",
            {sb::assign_local(bp.l_remaining,
                              sub(sedspec::eb::cast(blksize_masked, U32),
                                  P(bp.data_count, U32), U32),
                              "remaining = blksize - data_count"),
             sb::assign(bp.data_count,
                        add(P(bp.data_count, U32), c(1, U32), U32),
                        "data_count++")});
        bp.s_bdata_r_blkdone = prog.add_conditional(
            "sdhci_read_block_gap",
            ge(P(bp.data_count, U32), sedspec::eb::cast(blksize_masked, U32)));
        bp.s_blk_read_done = prog.add_plain(
            "sdhci_block_read", {sb::assign(bp.data_count, c(0, U32))});
        bp.s_blk_r_more = prog.add_conditional(
            "sdhci_read_more_blocks", gt(P(bp.blocks_left, U16), c(1, U16)));
        bp.s_blk_r_next = prog.add_plain(
            "sdhci_read_next_block",
            {sb::assign(bp.blocks_left,
                        sub(P(bp.blocks_left, U16), c(1, U16), U16)),
             sb::assign(bp.cur_block,
                        add(P(bp.cur_block, U16), c(1, U16), U16)),
             sb::buf_fill(bp.fifo_buffer, c(0, U32),
                          sedspec::eb::cast(blksize_masked, U32),
                          "fifo <- next card block")});
        bp.s_xfer_r_done = prog.add_plain(
            "sdhci_read_transfer_done",
            {sb::assign(bp.transfer_active, c(0, U8)),
             sb::assign(bp.norintsts,
                        bor(P(bp.norintsts, U16), c(kIntXferDone, U16), U16))});
        bp.s_irq_xfer_r = prog.add_indirect("sdhci_irq.read_done", bp.irq_fn);
        bp.s_cmd_end_xfer_r = prog.add_cmd_end("sdhci_read_cmd_end", {});

        // --- Status reads / interrupt acknowledge -----------------------
        bp.s_resp_read = prog.add_plain("sdhci_read_response", {});
        bp.s_prnsts_read = prog.add_plain("sdhci_read_prnsts", {});
        bp.s_intsts_read = prog.add_plain("sdhci_read_norintsts", {});
        bp.s_intsts_clear = prog.add_plain(
            "sdhci_clear_norintsts",
            {sb::assign(bp.norintsts,
                        band(P(bp.norintsts, U16),
                             un(sedspec::UnaryOp::kBitNot, io_value(U16), U16),
                             U16),
                        "norintsts &= ~value  /* RW1C */")});

        bp.program = std::make_unique<DeviceProgram>(std::move(prog));
        return bp;
      }()),
      vulns) {}

SdhciDevice::SdhciDevice(std::unique_ptr<Blueprint> bp, Vulns vulns)
    : Device(bp->program.get()),
      bp_(std::move(bp)),
      vulns_(vulns),
      card_(kCardSize) {
  ictx().bind_function(bp_->f_irq, [this] { irq_line().pulse(); });
  reset();
}

SdhciDevice::~SdhciDevice() = default;

void SdhciDevice::reset_device() {
  state().set(bp_->blksize, kBlockSize);
  state().set(bp_->prnsts, 0x000a0000);  // card inserted + stable
  state().set(bp_->irq_fn, bp_->f_irq);
}

size_t SdhciDevice::card_offset() const {
  const uint64_t block =
      state().get(bp_->argument) + state().get(bp_->cur_block);
  return static_cast<size_t>(block) * kBlockSize;
}

void SdhciDevice::card_to_fifo() {
  // Native data source for the buf_fill statements: invoked via the block()
  // fill callback, so the extent is governed by the DSOD.
}

void SdhciDevice::block_to_card() {
  backend_delay();  // card/image write
  const size_t offset = card_offset();
  const uint32_t len = std::min<uint32_t>(
      kFifoSize, static_cast<uint32_t>(state().get(bp_->blksize)) & 0xfff);
  auto fifo = state().buffer_span(bp_->fifo_buffer);
  for (uint32_t i = 0; i < len && offset + i < card_.size(); ++i) {
    card_[offset + i] = fifo[i];
  }
}

uint64_t SdhciDevice::io_read(const sedspec::IoAccess& io) {
  IoRound round(ictx(), io);
  switch (io.addr - kBaseAddr) {
    case kRegResp:
      ictx().block(bp_->s_resp_read);
      return state().get(bp_->response);
    case kRegPrnSts:
      ictx().block(bp_->s_prnsts_read);
      return state().get(bp_->prnsts);
    case kRegNorIntSts:
      ictx().block(bp_->s_intsts_read);
      return state().get(bp_->norintsts);
    case kRegBData:
      return bdata_read();
    default:
      return 0;
  }
}

void SdhciDevice::io_write(const sedspec::IoAccess& io) {
  IoRound round(ictx(), io);
  switch (io.addr - kBaseAddr) {
    case kRegBlkSize:
      if (vulns_.cve_2021_3409) {
        // Unpatched: the register is writable at any time.
        ictx().block(bp_->s_blksize_set);
      } else if (ictx().branch(bp_->s_blksize_guard)) {
        ictx().block(bp_->s_blksize_ignored);
      } else {
        ictx().block(bp_->s_blksize_set);
      }
      return;
    case kRegBlkCnt:
      ictx().block(bp_->s_blkcnt_set);
      return;
    case kRegArg:
      ictx().block(bp_->s_arg_set);
      return;
    case kRegTrnMod:
      ictx().block(bp_->s_trnmod_set);
      return;
    case kRegCmd:
      issue_command(static_cast<uint8_t>((io.value >> 8) & 0x3f));
      return;
    case kRegBData:
      bdata_write(io);
      return;
    case kRegNorIntSts:
      ictx().block(bp_->s_intsts_clear);
      return;
    default:
      return;
  }
}

void SdhciDevice::issue_command(uint8_t index) {
  auto& ic = ictx();
  const auto decoded = static_cast<uint8_t>(ic.command(bp_->s_cmd_issue));
  SEDSPEC_REQUIRE(decoded == index);

  auto fill_from_card = [this](std::span<uint8_t> dst) {
    backend_delay();  // card/image read
    const size_t offset = card_offset();
    for (size_t i = 0; i < dst.size() && offset + i < card_.size(); ++i) {
      dst[i] = card_[offset + i];
    }
  };

  switch (index) {
    case kCmdGoIdle:
      ic.block(bp_->s_cmd_reset);
      break;
    case kCmdAllSendCid:
    case kCmdSendRelAddr:
    case kCmdSelect:
    case kCmdSendCsd:
    case kCmdSendStatus:
      ic.block(bp_->s_cmd_simple);
      break;
    case kCmdSetBlockLen:
      ic.block(bp_->s_cmd_setblocklen);
      break;
    case kCmdReadSingle:
      ic.block(bp_->s_cmd_read_single, fill_from_card);
      return;  // transfer continues; command ends at transfer completion
    case kCmdReadMulti:
      ic.block(bp_->s_cmd_read_multi, fill_from_card);
      return;
    case kCmdWriteSingle:
      ic.block(bp_->s_cmd_write_single);
      return;
    case kCmdWriteMulti:
      ic.block(bp_->s_cmd_write_multi);
      return;
    case kCmdStop:
      ic.block(bp_->s_cmd_stop);
      break;
    case kCmdSwitch:
    case kCmdGenCmd:
      ic.block(bp_->s_cmd_rare);
      break;
    default:
      ic.block(bp_->s_cmd_unknown);
      break;
  }
  ic.indirect(bp_->s_irq_cmd);
  ic.command_end(bp_->s_cmd_end_simple);
}

void SdhciDevice::bdata_write(const sedspec::IoAccess& /*io*/) {
  auto& ic = ictx();
  if (!ic.branch(bp_->s_bdata_w_act)) {
    return;  // data port write with no transfer active: ignored
  }
  if (!ic.branch(bp_->s_bdata_w_dir)) {
    return;  // data port write during a read transfer: ignored
  }
  ic.block(bp_->s_bdata_store);
  if (ic.branch(bp_->s_bdata_w_blkdone)) {
    block_to_card();
    ic.block(bp_->s_blk_written);
    if (ic.branch(bp_->s_blk_w_more)) {
      ic.block(bp_->s_blk_w_next);
    } else {
      ic.block(bp_->s_xfer_w_done);
      ic.indirect(bp_->s_irq_xfer_w);
      ic.command_end(bp_->s_cmd_end_xfer_w);
    }
  }
}

uint64_t SdhciDevice::bdata_read() {
  auto& ic = ictx();
  if (!ic.branch(bp_->s_bdata_r_act)) {
    return 0;
  }
  if (!ic.branch(bp_->s_bdata_r_dir)) {
    return 0;
  }
  const uint64_t value =
      state().buf_load(bp_->fifo_buffer, state().get(bp_->data_count), nullptr);
  ic.block(bp_->s_bdata_load);
  if (ic.branch(bp_->s_bdata_r_blkdone)) {
    ic.block(bp_->s_blk_read_done);
    if (ic.branch(bp_->s_blk_r_more)) {
      ic.block(bp_->s_blk_r_next, [this](std::span<uint8_t> dst) {
        backend_delay();
        const size_t offset = card_offset();
        for (size_t i = 0; i < dst.size() && offset + i < card_.size(); ++i) {
          dst[i] = card_[offset + i];
        }
      });
    } else {
      ic.block(bp_->s_xfer_r_done);
      ic.indirect(bp_->s_irq_xfer_r);
      ic.command_end(bp_->s_cmd_end_xfer_r);
    }
  }
  return value;
}

}  // namespace sedspec::devices
