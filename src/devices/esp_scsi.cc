#include "devices/esp_scsi.h"

#include <algorithm>

#include "common/assert.h"

namespace sedspec::devices {

namespace {

using sedspec::eb::add;
using sedspec::eb::band;
using sedspec::eb::bor;
using sedspec::eb::c;
using sedspec::eb::cast;
using sedspec::eb::eq;
using sedspec::eb::gt;
using sedspec::eb::io_value;
using sedspec::eb::le;
using sedspec::eb::local;
using sedspec::eb::lt;
using sedspec::eb::param;
using sedspec::eb::shl;
using sedspec::eb::sub;

constexpr IntType U8 = IntType::kU8;
constexpr IntType U16 = IntType::kU16;
constexpr IntType U32 = IntType::kU32;

// SCSI opcodes are disambiguated from controller commands in the command
// access table by a 0x100 offset.
constexpr uint64_t kCdbCmdBase = 0x100;

}  // namespace

EspScsiDevice::EspScsiDevice(sedspec::GuestMemory* mem, Vulns vulns)
    : EspScsiDevice(std::make_unique<Blueprint>([&] {
        Blueprint bp;
        StateLayout layout("ESPState");
        bp.tclo = layout.add_scalar("tclo", FieldKind::kRegister, U8);
        bp.tcmid = layout.add_scalar("tcmid", FieldKind::kRegister, U8);
        bp.status = layout.add_scalar("status", FieldKind::kRegister, U8);
        bp.intr = layout.add_scalar("intr", FieldKind::kRegister, U8);
        bp.seq_reg = layout.add_scalar("seq_reg", FieldKind::kRegister, U8);
        bp.cmd_reg = layout.add_scalar("cmd_reg", FieldKind::kRegister, U8);
        bp.phase = layout.add_scalar("phase", FieldKind::kFlag, U8);
        bp.selected = layout.add_scalar("selected", FieldKind::kFlag, U8);
        bp.dmaddr = layout.add_scalar("dmaddr", FieldKind::kRegister, U32);
        bp.irq_fn = layout.add_funcptr("irq_fn");
        bp.cmdbuf = layout.add_buffer("cmdbuf", 1, kCmdBufSize);
        bp.cmdlen = layout.add_scalar("cmdlen", FieldKind::kLength, U32);
        bp.ti_buf = layout.add_buffer("ti_buf", 1, kTiBufSize);
        bp.ti_rptr = layout.add_scalar("ti_rptr", FieldKind::kIndex, U32);
        bp.ti_wptr = layout.add_scalar("ti_wptr", FieldKind::kIndex, U32);
        bp.ti_size = layout.add_scalar("ti_size", FieldKind::kLength, U32);

        DeviceProgram prog("scsi-esp", std::move(layout),
                           /*code_base=*/0x700000);
        bp.f_irq = prog.add_function("esp_raise_irq");
        bp.l_ti_ptr = prog.add_local("ti_store_ptr");
        bp.l_dmalen = prog.add_local("get_cmd_dmalen");
        bp.l_cdb0 = prog.add_local("cdb_opcode");

        auto P8 = [&](ParamId p) { return param(p, U8); };
        auto P32 = [&](ParamId p) { return param(p, U32); };

        // --- Transfer count and DMA latch ---------------------------------
        bp.s_tclo_set =
            prog.add_plain("esp_write_tclo", {sb::assign(bp.tclo, io_value(U8))});
        bp.s_tcmid_set = prog.add_plain("esp_write_tcmid",
                                        {sb::assign(bp.tcmid, io_value(U8))});
        auto dma_byte = [&](const char* name, uint32_t shift, uint32_t mask) {
          return prog.add_plain(
              name, {sb::assign(bp.dmaddr,
                                bor(band(P32(bp.dmaddr), c(mask, U32), U32),
                                    shl(cast(io_value(U8), U32),
                                        c(shift, U32), U32),
                                    U32))});
        };
        bp.s_dma0 = dma_byte("esp_write_dmaddr0", 0, 0xffffff00u);
        bp.s_dma1 = dma_byte("esp_write_dmaddr1", 8, 0xffff00ffu);
        bp.s_dma2 = dma_byte("esp_write_dmaddr2", 16, 0xff00ffffu);
        bp.s_dma3 = dma_byte("esp_write_dmaddr3", 24, 0x00ffffffu);

        // --- FIFO ----------------------------------------------------------
        bp.s_fifo_boundq = prog.add_conditional(  // patched only
            "esp_fifo_write.bound", lt(P32(bp.ti_wptr), c(kTiBufSize, U32)));
        bp.s_fifo_overrun = prog.add_plain("esp_fifo_write.overrun", {});
        bp.s_fifo_store = prog.add_plain(
            "esp_fifo_write.store",
            {sb::buf_store(bp.ti_buf, local(bp.l_ti_ptr, U32), io_value(U8),
                           "*p++ = val  /* temp ptr into ti_buf */"),
             sb::assign(bp.ti_wptr, add(P32(bp.ti_wptr), c(1, U32), U32)),
             sb::assign(bp.ti_size, add(P32(bp.ti_size), c(1, U32), U32))});
        bp.s_fifo_r_emptyq = prog.add_conditional(
            "esp_fifo_read.available", lt(P32(bp.ti_rptr), P32(bp.ti_wptr)));
        bp.s_fifo_pop = prog.add_plain(
            "esp_fifo_read.pop",
            {sb::assign(bp.ti_rptr, add(P32(bp.ti_rptr), c(1, U32), U32))});
        bp.s_fifo_r_empty = prog.add_plain("esp_fifo_read.empty", {});

        // --- Status registers ----------------------------------------------
        bp.s_status_read = prog.add_plain("esp_read_status", {});
        bp.s_intr_read = prog.add_plain(
            "esp_read_intr", {sb::assign(bp.intr, c(0, U8),
                                         "intr = 0  /* read clears */")});
        bp.s_seq_read = prog.add_plain("esp_read_seq", {});

        // --- Controller command decode --------------------------------------
        bp.s_cmd_latch = prog.add_cmd_decision(
            "esp_reg_write.cmd", io_value(U8),
            {sb::assign(bp.cmd_reg, io_value(U8))});
        bp.s_cmd_flush = prog.add_plain(
            "esp_cmd_flush", {sb::assign(bp.ti_wptr, c(0, U32)),
                              sb::assign(bp.ti_rptr, c(0, U32)),
                              sb::assign(bp.ti_size, c(0, U32))});
        bp.s_cmd_busreset = prog.add_plain(
            "esp_cmd_bus_reset",
            {sb::assign(bp.phase, c(kPhaseIdle, U8)),
             sb::assign(bp.selected, c(0, U8)),
             sb::assign(bp.intr, c(0x80, U8), "intr = RESET")});
        bp.s_irq_reset = prog.add_indirect("esp_irq.bus_reset", bp.irq_fn);

        // A select with an empty FIFO has no message/CDB to latch; guard it
        // (otherwise the ti_wptr - 1 copy length underflows).
        bp.s_seln_emptyq = prog.add_conditional(
            "esp_select_with_atn.have_msg",
            gt(P32(bp.ti_wptr), c(0, U32)));
        bp.s_seln_noop = prog.add_plain("esp_select_with_atn.empty", {});
        bp.s_select_n = prog.add_plain(
            "esp_select_with_atn",
            {sb::assign(bp.selected, c(1, U8)),
             sb::buf_fill(bp.cmdbuf, c(0, U32),
                          sub(P32(bp.ti_wptr), c(1, U32), U32),
                          "cmdbuf <- fifo[1..]  /* skip identify msg */"),
             sb::assign(bp.cmdlen, sub(P32(bp.ti_wptr), c(1, U32), U32)),
             sb::assign(bp.intr, c(0x18, U8), "intr = BUS SERVICE|FC")});
        bp.s_getcmd_boundq = prog.add_conditional(  // patched only
            "esp_get_cmd.bound",
            le(local(bp.l_dmalen, U32), c(kCmdBufSize, U32)));
        bp.s_getcmd_fail = prog.add_plain(
            "esp_get_cmd.reject", {sb::assign(bp.intr, c(0x20, U8))});
        bp.s_select_dma_go = prog.add_plain(
            "esp_select_with_atn_dma",
            {sb::assign(bp.selected, c(1, U8)),
             sb::buf_fill(bp.cmdbuf, c(0, U32), local(bp.l_dmalen, U32),
                          "memcpy(cmdbuf, dma, dmalen)  /* temp length */"),
             sb::assign(bp.cmdlen, local(bp.l_dmalen, U32)),
             sb::assign(bp.intr, c(0x18, U8))});
        bp.s_irq_sel = prog.add_indirect("esp_irq.select", bp.irq_fn);

        bp.s_cdb_group = prog.add_cmd_decision(
            "esp_do_busid_cmd.opcode",
            add(cast(local(bp.l_cdb0, U8), U16), c(kCdbCmdBase, U16), U16));
        auto cdb_exec = [&](const char* name, uint8_t phase) {
          return prog.add_plain(
              name, {sb::assign(bp.phase, c(phase, U8)),
                     sb::assign(bp.status, c(phase, U8), "status = phase")});
        };
        bp.s_cdb_tur = cdb_exec("scsi_test_unit_ready", kPhaseStatus);
        bp.s_cdb_sense = cdb_exec("scsi_request_sense", kPhaseDataIn);
        bp.s_cdb_read = cdb_exec("scsi_read6", kPhaseDataIn);
        bp.s_cdb_write = cdb_exec("scsi_write6", kPhaseDataOut);
        bp.s_cdb_inquiry = cdb_exec("scsi_inquiry", kPhaseDataIn);
        bp.s_cdb_unknown = cdb_exec("scsi_unknown_opcode", kPhaseStatus);
        bp.s_irq_exec = prog.add_indirect("esp_irq.command", bp.irq_fn);

        bp.s_cmd_ti = prog.add_plain("esp_cmd_transfer_info", {});
        bp.s_dmati_dirq = prog.add_conditional(
            "esp_do_dma.data_in", eq(P8(bp.phase), c(kPhaseDataIn, U8)));
        auto dmati_done = [&](const char* name) {
          return prog.add_plain(
              name, {sb::assign(bp.phase, c(kPhaseStatus, U8)),
                     sb::assign(bp.status, c(kPhaseStatus, U8)),
                     sb::assign(bp.tclo, c(0, U8)),
                     sb::assign(bp.tcmid, c(0, U8)),
                     sb::assign(bp.intr, c(0x08, U8), "intr = FC")});
        };
        bp.s_dmati_in = dmati_done("esp_do_dma.in_done");
        bp.s_dmati_outq = prog.add_conditional(
            "esp_do_dma.data_out", eq(P8(bp.phase), c(kPhaseDataOut, U8)));
        bp.s_dmati_out = dmati_done("esp_do_dma.out_done");
        bp.s_dmati_bad = prog.add_plain("esp_do_dma.bad_phase", {});
        bp.s_irq_xfer = prog.add_indirect("esp_irq.transfer", bp.irq_fn);

        bp.s_cmd_iccs = prog.add_plain(
            "esp_cmd_iccs",
            {sb::buf_store(bp.ti_buf, P32(bp.ti_wptr), c(0, U8),
                           "push status GOOD"),
             sb::buf_store(bp.ti_buf, add(P32(bp.ti_wptr), c(1, U32), U32),
                           c(0, U8), "push message COMMAND COMPLETE"),
             sb::assign(bp.ti_wptr, add(P32(bp.ti_wptr), c(2, U32), U32)),
             sb::assign(bp.ti_size, add(P32(bp.ti_size), c(2, U32), U32)),
             sb::assign(bp.intr, c(0x08, U8))});
        bp.s_irq_iccs = prog.add_indirect("esp_irq.iccs", bp.irq_fn);
        bp.s_cmd_msgacc = prog.add_plain(
            "esp_cmd_message_accepted",
            {sb::assign(bp.selected, c(0, U8)),
             sb::assign(bp.phase, c(kPhaseIdle, U8)),
             sb::assign(bp.intr, c(0, U8))});
        bp.s_cmd_end = prog.add_cmd_end("esp_command_complete", {});
        bp.s_cmd_setatn = prog.add_plain("esp_cmd_set_atn", {});
        bp.s_cmd_unknown = prog.add_plain("esp_cmd_unknown", {});

        bp.program = std::make_unique<DeviceProgram>(std::move(prog));
        return bp;
      }()),
                    mem, vulns) {}

EspScsiDevice::EspScsiDevice(std::unique_ptr<Blueprint> bp,
                             sedspec::GuestMemory* mem, Vulns vulns)
    : Device(bp->program.get()),
      bp_(std::move(bp)),
      vulns_(vulns),
      dma_(mem),
      disk_(kDiskSize) {
  ictx().bind_function(bp_->f_irq, [this] { irq_line().pulse(); });
  // Canned INQUIRY payload: direct-access device, "SEDSPEC ESP DISK".
  inquiry_data_.assign(36, 0);
  inquiry_data_[4] = 31;
  const char* vendor = "SEDSPEC ESP DISK";
  for (size_t i = 0; vendor[i] != '\0' && 8 + i < inquiry_data_.size(); ++i) {
    inquiry_data_[8 + i] = static_cast<uint8_t>(vendor[i]);
  }
  reset();
}

EspScsiDevice::~EspScsiDevice() = default;

void EspScsiDevice::reset_device() {
  state().set(bp_->irq_fn, bp_->f_irq);
  last_select_dma_ = false;
  xfer_lba_ = 0;
  xfer_len_ = 0;
}

std::optional<uint64_t> EspScsiDevice::resolve_sync(
    sedspec::LocalId id, const sedspec::IoAccess& io,
    const sedspec::StateAccess& view) {
  if (id == bp_->l_ti_ptr) {
    return view.param(bp_->ti_wptr);
  }
  if (id == bp_->l_dmalen) {
    return view.param(bp_->tclo) | (view.param(bp_->tcmid) << 8);
  }
  if (id == bp_->l_cdb0) {
    // The CDB source depends on the select variant of the round being
    // simulated (the checker runs before the device executes, so a cached
    // device-side flag would be one round stale).
    const bool dma_select = io.is_write && io.addr == kBasePort + kRegCmd &&
                            (io.value & 0xff) == kCmdSelAtnDma;
    if (dma_select) {
      return dma_.memory().r8(view.param(bp_->dmaddr));
    }
    return view.buf_peek(bp_->ti_buf, 1);  // after the identify message
  }
  return std::nullopt;
}

uint64_t EspScsiDevice::io_read(const sedspec::IoAccess& io) {
  IoRound round(ictx(), io);
  switch (io.addr - kBasePort) {
    case kRegFifo:
      return fifo_read();
    case kRegStatus:
      ictx().block(bp_->s_status_read);
      return state().get(bp_->status);
    case kRegIntr: {
      const uint64_t value = state().get(bp_->intr);
      ictx().block(bp_->s_intr_read);
      return value;
    }
    case kRegSeq:
      ictx().block(bp_->s_seq_read);
      return state().get(bp_->seq_reg);
    default:
      return 0;
  }
}

void EspScsiDevice::io_write(const sedspec::IoAccess& io) {
  IoRound round(ictx(), io);
  switch (io.addr - kBasePort) {
    case kRegTclo:
      ictx().block(bp_->s_tclo_set);
      return;
    case kRegTcmid:
      ictx().block(bp_->s_tcmid_set);
      return;
    case kRegFifo:
      fifo_write(io);
      return;
    case kRegCmd:
      command_write(io);
      return;
    case kRegDma0:
      ictx().block(bp_->s_dma0);
      return;
    case kRegDma0 + 1:
      ictx().block(bp_->s_dma1);
      return;
    case kRegDma0 + 2:
      ictx().block(bp_->s_dma2);
      return;
    case kRegDma0 + 3:
      ictx().block(bp_->s_dma3);
      return;
    default:
      return;
  }
}

void EspScsiDevice::fifo_write(const sedspec::IoAccess& /*io*/) {
  auto& ic = ictx();
  ic.set_local(bp_->l_ti_ptr, state().get(bp_->ti_wptr));
  if (!vulns_.cve_2016_4439) {
    if (!ic.branch(bp_->s_fifo_boundq)) {
      ic.block(bp_->s_fifo_overrun);
      return;
    }
  }
  ic.block(bp_->s_fifo_store);
}

uint64_t EspScsiDevice::fifo_read() {
  auto& ic = ictx();
  if (!ic.branch(bp_->s_fifo_r_emptyq)) {
    ic.block(bp_->s_fifo_r_empty);
    return 0;
  }
  const uint64_t value =
      state().buf_load(bp_->ti_buf, state().get(bp_->ti_rptr), nullptr);
  ic.block(bp_->s_fifo_pop);
  return value;
}

void EspScsiDevice::execute_cdb() {
  auto& ic = ictx();
  auto cmdbuf = state().buffer_span(bp_->cmdbuf);
  const uint8_t opcode = cmdbuf[0];
  ic.set_local(bp_->l_cdb0, opcode);
  const uint64_t decoded = ic.command(bp_->s_cdb_group);
  SEDSPEC_REQUIRE(decoded == kCdbCmdBase + opcode);
  switch (opcode) {
    case kScsiTestUnitReady:
      ic.block(bp_->s_cdb_tur);
      break;
    case kScsiRequestSense:
      xfer_len_ = 18;
      ic.block(bp_->s_cdb_sense);
      break;
    case kScsiRead6:
      xfer_lba_ = (uint64_t{cmdbuf[1] & 0x1fu} << 16) |
                  (uint64_t{cmdbuf[2]} << 8) | cmdbuf[3];
      xfer_len_ = (cmdbuf[4] == 0 ? 256u : cmdbuf[4]) * kBlockSize;
      ic.block(bp_->s_cdb_read);
      break;
    case kScsiWrite6:
      xfer_lba_ = (uint64_t{cmdbuf[1] & 0x1fu} << 16) |
                  (uint64_t{cmdbuf[2]} << 8) | cmdbuf[3];
      xfer_len_ = (cmdbuf[4] == 0 ? 256u : cmdbuf[4]) * kBlockSize;
      ic.block(bp_->s_cdb_write);
      break;
    case kScsiInquiry:
      xfer_len_ = static_cast<uint32_t>(inquiry_data_.size());
      ic.block(bp_->s_cdb_inquiry);
      break;
    default:
      ic.block(bp_->s_cdb_unknown);
      break;
  }
  ic.indirect(bp_->s_irq_exec);
}

void EspScsiDevice::dma_transfer_info() {
  backend_delay();  // disk-image I/O behind the SCSI layer
  const uint32_t tc = static_cast<uint32_t>(state().get(bp_->tclo)) |
                      (static_cast<uint32_t>(state().get(bp_->tcmid)) << 8);
  const uint64_t addr = state().get(bp_->dmaddr);
  const uint8_t opcode = state().buffer_span(bp_->cmdbuf)[0];
  const uint32_t n = std::min(tc, xfer_len_);
  if (state().get(bp_->phase) == kPhaseDataIn) {
    std::vector<uint8_t> data(n, 0);
    if (opcode == kScsiRead6) {
      const uint64_t off = xfer_lba_ * kBlockSize;
      for (uint32_t i = 0; i < n && off + i < disk_.size(); ++i) {
        data[i] = disk_[off + i];
      }
    } else if (opcode == kScsiInquiry) {
      std::copy_n(inquiry_data_.begin(),
                  std::min<size_t>(n, inquiry_data_.size()), data.begin());
    }  // REQUEST SENSE: zeroed "no sense" payload
    dma_.to_guest(addr, data);
  } else {
    std::vector<uint8_t> data(n, 0);
    dma_.from_guest(addr, data);
    const uint64_t off = xfer_lba_ * kBlockSize;
    for (uint32_t i = 0; i < n && off + i < disk_.size(); ++i) {
      disk_[off + i] = data[i];
    }
  }
}

void EspScsiDevice::command_write(const sedspec::IoAccess& io) {
  auto& ic = ictx();
  const auto cmd = static_cast<uint8_t>(ic.command(bp_->s_cmd_latch));
  SEDSPEC_REQUIRE(cmd == (io.value & 0xff));
  switch (cmd) {
    case kCmdFlush:
      ic.block(bp_->s_cmd_flush);
      return;
    case kCmdBusReset:
      ic.block(bp_->s_cmd_busreset);
      ic.indirect(bp_->s_irq_reset);
      return;
    case kCmdSelAtn: {
      last_select_dma_ = false;
      if (!ic.branch(bp_->s_seln_emptyq)) {
        ic.block(bp_->s_seln_noop);
        return;
      }
      auto ti = state().buffer_span(bp_->ti_buf);
      ic.block(bp_->s_select_n, [&](std::span<uint8_t> dst) {
        for (size_t i = 0; i < dst.size() && i + 1 < ti.size(); ++i) {
          dst[i] = ti[i + 1];  // skip the identify message byte
        }
      });
      ic.indirect(bp_->s_irq_sel);
      execute_cdb();
      return;
    }
    case kCmdSelAtnDma: {
      last_select_dma_ = true;
      const uint32_t dmalen =
          static_cast<uint32_t>(state().get(bp_->tclo)) |
          (static_cast<uint32_t>(state().get(bp_->tcmid)) << 8);
      ic.set_local(bp_->l_dmalen, dmalen);
      if (!vulns_.cve_2015_5158) {
        if (!ic.branch(bp_->s_getcmd_boundq)) {
          ic.block(bp_->s_getcmd_fail);
          return;
        }
      }
      const uint64_t addr = state().get(bp_->dmaddr);
      ic.block(bp_->s_select_dma_go, [&](std::span<uint8_t> dst) {
        dma_.from_guest(addr, dst);
      });
      ic.indirect(bp_->s_irq_sel);
      execute_cdb();
      return;
    }
    case kCmdTiDma:
      if (ic.branch(bp_->s_dmati_dirq)) {
        dma_transfer_info();
        ic.block(bp_->s_dmati_in);
        ic.indirect(bp_->s_irq_xfer);
      } else if (ic.branch(bp_->s_dmati_outq)) {
        dma_transfer_info();
        ic.block(bp_->s_dmati_out);
        ic.indirect(bp_->s_irq_xfer);
      } else {
        ic.block(bp_->s_dmati_bad);
      }
      return;
    case kCmdTi:
      ic.block(bp_->s_cmd_ti);
      return;
    case kCmdIccs:
      ic.block(bp_->s_cmd_iccs);
      ic.indirect(bp_->s_irq_iccs);
      return;
    case kCmdMsgAcc:
      ic.block(bp_->s_cmd_msgacc);
      ic.command_end(bp_->s_cmd_end);
      return;
    case kCmdSetAtn:
      ic.block(bp_->s_cmd_setatn);
      return;
    default:
      ic.block(bp_->s_cmd_unknown);
      return;
  }
}

}  // namespace sedspec::devices
