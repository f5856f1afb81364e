#include "devices/fdc.h"

#include "common/assert.h"

namespace sedspec::devices {

namespace {

using sedspec::eb::band;
using sedspec::eb::bor;
using sedspec::eb::buf_load;
using sedspec::eb::c;
using sedspec::eb::eq;
using sedspec::eb::io_value;
using sedspec::eb::ne;
using sedspec::eb::param;
using sedspec::eb::sub;

constexpr IntType U8 = IntType::kU8;
constexpr IntType U32 = IntType::kU32;

}  // namespace

FdcDevice::FdcDevice(Vulns vulns)
    : FdcDevice(std::make_unique<Blueprint>([&] {
        Blueprint bp;
        // --- Control structure (FDCtrl) --------------------------------
        StateLayout layout("FDCtrl");
        bp.msr = layout.add_scalar("msr", FieldKind::kRegister, U8);
        bp.dor = layout.add_scalar("dor", FieldKind::kRegister, U8);
        bp.tdr = layout.add_scalar("tdr", FieldKind::kRegister, U8);
        bp.dsr = layout.add_scalar("dsr", FieldKind::kRegister, U8);
        bp.phase = layout.add_scalar("phase", FieldKind::kFlag, U8);
        bp.cur_cmd = layout.add_scalar("cur_cmd", FieldKind::kRegister, U8);
        bp.st0 = layout.add_scalar("st0", FieldKind::kRegister, U8);
        bp.st1 = layout.add_scalar("st1", FieldKind::kRegister, U8);
        bp.st2 = layout.add_scalar("st2", FieldKind::kRegister, U8);
        bp.track = layout.add_scalar("track", FieldKind::kRegister, U8);
        bp.head = layout.add_scalar("head", FieldKind::kRegister, U8);
        bp.sector = layout.add_scalar("sector", FieldKind::kRegister, U8);
        bp.irq_fn = layout.add_funcptr("irq_fn");
        bp.fifo = layout.add_buffer("fifo", 1, kFifoSize);
        bp.data_pos = layout.add_scalar("data_pos", FieldKind::kIndex, U32);
        bp.data_len = layout.add_scalar("data_len", FieldKind::kLength, U32);

        DeviceProgram prog("fdc", std::move(layout), /*code_base=*/0x400000);
        bp.f_irq = prog.add_function("fdctrl_raise_irq");

        auto P8 = [&](ParamId p) { return param(p, U8); };
        auto P32 = [&](ParamId p) { return param(p, U32); };

        // --- Register access sites --------------------------------------
        // DOR write: clearing the reset bit (bit 2 low) resets the device.
        bp.s_dor_write = prog.add_conditional(
            "fdctrl_write_dor",
            eq(band(io_value(U8), c(0x04, U8), U8), c(0, U8)));
        bp.s_dor_reset = prog.add_plain(
            "fdctrl_dor_reset",
            {sb::assign(bp.msr, c(kMsrRqm, U8), "msr = RQM"),
             sb::assign(bp.phase, c(0, U8), "phase = COMMAND"),
             sb::assign(bp.data_pos, c(0, U32), "data_pos = 0"),
             sb::assign(bp.data_len, c(0, U32), "data_len = 0"),
             sb::assign(bp.cur_cmd, c(0, U8), "cur_cmd = 0"),
             sb::assign(bp.dor, io_value(U8), "dor = value")});
        bp.s_dor_set = prog.add_plain(
            "fdctrl_dor_set", {sb::assign(bp.dor, io_value(U8), "dor = value")});

        bp.s_dsr_write = prog.add_conditional(
            "fdctrl_write_dsr",
            ne(band(io_value(U8), c(0x80, U8), U8), c(0, U8)));
        bp.s_dsr_reset = prog.add_plain(
            "fdctrl_dsr_reset",
            {sb::assign(bp.msr, c(kMsrRqm, U8), "msr = RQM"),
             sb::assign(bp.phase, c(0, U8)),
             sb::assign(bp.data_pos, c(0, U32)),
             sb::assign(bp.data_len, c(0, U32)),
             sb::assign(bp.dsr, band(io_value(U8), c(0x7f, U8), U8),
                        "dsr = value & ~SWRESET")});
        bp.s_dsr_set = prog.add_plain(
            "fdctrl_dsr_set", {sb::assign(bp.dsr, io_value(U8))});

        bp.s_tdr_set = prog.add_plain("fdctrl_write_tdr",
                                      {sb::assign(bp.tdr, io_value(U8))});
        bp.s_msr_read = prog.add_plain("fdctrl_read_msr", {});
        bp.s_dir_read = prog.add_plain("fdctrl_read_dir", {});
        bp.s_dor_read = prog.add_plain("fdctrl_read_dor", {});
        bp.s_tdr_read = prog.add_plain("fdctrl_read_tdr", {});

        // --- FIFO write path ---------------------------------------------
        bp.s_fifo_w_phase = prog.add_conditional("fdctrl_write_data.phase",
                                                 eq(P8(bp.phase), c(0, U8)));
        bp.s_fifo_w_cmdq = prog.add_conditional("fdctrl_write_data.cmd_start",
                                                eq(P32(bp.data_pos), c(0, U32)));
        bp.s_cmd_decode = prog.add_cmd_decision(
            "fdctrl_command_decode", io_value(U8),
            {sb::assign(bp.cur_cmd, io_value(U8), "cur_cmd = value"),
             sb::buf_store(bp.fifo, c(0, U32), io_value(U8), "fifo[0] = value"),
             sb::assign(bp.data_pos, c(1, U32), "data_pos = 1"),
             sb::assign(bp.msr, c(kMsrRqm | kMsrBusy, U8),
                        "msr = RQM|BUSY")});
        bp.s_fifo_w_param = prog.add_plain(
            "fdctrl_collect_param",
            {sb::buf_store(bp.fifo, P32(bp.data_pos), io_value(U8),
                           "fifo[data_pos] = value"),
             sb::assign(bp.data_pos, sedspec::eb::add(P32(bp.data_pos),
                                                      c(1, U32), U32),
                        "data_pos++")});
        bp.s_fifo_w_pdone = prog.add_conditional(
            "fdctrl_params_complete", eq(P32(bp.data_pos), P32(bp.data_len)));
        bp.s_exec_dispatch =
            prog.add_cmd_decision("fdctrl_exec_dispatch", P8(bp.cur_cmd));

        bp.s_fifo_w_xferq = prog.add_conditional("fdctrl_write_data.xfer",
                                                 eq(P8(bp.phase), c(2, U8)));
        bp.s_fifo_w_xfer = prog.add_plain(
            "fdctrl_xfer_byte",
            {sb::buf_store(bp.fifo, P32(bp.data_pos), io_value(U8),
                           "fifo[data_pos] = value"),
             sb::assign(bp.data_pos, sedspec::eb::add(P32(bp.data_pos),
                                                      c(1, U32), U32),
                        "data_pos++")});
        bp.s_fifo_w_xdone = prog.add_conditional(
            "fdctrl_xfer_complete", eq(P32(bp.data_pos), P32(bp.data_len)));

        // --- Command setup blocks (after the command byte) ----------------
        auto setup = [&](const char* name, uint32_t len) {
          return prog.add_plain(
              name, {sb::assign(bp.data_len, c(len, U32), "data_len")});
        };
        bp.s_setup_specify = setup("fdctrl_setup_specify", 3);
        bp.s_setup_sensed = setup("fdctrl_setup_sense_drive", 2);
        bp.s_setup_recal = setup("fdctrl_setup_recalibrate", 2);
        bp.s_setup_seek = setup("fdctrl_setup_seek", 3);
        bp.s_setup_configure = setup("fdctrl_setup_configure", 4);
        bp.s_setup_perp = setup("fdctrl_setup_perpendicular", 2);
        bp.s_setup_read = setup("fdctrl_setup_read", 9);
        bp.s_setup_write = setup("fdctrl_setup_write", 9);
        bp.s_setup_dspec = setup("fdctrl_setup_drive_spec", 6);

        // Immediate-result commands.
        bp.s_exec_sensei = prog.add_plain(
            "fdctrl_handle_sense_interrupt",
            {sb::buf_store(bp.fifo, c(0, U32), bor(P8(bp.st0), c(0x20, U8), U8),
                           "fifo[0] = st0|SEEK_END"),
             sb::buf_store(bp.fifo, c(1, U32), P8(bp.track),
                           "fifo[1] = track"),
             sb::assign(bp.data_pos, c(0, U32)),
             sb::assign(bp.data_len, c(2, U32)),
             sb::assign(bp.phase, c(1, U8), "phase = RESULT"),
             sb::assign(bp.msr, c(kMsrRqm | kMsrDio | kMsrBusy, U8))});
        bp.s_exec_version = prog.add_plain(
            "fdctrl_handle_version",
            {sb::buf_store(bp.fifo, c(0, U32), c(0x90, U8), "fifo[0] = 0x90"),
             sb::assign(bp.data_pos, c(0, U32)),
             sb::assign(bp.data_len, c(1, U32)),
             sb::assign(bp.phase, c(1, U8)),
             sb::assign(bp.msr, c(kMsrRqm | kMsrDio | kMsrBusy, U8))});
        bp.s_exec_readid = prog.add_plain(
            "fdctrl_handle_read_id",
            {sb::buf_store(bp.fifo, c(0, U32), P8(bp.st0)),
             sb::buf_store(bp.fifo, c(1, U32), P8(bp.st1)),
             sb::buf_store(bp.fifo, c(2, U32), P8(bp.st2)),
             sb::buf_store(bp.fifo, c(3, U32), P8(bp.track)),
             sb::buf_store(bp.fifo, c(4, U32), P8(bp.head)),
             sb::buf_store(bp.fifo, c(5, U32), P8(bp.sector)),
             sb::buf_store(bp.fifo, c(6, U32), c(2, U8)),
             sb::assign(bp.data_pos, c(0, U32)),
             sb::assign(bp.data_len, c(7, U32)),
             sb::assign(bp.phase, c(1, U8)),
             sb::assign(bp.msr, c(kMsrRqm | kMsrDio | kMsrBusy, U8))});
        bp.s_exec_dumpreg = prog.add_plain(
            "fdctrl_handle_dumpreg",
            {sb::buf_store(bp.fifo, c(0, U32), P8(bp.track)),
             sb::buf_store(bp.fifo, c(1, U32), c(0, U8)),
             sb::buf_store(bp.fifo, c(2, U32), c(0, U8)),
             sb::buf_store(bp.fifo, c(3, U32), c(0, U8)),
             sb::buf_store(bp.fifo, c(4, U32), c(0, U8)),
             sb::buf_store(bp.fifo, c(5, U32), P8(bp.sector)),
             sb::buf_store(bp.fifo, c(6, U32), c(0, U8)),
             sb::buf_store(bp.fifo, c(7, U32), c(0, U8)),
             sb::buf_store(bp.fifo, c(8, U32), c(0, U8)),
             sb::buf_store(bp.fifo, c(9, U32), c(0, U8)),
             sb::assign(bp.data_pos, c(0, U32)),
             sb::assign(bp.data_len, c(10, U32)),
             sb::assign(bp.phase, c(1, U8)),
             sb::assign(bp.msr, c(kMsrRqm | kMsrDio | kMsrBusy, U8))});
        bp.s_exec_invalid = prog.add_plain(
            "fdctrl_unimplemented",
            {sb::buf_store(bp.fifo, c(0, U32), c(0x80, U8), "fifo[0] = 0x80"),
             sb::assign(bp.data_pos, c(0, U32)),
             sb::assign(bp.data_len, c(1, U32)),
             sb::assign(bp.phase, c(1, U8)),
             sb::assign(bp.msr, c(kMsrRqm | kMsrDio | kMsrBusy, U8))});

        // Post-parameter execution blocks.
        bp.s_exec_specify =
            prog.add_plain("fdctrl_handle_specify", {});  // timings ignored
        bp.s_exec_sensed = prog.add_plain(
            "fdctrl_handle_sense_drive_status",
            {sb::buf_store(bp.fifo, c(0, U32),
                           bor(band(P8(bp.dor), c(3, U8), U8), c(0x28, U8), U8),
                           "fifo[0] = drive status"),
             sb::assign(bp.data_pos, c(0, U32)),
             sb::assign(bp.data_len, c(1, U32)),
             sb::assign(bp.phase, c(1, U8)),
             sb::assign(bp.msr, c(kMsrRqm | kMsrDio | kMsrBusy, U8))});
        bp.s_exec_recal = prog.add_plain(
            "fdctrl_handle_recalibrate",
            {sb::assign(bp.track, c(0, U8), "track = 0"),
             sb::assign(bp.st0, c(0x20, U8), "st0 = SEEK_END")});
        bp.s_exec_seek = prog.add_plain(
            "fdctrl_handle_seek",
            {sb::assign(bp.track, buf_load(bp.fifo, c(2, U32), U8),
                        "track = fifo[2]"),
             sb::assign(bp.st0, c(0x20, U8), "st0 = SEEK_END")});
        bp.s_exec_configure = prog.add_plain("fdctrl_handle_configure", {});
        bp.s_exec_read = prog.add_plain(
            "fdctrl_start_read",
            {sb::assign(bp.track, buf_load(bp.fifo, c(2, U32), U8)),
             sb::assign(bp.head, buf_load(bp.fifo, c(3, U32), U8)),
             sb::assign(bp.sector, buf_load(bp.fifo, c(4, U32), U8)),
             sb::assign(bp.st0, c(0x20, U8)),
             sb::assign(bp.st1, c(0, U8)),
             sb::assign(bp.st2, c(0, U8)),
             sb::assign(bp.data_pos, c(0, U32)),
             sb::assign(bp.data_len, c(kSectorSize, U32)),
             sb::assign(bp.phase, c(3, U8), "phase = EXEC_READ"),
             sb::assign(bp.msr, c(kMsrRqm | kMsrDio | kMsrBusy, U8)),
             sb::buf_fill(bp.fifo, c(0, U32), c(kSectorSize, U32),
                          "fifo <- disk sector")});
        bp.s_exec_writesetup = prog.add_plain(
            "fdctrl_start_write",
            {sb::assign(bp.track, buf_load(bp.fifo, c(2, U32), U8)),
             sb::assign(bp.head, buf_load(bp.fifo, c(3, U32), U8)),
             sb::assign(bp.sector, buf_load(bp.fifo, c(4, U32), U8)),
             sb::assign(bp.st0, c(0x20, U8)),
             sb::assign(bp.st1, c(0, U8)),
             sb::assign(bp.st2, c(0, U8)),
             sb::assign(bp.data_pos, c(0, U32)),
             sb::assign(bp.data_len, c(kSectorSize, U32)),
             sb::assign(bp.phase, c(2, U8), "phase = EXEC_WRITE"),
             sb::assign(bp.msr, c(kMsrRqm | kMsrBusy, U8))});
        auto xfer_result = [&](const char* name) {
          return prog.add_plain(
              name, {sb::buf_store(bp.fifo, c(0, U32), P8(bp.st0)),
                     sb::buf_store(bp.fifo, c(1, U32), P8(bp.st1)),
                     sb::buf_store(bp.fifo, c(2, U32), P8(bp.st2)),
                     sb::buf_store(bp.fifo, c(3, U32), P8(bp.track)),
                     sb::buf_store(bp.fifo, c(4, U32), P8(bp.head)),
                     sb::buf_store(bp.fifo, c(5, U32), P8(bp.sector)),
                     sb::buf_store(bp.fifo, c(6, U32), c(2, U8)),
                     sb::assign(bp.data_pos, c(0, U32)),
                     sb::assign(bp.data_len, c(7, U32)),
                     sb::assign(bp.phase, c(1, U8), "phase = RESULT"),
                     sb::assign(bp.msr,
                                c(kMsrRqm | kMsrDio | kMsrBusy, U8))});
        };
        bp.s_exec_writedone = xfer_result("fdctrl_write_complete");
        bp.s_exec_readdone = xfer_result("fdctrl_read_complete");

        // DRIVE SPECIFICATION (CVE-2015-3456). The guard tests the done bit
        // in the last accepted parameter byte.
        bp.s_exec_dspec = prog.add_conditional(
            "fdctrl_handle_drive_specification",
            ne(band(buf_load(bp.fifo,
                             sub(P32(bp.data_pos), c(1, U32), U32), U8),
                    c(0x80, U8), U8),
               c(0, U8)));
        bp.s_dspec_more = prog.add_plain(
            "fdctrl_drive_spec_continue",
            {sb::assign(bp.data_len,
                        sedspec::eb::add(P32(bp.data_len), c(6, U32), U32),
                        "data_len += 6  /* unpatched: unbounded */")});

        // --- FIFO read path ------------------------------------------------
        bp.s_fifo_r_phase3 = prog.add_conditional("fdctrl_read_data.exec",
                                                  eq(P8(bp.phase), c(3, U8)));
        bp.s_fifo_r_data = prog.add_plain(
            "fdctrl_read_data_byte",
            {sb::assign(bp.data_pos, sedspec::eb::add(P32(bp.data_pos),
                                                      c(1, U32), U32),
                        "data_pos++")});
        bp.s_fifo_r_ddone = prog.add_conditional(
            "fdctrl_read_data_complete", eq(P32(bp.data_pos), P32(bp.data_len)));
        bp.s_fifo_r_phase1 = prog.add_conditional("fdctrl_read_data.result",
                                                  eq(P8(bp.phase), c(1, U8)));
        bp.s_fifo_r_res = prog.add_plain(
            "fdctrl_read_result_byte",
            {sb::assign(bp.data_pos, sedspec::eb::add(P32(bp.data_pos),
                                                      c(1, U32), U32),
                        "data_pos++")});
        bp.s_fifo_r_rdone = prog.add_conditional(
            "fdctrl_result_complete", eq(P32(bp.data_pos), P32(bp.data_len)));

        // --- Interrupt call sites and command ends -------------------------
        bp.s_irq_recal = prog.add_indirect("fdctrl_irq.recalibrate", bp.irq_fn);
        bp.s_irq_seek = prog.add_indirect("fdctrl_irq.seek", bp.irq_fn);
        bp.s_irq_read = prog.add_indirect("fdctrl_irq.read_ready", bp.irq_fn);
        bp.s_irq_write = prog.add_indirect("fdctrl_irq.write_ready", bp.irq_fn);
        bp.s_irq_wdone = prog.add_indirect("fdctrl_irq.write_done", bp.irq_fn);
        bp.s_cmd_end_imm = prog.add_cmd_end(
            "fdctrl_command_end",
            {sb::assign(bp.msr, c(kMsrRqm, U8), "msr = RQM"),
             sb::assign(bp.phase, c(0, U8)),
             sb::assign(bp.data_pos, c(0, U32)),
             sb::assign(bp.data_len, c(0, U32))});
        bp.s_cmd_end_res = prog.add_cmd_end(
            "fdctrl_result_end",
            {sb::assign(bp.msr, c(kMsrRqm, U8), "msr = RQM"),
             sb::assign(bp.phase, c(0, U8)),
             sb::assign(bp.data_pos, c(0, U32)),
             sb::assign(bp.data_len, c(0, U32))});

        bp.program = std::make_unique<DeviceProgram>(std::move(prog));
        return bp;
      }()),
      vulns) {}

FdcDevice::FdcDevice(std::unique_ptr<Blueprint> bp, Vulns vulns)
    : Device(bp->program.get()),
      bp_(std::move(bp)),
      vulns_(vulns),
      disk_(kDiskSize) {
  ictx().bind_function(bp_->f_irq, [this] { irq_line().pulse(); });
  reset();
}

FdcDevice::~FdcDevice() = default;

void FdcDevice::reset_device() {
  state().set(bp_->msr, kMsrRqm);
  state().set(bp_->irq_fn, bp_->f_irq);
}

size_t FdcDevice::chs_offset() const {
  const uint64_t track = state().get(bp_->track) % kTracks;
  const uint64_t head = state().get(bp_->head) % kHeads;
  uint64_t sector = state().get(bp_->sector);
  sector = sector == 0 ? 0 : (sector - 1) % kSectorsPerTrack;
  return ((track * kHeads + head) * kSectorsPerTrack + sector) * kSectorSize;
}

uint64_t FdcDevice::io_read(const sedspec::IoAccess& io) {
  IoRound round(ictx(), io);
  switch (io.addr - kBasePort) {
    case 2:
      ictx().block(bp_->s_dor_read);
      return state().get(bp_->dor);
    case 3:
      ictx().block(bp_->s_tdr_read);
      return state().get(bp_->tdr);
    case 4:
      ictx().block(bp_->s_msr_read);
      return state().get(bp_->msr);
    case 5:
      return fifo_read(io);
    case 7:
      ictx().block(bp_->s_dir_read);
      return 0;
    default:
      return 0xff;
  }
}

void FdcDevice::io_write(const sedspec::IoAccess& io) {
  IoRound round(ictx(), io);
  switch (io.addr - kBasePort) {
    case 2:
      if (ictx().branch(bp_->s_dor_write)) {
        ictx().block(bp_->s_dor_reset);
        irq_line().lower();
      } else {
        ictx().block(bp_->s_dor_set);
      }
      return;
    case 3:
      ictx().block(bp_->s_tdr_set);
      return;
    case 4:
      if (ictx().branch(bp_->s_dsr_write)) {
        ictx().block(bp_->s_dsr_reset);
      } else {
        ictx().block(bp_->s_dsr_set);
      }
      return;
    case 5:
      fifo_write(io);
      return;
    default:
      return;  // CCR and reserved offsets: ignored
  }
}

void FdcDevice::run_command(uint8_t cmd) {
  switch (cmd) {
    case kCmdSpecify:
      ictx().block(bp_->s_setup_specify);
      return;
    case kCmdSenseDrive:
      ictx().block(bp_->s_setup_sensed);
      return;
    case kCmdRecalibrate:
      ictx().block(bp_->s_setup_recal);
      return;
    case kCmdSenseInt:
      ictx().block(bp_->s_exec_sensei);
      return;
    case kCmdSeek:
      ictx().block(bp_->s_setup_seek);
      return;
    case kCmdVersion:
      ictx().block(bp_->s_exec_version);
      return;
    case kCmdConfigure:
      ictx().block(bp_->s_setup_configure);
      return;
    case kCmdRead:
      ictx().block(bp_->s_setup_read);
      return;
    case kCmdWrite:
      ictx().block(bp_->s_setup_write);
      return;
    case kCmdReadId:
      ictx().block(bp_->s_exec_readid);
      return;
    case kCmdDumpReg:
      ictx().block(bp_->s_exec_dumpreg);
      return;
    case kCmdPerpendicular:
      ictx().block(bp_->s_setup_perp);
      return;
    case kCmdDriveSpec:
      ictx().block(bp_->s_setup_dspec);
      return;
    default:
      ictx().block(bp_->s_exec_invalid);
      return;
  }
}

void FdcDevice::exec_after_params(uint8_t cmd) {
  auto& ic = ictx();
  switch (cmd) {
    case kCmdSpecify:
      ic.block(bp_->s_exec_specify);
      ic.command_end(bp_->s_cmd_end_imm);
      return;
    case kCmdSenseDrive:
      ic.block(bp_->s_exec_sensed);
      return;  // result phase: command ends after result reads
    case kCmdRecalibrate:
      ic.block(bp_->s_exec_recal);
      ic.indirect(bp_->s_irq_recal);
      ic.command_end(bp_->s_cmd_end_imm);
      return;
    case kCmdSeek:
      ic.block(bp_->s_exec_seek);
      ic.indirect(bp_->s_irq_seek);
      ic.command_end(bp_->s_cmd_end_imm);
      return;
    case kCmdConfigure:
      ic.block(bp_->s_exec_configure);
      ic.command_end(bp_->s_cmd_end_imm);
      return;
    case kCmdPerpendicular:
      ic.command_end(bp_->s_cmd_end_imm);
      return;
    case kCmdRead:
      ic.block(bp_->s_exec_read, [this](std::span<uint8_t> dst) {
        backend_delay();  // disk-image read
        const size_t offset = chs_offset();
        for (size_t i = 0; i < dst.size() && offset + i < disk_.size(); ++i) {
          dst[i] = disk_[offset + i];
        }
      });
      ic.indirect(bp_->s_irq_read);
      return;
    case kCmdWrite:
      ic.block(bp_->s_exec_writesetup);
      ic.indirect(bp_->s_irq_write);
      return;
    case kCmdDriveSpec:
      if (ic.branch(bp_->s_exec_dspec)) {
        ic.command_end(bp_->s_cmd_end_imm);
      } else if (vulns_.cve_2015_3456) {
        // Unpatched: extend the parameter phase indefinitely — data_pos is
        // never reset, so the guest can push it past the FIFO (Venom).
        ic.block(bp_->s_dspec_more);
      } else {
        // Patched: bail out of the command.
        ic.command_end(bp_->s_cmd_end_imm);
      }
      return;
    default:
      // Unexpected dispatch: treat as invalid command result.
      ic.block(bp_->s_exec_invalid);
      return;
  }
}

void FdcDevice::fifo_write(const sedspec::IoAccess& /*io*/) {
  auto& ic = ictx();
  if (ic.branch(bp_->s_fifo_w_phase)) {  // command phase
    if (ic.branch(bp_->s_fifo_w_cmdq)) {  // first byte: the command
      const auto cmd = static_cast<uint8_t>(ic.command(bp_->s_cmd_decode));
      run_command(cmd);
    } else {  // parameter byte
      ic.block(bp_->s_fifo_w_param);
      if (ic.branch(bp_->s_fifo_w_pdone)) {
        const auto cmd =
            static_cast<uint8_t>(ic.command(bp_->s_exec_dispatch));
        exec_after_params(cmd);
      }
    }
  } else if (ic.branch(bp_->s_fifo_w_xferq)) {  // execution (write) phase
    ic.block(bp_->s_fifo_w_xfer);
    if (ic.branch(bp_->s_fifo_w_xdone)) {
      // Commit the sector to the disk image.
      backend_delay();
      const size_t offset = chs_offset();
      auto fifo = state().buffer_span(bp_->fifo);
      for (size_t i = 0; i < kSectorSize && offset + i < disk_.size(); ++i) {
        disk_[offset + i] = fifo[i];
      }
      ictx().block(bp_->s_exec_writedone);
      ictx().indirect(bp_->s_irq_wdone);
    }
  }
  // FIFO writes in other phases are ignored by the controller.
}

uint64_t FdcDevice::fifo_read(const sedspec::IoAccess& io) {
  (void)io;
  auto& ic = ictx();
  uint64_t value = 0;
  if (ic.branch(bp_->s_fifo_r_phase3)) {  // execution (read) phase
    value = state().buf_load(bp_->fifo, state().get(bp_->data_pos), nullptr);
    ic.block(bp_->s_fifo_r_data);
    if (ic.branch(bp_->s_fifo_r_ddone)) {
      ic.block(bp_->s_exec_readdone);
    }
  } else if (ic.branch(bp_->s_fifo_r_phase1)) {  // result phase
    value = state().buf_load(bp_->fifo, state().get(bp_->data_pos), nullptr);
    ic.block(bp_->s_fifo_r_res);
    if (ic.branch(bp_->s_fifo_r_rdone)) {
      ic.command_end(bp_->s_cmd_end_res);
    }
  }
  return value;
}

}  // namespace sedspec::devices
