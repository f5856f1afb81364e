#include "devices/ehci.h"

#include <algorithm>
#include <vector>

#include "common/assert.h"

namespace sedspec::devices {

namespace {

using sedspec::eb::add;
using sedspec::eb::band;
using sedspec::eb::bor;
using sedspec::eb::c;
using sedspec::eb::cast;
using sedspec::eb::eq;
using sedspec::eb::ge;
using sedspec::eb::gt;
using sedspec::eb::io_value;
using sedspec::eb::local;
using sedspec::eb::ne;
using sedspec::eb::param;
using sedspec::eb::shl;
using sedspec::eb::sub;

constexpr IntType U8 = IntType::kU8;
constexpr IntType U32 = IntType::kU32;
constexpr IntType I32 = IntType::kI32;

}  // namespace

EhciDevice::EhciDevice(sedspec::GuestMemory* mem, Vulns vulns)
    : EhciDevice(std::make_unique<Blueprint>([&] {
        Blueprint bp;
        StateLayout layout("EHCIState+USBDevice");
        bp.usbcmd = layout.add_scalar("usbcmd", FieldKind::kRegister, U32);
        bp.usbsts = layout.add_scalar("usbsts", FieldKind::kRegister, U32);
        bp.asynclistaddr =
            layout.add_scalar("asynclistaddr", FieldKind::kRegister, U32);
        bp.portsc = layout.add_scalar("portsc", FieldKind::kRegister, U32);
        bp.setup_buf = layout.add_buffer("setup_buf", 1, kSetupBufSize);
        bp.data_buf = layout.add_buffer("data_buf", 1, kDataBufSize);
        bp.setup_state =
            layout.add_scalar("setup_state", FieldKind::kFlag, U8);
        bp.setup_len = layout.add_scalar("setup_len", FieldKind::kLength, I32);
        bp.setup_index =
            layout.add_scalar("setup_index", FieldKind::kIndex, I32);
        bp.irq_fn = layout.add_funcptr("irq_fn");

        DeviceProgram prog("usb-ehci", std::move(layout),
                           /*code_base=*/0x800000);
        bp.f_irq = prog.add_function("ehci_raise_irq");
        bp.l_pid = prog.add_local("qtd_pid");
        bp.l_len = prog.add_local("qtd_len");
        bp.l_s0 = prog.add_local("setup_bmRequestType");
        bp.l_s6 = prog.add_local("setup_wLength_lo");
        bp.l_s7 = prog.add_local("setup_wLength_hi");

        auto P = [&](ParamId p, IntType t) { return param(p, t); };
        ExprRef remaining =
            sub(P(bp.setup_len, I32), P(bp.setup_index, I32), I32);

        // --- Operational registers -----------------------------------------
        bp.s_usbcmd_set = prog.add_plain(
            "ehci_opreg_write.usbcmd", {sb::assign(bp.usbcmd, io_value(U32))});
        bp.s_doorbellq = prog.add_conditional(
            "ehci_opreg_write.doorbell",
            ne(band(io_value(U32), c(kCmdDoorbell, U32), U32), c(0, U32)));
        bp.s_runq = prog.add_conditional(
            "ehci_opreg_write.run",
            ne(band(io_value(U32), c(kCmdRun, U32), U32), c(0, U32)));
        bp.s_run = prog.add_plain(
            "ehci_set_running",
            {sb::assign(bp.usbsts,
                        band(P(bp.usbsts, U32), c(~0x1000u, U32), U32),
                        "usbsts &= ~HCHALTED")});
        bp.s_halt = prog.add_plain(
            "ehci_set_halted",
            {sb::assign(bp.usbsts, bor(P(bp.usbsts, U32), c(0x1000, U32), U32),
                        "usbsts |= HCHALTED")});
        bp.s_sts_read = prog.add_plain("ehci_opreg_read.usbsts", {});
        bp.s_sts_clear = prog.add_plain(
            "ehci_opreg_write.usbsts",
            {sb::assign(bp.usbsts,
                        band(P(bp.usbsts, U32),
                             sedspec::eb::un(sedspec::UnaryOp::kBitNot,
                                             io_value(U32), U32),
                             U32),
                        "usbsts &= ~value  /* RW1C */")});
        bp.s_portsc_read = prog.add_plain("ehci_opreg_read.portsc", {});
        bp.s_portsc_set = prog.add_plain(
            "ehci_opreg_write.portsc", {sb::assign(bp.portsc, io_value(U32))});
        bp.s_async_set = prog.add_plain(
            "ehci_opreg_write.asynclistaddr",
            {sb::assign(bp.asynclistaddr, io_value(U32))});

        // --- Token processing -------------------------------------------------
        bp.s_pid_setupq = prog.add_conditional(
            "ehci_execute.pid_setup", eq(local(bp.l_pid, U32),
                                         c(kPidSetup, U32)));
        bp.s_do_setup = prog.add_plain(
            "usb_do_token_setup",
            {sb::buf_fill(bp.setup_buf, c(0, U32), c(kSetupBufSize, U32),
                          "setup_buf <- guest packet"),
             sb::buf_store(bp.setup_buf, c(0, U32), local(bp.l_s0, U8)),
             sb::buf_store(bp.setup_buf, c(6, U32), local(bp.l_s6, U8)),
             sb::buf_store(bp.setup_buf, c(7, U32), local(bp.l_s7, U8)),
             sb::assign(bp.setup_len,
                        bor(cast(local(bp.l_s6, U8), I32),
                            shl(cast(local(bp.l_s7, U8), I32), c(8, I32), I32),
                            I32),
                        "setup_len = wLength"),
             sb::assign(bp.setup_index, c(0, I32)),
             sb::assign(bp.setup_state, c(1, U8), "SETUP_STATE_DATA")});
        bp.s_setup_boundq = prog.add_conditional(  // patched only
            "usb_do_token_setup.bound",
            gt(P(bp.setup_len, I32), c(kDataBufSize, I32)));
        bp.s_setup_stall = prog.add_plain(
            "usb_do_token_setup.stall",
            {sb::assign(bp.setup_state, c(0, U8)),
             sb::assign(bp.setup_len, c(0, I32))});
        bp.s_setup_done = prog.add_plain(
            "usb_setup_complete",
            {sb::assign(bp.usbsts, bor(P(bp.usbsts, U32), c(1, U32), U32),
                        "usbsts |= USBINT")});
        bp.s_irq_setup = prog.add_indirect("ehci_irq.setup", bp.irq_fn);

        bp.s_pid_inq = prog.add_conditional(
            "ehci_execute.pid_in", eq(local(bp.l_pid, U32), c(kPidIn, U32)));
        bp.s_in_activeq = prog.add_conditional(
            "usb_do_token_in.active", eq(P(bp.setup_state, U8), c(1, U8)));
        bp.s_in_clampq = prog.add_conditional(
            "usb_do_token_in.clamp",
            gt(cast(local(bp.l_len, U32), I32), remaining));
        bp.s_in_clamped = prog.add_plain(
            "usb_do_token_in.short",
            {sb::assign(bp.setup_index, P(bp.setup_len, I32),
                        "setup_index = setup_len")});
        bp.s_in_full = prog.add_plain(
            "usb_do_token_in.copy",
            {sb::assign(bp.setup_index,
                        add(P(bp.setup_index, I32),
                            cast(local(bp.l_len, U32), I32), I32),
                        "setup_index += len")});
        bp.s_in_doneq = prog.add_conditional(
            "usb_do_token_in.done",
            ge(P(bp.setup_index, I32), P(bp.setup_len, I32)));
        bp.s_in_complete = prog.add_plain(
            "usb_do_token_in.complete",
            {sb::assign(bp.setup_state, c(2, U8), "SETUP_STATE_ACK")});
        bp.s_irq_in = prog.add_indirect("ehci_irq.token_in", bp.irq_fn);
        bp.s_in_idle = prog.add_plain("usb_do_token_in.idle_poll", {});
        bp.s_irq_poll = prog.add_indirect("ehci_irq.poll", bp.irq_fn);

        bp.s_pid_outq = prog.add_conditional(
            "ehci_execute.pid_out", eq(local(bp.l_pid, U32), c(kPidOut, U32)));
        bp.s_out_zeroq = prog.add_conditional(
            "usb_do_token_out.status", eq(local(bp.l_len, U32), c(0, U32)));
        bp.s_status_out = prog.add_plain(
            "usb_control_transfer_status",
            {sb::assign(bp.setup_state, c(0, U8), "SETUP_STATE_IDLE")});
        bp.s_irq_status = prog.add_indirect("ehci_irq.status", bp.irq_fn);
        bp.s_out_activeq = prog.add_conditional(
            "usb_do_token_out.active", eq(P(bp.setup_state, U8), c(1, U8)));
        bp.s_out_clampq = prog.add_conditional(
            "usb_do_token_out.clamp",
            gt(cast(local(bp.l_len, U32), I32), remaining));
        bp.s_out_clamped = prog.add_plain(
            "usb_do_token_out.short",
            {sb::buf_fill(bp.data_buf, P(bp.setup_index, I32), remaining,
                          "memcpy(data_buf + setup_index, ..., remaining)"),
             sb::assign(bp.setup_index, P(bp.setup_len, I32))});
        bp.s_out_full = prog.add_plain(
            "usb_do_token_out.copy",
            {sb::buf_fill(bp.data_buf, P(bp.setup_index, I32),
                          local(bp.l_len, U32),
                          "memcpy(data_buf + setup_index, ..., len)"),
             sb::assign(bp.setup_index,
                        add(P(bp.setup_index, I32),
                            cast(local(bp.l_len, U32), I32), I32),
                        "setup_index += len")});
        bp.s_out_doneq = prog.add_conditional(
            "usb_do_token_out.done",
            ge(P(bp.setup_index, I32), P(bp.setup_len, I32)));
        bp.s_out_complete = prog.add_plain(
            "usb_do_token_out.complete",
            {sb::assign(bp.setup_state, c(2, U8), "SETUP_STATE_ACK")});
        bp.s_irq_out = prog.add_indirect("ehci_irq.token_out", bp.irq_fn);
        bp.s_out_idle = prog.add_plain("usb_do_token_out.idle", {});
        bp.s_bad_pid = prog.add_plain("ehci_execute.bad_pid", {});

        bp.program = std::make_unique<DeviceProgram>(std::move(prog));
        return bp;
      }()),
                 mem, vulns) {}

EhciDevice::EhciDevice(std::unique_ptr<Blueprint> bp,
                       sedspec::GuestMemory* mem, Vulns vulns)
    : Device(bp->program.get()),
      bp_(std::move(bp)),
      vulns_(vulns),
      dma_(mem),
      storage_(kStorageSize) {
  ictx().bind_function(bp_->f_irq, [this] { irq_line().pulse(); });
  reset();
}

EhciDevice::~EhciDevice() = default;

void EhciDevice::reset_device() {
  state().set(bp_->usbsts, 0x1000);  // halted
  state().set(bp_->portsc, 0x1005);  // connected, enabled, powered
  state().set(bp_->irq_fn, bp_->f_irq);
  packet_ = PacketState::kNone;
  storage_loaded_ = false;
}

uint64_t EhciDevice::qtd_addr(const sedspec::StateAccess& view) const {
  return view.param(bp_->asynclistaddr);
}

std::optional<uint64_t> EhciDevice::resolve_sync(
    sedspec::LocalId id, const sedspec::IoAccess& /*io*/,
    const sedspec::StateAccess& view) {
  const sedspec::GuestMemory& mem = dma_.memory();
  const uint64_t qtd = qtd_addr(view);
  const uint32_t token = mem.r32(qtd);
  if (id == bp_->l_pid) {
    return token & 3;
  }
  if (id == bp_->l_len) {
    return (token >> 16) & 0xffff;
  }
  const uint64_t buf = mem.r32(qtd + 4);
  if (id == bp_->l_s0) {
    return mem.r8(buf);
  }
  if (id == bp_->l_s6) {
    return mem.r8(buf + 6);
  }
  if (id == bp_->l_s7) {
    return mem.r8(buf + 7);
  }
  return std::nullopt;
}

uint64_t EhciDevice::io_read(const sedspec::IoAccess& io) {
  IoRound round(ictx(), io);
  switch (io.addr - kBaseAddr) {
    case kRegUsbSts:
      ictx().block(bp_->s_sts_read);
      return state().get(bp_->usbsts);
    case kRegPortSc:
      ictx().block(bp_->s_portsc_read);
      return state().get(bp_->portsc);
    default:
      return 0;
  }
}

void EhciDevice::io_write(const sedspec::IoAccess& io) {
  IoRound round(ictx(), io);
  switch (io.addr - kBaseAddr) {
    case kRegUsbCmd:
      usbcmd_write(io);
      return;
    case kRegUsbSts:
      ictx().block(bp_->s_sts_clear);
      return;
    case kRegAsyncListAddr:
      ictx().block(bp_->s_async_set);
      return;
    case kRegPortSc:
      ictx().block(bp_->s_portsc_set);
      return;
    default:
      return;
  }
}

void EhciDevice::usbcmd_write(const sedspec::IoAccess& /*io*/) {
  auto& ic = ictx();
  ic.block(bp_->s_usbcmd_set);
  if (ic.branch(bp_->s_doorbellq)) {
    process_qtd();
    return;
  }
  if (ic.branch(bp_->s_runq)) {
    ic.block(bp_->s_run);
  } else {
    ic.block(bp_->s_halt);
  }
}

void EhciDevice::process_qtd() {
  auto& ic = ictx();
  const uint64_t qtd = qtd_addr(state());
  const uint32_t token = dma_.memory().r32(qtd);
  const uint64_t buf = dma_.memory().r32(qtd + 4);
  const uint32_t pid = token & 3;
  const uint32_t len = (token >> 16) & 0xffff;
  ic.set_local(bp_->l_pid, pid);
  ic.set_local(bp_->l_len, len);

  if (ic.branch(bp_->s_pid_setupq)) {
    do_setup(buf);
    return;
  }
  if (ic.branch(bp_->s_pid_inq)) {
    do_in(len, buf);
    return;
  }
  if (ic.branch(bp_->s_pid_outq)) {
    do_out(len, buf);
    return;
  }
  ic.block(bp_->s_bad_pid);
}

void EhciDevice::do_setup(uint64_t buf_addr) {
  auto& ic = ictx();
  ic.set_local(bp_->l_s0, dma_.memory().r8(buf_addr));
  ic.set_local(bp_->l_s6, dma_.memory().r8(buf_addr + 6));
  ic.set_local(bp_->l_s7, dma_.memory().r8(buf_addr + 7));
  ic.block(bp_->s_do_setup, [&](std::span<uint8_t> dst) {
    dma_.from_guest(buf_addr, dst);
  });
  if (!vulns_.cve_2020_14364) {
    if (ic.branch(bp_->s_setup_boundq)) {
      ic.block(bp_->s_setup_stall);
      return;
    }
  }
  packet_ = PacketState::kLive;
  storage_loaded_ = false;
  ic.block(bp_->s_setup_done);
  ic.indirect(bp_->s_irq_setup);
}

void EhciDevice::do_in(uint32_t len, uint64_t buf_addr) {
  auto& ic = ictx();
  if (!ic.branch(bp_->s_in_activeq)) {
    // Idle interrupt-endpoint poll: a perfectly normal guest operation —
    // and the CVE-2016-1568 use-after-free surface.
    if (packet_ == PacketState::kFreed) {
      record_incident(
          Incident{IncidentKind::kUseAfterFree, sedspec::kInvalidParam, 0,
                   "idle IN poll touched a freed USBPacket"});
      packet_ = PacketState::kNone;
    }
    ic.block(bp_->s_in_idle);
    ic.indirect(bp_->s_irq_poll);
    return;
  }
  // Lazy storage load for vendor read requests.
  auto setup = state().buffer_span(bp_->setup_buf);
  if (!storage_loaded_ && setup[1] == kReqRead) {
    backend_delay();  // storage-image read
    const uint64_t block = setup[2] | (uint64_t{setup[3]} << 8);
    const uint64_t off = block * kBlockSize;
    auto data = state().buffer_span(bp_->data_buf);
    const auto want = static_cast<uint64_t>(
        std::min<int64_t>(static_cast<int64_t>(data.size()),
                          std::max<int64_t>(
                              0, static_cast<int64_t>(
                                     state().get(bp_->setup_len)))));
    for (uint64_t i = 0; i < want && off + i < storage_.size(); ++i) {
      data[i] = storage_[off + i];
    }
    storage_loaded_ = true;
  }
  const auto index = static_cast<int64_t>(
      static_cast<int32_t>(state().get(bp_->setup_index)));
  const auto setup_len = static_cast<int64_t>(
      static_cast<int32_t>(state().get(bp_->setup_len)));
  int64_t n = len;
  const bool clamp = ic.branch(bp_->s_in_clampq);
  if (clamp) {
    n = setup_len - index;
  }
  // Copy data_buf[index .. index+n) to the guest (bounds per the real
  // device: reads beyond the buffer leak adjacent memory).
  if (n > 0) {
    auto data = state().buffer_span(bp_->data_buf);
    std::vector<uint8_t> out(static_cast<size_t>(n), 0);
    bool oob = false;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t src = index + i;
      if (src >= 0 && src < static_cast<int64_t>(data.size())) {
        out[static_cast<size_t>(i)] = data[static_cast<size_t>(src)];
      } else {
        oob = true;
      }
    }
    if (oob) {
      record_incident(Incident{IncidentKind::kOobRead, bp_->data_buf,
                               static_cast<uint64_t>(index),
                               "usb_do_token_in leak"});
    }
    dma_.to_guest(buf_addr, out);
  }
  ic.block(clamp ? bp_->s_in_clamped : bp_->s_in_full);
  if (ic.branch(bp_->s_in_doneq)) {
    ic.block(bp_->s_in_complete);
  }
  ic.indirect(bp_->s_irq_in);
}

void EhciDevice::do_out(uint32_t /*len*/, uint64_t buf_addr) {
  auto& ic = ictx();
  if (ic.branch(bp_->s_out_zeroq)) {
    // Status stage: completes (or prematurely cancels) the control
    // transfer. Packet cleanup is native heap management; the unpatched
    // premature-cancel path forgets to clear the pointer (CVE-2016-1568).
    const auto index = static_cast<int32_t>(state().get(bp_->setup_index));
    const auto setup_len = static_cast<int32_t>(state().get(bp_->setup_len));
    const bool premature =
        state().get(bp_->setup_state) == 1 && index < setup_len;
    if (packet_ == PacketState::kLive) {
      packet_ = (premature && vulns_.cve_2016_1568) ? PacketState::kFreed
                                                    : PacketState::kNone;
    }
    ic.block(bp_->s_status_out);
    ic.indirect(bp_->s_irq_status);
    return;
  }
  if (!ic.branch(bp_->s_out_activeq)) {
    ic.block(bp_->s_out_idle);
    return;
  }
  const bool clamp = ic.branch(bp_->s_out_clampq);
  const uint64_t src = buf_addr;
  if (clamp) {
    ic.block(bp_->s_out_clamped, [&](std::span<uint8_t> dst) {
      dma_.from_guest(src, dst);
    });
  } else {
    ic.block(bp_->s_out_full, [&](std::span<uint8_t> dst) {
      dma_.from_guest(src, dst);
    });
  }
  if (ic.branch(bp_->s_out_doneq)) {
    // Commit vendor writes to backing storage.
    auto setup = state().buffer_span(bp_->setup_buf);
    if (setup[1] == kReqWrite) {
      backend_delay();  // storage-image write
      const uint64_t block = setup[2] | (uint64_t{setup[3]} << 8);
      const uint64_t off = block * kBlockSize;
      auto data = state().buffer_span(bp_->data_buf);
      const auto n = static_cast<uint64_t>(std::min<int64_t>(
          static_cast<int64_t>(data.size()),
          std::max<int64_t>(0, static_cast<int64_t>(static_cast<int32_t>(
                                   state().get(bp_->setup_len))))));
      for (uint64_t i = 0; i < n && off + i < storage_.size(); ++i) {
        storage_[off + i] = data[i];
      }
    }
    ic.block(bp_->s_out_complete);
  }
  ic.indirect(bp_->s_irq_out);
}

}  // namespace sedspec::devices
