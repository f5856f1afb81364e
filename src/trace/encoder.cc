#include "trace/encoder.h"

#include <cstring>
#include <utility>

namespace sedspec::trace {

void PacketEncoder::flush_tnt() {
  if (tnt_count_ == 0) {
    return;
  }
  // Stop-bit encoding: highest set bit terminates, outcomes below it.
  const uint8_t pkt[2] = {kOpTnt,
                          static_cast<uint8_t>((1u << tnt_count_) | tnt_bits_)};
  bytes_.insert(bytes_.end(), pkt, pkt + sizeof pkt);
  tnt_bits_ = 0;
  tnt_count_ = 0;
}

// One insert per packet: the opcode, then the address's wire encoding (the
// little-endian host's own bytes).
void PacketEncoder::put_addr_packet(uint8_t op, FuncAddr addr) {
  uint8_t pkt[1 + sizeof addr];
  pkt[0] = op;
  std::memcpy(pkt + 1, &addr, sizeof addr);
  bytes_.insert(bytes_.end(), pkt, pkt + sizeof pkt);
}

void PacketEncoder::pge(FuncAddr addr) {
  flush_tnt();
  put_addr_packet(kOpPge, addr);
}

void PacketEncoder::pgd() {
  flush_tnt();
  bytes_.push_back(kOpPgd);
}

void PacketEncoder::tip(FuncAddr addr) {
  if (!filter_.pass(addr)) {
    ++dropped_;
    return;
  }
  flush_tnt();
  put_addr_packet(kOpTip, addr);
}

void PacketEncoder::tnt(bool taken) {
  tnt_bits_ |= static_cast<uint8_t>(taken ? (1u << tnt_count_) : 0u);
  ++tnt_count_;
  if (tnt_count_ == 6) {
    flush_tnt();
  }
}

std::vector<uint8_t> PacketEncoder::finish() {
  flush_tnt();
  return std::move(bytes_);
}

}  // namespace sedspec::trace
