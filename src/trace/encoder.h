// Packet encoder: the TraceSink a device's instrumentation context writes
// into while the "IPT module" is collecting (paper Fig. 1, phase 1).
#pragma once

#include <cstdint>
#include <vector>

#include "trace/packets.h"
#include "vdev/instr.h"

namespace sedspec::trace {

class PacketEncoder final : public TraceSink {
 public:
  explicit PacketEncoder(TraceFilter filter = {}) : filter_(filter) {}

  // TraceSink ---------------------------------------------------------------
  void pge(FuncAddr addr) override;
  void pgd() override;
  void tip(FuncAddr addr) override;
  void tnt(bool taken) override;

  /// Finishes any pending TNT packet and returns the packet bytes.
  [[nodiscard]] std::vector<uint8_t> finish();

  [[nodiscard]] size_t byte_count() const { return bytes_.size(); }
  [[nodiscard]] uint64_t dropped_by_filter() const { return dropped_; }

 private:
  void flush_tnt();
  void put_addr_packet(uint8_t op, FuncAddr addr);

  TraceFilter filter_;
  std::vector<uint8_t> bytes_;
  uint8_t tnt_bits_ = 0;
  uint8_t tnt_count_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace sedspec::trace
