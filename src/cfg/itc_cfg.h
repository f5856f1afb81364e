// ITC-CFG: Indirect Targets Connected Control Flow Graph.
//
// Built from the decoded IPT-style event stream following FlowGuard's
// approach (paper §IV-A): nodes are traced code addresses; edges connect
// consecutively observed addresses and are labeled sequential, taken, or
// not-taken; indirect-jump targets (function addresses reached through
// pointer calls) are connected into the same graph — hence "ITC".
//
// The builder is program-agnostic: it only sees addresses and TNT bits.
// The CFG analyzer (cfg/analyzer.h) later overlays the DeviceProgram to
// classify nodes and select device-state parameters.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>

#include "trace/packets.h"

namespace sedspec::cfg {

using sedspec::FuncAddr;

enum class EdgeLabel : uint8_t { kSeq = 0, kTaken, kNotTaken };

struct ItcNode {
  FuncAddr addr = 0;
  uint64_t visits = 0;
  // Successor address -> traversal count, per edge label.
  std::map<FuncAddr, uint64_t> succ_seq;
  std::map<FuncAddr, uint64_t> succ_taken;
  std::map<FuncAddr, uint64_t> succ_not_taken;
  uint64_t window_ends = 0;  // times this node closed a trace window (PGD)
};

class ItcCfg {
 public:
  [[nodiscard]] const std::map<FuncAddr, ItcNode>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] const ItcNode* node(FuncAddr addr) const;
  [[nodiscard]] size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] size_t edge_count() const;
  [[nodiscard]] uint64_t window_count() const { return windows_; }

  /// Addresses that opened a trace window (first TIP after PGE).
  [[nodiscard]] const std::set<FuncAddr>& window_heads() const {
    return heads_;
  }

 private:
  friend class ItcCfgBuilder;
  std::map<FuncAddr, ItcNode> nodes_;
  std::set<FuncAddr> heads_;
  uint64_t windows_ = 0;
};

/// Streaming builder: feed decoded events (possibly across many I/O
/// rounds), or a whole packet buffer that is decoded straight into the
/// builder; take() the finished graph, which leaves the builder empty.
class ItcCfgBuilder {
 public:
  void feed(const trace::TraceEvent& event);
  /// Decodes `packets` event by event into feed(). A malformed buffer
  /// throws DecodeError once the events before the defect have been fed.
  void feed_packets(std::span<const uint8_t> packets);

  [[nodiscard]] ItcCfg take();
  [[nodiscard]] const ItcCfg& cfg() const { return cfg_; }

 private:
  ItcCfg cfg_;
  bool in_window_ = false;
  bool window_fresh_ = false;             // next TIP is the window head
  ItcNode* prev_ = nullptr;               // previous TIP in this window
  std::optional<bool> pending_tnt_;       // direction awaiting its target
};

}  // namespace sedspec::cfg
