#include "cfg/itc_cfg.h"

#include "common/assert.h"

namespace sedspec::cfg {

const ItcNode* ItcCfg::node(FuncAddr addr) const {
  auto it = nodes_.find(addr);
  return it == nodes_.end() ? nullptr : &it->second;
}

size_t ItcCfg::edge_count() const {
  size_t n = 0;
  for (const auto& [addr, node] : nodes_) {
    n += node.succ_seq.size() + node.succ_taken.size() +
         node.succ_not_taken.size();
  }
  return n;
}

void ItcCfgBuilder::feed(const trace::TraceEvent& event) {
  using trace::EventKind;
  switch (event.kind) {
    case EventKind::kPge:
      in_window_ = true;
      window_fresh_ = true;
      prev_ = nullptr;
      pending_tnt_.reset();
      ++cfg_.windows_;
      break;
    case EventKind::kPgd:
      if (prev_ != nullptr) {
        ++prev_->window_ends;
      }
      in_window_ = false;
      prev_ = nullptr;
      pending_tnt_.reset();
      break;
    case EventKind::kTnt:
      if (!in_window_) {
        break;
      }
      SEDSPEC_REQUIRE_MSG(!pending_tnt_.has_value(),
                          "two TNT bits without an intervening TIP");
      pending_tnt_ = event.taken;
      break;
    case EventKind::kTip: {
      if (!in_window_) {
        break;
      }
      ItcNode& node = cfg_.nodes_[event.addr];
      node.addr = event.addr;
      ++node.visits;
      if (window_fresh_) {
        cfg_.heads_.insert(event.addr);
        window_fresh_ = false;
      }
      if (prev_ != nullptr) {
        if (pending_tnt_.has_value()) {
          auto& edges =
              *pending_tnt_ ? prev_->succ_taken : prev_->succ_not_taken;
          ++edges[event.addr];
        } else {
          ++prev_->succ_seq[event.addr];
        }
      }
      // std::map nodes never move, so the pointer stays valid as the graph
      // grows.
      prev_ = &node;
      pending_tnt_.reset();
      break;
    }
  }
}

void ItcCfgBuilder::feed_packets(std::span<const uint8_t> packets) {
  trace::decode(packets, [this](const trace::TraceEvent& e) { feed(e); });
}

ItcCfg ItcCfgBuilder::take() {
  ItcCfg out = std::move(cfg_);
  *this = ItcCfgBuilder{};  // prev_ points into `out`; start over empty
  return out;
}

}  // namespace sedspec::cfg
