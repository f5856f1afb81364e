// ReportQueue — bounded, lock-free MPSC/MPMC channel for checker reports.
//
// Shard threads sit on the guest I/O hot path; shipping a violation report
// must never block them or take a lock. This is the classic Vyukov bounded
// MPMC array queue: each cell carries a sequence number, producers claim a
// slot with one CAS on the enqueue cursor, consumers with one CAS on the
// dequeue cursor, and the per-cell sequence (release-published) tells each
// side when the slot is safe to touch. No node allocation, no spinning on
// a full queue.
//
// Overflow policy: try_push on a full queue returns false immediately — the
// report is DROPPED, never the access. The queue is the SINGLE source of
// truth for drop accounting: each rejection ticks dropped() and the
// per-shard process counter `report_queue_dropped_total{shard=<r.shard>}`
// (handle cached per shard, resolved lazily once). Emitting checkers only
// count offers attempted vs accepted (CheckerStats::reports_offered /
// reports_emitted), so conservation holds without double-booking:
//   sum(offered) - sum(emitted) == dropped().
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "checker/checker.h"

namespace sedspec::checker {

class ReportQueue final {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit ReportQueue(size_t capacity);
  ReportQueue(const ReportQueue&) = delete;
  ReportQueue& operator=(const ReportQueue&) = delete;

  /// Lock-free try-push; false when full, ticking dropped() and the
  /// per-shard `report_queue_dropped_total` counter (attributed via
  /// `r.shard`). Safe from any number of producer threads concurrently
  /// with consumers.
  bool try_push(const Report& r);

  /// Lock-free try-pop; false when empty.
  bool try_pop(Report& out);

  /// Pops up to `max` reports into `out` (appended). Returns the number
  /// drained. A convenience loop over try_pop for the consumer thread.
  size_t drain(std::vector<Report>& out, size_t max = SIZE_MAX);

  [[nodiscard]] size_t capacity() const { return mask_ + 1; }
  [[nodiscard]] uint64_t pushed() const {
    return pushed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t popped() const {
    return popped_.load(std::memory_order_relaxed);
  }
  /// Instantaneous occupancy (approximate under concurrency).
  [[nodiscard]] size_t size_approx() const;

 private:
  struct Cell {
    std::atomic<size_t> seq{0};
    Report item;
  };

  /// Drop-path per-shard counter attribution. The counter handle is
  /// resolved lazily on a shard's first drop (registry lookup under its
  /// mutex) and cached in a fixed slot array; shard ids beyond the array
  /// collapse into one overflow-labeled series so attribution stays
  /// bounded. Only the (already slow) reject path pays for this.
  obs::Counter& drop_counter_for(uint32_t shard);

  static constexpr size_t kDropCounterSlots = 64;
  std::atomic<obs::Counter*> drop_counters_[kDropCounterSlots] = {};
  std::atomic<obs::Counter*> drop_counter_overflow_{nullptr};

  std::unique_ptr<Cell[]> cells_;
  size_t mask_ = 0;
  // Cursors on separate cache lines: producers hammer enqueue_, the
  // consumer hammers dequeue_; sharing a line would false-share every push
  // against every pop.
  alignas(64) std::atomic<size_t> enqueue_{0};
  alignas(64) std::atomic<size_t> dequeue_{0};
  alignas(64) std::atomic<uint64_t> pushed_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> popped_{0};
};

}  // namespace sedspec::checker
