// ReportQueue: bounded lock-free report channel. Deterministic overflow
// policy (drop the report, never block the check path), FIFO order through
// the single-consumer path, and no lost or duplicated reports under
// concurrent producers.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "checker/report_queue.h"
#include "common/rng.h"
#include "guest/workload.h"

namespace sedspec {
namespace {

using checker::Report;
using checker::ReportQueue;

Report make_report(uint32_t shard, uint64_t seq) {
  Report r;
  r.kind = Report::Kind::kViolation;
  r.shard = shard;
  r.seq = seq;
  return r;
}

TEST(ReportQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ReportQueue(1).capacity(), 2u);
  EXPECT_EQ(ReportQueue(64).capacity(), 64u);
  EXPECT_EQ(ReportQueue(65).capacity(), 128u);
}

TEST(ReportQueue, OverflowDropsDeterministicallyAndKeepsFifoOrder) {
  ReportQueue q(64);
  // Seeded burst from one producer, no consumer: exactly `capacity`
  // accepted, the rest dropped, nothing blocks.
  for (uint64_t i = 0; i < 200; ++i) {
    q.try_push(make_report(0, i));
  }
  EXPECT_EQ(q.pushed(), 64u);
  EXPECT_EQ(q.dropped(), 136u);

  std::vector<Report> out;
  EXPECT_EQ(q.drain(out), 64u);
  ASSERT_EQ(out.size(), 64u);
  for (uint64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].seq, i) << "FIFO order broken at slot " << i;
  }
  // Empty again: pops fail, drains return zero.
  Report r;
  EXPECT_FALSE(q.try_pop(r));
  EXPECT_EQ(q.size_approx(), 0u);
}

TEST(ReportQueue, ConcurrentProducersWithLiveConsumerLoseNothing) {
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 5000;
  ReportQueue q(256);

  std::vector<Report> drained;
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (q.drain(drained) == 0) {
        std::this_thread::yield();
      }
    }
    q.drain(drained);
  });

  std::vector<std::thread> producers;
  std::vector<uint64_t> accepted(kProducers, 0);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        if (q.try_push(make_report(static_cast<uint32_t>(p), i))) {
          ++accepted[p];
        }
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  // Conservation: every accepted push is drained exactly once, and each
  // producer's accepted reports arrive in its emission order.
  uint64_t total_accepted = 0;
  for (uint64_t a : accepted) {
    total_accepted += a;
  }
  EXPECT_EQ(q.pushed(), total_accepted);
  EXPECT_EQ(q.pushed() + q.dropped(), kProducers * kPerProducer);
  EXPECT_EQ(drained.size(), total_accepted);
  EXPECT_EQ(q.popped(), total_accepted);

  std::vector<uint64_t> last_seq(kProducers, 0);
  std::vector<uint64_t> seen(kProducers, 0);
  for (const Report& r : drained) {
    ASSERT_LT(r.shard, static_cast<uint32_t>(kProducers));
    if (seen[r.shard] > 0) {
      EXPECT_GT(r.seq, last_seq[r.shard])
          << "per-producer order broken for producer " << r.shard;
    }
    last_seq[r.shard] = r.seq;
    ++seen[r.shard];
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(seen[p], accepted[p]);
  }
}

// Checker integration under overflow: with a deliberately tiny queue and
// no consumer, a burst of violating rounds overflows it. The QUEUE is the
// single source of truth for drops (satellite: no double-booking); the
// checker tracks offers vs acceptances, and conservation must hold:
//   offered == emitted + queue drops,   emitted == queue pushed.
TEST(ReportQueue, DropConservationUnderOverflow) {
  auto wl = guest::make_workload("fdc");
  checker::CheckerConfig config;
  config.monitor_only = true;  // violations warn; the device keeps running
  wl->build_and_deploy(config);

  ReportQueue tiny(2);
  checker::CheckerHooks hooks;
  hooks.report_sink = &tiny;
  hooks.shard_id = 7;
  wl->checker()->attach(std::move(hooks));
  const obs::Counter& shard_drops =
      obs::metrics().counter("report_queue_dropped_total",
                             obs::label({{"shard", "7"}}));
  const uint64_t shard_drops_before = shard_drops.value();

  Rng rng(43);
  for (int i = 0; i < 10; ++i) {
    wl->rare_operation(rng);  // each rare op trips >= 1 violation report
  }

  const checker::CheckerStats& stats = wl->checker()->stats();
  EXPECT_EQ(stats.reports_emitted, tiny.capacity());
  EXPECT_GT(stats.reports_offered, stats.reports_emitted);
  EXPECT_EQ(stats.reports_emitted, tiny.pushed());
  // Conservation: every offer either landed in the queue or is accounted
  // as a queue drop — exactly once.
  EXPECT_EQ(stats.reports_offered - stats.reports_emitted, tiny.dropped());
  // The queue attributed every drop to the emitting shard's counter.
  EXPECT_EQ(shard_drops.value() - shard_drops_before, tiny.dropped());

  std::vector<Report> out;
  tiny.drain(out);
  ASSERT_EQ(out.size(), tiny.capacity());
  for (const Report& r : out) {
    EXPECT_EQ(r.shard, 7u);
    EXPECT_EQ(r.kind, Report::Kind::kViolation);
  }
}

}  // namespace
}  // namespace sedspec
