// ES-Checker: runtime protection (paper §VI, Fig. 1 ③).
//
// Installed as the bus proxy, the checker simulates each I/O interaction on
// the execution specification *before* the emulated device executes it: it
// traverses the ES-CFG from the entry block, interpreting DSOD on a shadow
// device state (a StateArena mirroring the control structure layout, so
// simulated out-of-bounds stores corrupt adjacent shadow fields exactly as
// the exploit would corrupt the real struct) and following NBTD transitions.
//
// Three check strategies (§VI-A):
//   Parameter check     — UBSan-style integer overflow on every evaluated
//                         expression, and buffer-bounds validation whenever
//                         a *device-state-derived* index reads or writes a
//                         state buffer. (Indices derived from non-state
//                         temporaries are exactly the paper's CVE-2015-7504
//                         blind spot and are not bounds-checked.)
//   Indirect-jump check — at indirect blocks, the function-pointer field's
//                         shadow value must be a trained legitimate target.
//   Conditional-jump    — untrained branch directions, untrained commands,
//                         untrained I/O access kinds, command-access-table
//                         violations, and per-round block-visit counts
//                         beyond the trained bound (the concrete form we
//                         give "branches never traversed under normal
//                         operations" for loop-shaped control flow, which
//                         is how the CVE-2016-7909 infinite loop is caught).
//
// Two working modes (§VI-B):
//   kProtection  — any violation blocks the access and halts the device;
//   kEnhancement — only parameter-check violations block; the other two
//                  strategies alert warnings and execution continues (the
//                  shadow state is resynchronized from the device after a
//                  warning round so one warning does not cascade).
//
// Failure domain (robustness layer): the checker sits in front of every
// I/O access, so an *internal* checker fault — corrupt deployed spec,
// traversal bug, shadow-state divergence, a tripped traversal watchdog —
// must not take the VMM down with it. before_access/after_access form a
// containment boundary: any exception raised inside the checking path is
// caught, counted in CheckerStats, and resolved by the configured
// FailurePolicy. No exception ever escapes the proxy interface.
//
// Check backends (DESIGN.md §12): the traversal round itself is delegated
// to a pluggable engine::CheckEngine — the tree-walking interpreter or the
// compiled bytecode VM — selected by CheckerConfig::engine. Everything in
// this header is engine-agnostic.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "program/arena.h"
#include "spec/es_cfg.h"
#include "spec/spec_store.h"
#include "vdev/bus.h"

namespace sedspec::checker {

namespace engine {
class CheckEngine;
}  // namespace engine

using sedspec::Device;
using sedspec::IoAccess;
using sedspec::SiteId;

enum class Strategy : uint8_t {
  kParameter = 0,
  kIndirectJump = 1,
  kConditionalJump = 2,
};

[[nodiscard]] std::string_view strategy_name(Strategy s);

/// Alert severity per strategy (paper §VIII future work: "classify the
/// alert levels based on different check strategies"). Parameter-check
/// findings are "directly related to vulnerability exploitation and do not
/// cause false positives" (§VI-B) — critical; indirect-jump findings mean a
/// corrupted code pointer — high; conditional-jump findings may be
/// rare-command false positives — warning.
enum class Severity : uint8_t { kCritical = 0, kHigh = 1, kWarning = 2 };

[[nodiscard]] Severity severity_of(Strategy s);
[[nodiscard]] std::string_view severity_name(Severity s);

enum class Mode : uint8_t { kProtection, kEnhancement };

/// Which check backend a checker deploys (see checker/engine/engine.h).
/// kDefault resolves through engine::default_engine() at construction.
enum class EngineKind : uint8_t {
  kDefault = 0,
  kInterpreter = 1,
  kBytecode = 2,
};

[[nodiscard]] std::string_view engine_kind_name(EngineKind k);

/// How a contained internal checker fault degrades the deployment.
///   kFailClosed — block the access, quarantine the device (reset it to
///                 power-on state), resynchronize the shadow from it, and
///                 re-arm the checker. Availability costs a device reset;
///                 protection never lapses.
///   kFailOpen   — let the access through unprotected, raise a degraded-
///                 mode alert, and periodically attempt a self-heal
///                 (shadow resync + re-attach). The device stays fully
///                 available; protection lapses until the re-attach sticks.
enum class FailurePolicy : uint8_t { kFailClosed = 0, kFailOpen = 1 };

[[nodiscard]] std::string_view failure_policy_name(FailurePolicy p);

/// Internal checker malfunction (tripped watchdog, injected fault, ...).
/// Raised inside the checking path and resolved by the containment layer;
/// never crosses before_access/after_access.
class CheckerFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Violation {
  Strategy strategy = Strategy::kParameter;
  SiteId site = sedspec::kInvalidSite;  // block where detected
  std::string detail;

  [[nodiscard]] Severity severity() const { return severity_of(strategy); }
};

/// One enforcement outcome as shipped off the hot check path (through a
/// bounded MPSC queue, see report_queue.h). Deliberately a fixed-size POD —
/// no strings, no allocation — so emitting a report never blocks or
/// allocates inside before_access. The consumer resolves `shard` back to a
/// device/VM.
struct Report {
  enum class Kind : uint8_t {
    kViolation = 0,  // one Violation; `strategy`/`site` are meaningful
    kBlocked,        // the round was vetoed (protection/parameter block)
    kQuarantine,     // fail-closed containment reset the device
    kSelfHeal,       // fail-open degradation healed (resync + re-attach)
    kDegraded,       // fail-open containment entered degraded mode
    kRedeploy,       // shard swapped to a new spec snapshot; value=version
  };

  Kind kind = Kind::kViolation;
  Strategy strategy = Strategy::kParameter;  // kViolation only
  uint32_t shard = 0;                        // producer shard id
  SiteId site = sedspec::kInvalidSite;       // kViolation only
  uint64_t seq = 0;    // per-shard emission sequence (gap = lost report)
  uint64_t value = 0;  // kind-specific (spec version on kRedeploy)
};

[[nodiscard]] std::string_view report_kind_name(Report::Kind k);

/// Where the checker ships reports. Implementations must be safe to call
/// from many shard threads concurrently and must never block: offer()
/// either accepts the report or returns false (bounded queue full). The
/// SINK is the single source of truth for drop accounting (ReportQueue
/// counts its own rejections and attributes them per shard); the caller
/// only counts offers made (CheckerStats.reports_offered), so drops are
/// derivable as offered - emitted without double-booking.
class ReportSink {
 public:
  virtual ~ReportSink() = default;
  virtual bool offer(const Report& r) = 0;
};

struct CheckResult {
  std::vector<Violation> violations;
  bool blocked = false;  // the access was vetoed
  bool halted = false;   // the device was halted (protection mode)
  uint64_t steps = 0;    // ES-CFG blocks traversed

  [[nodiscard]] bool clean() const { return violations.empty(); }
  [[nodiscard]] bool any(Strategy s) const;
};

struct CheckerConfig {
  Mode mode = Mode::kProtection;

  // Per-strategy switches (the paper's case studies "activate only one
  // check strategy for each experiment").
  bool enable_parameter = true;
  bool enable_indirect = true;
  bool enable_conditional = true;

  /// Check backend. kDefault resolves through the process-wide
  /// engine::default_engine() knob (ships as kBytecode).
  EngineKind engine = EngineKind::kDefault;

  /// Per-round visit bound = max(slack_min, trained_max * slack_multiplier).
  uint64_t visit_slack_multiplier = 8;
  uint64_t visit_slack_min = 64;
  /// Absolute traversal budget per round.
  uint64_t max_steps = 1u << 20;
  /// Resynchronize the shadow state from the device after a warning round
  /// (enhancement mode) so a single warning does not cascade.
  bool resync_after_warning = true;
  /// Record violations but never block or halt (evaluation aid: lets a
  /// whole exploit run to completion while counting what each strategy
  /// would have reported round by round).
  bool monitor_only = false;
  /// Rollback recovery (paper §VIII future work: "using rollback to restore
  /// the virtual machine state to a previous point before the
  /// exploitation"): instead of halting on a blocked access, restore the
  /// device's control structure from the last clean checkpoint and keep the
  /// device available. Costs one arena copy per clean round.
  bool rollback_on_violation = false;

  /// Resolution policy for contained internal faults (see FailurePolicy).
  FailurePolicy failure_policy = FailurePolicy::kFailClosed;
  /// Hard traversal backstop: if one round walks more steps than this, the
  /// round is aborted with a CheckerFault into the containment layer. Set
  /// above max_steps — it only fires when the ordinary budget check itself
  /// is broken (spec corruption, internal bug, injected fault).
  uint64_t watchdog_steps = 1u << 22;
  /// Fail-open only: degraded rounds served unprotected between self-heal
  /// (shadow resync + re-attach) attempts.
  uint64_t self_heal_interval = 16;

  /// Metric-label override for the `device=` dimension (latency histogram
  /// and publish_metrics gauges). Empty (default) uses the spec's device
  /// name; the enforcement service sets per-shard labels ("fdc#3") so two
  /// shards of the same device type export distinct series.
  std::string metrics_label;
};

/// Bookkeeping invariant:
///   rounds == clean_rounds + warnings + blocked + degraded_rounds
/// Contained faults resolve into `blocked` (fail-closed) or
/// `degraded_rounds` (fail-open), so the invariant survives faults.
///
/// When adding a field: update merge(), publish_checker_stats(), the
/// field-by-field merge test, and the sizeof static_asserts guarding them
/// (checker.cc and checker_set_test.cc).
struct CheckerStats {
  uint64_t rounds = 0;
  uint64_t clean_rounds = 0;
  uint64_t blocked = 0;
  uint64_t warnings = 0;
  uint64_t violations_by_strategy[3] = {0, 0, 0};
  uint64_t rollbacks = 0;
  uint64_t total_steps = 0;

  // Failure-domain counters.
  uint64_t contained_faults = 0;    // internal faults caught at the boundary
  uint64_t fail_closed_faults = 0;  // ... resolved by quarantine/block
  uint64_t fail_open_faults = 0;    // ... resolved by unprotected passthrough
  uint64_t degraded_rounds = 0;     // rounds served without protection
  uint64_t quarantines = 0;         // device quarantine/reset cycles
  uint64_t self_heals = 0;          // successful re-attach after degradation

  // Observability: nanoseconds spent inside guarded checking (accumulated
  // only while obs::timing_enabled(); otherwise stays 0).
  uint64_t check_ns = 0;

  // Report-queue accounting (concurrency layer): offers the attached
  // ReportSink accepted and total offers attempted. The check path never
  // blocks on a full queue — the QUEUE counts its rejections (single
  // source of truth; see ReportQueue::dropped); per-checker drops are
  // reports_offered - reports_emitted.
  uint64_t reports_emitted = 0;
  uint64_t reports_offered = 0;

  // Redeploy robustness (control plane): transient spec-fetch failures
  // retried with backoff during shard spec polling. Incremented by the
  // enforcement shard loop, not the checker itself — it lives here so fleet
  // aggregation and publish_checker_stats carry it for free.
  uint64_t redeploy_retries = 0;

  /// Sums another checker's counters into this one (fleet aggregation).
  void merge(const CheckerStats& other);
};

/// Canonical name for the enabled-strategy set of a config: "all", "none",
/// a single strategy ("parameter" / "indirect" / "conditional"), or
/// "mixed". Used as the `strategies` metric label on check-latency
/// histograms, so single-strategy deployments yield per-strategy
/// percentiles.
[[nodiscard]] std::string strategy_set_name(const CheckerConfig& config);

/// Publishes every CheckerStats field as a `checker_*` gauge labeled
/// `device="<label>"` into `registry` (snapshot semantics: gauges are
/// overwritten each call).
void publish_checker_stats(obs::MetricsRegistry& registry,
                           const std::string& device_label,
                           const CheckerStats& stats);

/// Fault-injection seam (faultinject layer 4): consulted once per checked
/// round with the shadow arena (so a hook can corrupt shadow state
/// mid-round). The returned flags model internal checker bugs.
struct InternalFault {
  bool throw_in_traversal = false;  // forced traversal exception
  bool suppress_termination = false;  // break budget/visit-bound checks;
                                      // only the watchdog can stop the round
};
using FaultHook = std::function<InternalFault(sedspec::StateArena& shadow)>;

/// Everything a deployment attaches to a checker, in one struct: the report
/// sink (+ producer shard id), the per-shard flight-recorder ring, and the
/// fault-injection hook. Accepted at construction and via attach() — the
/// only two ways hooks change, so the checker can resolve per-attachment
/// state (the ring's event keys) exactly there. All pointers are borrowed
/// and must outlive the checker; value-initialized CheckerHooks{} detaches
/// everything.
struct CheckerHooks {
  /// Violation/containment report destination (nullptr = detached). See
  /// ReportSink for the drop-accounting contract.
  ReportSink* report_sink = nullptr;
  /// Producer shard id stamped into every emitted Report.
  uint32_t shard_id = 0;
  /// Per-shard flight-recorder ring (see obs/flight.h): when set, every
  /// checked round records a kIoAccess event (a = address, b = traversal
  /// steps) and violation/quarantine/self-heal events into it, giving
  /// incident bundles the last-K-rounds context. The event keys are
  /// interned at attach, so a round's record takes no lock.
  obs::EventTracer* local_tracer = nullptr;
  /// Consulted once per checked round (see InternalFault).
  FaultHook fault_hook;
};

class EsChecker final : public sedspec::IoProxy {
 public:
  /// Attaches to `device`: the shadow state is initialized from the
  /// device's control structure (paper §V-A: "initialized with the values
  /// from the emulated device control structure upon booting").
  EsChecker(const spec::EsCfg* cfg, Device* device, CheckerConfig config = {},
            CheckerHooks hooks = {});

  /// Snapshot-pinning attach (concurrency layer): the checker keeps the
  /// SpecStore snapshot alive for its own lifetime, so a concurrent
  /// publish() of a newer version can never free a graph this checker is
  /// traversing. Redeploy = construct a new checker from the new snapshot
  /// and swap proxies between rounds.
  EsChecker(spec::SnapshotRef snapshot, Device* device,
            CheckerConfig config = {}, CheckerHooks hooks = {});

  ~EsChecker() override;

  // IoProxy -------------------------------------------------------------
  // Containment boundary: no exception raised by the checking path escapes
  // either hook; internal faults resolve via config().failure_policy.
  bool before_access(Device& device, const IoAccess& io) override;
  void after_access(Device& device, const IoAccess& io) override;

  /// Core traversal: simulates one I/O round, returns every violation.
  /// Does not apply the mode policy (before_access does). NOT a containment
  /// boundary — internal faults (watchdog, injected) propagate to the
  /// caller; use the proxy hooks for contained checking.
  [[nodiscard]] CheckResult check(const IoAccess& io);

  /// Re-copies the shadow state from the device (used after reset).
  void resync();

  [[nodiscard]] const CheckerStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Publishes this checker's stats into `registry` (gauges labeled with
  /// the device name; see publish_checker_stats).
  void publish_metrics(obs::MetricsRegistry& registry) const;

  [[nodiscard]] const CheckResult& last_result() const { return last_; }
  [[nodiscard]] sedspec::StateArena& shadow() { return shadow_; }
  [[nodiscard]] const CheckerConfig& config() const { return config_; }
  void set_mode(Mode mode) { config_.mode = mode; }

  /// The resolved check backend this deployment runs (never kDefault).
  [[nodiscard]] EngineKind engine_kind() const { return engine_kind_; }
  /// The live engine (differential tests / diagnostics).
  [[nodiscard]] engine::CheckEngine& engine() { return *engine_; }

  /// True while the checker serves rounds unprotected after a fail-open
  /// containment, waiting for the next self-heal attempt.
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Version of the pinned snapshot (0 when constructed from a raw EsCfg).
  [[nodiscard]] uint64_t spec_version() const {
    return snapshot_ == nullptr ? 0 : snapshot_->version;
  }
  [[nodiscard]] const spec::SnapshotRef& snapshot() const {
    return snapshot_;
  }

  /// Replaces ALL attachments at once; attach(CheckerHooks{}) detaches
  /// everything. To change one hook, copy hooks(), edit, and attach().
  void attach(CheckerHooks hooks);
  [[nodiscard]] const CheckerHooks& hooks() const { return hooks_; }

  /// Label used for the `device=` metric dimension (config override or the
  /// spec's device name).
  [[nodiscard]] const std::string& metrics_label() const;

 private:
  /// Every event the checker emits; kViolation is followed by one slot per
  /// Strategy. Indexes ring_keys_.
  enum EventId : uint8_t {
    kIoRead = 0,
    kIoWrite,
    kSelfHeal,
    kQuarantine,
    kViolation,
    kEventIds = kViolation + 3,
  };
  struct EventDesc {
    obs::EventType type;
    std::string_view name;
    std::string_view detail;
  };
  [[nodiscard]] EventDesc describe(EventId id) const;
  /// Records event `id` into the global tracer (when installed) and the
  /// local ring (when attached). Not for per-round kIoRead/kIoWrite, which
  /// go to the local ring only.
  void emit_event(EventId id, uint64_t a = 0);

  [[nodiscard]] bool strategy_enabled(Strategy s) const;
  void emit_report(Report::Kind kind, Strategy strategy, SiteId site,
                   uint64_t value = 0);
  bool guarded_before_access(Device& device, const IoAccess& io);
  /// Everything after a round is found non-clean: counters, reports,
  /// events and the block/warn policy. Out of line and cold so the clean
  /// round's code stays small. `saved_cmd` is the command latch from
  /// before the round, restored when the access is blocked.
  [[gnu::cold, gnu::noinline]] bool violation_round(
      Device& device, std::optional<uint64_t> saved_cmd);
  bool contain_fault(Device& device, const std::string& what,
                     bool count_round);

  const spec::EsCfg* cfg_;
  spec::SnapshotRef snapshot_;  // pins cfg_ when store-deployed
  Device* device_;
  CheckerConfig config_;
  CheckerHooks hooks_;
  uint64_t report_seq_ = 0;
  sedspec::StateArena shadow_;
  CheckerStats stats_;
  CheckResult last_;
  bool pending_resync_ = false;
  bool degraded_ = false;
  uint64_t degraded_rounds_since_heal_ = 0;
  // Resolved once at construction; recording is relaxed-atomic only.
  obs::Histogram* latency_hist_ = nullptr;
  // Live cumulative violation counter (checker_violations_total{device=})
  // — unlike the publish_metrics gauges this updates on the hot path, so
  // the time-series/SLO layer can window violation rates without polling
  // every checker.
  obs::Counter* violations_counter_ = nullptr;

  EngineKind engine_kind_ = EngineKind::kInterpreter;
  std::unique_ptr<engine::CheckEngine> engine_;
  std::unique_ptr<sedspec::StateArena> checkpoint_;  // rollback mode only
  // hooks_.local_tracer's key per EventId, resolved by attach().
  std::array<obs::EventKey, kEventIds> ring_keys_{};
};

}  // namespace sedspec::checker
