#include "checker/checker.h"

#include "checker/engine/engine.h"
#include "common/log.h"
#include "obs/trace.h"

namespace sedspec::checker {

std::string_view strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kParameter:
      return "parameter check";
    case Strategy::kIndirectJump:
      return "indirect jump check";
    case Strategy::kConditionalJump:
      return "conditional jump check";
  }
  return "?";
}

Severity severity_of(Strategy s) {
  switch (s) {
    case Strategy::kParameter:
      return Severity::kCritical;
    case Strategy::kIndirectJump:
      return Severity::kHigh;
    case Strategy::kConditionalJump:
      return Severity::kWarning;
  }
  return Severity::kWarning;
}

std::string_view failure_policy_name(FailurePolicy p) {
  switch (p) {
    case FailurePolicy::kFailClosed:
      return "fail-closed";
    case FailurePolicy::kFailOpen:
      return "fail-open";
  }
  return "?";
}

std::string_view engine_kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::kDefault:
      return "default";
    case EngineKind::kInterpreter:
      return "interpreter";
    case EngineKind::kBytecode:
      return "bytecode";
  }
  return "?";
}

// Tripwire: a new CheckerStats counter that is not summed below would
// silently vanish from fleet aggregation. If this assert fires, extend
// merge(), publish_checker_stats(), and the field-by-field merge test
// (checker_set_test.cc), then bump the expected size.
static_assert(sizeof(CheckerStats) == 19 * sizeof(uint64_t),
              "CheckerStats changed: update merge()/publish_checker_stats()/"
              "the merge unit test, then this assert");

void CheckerStats::merge(const CheckerStats& other) {
  rounds += other.rounds;
  clean_rounds += other.clean_rounds;
  blocked += other.blocked;
  warnings += other.warnings;
  for (int i = 0; i < 3; ++i) {
    violations_by_strategy[i] += other.violations_by_strategy[i];
  }
  rollbacks += other.rollbacks;
  total_steps += other.total_steps;
  contained_faults += other.contained_faults;
  fail_closed_faults += other.fail_closed_faults;
  fail_open_faults += other.fail_open_faults;
  degraded_rounds += other.degraded_rounds;
  quarantines += other.quarantines;
  self_heals += other.self_heals;
  check_ns += other.check_ns;
  reports_emitted += other.reports_emitted;
  reports_offered += other.reports_offered;
  redeploy_retries += other.redeploy_retries;
}

std::string_view report_kind_name(Report::Kind k) {
  switch (k) {
    case Report::Kind::kViolation:
      return "violation";
    case Report::Kind::kBlocked:
      return "blocked";
    case Report::Kind::kQuarantine:
      return "quarantine";
    case Report::Kind::kSelfHeal:
      return "self_heal";
    case Report::Kind::kDegraded:
      return "degraded";
    case Report::Kind::kRedeploy:
      return "redeploy";
  }
  return "?";
}

std::string strategy_set_name(const CheckerConfig& config) {
  const int enabled = (config.enable_parameter ? 1 : 0) +
                      (config.enable_indirect ? 1 : 0) +
                      (config.enable_conditional ? 1 : 0);
  if (enabled == 3) {
    return "all";
  }
  if (enabled == 0) {
    return "none";
  }
  if (enabled == 1) {
    if (config.enable_parameter) {
      return "parameter";
    }
    if (config.enable_indirect) {
      return "indirect";
    }
    return "conditional";
  }
  return "mixed";
}

void publish_checker_stats(obs::MetricsRegistry& registry,
                           const std::string& device_label,
                           const CheckerStats& stats) {
  const std::string labels = obs::label({{"device", device_label}});
  auto set = [&](std::string_view name, uint64_t value) {
    registry.gauge(name, labels).set(static_cast<int64_t>(value));
  };
  set("checker_rounds", stats.rounds);
  set("checker_clean_rounds", stats.clean_rounds);
  set("checker_blocked", stats.blocked);
  set("checker_warnings", stats.warnings);
  set("checker_violations_parameter", stats.violations_by_strategy[0]);
  set("checker_violations_indirect", stats.violations_by_strategy[1]);
  set("checker_violations_conditional", stats.violations_by_strategy[2]);
  set("checker_rollbacks", stats.rollbacks);
  set("checker_total_steps", stats.total_steps);
  set("checker_contained_faults", stats.contained_faults);
  set("checker_fail_closed_faults", stats.fail_closed_faults);
  set("checker_fail_open_faults", stats.fail_open_faults);
  set("checker_degraded_rounds", stats.degraded_rounds);
  set("checker_quarantines", stats.quarantines);
  set("checker_self_heals", stats.self_heals);
  set("checker_check_ns", stats.check_ns);
  set("checker_reports_emitted", stats.reports_emitted);
  set("checker_reports_offered", stats.reports_offered);
  set("checker_redeploy_retries", stats.redeploy_retries);
}

std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::kCritical:
      return "critical";
    case Severity::kHigh:
      return "high";
    case Severity::kWarning:
      return "warning";
  }
  return "?";
}

bool CheckResult::any(Strategy s) const {
  for (const Violation& v : violations) {
    if (v.strategy == s) {
      return true;
    }
  }
  return false;
}

EsChecker::EsChecker(const spec::EsCfg* cfg, Device* device,
                     CheckerConfig config, CheckerHooks hooks)
    : cfg_(cfg),
      device_(device),
      config_(std::move(config)),
      shadow_(&device->program().layout()) {
  SEDSPEC_REQUIRE(cfg != nullptr && device != nullptr);
  SEDSPEC_REQUIRE_MSG(cfg->device_name == device->program().device_name(),
                      "specification/device mismatch");
  attach(std::move(hooks));
  shadow_.copy_from(device->state());
  latency_hist_ = &obs::metrics().histogram(
      "checker_check_latency_ns",
      obs::label({{"device", metrics_label()},
                  {"strategies", strategy_set_name(config_)}}));
  violations_counter_ = &obs::metrics().counter(
      "checker_violations_total", obs::label({{"device", metrics_label()}}));
  engine_kind_ = engine::resolve_engine(config_.engine);
  engine_ = engine::make_engine(cfg_, device_, &shadow_, &config_);
  if (config_.rollback_on_violation) {
    checkpoint_ = std::make_unique<sedspec::StateArena>(
        &device->program().layout());
    checkpoint_->copy_from(device->state());
  }
}

namespace {
/// Delegation helper: validates the snapshot before the raw-cfg constructor
/// dereferences it.
const spec::EsCfg* cfg_of(const spec::SnapshotRef& snapshot) {
  SEDSPEC_REQUIRE_MSG(snapshot != nullptr,
                      "checker attached to a null spec snapshot");
  return &snapshot->cfg;
}
}  // namespace

EsChecker::EsChecker(spec::SnapshotRef snapshot, Device* device,
                     CheckerConfig config, CheckerHooks hooks)
    : EsChecker(cfg_of(snapshot), device, std::move(config),
                std::move(hooks)) {
  snapshot_ = std::move(snapshot);
}

EsChecker::~EsChecker() = default;

const std::string& EsChecker::metrics_label() const {
  return config_.metrics_label.empty() ? cfg_->device_name
                                       : config_.metrics_label;
}

void EsChecker::attach(CheckerHooks hooks) {
  hooks_ = std::move(hooks);
  if (hooks_.local_tracer == nullptr) {
    return;
  }
  for (uint8_t id = 0; id < kEventIds; ++id) {
    const EventDesc e = describe(static_cast<EventId>(id));
    ring_keys_[id] =
        hooks_.local_tracer->key(e.name, cfg_->device_name, e.detail);
  }
}

EsChecker::EventDesc EsChecker::describe(EventId id) const {
  switch (id) {
    case kIoRead:
      return {obs::EventType::kIoAccess, "io_read", {}};
    case kIoWrite:
      return {obs::EventType::kIoAccess, "io_write", {}};
    case kSelfHeal:
      return {obs::EventType::kSelfHeal, "self_heal", {}};
    case kQuarantine:
      return {obs::EventType::kQuarantine, "quarantine",
              failure_policy_name(config_.failure_policy)};
    default:
      return {obs::EventType::kViolation, "violation",
              strategy_name(static_cast<Strategy>(id - kViolation))};
  }
}

void EsChecker::emit_event(EventId id, uint64_t a) {
  const EventDesc e = describe(id);
  if (obs::EventTracer* tr = obs::tracer()) {
    tr->record(e.type, e.name, cfg_->device_name, e.detail, a);
  }
  if (hooks_.local_tracer != nullptr) {
    hooks_.local_tracer->record(e.type, ring_keys_[id], a);
  }
}

void EsChecker::emit_report(Report::Kind kind, Strategy strategy, SiteId site,
                            uint64_t value) {
  if (hooks_.report_sink == nullptr) {
    return;
  }
  Report r;
  r.kind = kind;
  r.strategy = strategy;
  r.shard = hooks_.shard_id;
  r.site = site;
  r.seq = report_seq_++;
  r.value = value;
  // offer() must never block (bounded queue, try-push): a full queue drops
  // the report and the check path keeps its latency bound. The sink counts
  // its own rejections (single source of truth, attributed per shard); we
  // only track offered vs accepted so drops stay derivable per checker.
  ++stats_.reports_offered;
  if (hooks_.report_sink->offer(r)) {
    ++stats_.reports_emitted;
  }
}

void EsChecker::resync() {
  shadow_.copy_from(device_->state());
  engine_->set_active_command(std::nullopt);
}

bool EsChecker::strategy_enabled(Strategy s) const {
  return engine::strategy_enabled(config_, s);
}

CheckResult EsChecker::check(const IoAccess& io) {
  shadow_.clear_locals();
  engine::RoundOptions opts;
  // Fault-injection seam: model an internal checker malfunction this round.
  if (hooks_.fault_hook) {
    const InternalFault fault = hooks_.fault_hook(shadow_);
    if (fault.throw_in_traversal) {
      throw CheckerFault("injected traversal fault");
    }
    opts.suppress_termination = fault.suppress_termination;
  }
  return engine_->check(io, opts);
}

bool EsChecker::before_access(Device& device, const IoAccess& io) {
  if (degraded_) {
    // Fail-open degraded mode: serve unprotected rounds until the next
    // self-heal attempt, then resync the shadow and re-attach.
    if (degraded_rounds_since_heal_ + 1 >= config_.self_heal_interval) {
      resync();
      degraded_ = false;
      degraded_rounds_since_heal_ = 0;
      ++stats_.self_heals;
      emit_report(Report::Kind::kSelfHeal, Strategy::kParameter,
                  sedspec::kInvalidSite);
      emit_event(kSelfHeal);
      // Fall through: this round is checked again.
    } else {
      ++degraded_rounds_since_heal_;
      ++stats_.rounds;
      ++stats_.degraded_rounds;
      pending_resync_ = true;  // track whatever the device does unchecked
      return true;
    }
  }
  try {
    return guarded_before_access(device, io);
  } catch (const std::exception& e) {
    return contain_fault(device, e.what(), /*count_round=*/true);
  } catch (...) {
    return contain_fault(device, "unknown checker fault",
                         /*count_round=*/true);
  }
}

bool EsChecker::contain_fault(Device& device, const std::string& what,
                              bool count_round) {
  if (count_round) {
    ++stats_.rounds;
  }
  ++stats_.contained_faults;
  log_warn("checker") << cfg_->device_name << ": contained internal fault ("
                      << failure_policy_name(config_.failure_policy)
                      << ") — " << what;
  if (config_.failure_policy == FailurePolicy::kFailClosed) {
    // Quarantine: power-cycle the device to a known-good state, rebuild the
    // shadow from it, and re-arm. Protection never lapses; availability
    // costs one device reset.
    ++stats_.fail_closed_faults;
    ++stats_.quarantines;
    emit_report(Report::Kind::kQuarantine, Strategy::kParameter,
                sedspec::kInvalidSite);
    if (count_round) {
      ++stats_.blocked;
    }
    emit_event(kQuarantine);
    device.reset();
    resync();
    if (checkpoint_ != nullptr) {
      checkpoint_->copy_from(device.state());
    }
    pending_resync_ = false;
    last_ = {};
    last_.blocked = true;
    return false;
  }
  // Fail-open: the access proceeds unprotected; alert and schedule a
  // self-heal.
  ++stats_.fail_open_faults;
  emit_report(Report::Kind::kDegraded, Strategy::kParameter,
              sedspec::kInvalidSite);
  if (count_round) {
    ++stats_.degraded_rounds;
  }
  degraded_ = true;
  degraded_rounds_since_heal_ = 0;
  pending_resync_ = true;
  last_ = {};
  return true;
}

bool EsChecker::guarded_before_access(Device& device, const IoAccess& io) {
  const std::optional<uint64_t> saved_cmd = engine_->active_command();
  // Latency probe: gated on the global timing switch so the untimed hot
  // path pays one relaxed load, no clock reads.
  const bool timed = obs::timing_enabled();
  const uint64_t t0 = timed ? obs::now_ns() : 0;
  last_ = check(io);
  if (timed) {
    const uint64_t dt = obs::now_ns() - t0;
    stats_.check_ns += dt;
    latency_hist_->record(dt);
  }
  ++stats_.rounds;
  stats_.total_steps += last_.steps;
  // Flight-recorder ring: one fixed-cost event per checked round so an
  // incident bundle carries the last-K rounds of context (address + step
  // count identify what the guest was driving).
  if (hooks_.local_tracer != nullptr) {
    hooks_.local_tracer->record(obs::EventType::kIoAccess,
                                ring_keys_[io.is_write ? kIoWrite : kIoRead],
                                io.addr, last_.steps);
  }
  if (!last_.clean()) [[unlikely]] {
    return violation_round(device, saved_cmd);
  }
  ++stats_.clean_rounds;
  return true;
}

bool EsChecker::violation_round(Device& device,
                                std::optional<uint64_t> saved_cmd) {
  violations_counter_->inc(last_.violations.size());
  for (const Violation& v : last_.violations) {
    const auto s = static_cast<uint8_t>(v.strategy);
    ++stats_.violations_by_strategy[s];
    emit_report(Report::Kind::kViolation, v.strategy, v.site);
    emit_event(static_cast<EventId>(kViolation + s), v.site);
  }

  if (config_.monitor_only) {
    ++stats_.warnings;
    // Keep the shadow aligned with whatever the device actually does.
    pending_resync_ = true;
    return true;
  }

  bool block_access = false;
  if (config_.mode == Mode::kProtection) {
    block_access = true;
  } else {
    // Enhancement mode: only the parameter check halts execution.
    block_access = last_.any(Strategy::kParameter);
  }

  if (block_access) {
    ++stats_.blocked;
    last_.blocked = true;
    emit_report(Report::Kind::kBlocked,
                last_.violations.front().strategy,
                last_.violations.front().site);
    if (config_.rollback_on_violation && checkpoint_ != nullptr) {
      // Rollback recovery: restore the control structure to the last clean
      // checkpoint; the device stays available.
      device.state().copy_from(*checkpoint_);
      ++stats_.rollbacks;
    } else if (config_.mode == Mode::kProtection) {
      device.set_halted(true);
      last_.halted = true;
    }
    // The device will not execute this access: discard the speculative
    // shadow mutations by resynchronizing from the (possibly rolled-back)
    // device.
    shadow_.copy_from(device.state());
    if (config_.rollback_on_violation) {
      // The checkpoint predates the current command.
      engine_->set_active_command(std::nullopt);
    } else {
      engine_->set_active_command(saved_cmd);
    }
    log_warn("checker") << cfg_->device_name << ": blocked I/O — "
                        << last_.violations.front().detail;
    return false;
  }

  ++stats_.warnings;
  for (const Violation& v : last_.violations) {
    log_warn("checker") << cfg_->device_name << ": warning ("
                        << strategy_name(v.strategy) << ") — " << v.detail;
  }
  // The device executes the access; pick up its authoritative state
  // afterwards so the warning does not cascade into follow-on divergence.
  pending_resync_ = config_.resync_after_warning;
  return true;
}

void EsChecker::publish_metrics(obs::MetricsRegistry& registry) const {
  publish_checker_stats(registry, metrics_label(), stats_);
}

void EsChecker::after_access(Device& device, const IoAccess& /*io*/) {
  try {
    if (checkpoint_ != nullptr && last_.clean() && !degraded_) {
      checkpoint_->copy_from(device.state());
    }
    if (pending_resync_) {
      shadow_.copy_from(device.state());
      // The warned-about round may have left command tracking stale; drop it
      // so one warning cannot cascade into access-table false positives.
      engine_->set_active_command(std::nullopt);
      pending_resync_ = false;
    }
  } catch (const std::exception& e) {
    // The round was already counted in before_access.
    contain_fault(device, e.what(), /*count_round=*/false);
  } catch (...) {
    contain_fault(device, "unknown checker fault", /*count_round=*/false);
  }
}

}  // namespace sedspec::checker
