// Compiled check engine (DESIGN.md §12): the bytecode engine must be
// observationally identical to the reference interpreter — same violations
// (including detail strings), same traversal step counts, same shadow-state
// bytes, same exceptions — on every device, on hostile input, on the CVE
// exploit matrix, and on fuzzed machine-generated specs. A precompiled
// program must pass the verifier before it can attach, and a garbled one
// that slips past it must still run memory-safely.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "checker/checker.h"
#include "checker/engine/bytecode.h"
#include "checker/engine/engine.h"
#include "devices/fdc.h"
#include "guest/exploits.h"
#include "guest/workload.h"
#include "sedspec/enforcement.h"
#include "sedspec/pipeline.h"
#include "spec/es_cfg.h"
#include "spec/serial.h"

namespace sedspec {
namespace {

using checker::CheckResult;
using checker::CheckerConfig;
using checker::CheckerFault;
using checker::EngineKind;
using checker::engine::BytecodeEngine;
using checker::engine::CheckEngine;
using checker::engine::Op;
using checker::engine::RoundOptions;
using checker::engine::make_engine;
using namespace eb;  // expr builders: c/param/local/io/bin/un/cast
using namespace sb;  // stmt builders: assign/assign_local/buf_store/buf_fill

struct Recorder final : public IoProxy {
  checker::EsChecker* inner = nullptr;
  std::vector<IoAccess> log;
  bool before_access(Device& d, const IoAccess& io) override {
    log.push_back(io);
    return inner->before_access(d, io);
  }
  void after_access(Device& d, const IoAccess& io) override {
    inner->after_access(d, io);
  }
};

// Outcome of one engine round, exceptions included, for exact comparison.
struct RoundOutcome {
  bool threw_fault = false;
  bool threw_logic = false;
  std::string what;
  CheckResult result;
};

RoundOutcome one_round(CheckEngine& eng, StateArena& shadow,
                       const IoAccess& io, const RoundOptions& opts = {}) {
  RoundOutcome out;
  shadow.clear_locals();
  try {
    out.result = eng.check(io, opts);
  } catch (const CheckerFault& f) {
    out.threw_fault = true;
    out.what = f.what();
  } catch (const std::logic_error& e) {
    out.threw_logic = true;
    out.what = e.what();
  }
  return out;
}

void expect_lockstep(const RoundOutcome& a, const RoundOutcome& b,
                     const StateArena& sa, const StateArena& sb,
                     const std::string& ctx) {
  ASSERT_EQ(a.threw_fault, b.threw_fault) << ctx;
  ASSERT_EQ(a.threw_logic, b.threw_logic) << ctx;
  if (a.threw_fault) {
    ASSERT_EQ(a.what, b.what) << ctx;  // CheckerFault text
  }
  ASSERT_EQ(a.result.steps, b.result.steps) << ctx;
  ASSERT_EQ(a.result.violations.size(), b.result.violations.size()) << ctx;
  for (size_t i = 0; i < a.result.violations.size(); ++i) {
    const checker::Violation& va = a.result.violations[i];
    const checker::Violation& vb = b.result.violations[i];
    ASSERT_EQ(va.strategy, vb.strategy) << ctx << " violation " << i;
    ASSERT_EQ(va.site, vb.site) << ctx << " violation " << i;
    ASSERT_EQ(va.detail, vb.detail) << ctx << " violation " << i;
  }
  const auto ba = sa.bytes();
  const auto bb = sb.bytes();
  ASSERT_EQ(ba.size(), bb.size()) << ctx;
  ASSERT_TRUE(std::equal(ba.begin(), ba.end(), bb.begin()))
      << ctx << ": shadow state diverged";
}

// Replays `stream` through an interpreter and a bytecode engine built from
// the same spec under `config`, asserting per-round lockstep. The
// interpreter's outcomes are appended to `outcomes` when it is non-null.
void run_lockstep(const spec::EsCfg& es, Device& device,
                  const std::vector<IoAccess>& stream,
                  const std::string& ctx, const CheckerConfig& config = {},
                  const RoundOptions& opts = {},
                  std::vector<RoundOutcome>* outcomes = nullptr) {
  CheckerConfig icfg = config;
  icfg.engine = EngineKind::kInterpreter;
  CheckerConfig bcfg = config;
  bcfg.engine = EngineKind::kBytecode;
  StateArena ishadow(&device.program().layout());
  StateArena bshadow(&device.program().layout());
  ishadow.copy_from(device.state());
  bshadow.copy_from(device.state());
  const auto ie = make_engine(&es, &device, &ishadow, &icfg);
  const auto be = make_engine(&es, &device, &bshadow, &bcfg);
  for (size_t i = 0; i < stream.size(); ++i) {
    const RoundOutcome ia = one_round(*ie, ishadow, stream[i], opts);
    const RoundOutcome ba = one_round(*be, bshadow, stream[i], opts);
    expect_lockstep(ia, ba, ishadow, bshadow,
                    ctx + " round " + std::to_string(i));
    ASSERT_EQ(ie->active_command(), be->active_command())
        << ctx << " round " << i;
    if (outcomes != nullptr) {
      outcomes->push_back(ia);
    }
  }
}

// Benign guest traffic on `wl`'s device, recorded through a default
// checker deployed with `es`.
std::vector<IoAccess> record_benign_stream(guest::DeviceWorkload& wl,
                                           const spec::EsCfg& es) {
  checker::CheckerConfig cfg;
  checker::EsChecker ck(&es, &wl.device(), cfg);
  Recorder rec;
  rec.inner = &ck;
  wl.bus().set_proxy(&rec);
  Rng rng(4242);
  for (int i = 0; i < 80; ++i) {
    wl.common_operation(guest::InteractionMode::kRandom, rng);
  }
  wl.bus().set_proxy(nullptr);
  return std::move(rec.log);
}

// ---------------------------------------------------------------------------
// 1. Every device, benign recorded traffic + hostile random traffic.
// ---------------------------------------------------------------------------

std::string device_test_name(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class CheckEngineDifferential : public ::testing::TestWithParam<std::string> {
};

INSTANTIATE_TEST_SUITE_P(AllDevices, CheckEngineDifferential,
                         ::testing::ValuesIn(guest::workload_names()),
                         device_test_name);

TEST_P(CheckEngineDifferential, BenignStreamLockstep) {
  auto wl = guest::make_workload(GetParam());
  const spec::EsCfg es =
      pipeline::build_spec(wl->device(), [&] { wl->training(); });
  const std::vector<IoAccess> stream = record_benign_stream(*wl, es);
  ASSERT_FALSE(stream.empty());
  run_lockstep(es, wl->device(), stream, GetParam() + "/benign");
}

TEST_P(CheckEngineDifferential, HostileStreamLockstep) {
  auto wl = guest::make_workload(GetParam());
  const spec::EsCfg es =
      pipeline::build_spec(wl->device(), [&] { wl->training(); });

  // Hostile traffic: addresses clustered around the trained entry keys so
  // plenty of rounds actually traverse the graph with attacker-controlled
  // values, plus pure noise that must miss the dispatch identically.
  std::vector<uint64_t> addrs;
  for (const auto& [key, site] : es.entry_dispatch) {
    addrs.push_back(key.addr);
  }
  ASSERT_FALSE(addrs.empty());
  Rng rng(0xbadc0de);
  std::vector<IoAccess> stream;
  for (int i = 0; i < 600; ++i) {
    IoAccess io;
    io.space = rng.below(2) == 0 ? IoSpace::kPio : IoSpace::kMmio;
    io.addr = rng.below(4) == 0 ? rng.next_u64() % 0x20000000
                                : addrs[rng.below(addrs.size())];
    io.size = static_cast<uint8_t>(1u << rng.below(4));
    io.value = rng.next_u64() >> (8 * rng.below(8));
    io.is_write = rng.below(2) == 0;
    stream.push_back(io);
  }
  run_lockstep(es, wl->device(), stream, GetParam() + "/hostile");
}

// u64 products that overflow even __int128 (max * max) and shifts by 63:
// both engines must flag the overflow and keep the same low 64 bits.
TEST(CheckEngineDifferential2, WideArithmeticLockstep) {
  auto wl = guest::make_workload("fdc");
  Device& device = wl->device();
  const StateLayout& layout = device.program().layout();
  ParamId scalar = 0;
  while (layout.field(scalar).is_buffer()) {
    ++scalar;
  }
  const auto v = [] { return io_value(IntType::kU64); };
  spec::EsCfg es;
  es.device_name = device.name();
  spec::EsBlock b;
  b.site = 0;
  b.name = "wide";
  b.max_visits_per_round = 1;
  b.kind = BlockKind::kConditional;
  b.dsod.push_back(assign_local(0, mul(v(), v(), IntType::kU64)));
  b.dsod.push_back(
      assign_local(1, mul(c(UINT64_MAX), c(UINT64_MAX), IntType::kU64)));
  b.dsod.push_back(assign_local(2, shl(v(), c(63), IntType::kU64)));
  b.dsod.push_back(
      assign(scalar, shl(v(), c(63, IntType::kI64), IntType::kI64)));
  b.guard = bin(BinaryOp::kEq, mul(v(), v(), IntType::kU64), c(1),
                IntType::kU64);
  b.taken.observed = true;
  b.taken.ends = true;
  b.not_taken.observed = true;
  b.not_taken.ends = true;
  es.blocks[0] = std::move(b);
  es.entry_dispatch[IoKey{IoSpace::kPio, 0, true}] = 0;

  std::vector<IoAccess> stream;
  Rng rng(0x63);
  for (const uint64_t value : {UINT64_MAX, uint64_t{1} << 63,
                               (uint64_t{1} << 32) + 1, uint64_t{1},
                               uint64_t{0}, uint64_t{3} << 62}) {
    stream.push_back(IoAccess{IoSpace::kPio, 0, 8, value, true});
  }
  for (int i = 0; i < 64; ++i) {
    stream.push_back(IoAccess{IoSpace::kPio, 0, 8, rng.next_u64(), true});
  }
  run_lockstep(es, device, stream, "wide");
}

// The bytecode prolog folds the step budget and the watchdog into one
// compare against a per-round step limit. Pin both ends against the
// interpreter: budgets so small that walks stop at their first few blocks,
// and watchdog trips (whose CheckerFault text must match) under suppressed
// termination and under a max_steps whose +1 wraps, where the watchdog
// fires before the budget.
TEST(CheckEngineDifferential2, StepLimitBoundariesLockstep) {
  for (const std::string name : {"fdc", "sdhci"}) {
    auto wl = guest::make_workload(name);
    const spec::EsCfg es =
        pipeline::build_spec(wl->device(), [&] { wl->training(); });
    const std::vector<IoAccess> stream = record_benign_stream(*wl, es);
    ASSERT_FALSE(stream.empty()) << name;

    size_t budget_stops = 0;
    for (const uint64_t max_steps : {0, 1, 2, 3}) {
      CheckerConfig config;
      config.max_steps = max_steps;
      std::vector<RoundOutcome> outcomes;
      run_lockstep(es, wl->device(), stream,
                   name + "/max_steps=" + std::to_string(max_steps), config,
                   {}, &outcomes);
      for (const RoundOutcome& o : outcomes) {
        for (const checker::Violation& v : o.result.violations) {
          budget_stops +=
              v.detail == checker::engine::detail::kBudgetExceeded ? 1 : 0;
        }
      }
    }
    EXPECT_GT(budget_stops, 0u) << name << ": no walk hit the budget";

    struct WatchdogCase {
      uint64_t max_steps;
      uint64_t watchdog_steps;
      bool suppress;
    };
    for (const WatchdogCase w : {WatchdogCase{1, 0, true},
                                 WatchdogCase{1, 3, true},
                                 WatchdogCase{UINT64_MAX, 3, false}}) {
      CheckerConfig config;
      config.max_steps = w.max_steps;
      config.watchdog_steps = w.watchdog_steps;
      const std::string ctx = name + "/max_steps=" +
                              std::to_string(w.max_steps) + "/watchdog=" +
                              std::to_string(w.watchdog_steps);
      std::vector<RoundOutcome> outcomes;
      run_lockstep(es, wl->device(), stream, ctx, config,
                   RoundOptions{.suppress_termination = w.suppress},
                   &outcomes);
      EXPECT_TRUE(std::any_of(outcomes.begin(), outcomes.end(),
                              [](const RoundOutcome& o) {
                                return o.threw_fault;
                              }))
          << ctx << ": the watchdog never tripped";
    }
  }
}

// The visit bound is max(64, 8 * trained max) (engine::visit_bound). A
// block that loops on itself walks until its visit count passes that
// bound, so the round takes exactly bound + 1 steps and ends with one
// conditional-jump violation. Trained maxima on both sides of the 64 floor
// pin the formula in both engines.
TEST(CheckEngineDifferential2, VisitBoundBoundaryLockstep) {
  auto wl = guest::make_workload("fdc");
  struct Case {
    uint64_t trained_max;
    uint64_t steps;
  };
  for (const Case k : {Case{1, 65}, Case{8, 65}, Case{9, 73},
                       Case{100, 801}}) {
    spec::EsCfg es;
    es.device_name = wl->device().name();
    spec::EsBlock b;
    b.site = 0;
    b.name = "spin";
    b.max_visits_per_round = k.trained_max;
    b.kind = BlockKind::kPlain;
    b.has_succ = true;
    b.succ = 0;
    es.blocks[0] = std::move(b);
    es.entry_dispatch[IoKey{IoSpace::kPio, 0, true}] = 0;
    const std::string ctx = "trained max " + std::to_string(k.trained_max);
    // Lockstep pins the bytecode engine to the interpreter's steps and
    // detail strings; the outcomes checked below are the interpreter's.
    std::vector<RoundOutcome> outcomes;
    run_lockstep(es, wl->device(), {IoAccess{IoSpace::kPio, 0, 1, 0, true}},
                 ctx, {}, {}, &outcomes);
    ASSERT_EQ(outcomes.size(), 1u) << ctx;
    const CheckResult& r = outcomes[0].result;
    EXPECT_EQ(r.steps, k.steps) << ctx;
    ASSERT_EQ(r.violations.size(), 1u) << ctx;
    EXPECT_EQ(r.violations[0].strategy, checker::Strategy::kConditionalJump)
        << ctx;
    EXPECT_EQ(r.violations[0].detail,
              checker::engine::detail::visit_bound("spin", k.steps,
                                                   k.trained_max))
        << ctx;
  }
}

// A device whose layout has more fields than an operand id (11 bits) can
// name: 0x901 u32 scalars, then a 16-byte buffer.
class WideDevice final : public Device {
 public:
  explicit WideDevice(const DeviceProgram* program) : Device(program) {}
  uint64_t io_read(const IoAccess&) override { return 0; }
  void io_write(const IoAccess&) override {}

 protected:
  void reset_device() override {}
};

std::unique_ptr<DeviceProgram> wide_program() {
  StateLayout layout("wide");
  for (int i = 0; i <= 0x900; ++i) {
    layout.add_scalar("f" + std::to_string(i), FieldKind::kRegister,
                      IntType::kU32);
  }
  layout.add_buffer("buf", 1, 16);
  auto program =
      std::make_unique<DeviceProgram>("wide", std::move(layout), 0x1000);
  program->add_plain("only", {});
  return program;
}

// The operand encoding's edges, each against the interpreter: leaves the
// encoding cannot express (a constant past pool index 0x7ff, a param id
// above 0x7ff, a buffer field, a garbled id) fall back to a load dispatch;
// casts of constants fold; only unsigned widening casts are elided; and a
// fused compare whose operand is a register that raises a diag runs the
// guard diag protocol. Each case also pins the lowering it exercises.
TEST(CheckEngineDifferential2, OperandEncodingEdgesLockstep) {
  const auto program = wide_program();
  WideDevice device(program.get());
  constexpr ParamId kHigh = 0x900;
  constexpr ParamId kBuf = 0x901;
  device.state().set_param(kHigh, 0x89abcdef);
  device.state().set_param(1, 0x55);
  const IntType U8 = IntType::kU8;
  const IntType U16 = IntType::kU16;
  const IntType U32 = IntType::kU32;
  const IntType I8 = IntType::kI8;
  const IntType I64 = IntType::kI64;
  const auto v = [](IntType t) { return io_value(t); };

  std::vector<IoAccess> stream;
  for (const uint64_t value :
       {uint64_t{0}, uint64_t{1}, uint64_t{10}, uint64_t{55}, uint64_t{56},
        uint64_t{0x7f}, uint64_t{0x80}, uint64_t{0xff}, uint64_t{0x1ff},
        uint64_t{0x8000}, uint64_t{0x12345678}, uint64_t{0xfffffffe},
        UINT64_MAX}) {
    stream.push_back(IoAccess{IoSpace::kPio, 0, 4, value, true});
  }

  struct Case {
    const char* what;
    StmtList dsod;
    ExprRef guard;
    std::function<void(const size_t* count)> pin;
  };
  std::vector<Case> cases;
  const auto n = [](const size_t* count, Op op) {
    return count[static_cast<size_t>(op)];
  };

  {
    // 0x820 distinct constants: the last 0x20 sit past pool index 0x7ff.
    StmtList dsod;
    for (uint64_t i = 0; i < 0x820; ++i) {
      dsod.push_back(assign_local(1, c(0x10000 + i, U32)));
    }
    dsod.push_back(assign(2, add(v(U32), c(0x10000 + 0x810, U32), U32)));
    cases.push_back({"constant pool past 0x7ff", std::move(dsod),
                     ge(v(U32), c(0x10000 + 0x815, U32)),
                     [&](const size_t* count) {
                       EXPECT_EQ(n(count, Op::kConst), 0x20u + 2);
                     }});
  }
  {
    StmtList dsod;
    dsod.push_back(assign(2, add(param(kHigh, U32), v(U32), U32)));
    cases.push_back({"param id above 0x7ff", std::move(dsod),
                     lt(param(kHigh, U16), v(U16)),
                     [&](const size_t* count) {
                       EXPECT_EQ(n(count, Op::kLoadParam), 2u);
                     }});
  }
  {
    StmtList dsod;
    dsod.push_back(assign_local(2, add(param(kBuf, U32), c(1, U32), U32)));
    cases.push_back({"buffer field", std::move(dsod), c(1),
                     [&](const size_t* count) {
                       EXPECT_EQ(n(count, Op::kLoadParam), 1u);
                     }});
  }
  {
    StmtList dsod;
    dsod.push_back(assign(2, add(param(0x7000, U32), v(U32), U32)));
    cases.push_back({"garbled param id", std::move(dsod), c(1),
                     [&](const size_t* count) {
                       EXPECT_EQ(n(count, Op::kLoadParam), 1u);
                     }});
  }
  {
    // Casts of constants fold to a constant operand: no kCast, no kConst.
    StmtList dsod;
    dsod.push_back(assign(2, cast(c(0x1ff), U8)));
    dsod.push_back(assign(3, cast(c(0x80, I8), U32)));
    dsod.push_back(assign(4, cast(cast(c(0x12345), U8), I64)));
    dsod.push_back(assign_local(5, add(cast(c(0xfff), U8), v(U8), U8)));
    cases.push_back({"cast of a constant", std::move(dsod),
                     eq(cast(c(0x1ff), U8), v(U8)),
                     [&](const size_t* count) {
                       EXPECT_EQ(n(count, Op::kCast), 0u);
                       EXPECT_EQ(n(count, Op::kConst), 0u);
                     }});
  }
  {
    // (u32)(u8)value keeps the narrowing inner cast and elides the outer
    // widening one; (u64)(u16)(u8)value elides both widenings.
    StmtList dsod;
    dsod.push_back(assign(2, cast(cast(v(U32), U8), U32)));
    dsod.push_back(assign(3, cast(cast(cast(v(U8), U8), U16), IntType::kU64)));
    dsod.push_back(
        assign_local(4, add(cast(add(v(U8), c(1, U8), U8), U32), v(U32), U32)));
    cases.push_back({"cast of a cast", std::move(dsod),
                     ge(cast(cast(v(U32), U16), U32), c(0x100, U32)),
                     [&](const size_t* count) {
                       EXPECT_EQ(n(count, Op::kCast), 2u);
                     }});
  }
  {
    // Signed sources, signed targets and narrowings all stay.
    StmtList dsod;
    dsod.push_back(assign(2, cast(v(I8), U32)));
    dsod.push_back(assign(3, cast(v(U8), I64)));
    dsod.push_back(assign(4, cast(v(U32), U16)));
    dsod.push_back(assign_local(5, cast(sub(v(U8), c(1, U8), U8), I8)));
    cases.push_back({"signed or narrowing cast", std::move(dsod),
                     lt(cast(v(U32), I8), c(0, I8)),
                     [&](const size_t* count) {
                       EXPECT_EQ(n(count, Op::kCast), 5u);
                     }});
  }
  {
    // u8 overflow in the guard's register operand: the fused compare must
    // report it as a guard diag before taking a direction.
    cases.push_back({"guard register operand raises a diag", {},
                     ge(add(v(U8), c(200, U8), U8), c(10, U8)),
                     [&](const size_t* count) {
                       EXPECT_EQ(n(count, Op::kGuardCmpBranch), 1u);
                       EXPECT_EQ(n(count, Op::kAdd), 1u);
                     }});
    cases.push_back({"guard operand reads a missing local", {},
                     lt(local(7, U32), v(U32)),
                     [&](const size_t* count) {
                       EXPECT_EQ(n(count, Op::kGuardCmpBranch), 1u);
                     }});
    cases.push_back({"guard operand reads a buffer out of bounds", {},
                     ne(buf_load(kBuf, v(U32), U8), c(0, U8)),
                     [&](const size_t* count) {
                       EXPECT_EQ(n(count, Op::kGuardCmpBranch), 1u);
                     }});
  }
  // A guard that is not a comparison branches on its raw value != 0: a
  // constant with bits above its type is taken, as in the interpreter.
  for (ExprRef guard : {c(0x100, U8), v(U8), band(v(U32), c(3, U32), U32),
                        land(v(U8), c(1, U8))}) {
    cases.push_back({"guard that is not a comparison", {}, guard,
                     [&](const size_t* count) {
                       EXPECT_EQ(n(count, Op::kGuardCmpBranch), 1u);
                     }});
  }

  size_t guard_diags = 0;
  size_t guard_missing_locals = 0;
  size_t logic_errors = 0;
  for (Case& k : cases) {
    spec::EsCfg es;
    es.device_name = device.name();
    spec::EsBlock b;
    b.site = 0;
    b.name = "edge";
    b.max_visits_per_round = 1;
    b.kind = BlockKind::kConditional;
    b.dsod = std::move(k.dsod);
    b.guard = k.guard;
    // Only the taken direction is trained, so every round's direction
    // shows in its violations.
    b.taken.observed = true;
    b.taken.ends = true;
    es.blocks[0] = std::move(b);
    es.entry_dispatch[IoKey{IoSpace::kPio, 0, true}] = 0;

    const auto compiled = checker::engine::compile_program(es, device);
    size_t count[static_cast<size_t>(Op::kOpCount)] = {};
    for (const checker::engine::Insn& ins : compiled->code) {
      ++count[ins.op];
    }
    k.pin(count);

    std::vector<RoundOutcome> outcomes;
    run_lockstep(es, device, stream, k.what, {}, {}, &outcomes);
    for (const RoundOutcome& o : outcomes) {
      logic_errors += o.threw_logic ? 1 : 0;
      for (const checker::Violation& viol : o.result.violations) {
        guard_diags += viol.detail.starts_with("in guard: ") ? 1 : 0;
        guard_missing_locals +=
            viol.detail == checker::engine::detail::kGuardUnresolvedSync ? 1
                                                                          : 0;
      }
    }
  }
  // The diag and fault cases must actually have fired.
  EXPECT_GT(guard_diags, 0u);
  EXPECT_EQ(guard_missing_locals, stream.size());
  EXPECT_EQ(logic_errors, 2 * stream.size());
}

// A blocked protection-mode round must not leave behind the command its
// walk latched: EsChecker restores the pre-round latch, or clears it when
// rollback recovery restored an older checkpoint.
TEST(CheckEngineDifferential2, BlockedRoundRestoresCommandLatch) {
  // Block 0 decodes the written value as a command; command 5 continues to
  // block 1, whose guard is always true but only the false direction was
  // trained, so every walk through command 5 is blocked after the latch
  // moved.
  auto wl = guest::make_workload("fdc");
  spec::EsCfg es;
  es.device_name = wl->device().name();
  spec::EsBlock decode;
  decode.site = 0;
  decode.name = "decode";
  decode.max_visits_per_round = 1;
  decode.kind = BlockKind::kCmdDecision;
  decode.cmd_expr = io_value(IntType::kU8);
  decode.cmd_dispatch[5] = spec::CondDir{.observed = true, .succ = 1};
  es.blocks[0] = std::move(decode);
  spec::EsBlock reject;
  reject.site = 1;
  reject.name = "reject";
  reject.max_visits_per_round = 1;
  reject.kind = BlockKind::kConditional;
  reject.guard = c(1);
  reject.not_taken.observed = true;
  reject.not_taken.ends = true;
  es.blocks[1] = std::move(reject);
  es.commands[5].access = {0, 1};
  es.commands[7].access = {0, 1};
  es.entry_dispatch[IoKey{IoSpace::kPio, 0, true}] = 0;
  const IoAccess io{IoSpace::kPio, 0, 1, 5, true};

  for (const EngineKind kind :
       {EngineKind::kInterpreter, EngineKind::kBytecode}) {
    for (const bool rollback : {false, true}) {
      const std::string ctx = std::string(kind == EngineKind::kBytecode
                                              ? "bytecode"
                                              : "interpreter") +
                              (rollback ? "/rollback" : "/protection");
      auto fresh = guest::make_workload("fdc");
      CheckerConfig config;
      config.engine = kind;
      config.rollback_on_violation = rollback;
      checker::EsChecker ck(&es, &fresh->device(), config);

      // The bare round dispatches command 5 before it fails ...
      ck.engine().set_active_command(7);
      ck.shadow().clear_locals();
      const CheckResult bare = ck.engine().check(io, RoundOptions{});
      ASSERT_FALSE(bare.clean()) << ctx;
      ASSERT_EQ(ck.engine().active_command(), std::optional<uint64_t>(5))
          << ctx;

      // ... so the checked access must undo that.
      ck.engine().set_active_command(7);
      EXPECT_FALSE(ck.before_access(fresh->device(), io)) << ctx;
      EXPECT_TRUE(ck.last_result().blocked) << ctx;
      EXPECT_EQ(ck.engine().active_command(),
                rollback ? std::nullopt : std::optional<uint64_t>(7))
          << ctx;
    }
  }
}

// ---------------------------------------------------------------------------
// 2. The eight-CVE exploit matrix: identical verdicts per engine, and both
//    engines still reproduce the paper's Table III expectations.
// ---------------------------------------------------------------------------

TEST(CheckEngineDifferential2, ExploitMatrixIdenticalAcrossEngines) {
  for (const guest::ExploitScenario& scenario : guest::exploit_scenarios()) {
    const auto& info = scenario.info();
    const auto interp = scenario.evaluate(EngineKind::kInterpreter);
    const auto byte = scenario.evaluate(EngineKind::kBytecode);
    EXPECT_EQ(interp.unprotected_compromised, byte.unprotected_compromised)
        << info.cve;
    EXPECT_EQ(interp.parameter, byte.parameter) << info.cve;
    EXPECT_EQ(interp.indirect, byte.indirect) << info.cve;
    EXPECT_EQ(interp.conditional, byte.conditional) << info.cve;
    EXPECT_EQ(interp.detected, byte.detected) << info.cve;
    EXPECT_EQ(interp.protected_compromised, byte.protected_compromised)
        << info.cve;
    // Both engines must also match the paper, not merely each other.
    EXPECT_EQ(byte.detected, info.expect_detected) << info.cve;
    EXPECT_EQ(byte.parameter, info.expect_parameter) << info.cve;
    EXPECT_EQ(byte.indirect, info.expect_indirect) << info.cve;
    EXPECT_EQ(byte.conditional, info.expect_conditional) << info.cve;
  }
}

// ---------------------------------------------------------------------------
// 3. Fuzzed specs: machine-generated ES-CFGs (valid or structurally broken)
//    against the real fdc layout. Both engines must agree on whether the
//    spec is malformed, and — when it builds — on every round's outcome.
// ---------------------------------------------------------------------------

ExprRef rnd_operand(Rng& rng, const StateLayout& layout) {
  const auto t = static_cast<IntType>(rng.below(8));
  switch (rng.below(4)) {
    case 0:
      return c(rng.next_u64() >> (8 * rng.below(8)), t);
    case 1: {
      const auto id = static_cast<ParamId>(rng.below(layout.field_count()));
      return layout.field(id).is_buffer() ? io_value(t) : param(id, t);
    }
    case 2:
      return local(static_cast<LocalId>(rng.below(4)), t);
    default:
      return io(static_cast<IoField>(rng.below(5)), t);
  }
}

ExprRef rnd_expr(Rng& rng, const StateLayout& layout, int depth) {
  if (depth <= 0 || rng.below(3) == 0) {
    return rnd_operand(rng, layout);
  }
  const auto t = static_cast<IntType>(rng.below(8));
  switch (rng.below(6)) {
    case 0:
      return un(static_cast<UnaryOp>(rng.below(3)),
                rnd_expr(rng, layout, depth - 1), t);
    case 1:
      return cast(rnd_expr(rng, layout, depth - 1), t);
    default:
      // Full operator set, division and shifts included, so the diag
      // protocol (div-by-zero, shift-range) is exercised differentially.
      return bin(static_cast<BinaryOp>(rng.below(18)),
                 rnd_expr(rng, layout, depth - 1),
                 rnd_expr(rng, layout, depth - 1), t);
  }
}

// Base of the far address/target range a `wide` spec draws from half the
// time: far enough from the near range (below 32 for entries, below 64
// for indirect targets) that an entry group spanning both compiles to the
// sparse sorted form (span >= 4096) and an edge set spanning both to the
// sorted form (span >= 2^16), which no shipped spec reaches. The far
// target still fits the 32-bit fields an indirect block jumps through.
constexpr uint64_t kFarAddr = 0x100000;
constexpr uint64_t kFarTarget = uint64_t{1} << 20;

uint64_t rnd_entry_addr(Rng& rng, bool wide) {
  const uint64_t near = rng.below(8) * 4;
  return wide && rng.below(2) == 0 ? kFarAddr + near : near;
}

spec::EsCfg rnd_cfg(Rng& rng, const StateLayout& layout,
                    const std::string& device_name, bool wide) {
  spec::EsCfg cfg;
  cfg.device_name = device_name;
  cfg.trained_rounds = 1 + rng.below(4);
  for (size_t i = 0; i < layout.field_count(); ++i) {
    cfg.params.push_back(static_cast<ParamId>(i));
  }
  std::vector<ParamId> buffers;
  std::vector<ParamId> wide_scalars;  // can hold a far target
  for (size_t i = 0; i < layout.field_count(); ++i) {
    const auto& f = layout.field(static_cast<ParamId>(i));
    if (f.is_buffer()) {
      buffers.push_back(static_cast<ParamId>(i));
    } else if (f.size >= 4) {
      wide_scalars.push_back(static_cast<ParamId>(i));
    }
  }
  const auto nblocks = static_cast<SiteId>(1 + rng.below(6));
  // A successor one past the last block is dangling — a structurally
  // malformed spec both engines must reject the same way.
  const auto rnd_site = [&] {
    return static_cast<SiteId>(rng.below(nblocks + 1));
  };
  for (SiteId s = 0; s < nblocks; ++s) {
    spec::EsBlock b;
    b.site = s;
    b.name = "fuzz" + std::to_string(s);
    b.max_visits_per_round = 1 + rng.below(3);
    StmtList dsod;
    const size_t nstmts = rng.below(4);
    for (size_t i = 0; i < nstmts; ++i) {
      switch (rng.below(4)) {
        case 0: {
          const auto id =
              static_cast<ParamId>(rng.below(layout.field_count()));
          if (!layout.field(id).is_buffer()) {
            dsod.push_back(assign(id, rnd_expr(rng, layout, 2)));
          }
          break;
        }
        case 1:
          dsod.push_back(assign_local(static_cast<LocalId>(rng.below(4)),
                                      rnd_expr(rng, layout, 2)));
          break;
        case 2:
          if (!buffers.empty()) {
            dsod.push_back(buf_store(buffers[rng.below(buffers.size())],
                                     rnd_expr(rng, layout, 1),
                                     rnd_expr(rng, layout, 1)));
          }
          break;
        default:
          if (!buffers.empty()) {
            dsod.push_back(buf_fill(buffers[rng.below(buffers.size())],
                                    rnd_expr(rng, layout, 1),
                                    rnd_expr(rng, layout, 1)));
          }
          break;
      }
    }
    b.dsod = std::move(dsod);
    switch (rng.below(4)) {
      case 0: {
        b.kind = BlockKind::kConditional;
        b.guard = bin(static_cast<BinaryOp>(
                          static_cast<int>(BinaryOp::kEq) + rng.below(6)),
                      rnd_expr(rng, layout, 2), rnd_expr(rng, layout, 2),
                      IntType::kU64);
        b.taken.observed = rng.below(4) != 0;
        b.taken.ends = rng.below(3) == 0;
        b.taken.succ = rnd_site();
        b.not_taken.observed = rng.below(4) != 0;
        b.not_taken.ends = rng.below(3) == 0;
        b.not_taken.succ = rnd_site();
        break;
      }
      case 1: {
        b.kind = BlockKind::kCmdDecision;
        b.cmd_expr = rnd_expr(rng, layout, 1);
        const size_t ncmds = 1 + rng.below(3);
        for (size_t i = 0; i < ncmds; ++i) {
          spec::CondDir d;
          d.observed = true;
          d.ends = rng.below(2) == 0;
          d.succ = rnd_site();
          b.cmd_dispatch[rng.below(8)] = d;
          cfg.commands[rng.below(8)].observed = 1;
        }
        break;
      }
      case 2: {
        b.kind = BlockKind::kIndirect;
        b.fp_param = static_cast<ParamId>(rng.below(layout.field_count()));
        if (wide && !wide_scalars.empty()) {
          // Jump through the access value, so the stream's far values
          // hit the sorted edge set as well as miss it.
          b.fp_param = wide_scalars[rng.below(wide_scalars.size())];
          b.dsod.push_back(
              assign(b.fp_param, io(IoField::kValue, IntType::kU64)));
        }
        const size_t ntargets = rng.below(4);
        for (size_t i = 0; i < ntargets; ++i) {
          const uint64_t target = rng.next_u64() % 64;
          b.fp_targets.insert(wide && rng.below(2) == 0 ? kFarTarget + target
                                                        : target);
        }
        b.has_succ = rng.below(2) == 0;
        b.succ = rnd_site();
        b.ends = !b.has_succ;
        break;
      }
      default:
        b.kind = rng.below(4) == 0 ? BlockKind::kCmdEnd : BlockKind::kPlain;
        b.has_succ = rng.below(2) == 0;
        b.succ = rnd_site();
        b.ends = !b.has_succ;
        break;
    }
    cfg.blocks[s] = std::move(b);
  }
  const size_t nentries = 1 + rng.below(4);
  for (size_t i = 0; i < nentries; ++i) {
    IoKey key;
    key.space = rng.below(2) == 0 ? IoSpace::kPio : IoSpace::kMmio;
    key.addr = rnd_entry_addr(rng, wide);
    key.is_write = rng.below(2) == 0;
    cfg.entry_dispatch[key] = rnd_site();
  }
  for (size_t i = 0; i < rng.below(3); ++i) {
    cfg.sync_locals.insert(static_cast<LocalId>(rng.below(4)));
  }
  return cfg;
}

TEST(CheckEngineFuzz, RandomSpecsStayInLockstep) {
  auto wl = guest::make_workload("fdc");
  Device& device = wl->device();
  const StateLayout& layout = device.program().layout();
  Rng rng(0x5edc0de);
  int built = 0;
  int rejected = 0;
  int sparse_groups = 0;
  int sorted_sets = 0;
  // The last 100 iterations draw wide specs and streams, so the sparse
  // entry dispatch and sorted edge sets run too.
  for (int iter = 0; iter < 160; ++iter) {
    const bool wide = iter >= 60;
    const spec::EsCfg es = rnd_cfg(rng, layout, device.name(), wide);
    CheckerConfig icfg;
    icfg.engine = EngineKind::kInterpreter;
    CheckerConfig bcfg;
    bcfg.engine = EngineKind::kBytecode;
    StateArena ishadow(&layout);
    StateArena bshadow(&layout);
    ishadow.copy_from(device.state());
    bshadow.copy_from(device.state());
    std::unique_ptr<CheckEngine> ie;
    std::unique_ptr<CheckEngine> be;
    bool ithrew = false;
    bool bthrew = false;
    try {
      ie = make_engine(&es, &device, &ishadow, &icfg);
    } catch (const std::logic_error&) {
      ithrew = true;
    }
    try {
      be = make_engine(&es, &device, &bshadow, &bcfg);
    } catch (const std::logic_error&) {
      bthrew = true;
    }
    ASSERT_EQ(ithrew, bthrew)
        << "iter " << iter << ": engines disagree on spec validity";
    if (ithrew) {
      ++rejected;
      continue;
    }
    ++built;
    const checker::engine::BytecodeProgram& prog =
        dynamic_cast<const BytecodeEngine&>(*be).program();
    for (const checker::engine::EntryGroup& g : prog.entry) {
      sparse_groups += !g.dense && !g.addrs.empty() ? 1 : 0;
    }
    for (const checker::engine::EdgeSet& e : prog.edges) {
      sorted_sets += e.kind == checker::engine::EdgeSet::kSorted ? 1 : 0;
    }
    std::vector<IoAccess> stream;
    for (int i = 0; i < 120; ++i) {
      IoAccess io;
      io.space = rng.below(2) == 0 ? IoSpace::kPio : IoSpace::kMmio;
      io.addr = rnd_entry_addr(rng, wide);
      io.size = static_cast<uint8_t>(1u << rng.below(4));
      io.value = rng.next_u64() >> (8 * rng.below(8));
      // A value in either trained target range, for the indirect jumps.
      if (wide && rng.below(2) == 0) {
        io.value = (rng.below(2) == 0 ? kFarTarget : 0) + rng.below(64);
      }
      io.is_write = rng.below(2) == 0;
      stream.push_back(io);
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      const RoundOutcome ia = one_round(*ie, ishadow, stream[i]);
      const RoundOutcome ba = one_round(*be, bshadow, stream[i]);
      expect_lockstep(ia, ba, ishadow, bshadow,
                      "fuzz iter " + std::to_string(iter) + " round " +
                          std::to_string(i));
    }
  }
  // The generator must exercise both paths or the test proves less than
  // it claims.
  EXPECT_GT(built, 5);
  EXPECT_GT(rejected, 5);
  EXPECT_GT(sparse_groups, 0);
  EXPECT_GT(sorted_sets, 0);
}

// Every kind of dangling transition target, one minimal spec each. Both
// engines reject each at attach through the shared validate_targets, and a
// persisted copy is a kMalformed load that installs no checker. The fuzz
// test above only shows the engines agree; this shows each kind is caught.
TEST(CheckEngineAttach, EveryDanglingTargetIsRejected) {
  auto wl = guest::make_workload("fdc");
  Device& device = wl->device();
  const SiteId site_count =
      static_cast<SiteId>(device.program().site_count());
  constexpr SiteId kMissing = 1;  // a valid site with no block
  const uint64_t port = devices::FdcDevice::kBasePort;
  // One block at site 0 that ends the round; `defect` breaks it.
  const auto make_spec = [&](const auto& defect) {
    spec::EsCfg es;
    es.device_name = device.name();
    spec::EsBlock b;
    b.site = 0;
    b.name = "only";
    b.max_visits_per_round = 1;
    b.kind = BlockKind::kPlain;
    b.ends = true;
    es.blocks[0] = std::move(b);
    es.entry_dispatch[IoKey{IoSpace::kPio, port, true}] = 0;
    defect(es, es.blocks[0]);
    return es;
  };
  struct Defect {
    const char* what;
    std::function<void(spec::EsCfg&, spec::EsBlock&)> apply;
  };
  const std::vector<Defect> defects = {
      {"block site >= site_count",
       [&](spec::EsCfg& es, spec::EsBlock&) {
         spec::EsBlock extra = es.blocks[0];
         extra.site = site_count;
         es.blocks[site_count] = std::move(extra);
       }},
      {"entry to a missing block",
       [&](spec::EsCfg& es, spec::EsBlock&) {
         es.entry_dispatch[IoKey{IoSpace::kPio, port, false}] = kMissing;
       }},
      {"succ to a missing block",
       [&](spec::EsCfg&, spec::EsBlock& b) {
         b.ends = false;
         b.has_succ = true;
         b.succ = kMissing;
       }},
      {"taken to a missing block",
       [&](spec::EsCfg&, spec::EsBlock& b) {
         b.kind = BlockKind::kConditional;
         b.guard = c(1);
         b.taken = spec::CondDir{.observed = true, .succ = kMissing};
       }},
      {"not_taken to a missing block",
       [&](spec::EsCfg&, spec::EsBlock& b) {
         b.kind = BlockKind::kConditional;
         b.guard = c(0);
         b.not_taken = spec::CondDir{.observed = true, .succ = kMissing};
       }},
      {"cmd_dispatch to a missing block",
       [&](spec::EsCfg&, spec::EsBlock& b) {
         b.kind = BlockKind::kCmdDecision;
         b.cmd_expr = io_value(IntType::kU8);
         b.cmd_dispatch[5] = spec::CondDir{.observed = true, .succ = kMissing};
       }},
  };

  StateArena shadow(&device.program().layout());
  shadow.copy_from(device.state());
  const spec::EsCfg intact = make_spec([](spec::EsCfg&, spec::EsBlock&) {});
  for (const EngineKind kind :
       {EngineKind::kInterpreter, EngineKind::kBytecode}) {
    CheckerConfig config;
    config.engine = kind;
    EXPECT_NO_THROW((void)make_engine(&intact, &device, &shadow, &config));
  }
  for (const Defect& d : defects) {
    const spec::EsCfg es = make_spec(d.apply);
    for (const EngineKind kind :
         {EngineKind::kInterpreter, EngineKind::kBytecode}) {
      CheckerConfig config;
      config.engine = kind;
      EXPECT_THROW((void)make_engine(&es, &device, &shadow, &config),
                   std::logic_error)
          << d.what << (kind == EngineKind::kBytecode ? " (bytecode)"
                                                      : " (interpreter)");
    }
    const auto out = pipeline::deploy_serialized(spec::serialize(es), device,
                                                 wl->bus());
    EXPECT_FALSE(out.ok()) << d.what;
    EXPECT_EQ(out.error.status, spec::LoadStatus::kMalformed) << d.what;
    // No proxy: an access the spec never trained goes straight through.
    const uint64_t blocked = wl->bus().blocked_count();
    wl->bus().write(IoSpace::kPio, port + 2, 1, 0x0c);
    EXPECT_EQ(wl->bus().blocked_count(), blocked) << d.what;
    EXPECT_FALSE(device.halted()) << d.what;
  }
}

// ---------------------------------------------------------------------------
// 4. Precompiled programs: the verifier guards them at attach.
// ---------------------------------------------------------------------------

class CheckEngineSerial : public ::testing::Test {
 protected:
  void SetUp() override {
    wl_ = guest::make_workload("fdc");
    es_ = pipeline::build_spec(wl_->device(), [&] { wl_->training(); });
    program_ = checker::engine::compile_program(es_, wl_->device());
  }

  std::unique_ptr<guest::DeviceWorkload> wl_;
  spec::EsCfg es_;
  CheckerConfig cfg_;
  std::shared_ptr<const checker::engine::BytecodeProgram> program_;
};

TEST_F(CheckEngineSerial, VerifierRejectsCorruptDecodedPrograms) {
  const StateLayout& layout = wl_->device().program().layout();
  const auto expect_reject = [&](auto mutate, const char* what) {
    checker::engine::BytecodeProgram p = *program_;
    mutate(p);
    EXPECT_THROW(checker::engine::verify_program(p, layout),
                 DecodeError)
        << what;
  };
  expect_reject(
      [](auto& p) { p.code[0].op = 0xff; }, "unknown opcode");
  expect_reject(
      [](auto& p) { p.reg_count = 0; p.code[1].dst = 40000; },
      "register out of range");
  expect_reject(
      [](auto& p) { p.code.clear(); }, "empty code");

  // Scalar stores: offset+width must stay inside the arena, and the width
  // must be one StateLayout creates, even where another fits.
  size_t scalar_pc = 0;
  for (size_t pc = 0; pc < program_->code.size(); ++pc) {
    if (program_->code[pc].op == static_cast<uint8_t>(Op::kStoreScalar)) {
      scalar_pc = pc;
      break;
    }
  }
  ASSERT_NE(scalar_pc, 0u);
  expect_reject([&](auto& p) { p.code[scalar_pc].c = 0x7fffffff; },
                "scalar access outside arena");
  for (const uint16_t width : {3, 5, 6, 7}) {
    expect_reject(
        [&](auto& p) {
          p.code[scalar_pc].b = width;
          p.code[scalar_pc].c = 0;
        },
        "scalar width not 1, 2, 4 or 8");
  }
  for (const uint16_t width : {1, 2, 4, 8}) {
    checker::engine::BytecodeProgram p = *program_;
    p.code[scalar_pc].b = width;
    p.code[scalar_pc].c = layout.arena_size() - width;  // ends on last byte
    EXPECT_NO_THROW(checker::engine::verify_program(p, layout))
        << "width " << width;
    p.code[scalar_pc].c += 1;
    EXPECT_THROW(checker::engine::verify_program(p, layout), DecodeError)
        << "width " << width << " one byte past the arena";
  }
}

// A verified-then-garbled program must never corrupt memory: flip fields
// the verifier does NOT pin (param ids inside the generic ops' range, type
// and flag bytes, visit bounds) and confirm the engine still contains the
// damage as checker-level outcomes (violations / CheckerFault /
// logic_error), never UB. Run under ASan/UBSan this is the memory-safety
// half of the claim.
TEST_F(CheckEngineSerial, GarbledButVerifiableProgramsRunSafely) {
  const StateLayout& layout = wl_->device().program().layout();
  Rng rng(0xfeedface);
  int ran = 0;
  for (int iter = 0; iter < 200; ++iter) {
    checker::engine::BytecodeProgram p = *program_;
    // Garble a handful of operand fields (not opcodes) at random.
    for (int i = 0; i < 4; ++i) {
      auto& ins = p.code[rng.below(p.code.size())];
      switch (rng.below(4)) {
        case 0: ins.a ^= static_cast<uint16_t>(rng.next_u64()); break;
        case 1: ins.b ^= static_cast<uint16_t>(rng.next_u64()); break;
        case 2: ins.imm ^= rng.next_u64(); break;
        default: ins.t ^= static_cast<uint8_t>(rng.next_u64()); break;
      }
    }
    try {
      checker::engine::verify_program(p, layout);
    } catch (const DecodeError&) {
      continue;  // verifier caught it: that is also a pass
    }
    ++ran;
    StateArena shadow(&layout);
    shadow.copy_from(wl_->device().state());
    BytecodeEngine eng(
        std::make_shared<checker::engine::BytecodeProgram>(std::move(p)),
        &wl_->device(), &shadow, &cfg_);
    for (int r = 0; r < 40; ++r) {
      IoAccess io;
      io.space = IoSpace::kPio;
      io.addr = rng.below(8);
      io.size = 1;
      io.value = rng.next_u64() & 0xff;
      io.is_write = rng.below(2) == 0;
      (void)one_round(eng, shadow, io);  // must not crash; outcome may vary
    }
  }
  EXPECT_GT(ran, 20) << "garbling never survived the verifier; the "
                        "safety claim was not exercised";
}

TEST_F(CheckEngineSerial, PrecompiledEngineRejectsWrongDevice) {
  auto other = guest::make_workload("sdhci");
  StateArena shadow(&other->device().program().layout());
  shadow.copy_from(other->device().state());
  EXPECT_THROW(
      BytecodeEngine(program_, &other->device(), &shadow, &cfg_),
      std::logic_error);
}

// Every instruction that consumes a value reads it through one operand
// encoding. verify_program must reject each way an operand can point
// outside what the VM indexes with it, for every such instruction: a
// constant index past the pool, an I/O field above kSpace, a register past
// reg_count, and a scalar operand naming a buffer or a field the layout
// does not have. (The four kinds fill the two-bit kind field, so there is
// no invalid kind to encode.) One hand-built three-instruction program per
// case.
TEST_F(CheckEngineSerial, VerifierRejectsBadOperands) {
  using checker::engine::BytecodeProgram;
  using checker::engine::Insn;
  using checker::engine::operand_spec;
  using checker::engine::reg_operand;
  const StateLayout& layout = wl_->device().program().layout();
  ParamId scalar = 0;
  while (layout.field(scalar).is_buffer()) {
    ++scalar;
  }
  ParamId buffer = 0;
  while (!layout.field(buffer).is_buffer()) {
    ++buffer;
  }

  BytecodeProgram base;
  base.reg_count = 4;
  base.consts = {7};
  base.blocks.resize(1);
  base.words_per_block = 1;
  base.tables.resize(1);
  base.notes = {""};

  // Which fields of each operand-taking instruction hold operands.
  enum Slot { kA, kB, kDst };
  struct Form {
    Op op;
    std::vector<Slot> slots;
  };
  std::vector<Form> forms = {
      {Op::kGuardCmpBranch, {kA, kB}}, {Op::kCmdDispatch, {kA}},
      {Op::kBufLoad, {kA}},
      {Op::kCast, {kA}},          {Op::kNeg, {kA}},
      {Op::kBitNot, {kA}},        {Op::kLogNot, {kA}},
      {Op::kStoreParam, {kA}},    {Op::kStoreLocal, {kA}},
      {Op::kBufStore, {kA, kDst}}, {Op::kBufFill, {kA, kDst}},
      {Op::kStoreScalar, {kA}},
  };
  for (auto op = static_cast<uint8_t>(Op::kAdd);
       op <= static_cast<uint8_t>(Op::kLOr); ++op) {
    forms.push_back({static_cast<Op>(op), {kA, kB}});
  }

  const auto program_with = [&](Op op, Slot slot, uint16_t operand) {
    Insn ins{.op = static_cast<uint8_t>(op)};
    if (op == Op::kGuardCmpBranch) {
      ins.dst = checker::engine::guard_cmp_types(IntType::kU8, IntType::kU8,
                                                 BinaryOp::kEq);
    } else if (op == Op::kStoreScalar) {
      ins.b = 1;  // width 1 at offset 0
    }
    ins.a = reg_operand(1);
    if (op == Op::kBufStore || op == Op::kBufFill) {
      ins.dst = reg_operand(2);
    }
    if (op >= Op::kAdd && op <= Op::kLOr) {
      ins.b = reg_operand(2);
    }
    (slot == kA ? ins.a : slot == kB ? ins.b : ins.dst) = operand;
    BytecodeProgram p = base;
    p.code = {Insn{}, ins, Insn{}};  // kEnd, the instruction, kEnd
    return p;
  };

  const uint16_t good[] = {
      operand_spec(checker::engine::kOpdConst, IntType::kU8, 0),
      operand_spec(checker::engine::kOpdIo, IntType::kU8, 4),
      operand_spec(checker::engine::kOpdScalar, IntType::kU8, scalar),
      reg_operand(3),
  };
  const struct {
    uint16_t operand;
    const char* what;
  } bad[] = {
      {operand_spec(checker::engine::kOpdConst, IntType::kU8, 1),
       "constant index past the pool"},
      {operand_spec(checker::engine::kOpdIo, IntType::kU8, 5),
       "io field above 4"},
      {reg_operand(4), "register past reg_count"},
      {operand_spec(checker::engine::kOpdScalar, IntType::kU8, buffer),
       "scalar operand naming a buffer"},
      {operand_spec(checker::engine::kOpdScalar, IntType::kU8,
                    static_cast<uint16_t>(layout.field_count())),
       "scalar operand past the layout"},
  };
  size_t rejected = 0;
  for (const Form& f : forms) {
    for (const Slot slot : f.slots) {
      const std::string ctx = "op " + std::to_string(static_cast<int>(f.op)) +
                              " slot " + std::to_string(slot);
      for (const uint16_t operand : good) {
        EXPECT_NO_THROW(checker::engine::verify_program(
            program_with(f.op, slot, operand), layout))
            << ctx << " operand " << operand;
      }
      for (const auto& b : bad) {
        EXPECT_THROW(checker::engine::verify_program(
                         program_with(f.op, slot, b.operand), layout),
                     DecodeError)
            << ctx << ": " << b.what;
        ++rejected;
      }
    }
  }
  EXPECT_EQ(rejected, 5u * (15 + 2 * 18));  // 15 non-binary slots
}

// The shipped specs read their leaves in place: a kConst or kLoadParam in a
// compiled program is only ever a fallback for a leaf the operand encoding
// cannot express, and no kCast left in it is an unsigned widening the
// compiler should have elided. The fused compare-and-branch and the scalar
// store must still be emitted.
class CheckEngineProgram : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllDevices, CheckEngineProgram,
                         ::testing::ValuesIn(guest::workload_names()),
                         device_test_name);

TEST_P(CheckEngineProgram, ShippedSpecsUseOperandForms) {
  using checker::engine::kOperandIdMax;
  auto wl = guest::make_workload(GetParam());
  const spec::EsCfg es =
      pipeline::build_spec(wl->device(), [&] { wl->training(); });
  const auto program = checker::engine::compile_program(es, wl->device());
  const StateLayout& layout = wl->device().program().layout();
  size_t count[static_cast<size_t>(Op::kOpCount)] = {};
  for (const checker::engine::Insn& ins : program->code) {
    ASSERT_LT(ins.op, static_cast<uint8_t>(Op::kOpCount));
    ++count[ins.op];
    switch (static_cast<Op>(ins.op)) {
      case Op::kConst: {
        const auto it = std::find(program->consts.begin(),
                                  program->consts.end(), ins.imm);
        EXPECT_GT(it - program->consts.begin(), kOperandIdMax)
            << "constant " << ins.imm << " fits a pool operand";
        break;
      }
      case Op::kLoadParam: {
        const bool scalar = ins.a < layout.field_count() &&
                            !layout.field(ins.a).is_buffer() &&
                            StateArena::is_scalar_width(layout.field(ins.a).size);
        EXPECT_TRUE(ins.a > kOperandIdMax || !scalar)
            << "param " << ins.a << " fits a scalar operand";
        break;
      }
      case Op::kCast: {
        const auto to = static_cast<IntType>(ins.t & 7);
        const auto from = static_cast<IntType>(ins.b & 7);
        EXPECT_TRUE(is_signed(to) || is_signed(from) ||
                    bits_of(to) < bits_of(from))
            << "unsigned widening cast left in the program";
        break;
      }
      default:
        break;
    }
  }
  const auto n = [&](Op op) { return count[static_cast<size_t>(op)]; };
  EXPECT_GE(n(Op::kGuardCmpBranch), 1u);
  EXPECT_GE(n(Op::kStoreScalar), 1u);
  EXPECT_NO_THROW(checker::engine::verify_program(*program, layout));
}

// ---------------------------------------------------------------------------
// 5. Concurrency: a mixed fleet (bytecode and interpreter shards side by
//    side) stays clean under the full enforcement service. Runs in the
//    TSan lane via the Concurrency* filter.
// ---------------------------------------------------------------------------

TEST(ConcurrencyCheckEngine, MixedEngineFleetStaysClean) {
  spec::SpecStore store;
  enforce::publish_device_specs(store, guest::workload_names());

  enforce::ServiceConfig config;
  config.spec_poll_ops = 8;
  enforce::EnforcementService service(&store, config);

  const std::vector<std::string>& names = guest::workload_names();
  std::vector<enforce::ShardSpec> shards(8);
  for (size_t i = 0; i < shards.size(); ++i) {
    shards[i].device = names[i % names.size()];
    shards[i].ops = 50;
    shards[i].seed = 7000 + i;
    shards[i].mode = guest::InteractionMode::kSequential;
    shards[i].checker.engine =
        (i % 2 == 0) ? EngineKind::kBytecode : EngineKind::kInterpreter;
  }

  const enforce::RunReport report = service.run(shards);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.shards.size(), shards.size());
  for (const enforce::ShardResult& s : report.shards) {
    EXPECT_EQ(s.stats.violations_by_strategy[0], 0u) << s.device;
    EXPECT_EQ(s.stats.violations_by_strategy[1], 0u) << s.device;
    EXPECT_EQ(s.stats.violations_by_strategy[2], 0u) << s.device;
    EXPECT_EQ(s.stats.blocked, 0u) << s.device;
    EXPECT_EQ(s.bus_owner_violations, 0u) << s.device;
  }
}

// Violation detail strings -------------------------------------------------

// Byte-for-byte pins of every detail:: helper both engines format
// violations through. The differential suite above only proves the engines
// agree with each other; these prove neither drifted from the wording
// (digits, hex case, prefixes, quoting) reports and logs carry.
TEST(EngineDetailStrings, GoldenBytes) {
  namespace d = checker::engine::detail;
  constexpr uint64_t kMax = UINT64_MAX;

  IoAccess io;
  io.space = IoSpace::kPio;
  io.addr = 0x3f5;
  io.is_write = true;
  EXPECT_EQ(d::untrained_io(io), "untrained I/O access: pio 0x3f5 write");
  io.is_write = false;
  io.addr = 0;
  EXPECT_EQ(d::untrained_io(io), "untrained I/O access: pio 0x0 read");
  io.space = IoSpace::kMmio;
  io.addr = kMax;
  EXPECT_EQ(d::untrained_io(io),
            "untrained I/O access: mmio 0xffffffffffffffff read");
  io.addr = 0xfebf0000;
  io.is_write = true;
  EXPECT_EQ(d::untrained_io(io), "untrained I/O access: mmio 0xfebf0000 write");

  EXPECT_EQ(d::visit_bound("fifo_loop", 0, kMax),
            "block 'fifo_loop' visited 0 times in one round (trained max "
            "18446744073709551615)");
  EXPECT_EQ(d::visit_bound("b", kMax, 0),
            "block 'b' visited 18446744073709551615 times in one round "
            "(trained max 0)");
  EXPECT_EQ(d::visit_bound("b", 65, 8),
            "block 'b' visited 65 times in one round (trained max 8)");

  EXPECT_EQ(d::cmd_access("seek", 0),
            "block 'seek' not accessible under command 0x0");
  EXPECT_EQ(d::cmd_access("seek", kMax),
            "block 'seek' not accessible under command 0xffffffffffffffff");
  EXPECT_EQ(d::cmd_access("seek", 0xAB),
            "block 'seek' not accessible under command 0xab");

  EXPECT_EQ(d::untrained_direction("guard", true),
            "untrained taken direction at 'guard'");
  EXPECT_EQ(d::untrained_direction("guard", false),
            "untrained not-taken direction at 'guard'");

  EXPECT_EQ(d::untrained_cmd("dispatch", 0),
            "untrained command 0x0 at 'dispatch'");
  EXPECT_EQ(d::untrained_cmd("dispatch", kMax),
            "untrained command 0xffffffffffffffff at 'dispatch'");
  EXPECT_EQ(d::untrained_cmd("dispatch", 0x8e),
            "untrained command 0x8e at 'dispatch'");

  EXPECT_EQ(d::indirect_target("irq", 0),
            "indirect call at 'irq' targets 0x0, not a trained legitimate "
            "function");
  EXPECT_EQ(d::indirect_target("irq", kMax),
            "indirect call at 'irq' targets 0xffffffffffffffff, not a "
            "trained legitimate function");
  EXPECT_EQ(d::indirect_target("irq", 0xdeadbeef),
            "indirect call at 'irq' targets 0xdeadbeef, not a trained "
            "legitimate function");

  EXPECT_EQ(d::watchdog_tripped(0), "traversal watchdog tripped after 0 steps");
  EXPECT_EQ(d::watchdog_tripped(kMax),
            "traversal watchdog tripped after 18446744073709551615 steps");
  EXPECT_EQ(d::unmapped_site(0), "traversal reached unmapped site 0");
  EXPECT_EQ(d::unmapped_site(65535), "traversal reached unmapped site 65535");

  EvalDiag oob;
  oob.kind = EvalDiag::Kind::kBufferOob;
  oob.buffer = 3;
  oob.index = kMax;
  oob.oob_is_write = true;
  EXPECT_EQ(d::guard_diag(oob),
            "in guard: buffer write out of bounds: field p3 index "
            "18446744073709551615");
  EvalDiag missing;
  missing.kind = EvalDiag::Kind::kMissingLocal;
  missing.local = 7;
  EXPECT_EQ(d::unresolved_sync(missing),
            "unresolved sync variable: unresolved local variable local7");
  EvalDiag div;
  div.kind = EvalDiag::Kind::kDivByZero;
  div.note = "fifo[i] / n";
  EXPECT_EQ(d::cmd_decode_diag(div),
            "in command decode: division by zero (at: fifo[i] / n)");

  EXPECT_EQ(d::kBudgetExceeded, "traversal budget exceeded");
  EXPECT_EQ(d::kGuardUnresolvedSync, "unresolved sync variable in guard");
}

}  // namespace
}  // namespace sedspec
