// Compiled check engine (DESIGN.md §12): the bytecode engine must be
// observationally identical to the reference interpreter — same violations
// (including detail strings), same traversal step counts, same shadow-state
// bytes, same exceptions — on every device, on hostile input, on the CVE
// exploit matrix, and on fuzzed machine-generated specs. The serialized
// SEBC artifact has the same integrity posture as the spec envelope:
// truncation and corruption yield structured load errors, and a decoded
// program must still pass the verifier before it can attach.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "checker/checker.h"
#include "checker/engine/bytecode.h"
#include "checker/engine/engine.h"
#include "guest/exploits.h"
#include "guest/workload.h"
#include "sedspec/enforcement.h"
#include "sedspec/pipeline.h"
#include "spec/es_cfg.h"

namespace sedspec {
namespace {

using checker::CheckResult;
using checker::CheckerConfig;
using checker::CheckerFault;
using checker::EngineKind;
using checker::engine::BytecodeEngine;
using checker::engine::CheckEngine;
using checker::engine::RoundOptions;
using checker::engine::make_engine;
using namespace eb;  // expr builders: c/param/local/io/bin/un/cast
using namespace sb;  // stmt builders: assign/assign_local/buf_store/buf_fill

// RAII override of the process-wide default engine knob.
class EngineGuard {
 public:
  explicit EngineGuard(EngineKind kind) : prev_(checker::engine::default_engine()) {
    checker::engine::set_default_engine(kind);
  }
  ~EngineGuard() { checker::engine::set_default_engine(prev_); }

 private:
  EngineKind prev_;
};

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
                       const IoAccess& io) {
  RoundOutcome out;
  shadow.clear_locals();
  try {
    out.result = eng.check(io, RoundOptions{});
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
// the same spec, asserting per-round lockstep.
void run_lockstep(const spec::EsCfg& es, Device& device,
                  const std::vector<IoAccess>& stream,
                  const std::string& ctx) {
  CheckerConfig icfg;
  icfg.engine = EngineKind::kInterpreter;
  CheckerConfig bcfg;
  bcfg.engine = EngineKind::kBytecode;
  StateArena ishadow(&device.program().layout());
  StateArena bshadow(&device.program().layout());
  ishadow.copy_from(device.state());
  bshadow.copy_from(device.state());
  const auto ie = make_engine(&es, &device, &ishadow, &icfg);
  const auto be = make_engine(&es, &device, &bshadow, &bcfg);
  for (size_t i = 0; i < stream.size(); ++i) {
    const RoundOutcome ia = one_round(*ie, ishadow, stream[i]);
    const RoundOutcome ba = one_round(*be, bshadow, stream[i]);
    expect_lockstep(ia, ba, ishadow, bshadow,
                    ctx + " round " + std::to_string(i));
    ASSERT_EQ(ie->active_command(), be->active_command())
        << ctx << " round " << i;
  }
}

// ---------------------------------------------------------------------------
// 1. Every device, benign recorded traffic + hostile random traffic.
// ---------------------------------------------------------------------------

class CheckEngineDifferential : public ::testing::TestWithParam<std::string> {
};

INSTANTIATE_TEST_SUITE_P(AllDevices, CheckEngineDifferential,
                         ::testing::ValuesIn(guest::workload_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST_P(CheckEngineDifferential, BenignStreamLockstep) {
  auto wl = guest::make_workload(GetParam());
  const spec::EsCfg es =
      pipeline::build_spec(wl->device(), [&] { wl->training(); });
  checker::CheckerConfig cfg;
  checker::EsChecker ck(&es, &wl->device(), cfg);
  Recorder rec;
  rec.inner = &ck;
  wl->bus().set_proxy(&rec);
  Rng rng(4242);
  for (int i = 0; i < 80; ++i) {
    wl->common_operation(guest::InteractionMode::kRandom, rng);
  }
  wl->bus().set_proxy(nullptr);
  ASSERT_FALSE(rec.log.empty());
  run_lockstep(es, wl->device(), rec.log, GetParam() + "/benign");
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

// ---------------------------------------------------------------------------
// 2. The eight-CVE exploit matrix: identical verdicts per engine, and both
//    engines still reproduce the paper's Table III expectations.
// ---------------------------------------------------------------------------

TEST(CheckEngineDifferential2, ExploitMatrixIdenticalAcrossEngines) {
  for (const guest::ExploitScenario& scenario : guest::exploit_scenarios()) {
    const auto& info = scenario.info();
    std::optional<guest::ExploitScenario::Matrix> interp;
    std::optional<guest::ExploitScenario::Matrix> byte;
    {
      EngineGuard g(EngineKind::kInterpreter);
      interp = scenario.evaluate();
    }
    {
      EngineGuard g(EngineKind::kBytecode);
      byte = scenario.evaluate();
    }
    EXPECT_EQ(interp->unprotected_compromised, byte->unprotected_compromised)
        << info.cve;
    EXPECT_EQ(interp->parameter, byte->parameter) << info.cve;
    EXPECT_EQ(interp->indirect, byte->indirect) << info.cve;
    EXPECT_EQ(interp->conditional, byte->conditional) << info.cve;
    EXPECT_EQ(interp->detected, byte->detected) << info.cve;
    EXPECT_EQ(interp->protected_compromised, byte->protected_compromised)
        << info.cve;
    // Both engines must also match the paper, not merely each other.
    EXPECT_EQ(byte->detected, info.expect_detected) << info.cve;
    EXPECT_EQ(byte->parameter, info.expect_parameter) << info.cve;
    EXPECT_EQ(byte->indirect, info.expect_indirect) << info.cve;
    EXPECT_EQ(byte->conditional, info.expect_conditional) << info.cve;
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

spec::EsCfg rnd_cfg(Rng& rng, const StateLayout& layout,
                    const std::string& device_name) {
  spec::EsCfg cfg;
  cfg.device_name = device_name;
  cfg.trained_rounds = 1 + rng.below(4);
  for (size_t i = 0; i < layout.field_count(); ++i) {
    cfg.params.push_back(static_cast<ParamId>(i));
  }
  std::vector<ParamId> buffers;
  for (size_t i = 0; i < layout.field_count(); ++i) {
    if (layout.field(static_cast<ParamId>(i)).is_buffer()) {
      buffers.push_back(static_cast<ParamId>(i));
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
        const size_t ntargets = rng.below(4);
        for (size_t i = 0; i < ntargets; ++i) {
          b.fp_targets.insert(rng.next_u64() % 64);
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
    key.addr = rng.below(8) * 4;
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
  for (int iter = 0; iter < 60; ++iter) {
    const spec::EsCfg es = rnd_cfg(rng, layout, device.name());
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
    std::vector<IoAccess> stream;
    for (int i = 0; i < 120; ++i) {
      IoAccess io;
      io.space = rng.below(2) == 0 ? IoSpace::kPio : IoSpace::kMmio;
      io.addr = rng.below(8) * 4;
      io.size = static_cast<uint8_t>(1u << rng.below(4));
      io.value = rng.next_u64() >> (8 * rng.below(8));
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
}

// ---------------------------------------------------------------------------
// 4. SEBC serialization: round-trip fidelity and corruption containment.
// ---------------------------------------------------------------------------

class CheckEngineSerial : public ::testing::Test {
 protected:
  void SetUp() override {
    wl_ = guest::make_workload("fdc");
    es_ = pipeline::build_spec(wl_->device(), [&] { wl_->training(); });
    cfg_.engine = EngineKind::kBytecode;
    program_ = checker::engine::compile_program(es_, wl_->device(), cfg_);
    bytes_ = checker::engine::serialize(*program_);
  }

  std::unique_ptr<guest::DeviceWorkload> wl_;
  spec::EsCfg es_;
  CheckerConfig cfg_;
  std::shared_ptr<const checker::engine::BytecodeProgram> program_;
  std::vector<uint8_t> bytes_;
};

TEST_F(CheckEngineSerial, RoundTripRunsIdenticallyToFreshCompile) {
  const auto loaded = checker::engine::load_program(bytes_);
  ASSERT_TRUE(loaded.ok()) << loaded.error.describe();
  ASSERT_EQ(loaded.program->code.size(), program_->code.size());
  ASSERT_EQ(loaded.program->reg_count, program_->reg_count);
  ASSERT_EQ(loaded.program->device_name, program_->device_name);

  // A precompiled engine from the deserialized program must stay in
  // lockstep with one compiled directly from the spec.
  StateArena sa(&wl_->device().program().layout());
  StateArena sb(&wl_->device().program().layout());
  sa.copy_from(wl_->device().state());
  sb.copy_from(wl_->device().state());
  BytecodeEngine fresh(&es_, &wl_->device(), &sa, &cfg_);
  BytecodeEngine canned(loaded.program, &wl_->device(), &sb, &cfg_);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    IoAccess io;
    io.space = IoSpace::kPio;
    io.addr = rng.below(8);
    io.size = 1;
    io.value = rng.next_u64() & 0xff;
    io.is_write = rng.below(2) == 0;
    const RoundOutcome a = one_round(fresh, sa, io);
    const RoundOutcome b = one_round(canned, sb, io);
    expect_lockstep(a, b, sa, sb, "roundtrip round " + std::to_string(i));
  }
}

TEST_F(CheckEngineSerial, TruncationYieldsStructuredError) {
  const std::vector<size_t> cuts = {0,  1,  3,  7,  8,  15,
                                    16, bytes_.size() / 2, bytes_.size() - 1};
  for (const size_t cut : cuts) {
    std::vector<uint8_t> t(bytes_.begin(),
                           bytes_.begin() + static_cast<ptrdiff_t>(cut));
    const auto r = checker::engine::load_program(t);
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_NE(r.error.status, spec::LoadStatus::kOk) << "cut=" << cut;
  }
}

TEST_F(CheckEngineSerial, PayloadBitFlipsCaughtByCrc) {
  Rng rng(0xc5c);
  for (int i = 0; i < 32; ++i) {
    std::vector<uint8_t> t = bytes_;
    // Skip the 16-byte envelope: a payload flip must be a CRC mismatch.
    const size_t at = 16 + rng.below(t.size() - 16);
    t[at] ^= static_cast<uint8_t>(1u << rng.below(8));
    const auto r = checker::engine::load_program(t);
    ASSERT_FALSE(r.ok()) << "flip at " << at;
    EXPECT_EQ(r.error.status, spec::LoadStatus::kCrcMismatch)
        << "flip at " << at;
  }
}

TEST_F(CheckEngineSerial, BadMagicAndVersionSkewRejected) {
  std::vector<uint8_t> bad_magic = bytes_;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(checker::engine::load_program(bad_magic).error.status,
            spec::LoadStatus::kBadMagic);
  std::vector<uint8_t> skew = bytes_;
  skew[4] ^= 0x04;  // format version word
  EXPECT_EQ(checker::engine::load_program(skew).error.status,
            spec::LoadStatus::kVersionSkew);
}

TEST_F(CheckEngineSerial, VerifierRejectsCorruptDecodedPrograms) {
  const StateLayout& layout = wl_->device().program().layout();
  const size_t sites = wl_->device().program().site_count();
  const auto expect_reject = [&](auto mutate, const char* what) {
    checker::engine::BytecodeProgram p = *program_;
    mutate(p);
    EXPECT_THROW(checker::engine::verify_program(p, layout, sites),
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
  expect_reject(
      [&](auto& p) {
        // Find a scalar superinstruction and point it past the arena.
        for (auto& ins : p.code) {
          if (ins.op == static_cast<uint8_t>(
                            checker::engine::Op::kStoreScalarImm) ||
              ins.op == static_cast<uint8_t>(
                            checker::engine::Op::kLoadScalar) ||
              ins.op == static_cast<uint8_t>(
                            checker::engine::Op::kStoreScalar)) {
            ins.c = 0x7fffffff;
            break;
          }
        }
      },
      "scalar access outside arena");
}

// A verified-then-garbled program must never corrupt memory: flip fields
// the verifier does NOT pin (param ids inside the generic ops' range, IC
// seeds, visit bounds) and confirm the engine still contains the damage as
// checker-level outcomes (violations / CheckerFault / logic_error), never
// UB. Run under ASan/UBSan this is the memory-safety half of the claim.
TEST_F(CheckEngineSerial, GarbledButVerifiableProgramsRunSafely) {
  const StateLayout& layout = wl_->device().program().layout();
  const size_t sites = wl_->device().program().site_count();
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
      checker::engine::verify_program(p, layout, sites);
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
