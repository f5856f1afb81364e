// Unit tests for Algorithm 1 and control-flow reduction on synthetic
// programs and hand-crafted device-state-change logs — exercising the
// merge/splice rewrites and the authoring-error diagnostics that the real
// five devices (by design) never trigger.
#include <gtest/gtest.h>

#include "cfg/analyzer.h"
#include "dataflow/dataflow.h"
#include "spec/builder.h"
#include "statelog/statelog.h"

namespace sedspec {
namespace {

using statelog::DeviceStateLog;
using statelog::LogRecorder;

struct LogMaker {
  LogRecorder rec;
  IoAccess io;

  LogMaker() {
    io.space = IoSpace::kPio;
    io.addr = 0x100;
    io.is_write = true;
  }

  void start() { rec.round_start(io); }
  void site(SiteId s, BlockKind k = BlockKind::kPlain) {
    rec.site_enter(s, k);
  }
  void branch(SiteId s, bool taken) {
    site(s, BlockKind::kConditional);
    rec.branch(s, taken);
  }
  void end() { rec.round_end(); }
  [[nodiscard]] const DeviceStateLog& log() const { return rec.log(); }
};

struct SyntheticProgram {
  StateLayout layout{"S"};
  ParamId p;
  std::unique_ptr<DeviceProgram> program;
  SiteId s_cond, s_left, s_right, s_join, s_empty, s_tail;

  SyntheticProgram() {
    p = layout.add_scalar("p", FieldKind::kRegister, IntType::kU32);
    program =
        std::make_unique<DeviceProgram>("synth", std::move(layout), 0x1000);
    using namespace eb;
    const IntType U32 = IntType::kU32;
    s_cond = program->add_conditional("cond", gt(param(p, U32), c(1, U32)));
    s_left = program->add_plain("left", {sb::assign(p, c(1, U32))});
    s_right = program->add_plain("right", {sb::assign(p, c(2, U32))});
    // Joins carry no state-relevant statements: splice candidate.
    s_empty = program->add_plain("empty_join", {});
    s_tail = program->add_plain("tail", {sb::assign(p, c(3, U32))});
    s_join = s_empty;
  }

  spec::EsCfg build(const DeviceStateLog& log) {
    const auto selection = cfg::analyze_static(*program);
    const auto recovery = dataflow::analyze_dependencies(*program);
    return spec::EsCfgBuilder::build(*program, selection, recovery, log);
  }
};

TEST(SpecBuilder, MergesConvergentConditional) {
  SyntheticProgram sp;
  LogMaker lm;
  // taken:    cond -> left  -> empty -> tail
  lm.start();
  lm.branch(sp.s_cond, true);
  lm.site(sp.s_left);
  lm.site(sp.s_empty);
  lm.site(sp.s_tail);
  lm.end();
  // not-taken: cond -> right -> empty -> tail ... hmm, different successors.
  lm.start();
  lm.branch(sp.s_cond, true);
  lm.site(sp.s_left);
  lm.site(sp.s_empty);
  lm.site(sp.s_tail);
  lm.end();
  // A second conditional shape where both directions go to the SAME block:
  lm.start();
  lm.branch(sp.s_cond, false);
  lm.site(sp.s_left);
  lm.site(sp.s_empty);
  lm.site(sp.s_tail);
  lm.end();

  const spec::EsCfg cfg = sp.build(lm.log());
  const auto* cond = cfg.block(sp.s_cond);
  ASSERT_NE(cond, nullptr);
  // Both directions observed with the same successor: merged, NBTD dropped
  // (paper §V-C).
  EXPECT_TRUE(cond->merged);
  EXPECT_TRUE(cond->has_succ);
  EXPECT_EQ(cfg.merged_conditionals, 1u);
}

TEST(SpecBuilder, SplicesEmptyBlocks) {
  SyntheticProgram sp;
  LogMaker lm;
  lm.start();
  lm.branch(sp.s_cond, true);
  lm.site(sp.s_left);
  lm.site(sp.s_empty);  // no state-relevant statements, unique successor
  lm.site(sp.s_tail);
  lm.end();

  const spec::EsCfg cfg = sp.build(lm.log());
  EXPECT_EQ(cfg.block(sp.s_empty), nullptr);
  EXPECT_EQ(cfg.spliced_blocks, 1u);
  const auto* left = cfg.block(sp.s_left);
  ASSERT_NE(left, nullptr);
  ASSERT_TRUE(left->has_succ);
  EXPECT_EQ(left->succ, sp.s_tail);  // rewired around the spliced block
}

TEST(SpecBuilder, SingleObservedDirectionStaysPartial) {
  SyntheticProgram sp;
  LogMaker lm;
  lm.start();
  lm.branch(sp.s_cond, true);
  lm.site(sp.s_left);
  lm.end();

  const spec::EsCfg cfg = sp.build(lm.log());
  const auto* cond = cfg.block(sp.s_cond);
  ASSERT_NE(cond, nullptr);
  EXPECT_FALSE(cond->merged);
  EXPECT_TRUE(cond->taken.observed);
  EXPECT_FALSE(cond->not_taken.observed);
}

TEST(SpecBuilder, InconsistentPlainSuccessorIsAnAuthoringError) {
  SyntheticProgram sp;
  LogMaker lm;
  lm.start();
  lm.site(sp.s_left);
  lm.site(sp.s_tail);
  lm.end();
  lm.start();
  lm.site(sp.s_left);
  lm.site(sp.s_right);  // same plain block, different successor
  lm.end();
  EXPECT_THROW((void)sp.build(lm.log()), spec::BuildError);
}

TEST(SpecBuilder, BlockBothEndingAndContinuingIsAnError) {
  SyntheticProgram sp;
  LogMaker lm;
  lm.start();
  lm.site(sp.s_left);
  lm.end();  // left ends the round...
  lm.start();
  lm.site(sp.s_left);
  lm.site(sp.s_tail);  // ...and later continues
  lm.end();
  EXPECT_THROW((void)sp.build(lm.log()), spec::BuildError);
}

TEST(SpecBuilder, ConflictingEntryBlockIsAnError) {
  SyntheticProgram sp;
  LogMaker lm;
  lm.start();
  lm.site(sp.s_left);
  lm.end();
  lm.start();
  lm.site(sp.s_right);  // same I/O key, different first block
  lm.end();
  EXPECT_THROW((void)sp.build(lm.log()), spec::BuildError);
}

TEST(SpecBuilder, VisitBoundsTrackPerRoundMaximum) {
  SyntheticProgram sp;
  LogMaker lm;
  // A loop: cond(taken) -> left -> tail -> cond ... , exited via the
  // not-taken direction into right, which ends the round.
  lm.start();
  for (int i = 0; i < 5; ++i) {
    lm.branch(sp.s_cond, true);
    lm.site(sp.s_left);
    lm.site(sp.s_tail);
  }
  lm.branch(sp.s_cond, false);
  lm.site(sp.s_right);
  lm.end();
  const spec::EsCfg cfg = sp.build(lm.log());
  EXPECT_EQ(cfg.block(sp.s_tail)->max_visits_per_round, 5u);
  EXPECT_EQ(cfg.block(sp.s_cond)->max_visits_per_round, 6u);
}

TEST(SpecBuilder, EmptyRoundRecordsEmptyEntry) {
  SyntheticProgram sp;
  LogMaker lm;
  lm.start();
  lm.end();
  const spec::EsCfg cfg = sp.build(lm.log());
  const auto it = cfg.entry_dispatch.find(key_of(lm.io));
  ASSERT_NE(it, cfg.entry_dispatch.end());
  EXPECT_EQ(it->second, kInvalidSite);
}

TEST(Analyzer, StaticSelectionAppliesRules) {
  StateLayout layout("S");
  const ParamId reg =
      layout.add_scalar("reg", FieldKind::kRegister, IntType::kU32);
  const ParamId buf = layout.add_buffer("buf", 1, 8);
  const ParamId idx =
      layout.add_scalar("idx", FieldKind::kIndex, IntType::kU32);
  const ParamId flag =
      layout.add_scalar("flag", FieldKind::kFlag, IntType::kU8);
  const ParamId untouched =
      layout.add_scalar("untouched", FieldKind::kRegister, IntType::kU32);
  const ParamId fp = layout.add_funcptr("fp");
  DeviceProgram program("synth2", std::move(layout), 0x2000);
  using namespace eb;
  const IntType U32 = IntType::kU32;
  program.add_conditional("c1", eq(param(flag, IntType::kU8), c(1, IntType::kU8)));
  program.add_plain("p1", {sb::buf_store(buf, param(idx, U32), c(0, IntType::kU8)),
                           sb::assign(reg, c(2, U32))});
  program.add_indirect("i1", fp);

  const auto sel = cfg::analyze_static(program);
  EXPECT_TRUE(sel.is_selected(reg));    // Rule 1
  EXPECT_TRUE(sel.is_selected(buf));    // Rule 2: buffer
  EXPECT_TRUE(sel.is_selected(idx));    // Rule 2: indexing
  EXPECT_TRUE(sel.is_selected(fp));     // Rule 2: function pointer
  EXPECT_TRUE(sel.is_selected(flag));   // control-flow dependency
  EXPECT_FALSE(sel.is_selected(untouched));
}

TEST(Analyzer, ObservedReachabilityFiltersSelection) {
  StateLayout layout("S");
  const ParamId reg =
      layout.add_scalar("reg", FieldKind::kRegister, IntType::kU32);
  DeviceProgram program("synth3", std::move(layout), 0x3000);
  const SiteId touched = program.add_plain(
      "touched", {sb::assign(reg, eb::c(1, IntType::kU32))});
  (void)program.add_plain("unreached",
                          {sb::assign(reg, eb::c(2, IntType::kU32))});

  // An ITC-CFG where only `touched` was ever observed.
  cfg::ItcCfgBuilder builder;
  builder.feed(trace::TraceEvent{trace::EventKind::kPge, 0x3000, false});
  builder.feed(trace::TraceEvent{trace::EventKind::kTip,
                                 program.site(touched).addr, false});
  builder.feed(trace::TraceEvent{trace::EventKind::kPgd, 0, false});
  const auto graph = builder.take();

  const auto sel = cfg::analyze(graph, program);
  EXPECT_TRUE(sel.observation_sites.contains(touched));
  EXPECT_EQ(sel.observation_sites.size(), 1u);
}

}  // namespace
}  // namespace sedspec
