// Unit tests for the expression language and its checked/unchecked
// evaluator — the foundation of both device execution and the parameter
// check strategy.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "expr/eval.h"
#include "program/arena.h"
#include "program/layout.h"

namespace sedspec {
namespace {

struct Env {
  StateLayout layout{"TestStruct"};
  ParamId a, b, buf;
  std::unique_ptr<StateArena> arena;
  IoAccess io;

  Env() {
    a = layout.add_scalar("a", FieldKind::kRegister, IntType::kU32);
    b = layout.add_scalar("b", FieldKind::kRegister, IntType::kI16);
    buf = layout.add_buffer("buf", 1, 8);
    arena = std::make_unique<StateArena>(&layout);
  }

  uint64_t eval(const ExprRef& e, bool checked, EvalDiag* diag) {
    EvalCtx ctx;
    ctx.state = arena.get();
    ctx.io = &io;
    ctx.checked = checked;
    ctx.diag = diag;
    return eval_expr(*e, ctx);
  }
};

TEST(ExprEval, ConstantsAndParams) {
  Env env;
  env.arena->set_param(env.a, 41);
  EXPECT_EQ(env.eval(eb::c(7, IntType::kU8), false, nullptr), 7u);
  EXPECT_EQ(env.eval(eb::param(env.a, IntType::kU32), false, nullptr), 41u);
  EXPECT_EQ(env.eval(eb::add(eb::param(env.a, IntType::kU32),
                             eb::c(1, IntType::kU32), IntType::kU32),
                     false, nullptr),
            42u);
}

TEST(ExprEval, IoFields) {
  Env env;
  env.io.addr = 0x3f5;
  env.io.value = 0xbeef;
  env.io.is_write = true;
  EXPECT_EQ(env.eval(eb::io(IoField::kAddr), false, nullptr), 0x3f5u);
  EXPECT_EQ(env.eval(eb::io_value(IntType::kU8), false, nullptr), 0xefu);
  EXPECT_EQ(env.eval(eb::io(IoField::kIsWrite), false, nullptr), 1u);
}

TEST(ExprEval, UncheckedArithmeticWraps) {
  Env env;
  auto sum = eb::add(eb::c(0xffffffff, IntType::kU32),
                     eb::c(1, IntType::kU32), IntType::kU32);
  EXPECT_EQ(env.eval(sum, false, nullptr), 0u);  // silent wrap, like C
}

TEST(ExprEval, CheckedAdditionOverflowFlagged) {
  Env env;
  EvalDiag diag;
  auto sum = eb::add(eb::c(0xffffffff, IntType::kU32),
                     eb::c(1, IntType::kU32), IntType::kU32);
  EXPECT_EQ(env.eval(sum, true, &diag), 0u);
  EXPECT_EQ(diag.kind, EvalDiag::Kind::kIntegerOverflow);
  EXPECT_EQ(diag.type, IntType::kU32);
}

TEST(ExprEval, CheckedUnsignedUnderflowFlagged) {
  // The CVE-2021-3409 signature: blksize - data_count in u32.
  Env env;
  EvalDiag diag;
  auto diff = eb::sub(eb::c(16, IntType::kU32), eb::c(64, IntType::kU32),
                      IntType::kU32);
  (void)env.eval(diff, true, &diag);
  EXPECT_EQ(diag.kind, EvalDiag::Kind::kIntegerOverflow);
}

TEST(ExprEval, SignedComparisonIsMathematical) {
  Env env;
  env.arena->set_param(env.b, static_cast<uint64_t>(-5) & 0xffff);
  auto cmp = eb::lt(eb::param(env.b, IntType::kI16), eb::c(0, IntType::kI32));
  EXPECT_EQ(env.eval(cmp, false, nullptr), 1u);
}

TEST(ExprEval, DivisionByZeroFlaggedChecked) {
  Env env;
  EvalDiag diag;
  auto div = eb::bin(BinaryOp::kDiv, eb::c(10, IntType::kU32),
                     eb::c(0, IntType::kU32), IntType::kU32);
  EXPECT_EQ(env.eval(div, true, &diag), 0u);
  EXPECT_EQ(diag.kind, EvalDiag::Kind::kDivByZero);
}

TEST(ExprEval, CastsWrapSilentlyEvenChecked) {
  Env env;
  EvalDiag diag;
  auto cast = eb::cast(eb::c(0x12345, IntType::kU32), IntType::kU8);
  EXPECT_EQ(env.eval(cast, true, &diag), 0x45u);
  EXPECT_FALSE(diag.any());
}

TEST(ExprEval, ShiftOutOfRangeFlagged) {
  Env env;
  EvalDiag diag;
  auto shl = eb::shl(eb::c(1, IntType::kU16), eb::c(20, IntType::kU16),
                     IntType::kU16);
  (void)env.eval(shl, true, &diag);
  EXPECT_NE(diag.kind, EvalDiag::Kind::kNone);
}

TEST(ExprEval, BufferLoadInBounds) {
  Env env;
  EvalDiag diag;
  env.arena->buf_store(env.buf, 3, 0x5a, nullptr);
  auto load = eb::buf_load(env.buf, eb::c(3, IntType::kU32), IntType::kU8);
  EXPECT_EQ(env.eval(load, true, &diag), 0x5au);
  EXPECT_FALSE(diag.any());
}

TEST(ExprEval, BufferLoadOutOfBoundsFlagged) {
  Env env;
  EvalDiag diag;
  auto load = eb::buf_load(env.buf, eb::c(8, IntType::kU32), IntType::kU8);
  (void)env.eval(load, true, &diag);
  EXPECT_EQ(diag.kind, EvalDiag::Kind::kBufferOob);
  EXPECT_FALSE(diag.oob_is_write);
}

TEST(ExprEval, MissingLocalFlaggedChecked) {
  Env env;
  EvalDiag diag;
  auto l = eb::local(5, IntType::kU32);
  EXPECT_EQ(env.eval(l, true, &diag), 0u);
  EXPECT_EQ(diag.kind, EvalDiag::Kind::kMissingLocal);
  EXPECT_EQ(diag.local, 5);
}

TEST(ExprEval, MissingLocalThrowsUnchecked) {
  // Device-side read of an unset local is a programming error.
  Env env;
  auto l = eb::local(6, IntType::kU32);
  EXPECT_THROW((void)env.eval(l, false, nullptr), std::logic_error);
}

TEST(ExprEval, LogicalOps) {
  Env env;
  EXPECT_EQ(env.eval(eb::land(eb::c(1, IntType::kU8), eb::c(2, IntType::kU8)),
                     false, nullptr),
            1u);
  EXPECT_EQ(env.eval(eb::lor(eb::c(0, IntType::kU8), eb::c(0, IntType::kU8)),
                     false, nullptr),
            0u);
  EXPECT_EQ(env.eval(eb::lnot(eb::c(0, IntType::kU8)), false, nullptr), 1u);
}

TEST(ExprEval, StatementsExecuteAgainstState) {
  Env env;
  EvalCtx ctx;
  ctx.state = env.arena.get();
  ctx.io = &env.io;
  env.io.value = 0x77;
  exec_stmt(sb::assign(env.a, eb::io_value(IntType::kU32)), ctx);
  EXPECT_EQ(env.arena->param(env.a), 0x77u);
  exec_stmt(sb::assign_local(3, eb::c(9, IntType::kU32)), ctx);
  uint64_t v = 0;
  EXPECT_TRUE(env.arena->local(3, &v));
  EXPECT_EQ(v, 9u);
  exec_stmt(sb::buf_store(env.buf, eb::c(2, IntType::kU32),
                          eb::c(0xab, IntType::kU8)),
            ctx);
  EXPECT_EQ(env.arena->buf_peek(env.buf, 2), 0xabu);
}

// Property sweep: for every integer type, checked evaluation flags exactly
// the results that do not fit, and the wrapped value always equals the
// unchecked (C semantics) value.
class EvalTypeSweep : public ::testing::TestWithParam<IntType> {};

INSTANTIATE_TEST_SUITE_P(AllTypes, EvalTypeSweep,
                         ::testing::Values(IntType::kU8, IntType::kU16,
                                           IntType::kU32, IntType::kU64,
                                           IntType::kI8, IntType::kI16,
                                           IntType::kI32, IntType::kI64),
                         [](const auto& info) {
                           return type_name(info.param);
                         });

TEST_P(EvalTypeSweep, WrapMatchesUncheckedAndFlagMatchesRange) {
  const IntType t = GetParam();
  Env env;
  Rng rng(1234 + static_cast<uint64_t>(t));
  for (int i = 0; i < 2000; ++i) {
    const uint64_t ra = truncate_to(t, rng.next_u64());
    const uint64_t rb = truncate_to(t, rng.next_u64());
    const BinaryOp op = i % 3 == 0   ? BinaryOp::kAdd
                        : i % 3 == 1 ? BinaryOp::kSub
                                     : BinaryOp::kMul;
    auto e = eb::bin(op, eb::c(ra, t), eb::c(rb, t), t);
    EvalDiag diag;
    const uint64_t checked = env.eval(e, true, &diag);
    const uint64_t unchecked = env.eval(e, false, nullptr);
    EXPECT_EQ(checked, unchecked);
    const __int128 va = interpret(t, ra);
    const __int128 vb = interpret(t, rb);
    bool fits = false;
    uint64_t wrapped = 0;
    if (op == BinaryOp::kMul) {
      // The true product can need 129 bits (u64 max * u64 max), past
      // __int128, so the oracle multiplies magnitudes (each < 2^64, product
      // < 2^128) and applies the sign separately.
      const bool neg = (va < 0) != (vb < 0);
      const auto mag = static_cast<unsigned __int128>(va < 0 ? -va : va) *
                       static_cast<unsigned __int128>(vb < 0 ? -vb : vb);
      const unsigned b = bits_of(t);
      const unsigned __int128 limit =
          is_signed(t) ? (static_cast<unsigned __int128>(1) << (b - 1)) -
                             (neg ? 0 : 1)
                       : (neg ? 0
                              : (static_cast<unsigned __int128>(1) << b) - 1);
      fits = mag <= limit;
      wrapped = truncate_to(t, static_cast<uint64_t>(neg ? -mag : mag));
    } else {
      const __int128 truth = op == BinaryOp::kAdd ? va + vb : va - vb;
      fits = representable(t, truth);
      // The wrapped result must be congruent to the truth modulo 2^bits.
      wrapped = wrap_to(t, truth);
    }
    EXPECT_EQ(diag.kind == EvalDiag::Kind::kIntegerOverflow, !fits)
        << type_name(t) << " " << ra << " op " << rb;
    EXPECT_EQ(wrapped, checked);
  }
}

}  // namespace
}  // namespace sedspec
