#include "expr/eval.h"

#include <sstream>

#include "common/assert.h"

namespace sedspec {

std::string EvalDiag::describe() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kNone:
      out << "no anomaly";
      break;
    case Kind::kIntegerOverflow:
      out << "integer overflow in " << type_name(type);
      break;
    case Kind::kBufferOob:
      out << "buffer " << (oob_is_write ? "write" : "read")
          << " out of bounds: field p" << buffer << " index " << index;
      break;
    case Kind::kDivByZero:
      out << "division by zero";
      break;
    case Kind::kShiftOutOfRange:
      out << "shift amount out of range for " << type_name(type);
      break;
    case Kind::kMissingLocal:
      out << "unresolved local variable local" << local;
      break;
  }
  if (!note.empty()) {
    out << " (at: " << note << ")";
  }
  return out.str();
}

namespace {

// Raw 64-bit two's-complement pattern of an operand's interpreted value.
uint64_t pattern_of(IntType t, uint64_t raw) {
  return static_cast<uint64_t>(
      static_cast<unsigned __int128>(interpret(t, raw)));
}

uint64_t eval_binary(const Expr& e, EvalCtx& ctx) {
  const uint64_t lraw = eval_expr(*e.lhs, ctx);
  const uint64_t rraw = eval_expr(*e.rhs, ctx);
  const __int128 lv = interpret(e.lhs->type, lraw);
  const __int128 rv = interpret(e.rhs->type, rraw);

  auto arith = [&](/* true mathematical result */ __int128 truth) {
    if (ctx.checked && ctx.diag != nullptr && !representable(e.type, truth)) {
      ctx.diag->record(EvalDiag::Kind::kIntegerOverflow);
      if (ctx.diag->kind == EvalDiag::Kind::kIntegerOverflow &&
          ctx.diag->note.empty()) {
        ctx.diag->type = e.type;
      }
    }
    return wrap_to(e.type, truth);
  };

  switch (e.bin_op) {
    case BinaryOp::kAdd:
      return arith(lv + rv);
    case BinaryOp::kSub:
      return arith(lv - rv);
    case BinaryOp::kMul:
      return arith(mul_value(lv, rv));
    case BinaryOp::kDiv:
      if (rv == 0) {
        if (ctx.checked && ctx.diag != nullptr) {
          ctx.diag->record(EvalDiag::Kind::kDivByZero);
        }
        return 0;
      }
      return arith(lv / rv);
    case BinaryOp::kMod:
      if (rv == 0) {
        if (ctx.checked && ctx.diag != nullptr) {
          ctx.diag->record(EvalDiag::Kind::kDivByZero);
        }
        return 0;
      }
      return arith(lv % rv);
    case BinaryOp::kAnd:
      return truncate_to(e.type, pattern_of(e.lhs->type, lraw) &
                                     pattern_of(e.rhs->type, rraw));
    case BinaryOp::kOr:
      return truncate_to(e.type, pattern_of(e.lhs->type, lraw) |
                                     pattern_of(e.rhs->type, rraw));
    case BinaryOp::kXor:
      return truncate_to(e.type, pattern_of(e.lhs->type, lraw) ^
                                     pattern_of(e.rhs->type, rraw));
    case BinaryOp::kShl: {
      const uint64_t amount = static_cast<uint64_t>(rv) & 63;
      if (ctx.checked && ctx.diag != nullptr &&
          (rv < 0 || rv >= bits_of(e.type))) {
        ctx.diag->record(EvalDiag::Kind::kShiftOutOfRange);
        ctx.diag->type = e.type;
      }
      // Cannot overflow: |lv| < 2^64 and the factor is at most 2^63.
      return arith(lv * (static_cast<__int128>(1) << amount));
    }
    case BinaryOp::kShr: {
      const uint64_t amount = static_cast<uint64_t>(rv) & 63;
      if (ctx.checked && ctx.diag != nullptr &&
          (rv < 0 || rv >= bits_of(e.type))) {
        ctx.diag->record(EvalDiag::Kind::kShiftOutOfRange);
        ctx.diag->type = e.type;
      }
      // Arithmetic shift for signed lhs, logical for unsigned.
      return wrap_to(e.type, lv >> amount);
    }
    case BinaryOp::kEq:
      return lv == rv ? 1 : 0;
    case BinaryOp::kNe:
      return lv != rv ? 1 : 0;
    case BinaryOp::kLt:
      return lv < rv ? 1 : 0;
    case BinaryOp::kLe:
      return lv <= rv ? 1 : 0;
    case BinaryOp::kGt:
      return lv > rv ? 1 : 0;
    case BinaryOp::kGe:
      return lv >= rv ? 1 : 0;
    case BinaryOp::kLAnd:
      return (lv != 0 && rv != 0) ? 1 : 0;
    case BinaryOp::kLOr:
      return (lv != 0 || rv != 0) ? 1 : 0;
  }
  return 0;
}

}  // namespace

uint64_t eval_expr(const Expr& e, EvalCtx& ctx) {
  SEDSPEC_REQUIRE(ctx.state != nullptr);
  switch (e.kind) {
    case ExprKind::kConst:
      return e.const_value;
    case ExprKind::kParam:
      return truncate_to(e.type, ctx.state->param(e.param));
    case ExprKind::kLocal: {
      uint64_t v = 0;
      if (!ctx.state->local(e.local, &v)) {
        if (ctx.checked && ctx.diag != nullptr) {
          ctx.diag->record(EvalDiag::Kind::kMissingLocal);
          ctx.diag->local = e.local;
        } else {
          SEDSPEC_REQUIRE_MSG(false, "device read of unset local variable " +
                                         std::to_string(e.local));
        }
        return 0;
      }
      return truncate_to(e.type, v);
    }
    case ExprKind::kIoField: {
      SEDSPEC_REQUIRE_MSG(ctx.io != nullptr, "expression reads io outside round");
      switch (e.io_field) {
        case IoField::kAddr:
          return truncate_to(e.type, ctx.io->addr);
        case IoField::kValue:
          return truncate_to(e.type, ctx.io->value);
        case IoField::kSize:
          return truncate_to(e.type, ctx.io->size);
        case IoField::kIsWrite:
          return ctx.io->is_write ? 1 : 0;
        case IoField::kSpace:
          return static_cast<uint64_t>(ctx.io->space);
      }
      return 0;
    }
    case ExprKind::kBufLoad: {
      const uint64_t idx = eval_expr(*e.lhs, ctx);
      return truncate_to(e.type,
                         ctx.state->buf_load(e.param, idx, ctx.diag));
    }
    case ExprKind::kUnary: {
      const uint64_t raw = eval_expr(*e.lhs, ctx);
      const __int128 v = interpret(e.lhs->type, raw);
      switch (e.un_op) {
        case UnaryOp::kNeg: {
          const __int128 truth = -v;
          if (ctx.checked && ctx.diag != nullptr &&
              !representable(e.type, truth)) {
            ctx.diag->record(EvalDiag::Kind::kIntegerOverflow);
            ctx.diag->type = e.type;
          }
          return wrap_to(e.type, truth);
        }
        case UnaryOp::kBitNot:
          return truncate_to(e.type, ~pattern_of(e.lhs->type, raw));
        case UnaryOp::kLogicalNot:
          return v == 0 ? 1 : 0;
      }
      return 0;
    }
    case ExprKind::kBinary:
      return eval_binary(e, ctx);
    case ExprKind::kCast:
      // Casts wrap silently (deliberate register-width truncation is benign;
      // see eval.h). Signed narrowing follows two's-complement wrap.
      return truncate_to(e.type, pattern_of(e.lhs->type,
                                            eval_expr(*e.lhs, ctx)));
  }
  return 0;
}

void exec_stmt(const Stmt& s, EvalCtx& ctx) {
  const bool note_diag = ctx.checked && ctx.diag != nullptr;
  const bool had = note_diag && ctx.diag->any();
  switch (s.kind) {
    case StmtKind::kAssignParam: {
      const uint64_t v = eval_expr(*s.value, ctx);
      ctx.state->set_param(s.param, v);
      break;
    }
    case StmtKind::kAssignLocal: {
      const uint64_t v = eval_expr(*s.value, ctx);
      ctx.state->set_local(s.local, v);
      break;
    }
    case StmtKind::kBufStore: {
      const uint64_t idx = eval_expr(*s.index, ctx);
      const uint64_t v = eval_expr(*s.value, ctx);
      ctx.state->buf_store(s.param, idx, v, ctx.diag);
      break;
    }
    case StmtKind::kBufFill: {
      const uint64_t idx = eval_expr(*s.index, ctx);
      const uint64_t count = eval_expr(*s.count, ctx);
      ctx.state->buf_fill(s.param, idx, count, ctx.diag);
      break;
    }
  }
  // Attribute a freshly raised anomaly to this statement's annotation.
  if (note_diag && !had && ctx.diag->any() && ctx.diag->note.empty()) {
    ctx.diag->note = s.note;
  }
}

}  // namespace sedspec
