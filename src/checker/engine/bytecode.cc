// BytecodeEngine implementation: spec -> flat bytecode compiler, structural
// verifier, and the threaded-code VM.
//
// The compiler and VM are written against one contract: observational
// identity with InterpreterEngine (and therefore expr/eval.cc). Comments
// below call out each place where eval.cc's exact quirk order is load-
// bearing; change nothing here without re-running the differential suite.
#include "checker/engine/bytecode.h"

#include <algorithm>
#include <array>
#include <map>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/decode.h"
#include "expr/type.h"
#include "vdev/device.h"

namespace sedspec::checker::engine {

bool EdgeSet::contains(uint64_t target) const {
  switch (kind) {
    case kEmpty:
      return false;
    case kBitmap: {
      if (target < base) {
        return false;
      }
      const uint64_t off = target - base;
      const uint64_t word = off >> 6;
      if (word >= words.size()) {
        return false;
      }
      return ((words[word] >> (off & 63)) & 1) != 0;
    }
    default: {  // kSorted (and garbage kinds: empty `sorted` => false)
      const uint64_t* lo = sorted.data();
      size_t n = sorted.size();
      while (n > 1) {
        const size_t half = n / 2;
        lo += (lo[half - 1] < target) ? half : 0;
        n -= half;
      }
      return n == 1 && *lo == target;
    }
  }
}

namespace {

using sedspec::Expr;
using sedspec::ExprKind;
using sedspec::Stmt;
using sedspec::StmtKind;
using spec::EsBlock;

/// Row of command `cmd` in the per-command access bitsets (its index in the
/// sorted `cmd_values`), or kNoAccess when the command has no row.
uint32_t access_index(const BytecodeProgram& p, uint64_t cmd) {
  const auto it = std::lower_bound(p.cmd_values.begin(), p.cmd_values.end(),
                                   cmd);
  if (it == p.cmd_values.end() || *it != cmd) {
    return kNoAccess;
  }
  return static_cast<uint32_t>(it - p.cmd_values.begin());
}

/// Conservative over-approximation of "evaluating this expression can record
/// an EvalDiag". Over-approximating is safe (kDiagCheck is a no-op on a
/// clean diag); under-approximating would drop violations.
bool expr_can_diag(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kConst:
    case ExprKind::kParam:
    case ExprKind::kIoField:
      return false;
    case ExprKind::kLocal:    // kMissingLocal
    case ExprKind::kBufLoad:  // kBufferOob (and its index subtree)
      return true;
    case ExprKind::kUnary:
      if (e.un_op == sedspec::UnaryOp::kNeg) {
        return true;  // kIntegerOverflow
      }
      return e.lhs != nullptr && expr_can_diag(*e.lhs);
    case ExprKind::kBinary:
      switch (e.bin_op) {
        case sedspec::BinaryOp::kAdd:
        case sedspec::BinaryOp::kSub:
        case sedspec::BinaryOp::kMul:
        case sedspec::BinaryOp::kDiv:
        case sedspec::BinaryOp::kMod:
        case sedspec::BinaryOp::kShl:
        case sedspec::BinaryOp::kShr:
          return true;
        default:
          return (e.lhs != nullptr && expr_can_diag(*e.lhs)) ||
                 (e.rhs != nullptr && expr_can_diag(*e.rhs));
      }
    case ExprKind::kCast:
      return e.lhs != nullptr && expr_can_diag(*e.lhs);
  }
  return true;
}

class Compiler {
 public:
  Compiler(const spec::EsCfg& cfg, const Device& device)
      : cfg_(cfg),
        layout_(device.program().layout()),
        site_count_(device.program().site_count()) {}

  std::shared_ptr<const BytecodeProgram> run() {
    validate_targets(cfg_, site_count_);
    p_.device_name = cfg_.device_name;
    build_block_meta();
    build_commands();

    // code[0] is always kEnd: jump target 0 terminates the round, which is
    // what unobserved/ends transition slots encode.
    p_.code.push_back(Insn{.op = static_cast<uint8_t>(Op::kEnd)});
    for (auto it = cfg_.blocks.begin(); it != cfg_.blocks.end(); ++it) {
      block_pc_[it->first] = static_cast<uint32_t>(p_.code.size());
      const auto next = std::next(it);
      next_site_ =
          next == cfg_.blocks.end() ? sedspec::kInvalidSite : next->first;
      compile_block(it->second, meta_idx_.at(it->first));
    }
    apply_fixups();
    build_entries();

    p_.reg_count = next_reg_;
    return std::make_shared<const BytecodeProgram>(std::move(p_));
  }

 private:
  enum FixSlot : uint8_t { kSlotC = 0, kSlotImmLo = 1, kSlotImmHi = 2 };
  struct Fixup {
    size_t insn = 0;
    FixSlot slot = kSlotC;
    SiteId site = sedspec::kInvalidSite;
  };
  struct TableFixup {
    size_t table = 0;
    size_t entry = 0;
    SiteId site = sedspec::kInvalidSite;
  };

  void build_block_meta() {
    SEDSPEC_REQUIRE(cfg_.blocks.size() <= 0xffff);
    for (const auto& [site, block] : cfg_.blocks) {
      meta_idx_[site] = static_cast<uint32_t>(p_.blocks.size());
      BlockMeta meta;
      meta.name = block.name;
      meta.site = site;
      meta.trained_max = block.max_visits_per_round;
      p_.blocks.push_back(std::move(meta));
    }
  }

  void build_commands() {
    p_.words_per_block =
        static_cast<uint32_t>((p_.blocks.size() + 63) / 64);
    for (const auto& [cmd, info] : cfg_.commands) {  // map order => sorted
      p_.cmd_values.push_back(cmd);
      const size_t row = p_.access_words.size();
      p_.access_words.resize(row + p_.words_per_block, 0);
      for (const SiteId s : info.access) {
        const auto it = meta_idx_.find(s);
        if (it == meta_idx_.end()) {
          continue;  // access entry for a non-block site: never visited
        }
        const uint32_t bit = it->second;
        p_.access_words[row + (bit >> 6)] |= uint64_t{1} << (bit & 63);
      }
    }
  }

  // --- register allocation ------------------------------------------------

  uint16_t alloc_reg() {
    if (!free_regs_.empty()) {
      const uint16_t r = free_regs_.back();
      free_regs_.pop_back();
      return r;
    }
    // Every register must be expressible as an operand.
    SEDSPEC_REQUIRE(next_reg_ <= kOperandRegMax);
    return static_cast<uint16_t>(next_reg_++);
  }
  void free_operand(uint16_t operand) {
    if ((operand >> 14) == kOpdReg) {
      free_regs_.push_back(operand & kOperandRegMax);
    }
  }

  size_t emit(Insn ins) {
    p_.code.push_back(ins);
    return p_.code.size() - 1;
  }

  /// Emits a value-producing instruction into a fresh register and returns
  /// that register as an operand.
  uint16_t emit_value(Insn ins) {
    const uint16_t r = alloc_reg();
    ins.dst = r;
    emit(ins);
    return reg_operand(r);
  }

  uint32_t intern_note(const std::string& note) {
    const auto [it, inserted] =
        note_idx_.try_emplace(note, static_cast<uint32_t>(p_.notes.size()));
    if (inserted) {
      p_.notes.push_back(note);
    }
    return it->second;
  }

  uint32_t intern_const(uint64_t v) {
    const auto [it, inserted] =
        const_idx_.try_emplace(v, static_cast<uint32_t>(p_.consts.size()));
    if (inserted) {
      p_.consts.push_back(v);
    }
    return it->second;
  }

  /// Non-null iff `param` names a valid scalar field. Anything else keeps
  /// the generic ops so the arena's runtime REQUIREs fire identically in
  /// both engines.
  const sedspec::FieldDesc* scalar_field(uint16_t param) const {
    if (param >= layout_.field_count()) {
      return nullptr;
    }
    const sedspec::FieldDesc& f =
        layout_.field(static_cast<ParamId>(param));
    if (f.is_buffer() || !sedspec::StateArena::is_scalar_width(f.size)) {
      return nullptr;
    }
    return &f;
  }

  /// The value of a constant, or of casts over one, folded at compile time
  /// exactly as eval.cc would compute it.
  static std::optional<uint64_t> folded_const(const Expr& e) {
    if (e.kind == ExprKind::kConst) {
      return e.const_value;
    }
    if (e.kind == ExprKind::kCast && e.lhs != nullptr) {
      if (const auto v = folded_const(*e.lhs)) {
        return sedspec::truncate_to(
            e.type, static_cast<uint64_t>(static_cast<unsigned __int128>(
                        sedspec::interpret(e.lhs->type, *v))));
      }
    }
    return std::nullopt;
  }

  /// A cast that widens an unsigned value to an unsigned type at least as
  /// wide is the identity on any value already truncated to the source
  /// type — which every non-constant expression yields (constants are raw
  /// and fold instead).
  static bool cast_is_identity(const Expr& e) {
    const sedspec::IntType from = e.lhs->type;
    return !sedspec::is_signed(from) && !sedspec::is_signed(e.type) &&
           sedspec::bits_of(e.type) >= sedspec::bits_of(from);
  }

  // --- expression compilation --------------------------------------------
  // compile_operand() returns the operand that reads `e`'s value. Leaves
  // that cannot fault or raise a diag are read in place; everything else
  // is computed into a register, in eval.cc's lhs-then-rhs order, so diags
  // are recorded in the interpreter's order (an in-place leaf reads the
  // same value later, since expressions never write state).
  // Free-then-alloc register discipline: operand registers are released
  // before the destination is allocated, so dst may alias an operand. Every
  // VM opcode reads its operands before writing regs[dst].

  /// A constant-pool operand, or a kConst load past the pool operand limit.
  uint16_t constant(uint64_t v, sedspec::IntType type) {
    const uint32_t idx = intern_const(v);
    if (idx <= kOperandIdMax) {
      return operand_spec(kOpdConst, type, static_cast<uint16_t>(idx));
    }
    return emit_value(Insn{.op = static_cast<uint8_t>(Op::kConst),
                           .t = static_cast<uint8_t>(type),
                           .imm = v});
  }

  uint16_t compile_operand(const Expr& e) {
    if (const auto v = folded_const(e)) {
      return constant(*v, e.type);
    }
    switch (e.kind) {
      case ExprKind::kConst:  // folded above
        break;
      case ExprKind::kParam:
        // Valid scalar params are read in place through the attach-resolved
        // offset/width; the generic op is kept for ids the arena would
        // reject at runtime so containment behavior stays engine-identical.
        if (e.param <= kOperandIdMax && scalar_field(e.param) != nullptr) {
          return operand_spec(kOpdScalar, e.type, e.param);
        }
        return emit_value(Insn{.op = static_cast<uint8_t>(Op::kLoadParam),
                               .t = static_cast<uint8_t>(e.type),
                               .a = e.param});
      case ExprKind::kIoField:
        return operand_spec(kOpdIo, e.type,
                            static_cast<uint16_t>(e.io_field));
      case ExprKind::kLocal:
        return emit_value(Insn{.op = static_cast<uint8_t>(Op::kLoadLocal),
                               .t = static_cast<uint8_t>(e.type),
                               .a = e.local});
      case ExprKind::kBufLoad: {
        SEDSPEC_REQUIRE(e.lhs != nullptr);
        const uint16_t index = compile_operand(*e.lhs);
        free_operand(index);
        return emit_value(Insn{.op = static_cast<uint8_t>(Op::kBufLoad),
                               .t = static_cast<uint8_t>(e.type),
                               .a = index,
                               .b = e.param});
      }
      case ExprKind::kUnary: {
        SEDSPEC_REQUIRE(e.lhs != nullptr);
        const uint16_t src = compile_operand(*e.lhs);
        free_operand(src);
        Op op = Op::kNeg;
        if (e.un_op == sedspec::UnaryOp::kBitNot) {
          op = Op::kBitNot;
        } else if (e.un_op == sedspec::UnaryOp::kLogicalNot) {
          op = Op::kLogNot;
        }
        return emit_value(Insn{.op = static_cast<uint8_t>(op),
                               .t = static_cast<uint8_t>(e.type),
                               .a = src,
                               .b = static_cast<uint16_t>(e.lhs->type)});
      }
      case ExprKind::kBinary: {
        SEDSPEC_REQUIRE(e.lhs != nullptr && e.rhs != nullptr);
        const uint16_t lhs = compile_operand(*e.lhs);
        const uint16_t rhs = compile_operand(*e.rhs);
        free_operand(lhs);
        free_operand(rhs);
        // Op::kAdd..kLOr mirrors BinaryOp::kAdd..kLOr exactly.
        const auto op = static_cast<Op>(
            static_cast<uint8_t>(Op::kAdd) +
            (static_cast<uint8_t>(e.bin_op) -
             static_cast<uint8_t>(sedspec::BinaryOp::kAdd)));
        return emit_value(Insn{.op = static_cast<uint8_t>(op),
                               .a = lhs,
                               .b = rhs,
                               .c = static_cast<uint32_t>(e.type) |
                                    (static_cast<uint32_t>(e.lhs->type) << 8) |
                                    (static_cast<uint32_t>(e.rhs->type) << 16)});
      }
      case ExprKind::kCast: {
        SEDSPEC_REQUIRE(e.lhs != nullptr);
        if (cast_is_identity(e)) {
          return compile_operand(*e.lhs);
        }
        const uint16_t src = compile_operand(*e.lhs);
        free_operand(src);
        return emit_value(Insn{.op = static_cast<uint8_t>(Op::kCast),
                               .t = static_cast<uint8_t>(e.type),
                               .a = src,
                               .b = static_cast<uint16_t>(e.lhs->type)});
      }
    }
    SEDSPEC_REQUIRE_MSG(false, "unknown expression kind");
    return 0;
  }

  // --- statement compilation ---------------------------------------------

  void compile_stmt(const Stmt& s, uint32_t meta) {
    bool can_diag = false;
    switch (s.kind) {
      case StmtKind::kAssignParam: {
        SEDSPEC_REQUIRE(s.value != nullptr);
        const uint16_t v = compile_operand(*s.value);
        if (const sedspec::FieldDesc* f = scalar_field(s.param)) {
          emit(Insn{.op = static_cast<uint8_t>(Op::kStoreScalar),
                    .t = static_cast<uint8_t>(f->type),
                    .a = v,
                    .b = static_cast<uint16_t>(f->size),
                    .c = f->offset});
        } else {
          emit(Insn{.op = static_cast<uint8_t>(Op::kStoreParam),
                    .a = v,
                    .b = s.param});
        }
        free_operand(v);
        can_diag = expr_can_diag(*s.value);
        break;
      }
      case StmtKind::kAssignLocal: {
        SEDSPEC_REQUIRE(s.value != nullptr);
        const uint16_t v = compile_operand(*s.value);
        emit(Insn{.op = static_cast<uint8_t>(Op::kStoreLocal),
                  .a = v,
                  .b = s.local});
        free_operand(v);
        can_diag = expr_can_diag(*s.value);
        break;
      }
      case StmtKind::kBufStore: {
        SEDSPEC_REQUIRE(s.index != nullptr && s.value != nullptr);
        const bool bounds = bounds_checked(cfg_, s);
        const uint16_t index = compile_operand(*s.index);
        const uint16_t v = compile_operand(*s.value);
        emit(Insn{.op = static_cast<uint8_t>(Op::kBufStore),
                  .t = bounds ? uint8_t{1} : uint8_t{0},
                  .dst = v,
                  .a = index,
                  .b = s.param});
        free_operand(index);
        free_operand(v);
        can_diag =
            bounds || expr_can_diag(*s.index) || expr_can_diag(*s.value);
        break;
      }
      case StmtKind::kBufFill: {
        SEDSPEC_REQUIRE(s.index != nullptr && s.count != nullptr);
        const bool bounds = bounds_checked(cfg_, s);
        const uint16_t index = compile_operand(*s.index);
        const uint16_t count = compile_operand(*s.count);
        emit(Insn{.op = static_cast<uint8_t>(Op::kBufFill),
                  .t = bounds ? uint8_t{1} : uint8_t{0},
                  .dst = count,
                  .a = index,
                  .b = s.param});
        free_operand(index);
        free_operand(count);
        can_diag =
            bounds || expr_can_diag(*s.index) || expr_can_diag(*s.count);
        break;
      }
    }
    if (can_diag) {
      emit(Insn{.op = static_cast<uint8_t>(Op::kDiagCheck),
                .b = static_cast<uint16_t>(meta),
                .c = intern_note(s.note)});
    }
  }

  // --- block compilation --------------------------------------------------

  void compile_block(const EsBlock& block, uint32_t meta) {
    const std::vector<LocalId> syncs = block_syncs(cfg_, block);
    const size_t sync_off = p_.sync_pool.size();
    SEDSPEC_REQUIRE(sync_off + syncs.size() <= 0xffff);
    p_.sync_pool.insert(p_.sync_pool.end(), syncs.begin(), syncs.end());
    // The visit bound rides in imm so a clean visit never touches
    // BlockMeta (it is read only to report a violation).
    emit(Insn{.op = static_cast<uint8_t>(Op::kProlog),
              .dst = static_cast<uint16_t>(syncs.size()),
              .a = static_cast<uint16_t>(meta),
              .b = static_cast<uint16_t>(sync_off),
              .imm = visit_bound(block)});

    for (const Stmt& s : block.dsod) {
      compile_stmt(s, meta);
    }

    // Terminator (NBTD).
    switch (block.kind) {
      case sedspec::BlockKind::kConditional: {
        if (block.merged) {
          emit_jump(block.has_succ ? block.succ : sedspec::kInvalidSite);
          break;
        }
        SEDSPEC_REQUIRE(block.guard != nullptr);
        const uint32_t dirs = dir_flags(block);
        const Expr& g = *block.guard;
        uint16_t lhs = 0;
        uint16_t rhs = 0;
        uint16_t types = 0;
        if (g.kind == ExprKind::kBinary && g.bin_op >= sedspec::BinaryOp::kEq &&
            g.bin_op <= sedspec::BinaryOp::kGe && g.lhs != nullptr &&
            g.rhs != nullptr) {
          // A comparison guard fuses into the compare-and-branch; a
          // comparison never raises a diag itself, so the diag protocol
          // covers exactly what its operands recorded.
          lhs = compile_operand(*g.lhs);
          rhs = compile_operand(*g.rhs);
          types = guard_cmp_types(g.lhs->type, g.rhs->type, g.bin_op);
        } else {
          // Any other guard branches on its raw value != 0, as the
          // interpreter does; a u64 compare against 0 is exactly that test.
          lhs = compile_operand(g);
          rhs = constant(0, sedspec::IntType::kU64);
          types = guard_cmp_types(sedspec::IntType::kU64,
                                  sedspec::IntType::kU64,
                                  sedspec::BinaryOp::kNe);
        }
        free_operand(lhs);
        free_operand(rhs);
        const size_t idx = emit(
            Insn{.op = static_cast<uint8_t>(Op::kGuardCmpBranch),
                 .t = expr_can_diag(g) ? kBrCanDiag : uint8_t{0},
                 .dst = types,
                 .a = lhs,
                 .b = rhs,
                 .c = dirs | (meta << 8)});
        add_branch_fixups(idx, block);
        break;
      }
      case sedspec::BlockKind::kCmdDecision: {
        SEDSPEC_REQUIRE(block.cmd_expr != nullptr);
        const uint16_t cmd = compile_operand(*block.cmd_expr);
        free_operand(cmd);
        const uint32_t ti = build_dispatch_table(block);
        emit(Insn{.op = static_cast<uint8_t>(Op::kCmdDispatch),
                  .t = expr_can_diag(*block.cmd_expr) ? kBrCanDiag
                                                      : uint8_t{0},
                  .a = cmd,
                  .b = static_cast<uint16_t>(ti),
                  .c = meta});
        break;
      }
      case sedspec::BlockKind::kIndirect: {
        const uint32_t ei = build_edge_set(block);
        const size_t idx =
            emit(Insn{.op = static_cast<uint8_t>(Op::kIndirect),
                      .a = block.fp_param,
                      .b = static_cast<uint16_t>(ei),
                      .c = meta});
        if (block.has_succ) {
          fixups_.push_back(Fixup{idx, kSlotImmLo, block.succ});
        }
        break;
      }
      case sedspec::BlockKind::kCmdEnd: {
        const size_t idx = emit(Insn{.op = static_cast<uint8_t>(Op::kCmdEnd)});
        if (block.has_succ) {
          fixups_.push_back(Fixup{idx, kSlotImmLo, block.succ});
        }
        break;
      }
      case sedspec::BlockKind::kPlain:
        emit_jump(block.has_succ ? block.succ : sedspec::kInvalidSite);
        break;
    }
  }

  void emit_jump(SiteId target) {
    // Fallthrough elision: a plain jump to the block compiled immediately
    // after this one is a no-op — the next insn IS that block's prolog.
    if (target != sedspec::kInvalidSite && target == next_site_) {
      return;
    }
    const size_t idx = emit(Insn{.op = static_cast<uint8_t>(Op::kJump)});
    fixups_.push_back(Fixup{idx, kSlotC, target});
  }

  [[nodiscard]] static uint32_t dir_flags(const EsBlock& block) {
    uint32_t f = 0;
    if (block.taken.observed) f |= kDirTakenObserved;
    if (block.taken.ends) f |= kDirTakenEnds;
    if (block.not_taken.observed) f |= kDirNotTakenObserved;
    if (block.not_taken.ends) f |= kDirNotTakenEnds;
    return f;
  }

  void add_branch_fixups(size_t idx, const EsBlock& block) {
    if (block.taken.observed && !block.taken.ends) {
      fixups_.push_back(Fixup{idx, kSlotImmLo, block.taken.succ});
    }
    if (block.not_taken.observed && !block.not_taken.ends) {
      fixups_.push_back(Fixup{idx, kSlotImmHi, block.not_taken.succ});
    }
  }

  uint32_t build_dispatch_table(const EsBlock& block) {
    const size_t ti = p_.tables.size();
    SEDSPEC_REQUIRE(ti <= 0xffff);
    DispatchTable table;
    for (const auto& [cmd, dir] : block.cmd_dispatch) {  // map order: sorted
      if (!dir.observed) {
        continue;  // unobserved entry == absent entry (untrained_cmd)
      }
      DispatchEntry e;
      e.cmd = cmd;
      e.access_idx = access_index(p_, cmd);
      if (!dir.ends) {
        table_fixups_.push_back(
            TableFixup{ti, table.entries.size(), dir.succ});
      }
      table.entries.push_back(e);
    }
    p_.tables.push_back(std::move(table));
    return static_cast<uint32_t>(ti);
  }

  uint32_t build_edge_set(const EsBlock& block) {
    const size_t ei = p_.edges.size();
    SEDSPEC_REQUIRE(ei <= 0xffff);
    EdgeSet set;
    if (!block.fp_targets.empty()) {
      const uint64_t lo = *block.fp_targets.begin();
      const uint64_t hi = *block.fp_targets.rbegin();
      const uint64_t span = hi - lo;
      if (span < (uint64_t{1} << 16)) {
        set.kind = EdgeSet::kBitmap;
        set.base = lo;
        set.words.assign((span >> 6) + 1, 0);
        for (const uint64_t t : block.fp_targets) {
          const uint64_t off = t - lo;
          set.words[off >> 6] |= uint64_t{1} << (off & 63);
        }
      } else {
        set.kind = EdgeSet::kSorted;
        set.sorted.assign(block.fp_targets.begin(), block.fp_targets.end());
      }
    }
    p_.edges.push_back(std::move(set));
    return static_cast<uint32_t>(ei);
  }

  // --- target resolution --------------------------------------------------

  /// kInvalidSite -> 0 (round end); a compiled block -> its pc; anything
  /// else -> a lazily materialized kTrapUnmapped. The trap replicates the
  /// interpreter byte-for-byte: a trained `succ` that is not a block is
  /// still *walked onto* (ends is not consulted by plain transitions), and
  /// the unmapped site throws only after step/watchdog/budget accounting.
  uint32_t resolve_target(SiteId site) {
    if (site == sedspec::kInvalidSite) {
      return 0;
    }
    if (const auto it = block_pc_.find(site); it != block_pc_.end()) {
      return it->second;
    }
    const auto [it, inserted] = trap_pc_.try_emplace(site, 0);
    if (inserted) {
      it->second = static_cast<uint32_t>(p_.code.size());
      emit(Insn{.op = static_cast<uint8_t>(Op::kTrapUnmapped), .c = site});
    }
    return it->second;
  }

  void apply_fixups() {
    for (const Fixup& f : fixups_) {
      const uint32_t pc = resolve_target(f.site);
      Insn& ins = p_.code[f.insn];
      switch (f.slot) {
        case kSlotC:
          ins.c = pc;
          break;
        case kSlotImmLo:
          ins.imm = (ins.imm & ~uint64_t{0xffffffff}) | pc;
          break;
        case kSlotImmHi:
          ins.imm = (ins.imm & uint64_t{0xffffffff}) |
                    (static_cast<uint64_t>(pc) << 32);
          break;
      }
    }
    for (const TableFixup& f : table_fixups_) {
      p_.tables[f.table].entries[f.entry].pc = resolve_target(f.site);
    }
  }

  void build_entries() {
    std::map<uint64_t, uint32_t> by_addr[4];
    for (const auto& [key, entry] : cfg_.entry_dispatch) {
      const size_t g = ((key.space == sedspec::IoSpace::kMmio) ? 2 : 0) |
                       (key.is_write ? 1 : 0);
      by_addr[g][key.addr] = resolve_target(entry);
    }
    for (size_t g = 0; g < 4; ++g) {
      EntryGroup& group = p_.entry[g];
      if (by_addr[g].empty()) {
        continue;
      }
      const uint64_t lo = by_addr[g].begin()->first;
      const uint64_t hi = by_addr[g].rbegin()->first;
      if (hi - lo < 4096) {
        group.dense = true;
        group.base = lo;
        group.table.assign(hi - lo + 1, kPcMiss);
        for (const auto& [addr, pc] : by_addr[g]) {
          group.table[addr - lo] = pc;
        }
      } else {
        for (const auto& [addr, pc] : by_addr[g]) {
          group.addrs.push_back(addr);
          group.pcs.push_back(pc);
        }
      }
    }
  }

  const spec::EsCfg& cfg_;
  const sedspec::StateLayout& layout_;
  const size_t site_count_;

  BytecodeProgram p_;
  std::map<SiteId, uint32_t> meta_idx_;
  std::map<SiteId, uint32_t> block_pc_;
  std::map<SiteId, uint32_t> trap_pc_;
  std::map<std::string, uint32_t> note_idx_;
  std::map<uint64_t, uint32_t> const_idx_;
  std::vector<Fixup> fixups_;
  std::vector<TableFixup> table_fixups_;
  std::vector<uint16_t> free_regs_;
  uint32_t next_reg_ = 0;
  SiteId next_site_ = sedspec::kInvalidSite;  // block after the current one
};

}  // namespace

std::shared_ptr<const BytecodeProgram> compile_program(
    const spec::EsCfg& cfg, const Device& device) {
  return Compiler(cfg, device).run();
}

// ---------------------------------------------------------------------------
// Structural verifier.
//
// Leniency principle: the verifier checks RAW MEMORY SAFETY of execution —
// register indices, pool/table/jump indices, opcode validity (the computed-
// goto table is indexed by op without a bounds check), terminator placement.
// It deliberately does NOT range-check the generic ops' param/local ids: the
// arena and layout already guard those at runtime with the same logic_error
// the interpreter produces, and rejecting at attach time would diverge from
// the interpreter's runtime-containment behavior on malformed specs. A
// scalar operand is the exception: the VM reads it without a lookup, and
// the compiler emits one only for a valid scalar field (anything else
// compiles to kLoadParam), so rejecting a bad one rejects no spec.
// ---------------------------------------------------------------------------

namespace {

[[nodiscard]] bool is_terminator(Op op) {
  switch (op) {
    case Op::kEnd:
    case Op::kJump:
    case Op::kGuardCmpBranch:
    case Op::kCmdDispatch:
    case Op::kIndirect:
    case Op::kCmdEnd:
    case Op::kTrapUnmapped:
      return true;
    default:
      return false;
  }
}

}  // namespace

void verify_program(const BytecodeProgram& p,
                    const sedspec::StateLayout& layout) {
  SEDSPEC_CHECK_DECODE(p.reg_count <= 0x10000, "register count out of range");
  SEDSPEC_CHECK_DECODE(!p.code.empty(), "empty code");
  SEDSPEC_CHECK_DECODE(p.code.size() < kPcMiss, "code too large");
  SEDSPEC_CHECK_DECODE(p.code[0].op == static_cast<uint8_t>(Op::kEnd),
                       "code[0] must be kEnd");
  SEDSPEC_CHECK_DECODE(
      p.words_per_block == (p.blocks.size() + 63) / 64,
      "words_per_block inconsistent with block count");
  SEDSPEC_CHECK_DECODE(
      p.access_words.size() == p.cmd_values.size() * p.words_per_block,
      "access table size inconsistent");
  SEDSPEC_CHECK_DECODE(
      std::is_sorted(p.cmd_values.begin(), p.cmd_values.end()) &&
          std::adjacent_find(p.cmd_values.begin(), p.cmd_values.end()) ==
              p.cmd_values.end(),
      "command values not strictly sorted");

  const auto check_reg = [&](uint16_t r) {
    SEDSPEC_CHECK_DECODE(r < p.reg_count, "register index out of range");
  };
  // Every kind of the two-bit field is valid; each kind's id is checked
  // against what the VM indexes with it.
  const auto check_operand = [&](uint16_t operand) {
    const uint16_t id = operand & kOperandIdMax;
    switch (operand >> 14) {
      case kOpdConst:
        SEDSPEC_CHECK_DECODE(id < p.consts.size(),
                             "constant operand index out of range");
        break;
      case kOpdScalar:
        SEDSPEC_CHECK_DECODE(
            id < layout.field_count() &&
                !layout.field(static_cast<ParamId>(id)).is_buffer() &&
                sedspec::StateArena::is_scalar_width(
                    layout.field(static_cast<ParamId>(id)).size),
            "scalar operand not a scalar field");
        break;
      case kOpdIo:
        SEDSPEC_CHECK_DECODE(id <= 4, "io operand field invalid");
        break;
      default:  // kOpdReg
        SEDSPEC_CHECK_DECODE((operand & kOperandRegMax) < p.reg_count,
                             "register operand out of range");
        break;
    }
  };
  const auto check_pc = [&](uint32_t pc) {
    SEDSPEC_CHECK_DECODE(pc < p.code.size(), "jump target out of range");
  };

  for (const Insn& ins : p.code) {
    switch (static_cast<Op>(ins.op)) {
      case Op::kEnd:
      case Op::kTrapUnmapped:
        break;
      case Op::kJump:
        check_pc(ins.c);
        break;
      case Op::kProlog:
        SEDSPEC_CHECK_DECODE(ins.a < p.blocks.size(),
                             "prolog block index out of range");
        SEDSPEC_CHECK_DECODE(
            static_cast<size_t>(ins.b) + ins.dst <= p.sync_pool.size(),
            "sync pool slice out of range");
        break;
      case Op::kGuardCmpBranch: {
        const unsigned cmp = ins.dst >> 8;
        SEDSPEC_CHECK_DECODE(
            cmp >= static_cast<unsigned>(sedspec::BinaryOp::kEq) &&
                cmp <= static_cast<unsigned>(sedspec::BinaryOp::kGe),
            "guard-cmp operator not a comparison");
        check_operand(ins.a);
        check_operand(ins.b);
        SEDSPEC_CHECK_DECODE((ins.c >> 8) < p.blocks.size(),
                             "branch block index out of range");
        check_pc(static_cast<uint32_t>(ins.imm));
        check_pc(static_cast<uint32_t>(ins.imm >> 32));
        break;
      }
      case Op::kCmdDispatch:
        check_operand(ins.a);
        SEDSPEC_CHECK_DECODE(ins.b < p.tables.size(),
                             "dispatch table index out of range");
        SEDSPEC_CHECK_DECODE(ins.c < p.blocks.size(),
                             "dispatch block index out of range");
        break;
      case Op::kIndirect:
        SEDSPEC_CHECK_DECODE(ins.b < p.edges.size(),
                             "edge set index out of range");
        SEDSPEC_CHECK_DECODE(ins.c < p.blocks.size(),
                             "indirect block index out of range");
        check_pc(static_cast<uint32_t>(ins.imm));
        break;
      case Op::kCmdEnd:
        check_pc(static_cast<uint32_t>(ins.imm));
        break;
      case Op::kConst:
      case Op::kLoadParam:
      case Op::kLoadLocal:
        check_reg(ins.dst);
        break;
      case Op::kBufLoad:
      case Op::kCast:
      case Op::kNeg:
      case Op::kBitNot:
      case Op::kLogNot:
        check_operand(ins.a);
        check_reg(ins.dst);
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
      case Op::kShl:
      case Op::kShr:
      case Op::kEq:
      case Op::kNe:
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe:
      case Op::kLAnd:
      case Op::kLOr:
        check_operand(ins.a);
        check_operand(ins.b);
        check_reg(ins.dst);
        break;
      case Op::kStoreParam:
      case Op::kStoreLocal:
        check_operand(ins.a);
        break;
      case Op::kBufStore:
      case Op::kBufFill:
        check_operand(ins.a);
        check_operand(ins.dst);
        break;
      case Op::kDiagCheck:
        SEDSPEC_CHECK_DECODE(ins.b < p.blocks.size(),
                             "diag block index out of range");
        SEDSPEC_CHECK_DECODE(ins.c < p.notes.size(),
                             "diag note index out of range");
        break;
      case Op::kStoreScalar:
        // b = width, c = byte offset.
        check_operand(ins.a);
        SEDSPEC_CHECK_DECODE(sedspec::StateArena::is_scalar_width(ins.b),
                             "scalar width invalid");
        SEDSPEC_CHECK_DECODE(
            static_cast<uint64_t>(ins.c) + ins.b <= layout.arena_size(),
            "scalar access outside arena");
        break;
      default:
        SEDSPEC_CHECK_DECODE(false, "unknown opcode");
    }
  }
  SEDSPEC_CHECK_DECODE(is_terminator(static_cast<Op>(p.code.back().op)),
                       "code must end with a terminator");

  for (const DispatchTable& table : p.tables) {
    uint64_t prev = 0;
    bool first = true;
    for (const DispatchEntry& e : table.entries) {
      SEDSPEC_CHECK_DECODE(first || e.cmd > prev,
                           "dispatch table not strictly sorted");
      first = false;
      prev = e.cmd;
      SEDSPEC_CHECK_DECODE(e.pc < p.code.size(),
                           "dispatch target out of range");
      SEDSPEC_CHECK_DECODE(
          e.access_idx == kNoAccess || e.access_idx < p.cmd_values.size(),
          "dispatch access index out of range");
    }
  }
  for (const EdgeSet& set : p.edges) {
    SEDSPEC_CHECK_DECODE(set.kind <= EdgeSet::kSorted, "edge set kind invalid");
  }
  for (const EntryGroup& g : p.entry) {
    SEDSPEC_CHECK_DECODE(g.pcs.size() == g.addrs.size(),
                         "entry group pc/addr size mismatch");
    for (const uint32_t pc : g.table) {
      SEDSPEC_CHECK_DECODE(pc == kPcMiss || pc < p.code.size(),
                           "entry target out of range");
    }
    for (const uint32_t pc : g.pcs) {
      SEDSPEC_CHECK_DECODE(pc == kPcMiss || pc < p.code.size(),
                           "entry target out of range");
    }
  }
}

// ---------------------------------------------------------------------------
// The VM.
// ---------------------------------------------------------------------------

namespace {

using sedspec::EvalDiag;
using sedspec::IntType;

/// Raw 64-bit two's-complement pattern of an operand's interpreted value
/// (eval.cc's pattern_of).
[[gnu::always_inline]] inline uint64_t vm_pattern(IntType t, uint64_t raw) {
  return static_cast<uint64_t>(
      static_cast<unsigned __int128>(sedspec::interpret(t, raw)));
}

/// One binary AST node over its fetched operands, replicating eval_binary()
/// exactly — including the overflow-recording order, eager &&/||, raw
/// (untruncated) comparison results, and the shift-range rule. Instantiated
/// once per operator so the per-opcode VM labels stay free of a second
/// dispatch. Forced inline, as GCC would otherwise call some instantiations
/// out of line.
template <sedspec::BinaryOp OP>
[[gnu::always_inline]] inline uint64_t vm_binary(const Insn& ins,
                                                 uint64_t lraw, uint64_t rraw,
                                                 EvalDiag& diag) {
  using sedspec::BinaryOp;
  const auto res = static_cast<IntType>(ins.c & 7);
  const auto lt = static_cast<IntType>((ins.c >> 8) & 7);
  const auto rt = static_cast<IntType>((ins.c >> 16) & 7);
  const __int128 lv = sedspec::interpret(lt, lraw);
  const __int128 rv = sedspec::interpret(rt, rraw);
  const auto arith = [&](__int128 truth) {
    if (!sedspec::representable(res, truth)) {
      diag.record(EvalDiag::Kind::kIntegerOverflow);
      if (diag.kind == EvalDiag::Kind::kIntegerOverflow &&
          diag.note.empty()) {
        diag.type = res;
      }
    }
    return sedspec::wrap_to(res, truth);
  };
  uint64_t out = 0;
  if constexpr (OP == BinaryOp::kAdd) {
    out = arith(lv + rv);
  } else if constexpr (OP == BinaryOp::kSub) {
    out = arith(lv - rv);
  } else if constexpr (OP == BinaryOp::kMul) {
    out = arith(sedspec::mul_value(lv, rv));
  } else if constexpr (OP == BinaryOp::kDiv || OP == BinaryOp::kMod) {
    if (rv == 0) {
      diag.record(EvalDiag::Kind::kDivByZero);
      out = 0;
    } else {
      out = arith(OP == BinaryOp::kDiv ? lv / rv : lv % rv);
    }
  } else if constexpr (OP == BinaryOp::kAnd) {
    out = sedspec::truncate_to(res, vm_pattern(lt, lraw) & vm_pattern(rt, rraw));
  } else if constexpr (OP == BinaryOp::kOr) {
    out = sedspec::truncate_to(res, vm_pattern(lt, lraw) | vm_pattern(rt, rraw));
  } else if constexpr (OP == BinaryOp::kXor) {
    out = sedspec::truncate_to(res, vm_pattern(lt, lraw) ^ vm_pattern(rt, rraw));
  } else if constexpr (OP == BinaryOp::kShl) {
    const uint64_t amount = static_cast<uint64_t>(rv) & 63;
    if (rv < 0 || rv >= sedspec::bits_of(res)) {
      diag.record(EvalDiag::Kind::kShiftOutOfRange);
      diag.type = res;
    }
    // Cannot overflow: |lv| < 2^64 and the factor is at most 2^63.
    out = arith(lv * (static_cast<__int128>(1) << amount));
  } else if constexpr (OP == BinaryOp::kShr) {
    const uint64_t amount = static_cast<uint64_t>(rv) & 63;
    if (rv < 0 || rv >= sedspec::bits_of(res)) {
      diag.record(EvalDiag::Kind::kShiftOutOfRange);
      diag.type = res;
    }
    out = sedspec::wrap_to(res, lv >> amount);
  } else if constexpr (OP == BinaryOp::kEq) {
    out = lv == rv ? 1 : 0;
  } else if constexpr (OP == BinaryOp::kNe) {
    out = lv != rv ? 1 : 0;
  } else if constexpr (OP == BinaryOp::kLt) {
    out = lv < rv ? 1 : 0;
  } else if constexpr (OP == BinaryOp::kLe) {
    out = lv <= rv ? 1 : 0;
  } else if constexpr (OP == BinaryOp::kGt) {
    out = lv > rv ? 1 : 0;
  } else if constexpr (OP == BinaryOp::kGe) {
    out = lv >= rv ? 1 : 0;
  } else if constexpr (OP == BinaryOp::kLAnd) {
    out = (lv != 0 && rv != 0) ? 1 : 0;  // eager: both already evaluated
  } else {
    out = (lv != 0 || rv != 0) ? 1 : 0;  // kLOr, also eager
  }
  return out;
}

/// Per operand kind: the mask that extracts its id (a register id is wider
/// than a leaf id).
constexpr uint16_t kOperandIdMask[4] = {kOperandIdMax, kOperandIdMax,
                                        kOperandIdMax, kOperandRegMax};

/// Per operand top five bits (kind << 3 | IntType): the mask applied to the
/// value read. Constants and registers read raw; scalar and I/O leaves
/// truncate to their type (truncate_to as a mask, without its branches).
constexpr std::array<uint64_t, 32> kOperandValueMask = [] {
  std::array<uint64_t, 32> m{};
  for (unsigned top = 0; top < 32; ++top) {
    const unsigned kind = top >> 3;
    const unsigned bits = sedspec::bits_of(static_cast<IntType>(top & 7));
    m[top] = (kind == kOpdScalar || kind == kOpdIo) && bits < 64
                 ? (uint64_t{1} << bits) - 1
                 : ~uint64_t{0};
  }
  return m;
}();

/// The one operand fetch every consuming instruction uses. Returns the raw
/// value the operand's register would have held had its leaf taken a load
/// dispatch of its own (eval.cc's leaf values): a constant untruncated, a
/// scalar or I/O field truncated to the operand's type. Truncating
/// is_write (0/1) and space (0/1) is the identity, so the I/O fields share
/// one path. Every kind but a scalar field is one indexed load from its
/// array, so the fetch has one branch; a per-kind if-chain with truncate_to
/// measured slower (EXPERIMENTS.md, "Operand-form VM"). Forced inline: it
/// runs for nearly every operand of a round.
struct OperandFile {
  const uint64_t* array[4];  // by kind: consts, (scalar: unused), io, regs
  const sedspec::StateArena* shadow;
  const uint32_t* scalar_off;
  const uint8_t* scalar_w;

  [[gnu::always_inline]] uint64_t operator()(uint16_t operand) const {
    const unsigned top = operand >> 11;
    const unsigned kind = top >> 3;
    const uint16_t id = operand & kOperandIdMask[kind];
    const uint64_t raw =
        kind == kOpdScalar
            ? shadow->load_scalar(scalar_off[id], scalar_w[id])
            : array[kind][id];
    return raw & kOperandValueMask[top];
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// BytecodeEngine.
// ---------------------------------------------------------------------------

BytecodeEngine::BytecodeEngine(const spec::EsCfg* cfg, Device* device,
                               sedspec::StateArena* shadow,
                               const CheckerConfig* config)
    : program_(compile_program(*cfg, *device)),
      device_(device),
      shadow_(shadow),
      config_(config) {
  attach();
}

BytecodeEngine::BytecodeEngine(std::shared_ptr<const BytecodeProgram> program,
                               Device* device, sedspec::StateArena* shadow,
                               const CheckerConfig* config)
    : program_(std::move(program)),
      device_(device),
      shadow_(shadow),
      config_(config) {
  SEDSPEC_REQUIRE(program_ != nullptr);
  SEDSPEC_REQUIRE_MSG(
      program_->device_name == device_->program().device_name(),
      "bytecode program compiled for a different device");
  attach();
}

void BytecodeEngine::attach() {
  verify_program(*program_, device_->program().layout());
  regs_.assign(program_->reg_count, 0);
  visits_.assign(program_->blocks.size(), 0);
  visit_epoch_.assign(program_->blocks.size(), 0);
  // Resolve scalar operands against the layout the program was verified
  // against, so they skip the virtual param() lookup.
  const sedspec::StateLayout& layout = device_->program().layout();
  scalar_off_.assign(layout.field_count(), 0);
  scalar_w_.assign(layout.field_count(), 0);
  for (size_t i = 0; i < layout.field_count(); ++i) {
    const sedspec::FieldDesc& f = layout.field(static_cast<ParamId>(i));
    if (!f.is_buffer() && sedspec::StateArena::is_scalar_width(f.size)) {
      scalar_off_[i] = f.offset;
      scalar_w_[i] = static_cast<uint8_t>(f.size);
    }
  }
}

void BytecodeEngine::set_active_command(std::optional<uint64_t> cmd) {
  active_cmd_ = cmd;
  active_access_ =
      cmd.has_value() ? access_index(*program_, *cmd) : kNoAccess;
}

// Threaded-code dispatch (computed goto, a GNU extension every supported
// compiler has): each VM_CASE block below ends by jumping straight to the
// next instruction's handler.
#define VM_CASE(name) op_##name:
#define VM_DISPATCH() goto* kJumpTable[code[pc].op]
#define VM_NEXT() \
  do {            \
    ++pc;         \
    VM_DISPATCH();\
  } while (0)
#define VM_GOTO(target)                    \
  do {                                     \
    pc = static_cast<uint32_t>(target);    \
    VM_DISPATCH();                         \
  } while (0)

CheckResult BytecodeEngine::check(const IoAccess& io,
                                  const RoundOptions& opts) {
  CheckResult result;  // NRVO: add() appends violations to it directly
  const BytecodeProgram& p = *program_;
  const Insn* code = p.code.data();
  uint64_t* regs = regs_.data();
  // Indexed by IoField: kAddr, kValue, kSize, kIsWrite, kSpace.
  static_assert(static_cast<int>(sedspec::IoField::kSpace) == 4);
  const uint64_t io_fields[5] = {io.addr, io.value, io.size,
                                 io.is_write ? uint64_t{1} : 0,
                                 static_cast<uint64_t>(io.space)};
  const OperandFile opd{
      .array = {p.consts.data(), nullptr, io_fields, regs},
      .shadow = shadow_,
      .scalar_off = scalar_off_.data(),
      .scalar_w = scalar_w_.data()};
  const bool cond_on = strategy_enabled(*config_, Strategy::kConditionalJump);
  const bool param_on = strategy_enabled(*config_, Strategy::kParameter);
  const bool ind_on = strategy_enabled(*config_, Strategy::kIndirectJump);
  ++epoch_;
  const uint64_t watchdog =
      std::max(config_->watchdog_steps, config_->max_steps + 1);
  // One compare per step covers both the watchdog and the budget: without
  // suppression the budget stops the walk first (the min only matters if
  // max_steps + 1 wrapped), with it only the watchdog can.
  const uint64_t step_limit = opts.suppress_termination
                                  ? watchdog
                                  : std::min(config_->max_steps, watchdog);
  // Invariant: the diag is clean at statement/block boundaries; a contained
  // logic_error mid-statement can leave it dirty, so reset it then. A clean
  // diag has every field at its default (fields are written only after
  // record()), so the common case skips the reassignment.
  if (diag_.any()) {
    diag_ = EvalDiag{};
  }
  uint64_t steps = 0;

  const auto add = [&](Strategy s, SiteId site, std::string detail) {
    result.violations.push_back(Violation{s, site, std::move(detail)});
  };

  // Entry dispatch (paper §V-A): dense table or branchless lower-bound per
  // (space, direction) group.
  uint32_t pc = kPcMiss;
  {
    const EntryGroup& g =
        p.entry[((io.space == sedspec::IoSpace::kMmio) ? 2 : 0) |
                (io.is_write ? 1 : 0)];
    if (g.dense) {
      if (io.addr >= g.base && io.addr - g.base < g.table.size()) {
        pc = g.table[io.addr - g.base];
      }
    } else if (!g.addrs.empty()) {
      const uint64_t* base = g.addrs.data();
      size_t n = g.addrs.size();
      while (n > 1) {
        const size_t half = n / 2;
        base += (base[half - 1] < io.addr) ? half : 0;
        n -= half;
      }
      if (*base == io.addr) {
        pc = g.pcs[static_cast<size_t>(base - g.addrs.data())];
      }
    }
  }
  if (pc == kPcMiss) {
    if (cond_on) {
      add(Strategy::kConditionalJump, sedspec::kInvalidSite,
          detail::untrained_io(io));
    }
    return result;
  }

  static const void* const kJumpTable[] = {
      &&op_kEnd,        &&op_kJump,       &&op_kProlog,
      &&op_kGuardCmpBranch, &&op_kCmdDispatch, &&op_kIndirect, &&op_kCmdEnd,
      &&op_kTrapUnmapped, &&op_kConst,    &&op_kLoadParam, &&op_kLoadLocal,
      &&op_kBufLoad,    &&op_kCast,       &&op_kNeg,      &&op_kBitNot,
      &&op_kLogNot,     &&op_kAdd,        &&op_kSub,      &&op_kMul,
      &&op_kDiv,        &&op_kMod,        &&op_kAnd,      &&op_kOr,
      &&op_kXor,        &&op_kShl,        &&op_kShr,      &&op_kEq,
      &&op_kNe,         &&op_kLt,         &&op_kLe,       &&op_kGt,
      &&op_kGe,         &&op_kLAnd,       &&op_kLOr,      &&op_kStoreParam,
      &&op_kStoreLocal, &&op_kBufStore,   &&op_kBufFill,  &&op_kDiagCheck,
      &&op_kStoreScalar,
  };
  static_assert(sizeof(kJumpTable) / sizeof(kJumpTable[0]) ==
                static_cast<size_t>(Op::kOpCount));
  VM_DISPATCH();

  VM_CASE(kEnd) { goto vm_done; }

  VM_CASE(kJump) { VM_GOTO(code[pc].c); }

  VM_CASE(kProlog) {
    const Insn& ins = code[pc];
    // Interpreter-exact per-visit order: step accounting, watchdog, budget,
    // visit bound, sync resolution, command-access check. BlockMeta is read
    // only to report a violation.
    if (++steps > step_limit) {
      if (steps > watchdog) {
        throw CheckerFault(detail::watchdog_tripped(steps));
      }
      if (cond_on) {
        add(Strategy::kConditionalJump, p.blocks[ins.a].site,
            std::string(detail::kBudgetExceeded));
      }
      goto vm_done;
    }
    if (visit_epoch_[ins.a] != epoch_) {
      visit_epoch_[ins.a] = epoch_;
      visits_[ins.a] = 0;
    }
    if (++visits_[ins.a] > ins.imm && !opts.suppress_termination) {
      if (cond_on) {
        const BlockMeta& meta = p.blocks[ins.a];
        add(Strategy::kConditionalJump, meta.site,
            detail::visit_bound(meta.name, visits_[ins.a], meta.trained_max));
      }
      goto vm_done;
    }
    for (uint32_t i = 0; i < ins.dst; ++i) {
      const LocalId l = p.sync_pool[ins.b + i];
      if (auto v = device_->resolve_sync(l, io, *shadow_); v.has_value()) {
        shadow_->set_local(l, *v);
      }
    }
    if (active_access_ != kNoAccess && cond_on) {
      const uint64_t word =
          p.access_words[static_cast<size_t>(active_access_) *
                             p.words_per_block +
                         (ins.a >> 6)];
      if (((word >> (ins.a & 63)) & 1) == 0) {
        const BlockMeta& meta = p.blocks[ins.a];
        add(Strategy::kConditionalJump, meta.site,
            detail::cmd_access(meta.name, *active_cmd_));
      }
    }
    VM_NEXT();
  }

  VM_CASE(kGuardCmpBranch) {
    // The guard's compare and its branch in one dispatch. The compare
    // cannot raise a diag, so reporting what the operands recorded first is
    // order-exact.
    const Insn& ins = code[pc];
    const BlockMeta& meta = p.blocks[ins.c >> 8];
    if ((ins.t & kBrCanDiag) != 0 && diag_.any()) {
      if (diag_.kind == EvalDiag::Kind::kMissingLocal) {
        if (cond_on) {
          add(Strategy::kConditionalJump, meta.site,
              std::string(detail::kGuardUnresolvedSync));
        }
      } else if (param_on) {
        add(Strategy::kParameter, meta.site, detail::guard_diag(diag_));
      }
      diag_ = EvalDiag{};
    }
    const __int128 lv =
        sedspec::interpret(static_cast<IntType>(ins.dst & 7), opd(ins.a));
    const __int128 rv = sedspec::interpret(
        static_cast<IntType>((ins.dst >> 3) & 7), opd(ins.b));
    bool taken = false;
    switch (static_cast<sedspec::BinaryOp>(ins.dst >> 8)) {
      case sedspec::BinaryOp::kEq:
        taken = lv == rv;
        break;
      case sedspec::BinaryOp::kNe:
        taken = lv != rv;
        break;
      case sedspec::BinaryOp::kLt:
        taken = lv < rv;
        break;
      case sedspec::BinaryOp::kLe:
        taken = lv <= rv;
        break;
      case sedspec::BinaryOp::kGt:
        taken = lv > rv;
        break;
      default:  // kGe (verified)
        taken = lv >= rv;
        break;
    }
    const uint32_t flags = ins.c & 0xff;
    if ((flags & (taken ? kDirTakenObserved : kDirNotTakenObserved)) == 0) {
      if (cond_on) {
        add(Strategy::kConditionalJump, meta.site,
            detail::untrained_direction(meta.name, taken));
      }
      goto vm_done;
    }
    VM_GOTO(taken ? static_cast<uint32_t>(ins.imm)
                  : static_cast<uint32_t>(ins.imm >> 32));
  }

  VM_CASE(kCmdDispatch) {
    const Insn& ins = code[pc];
    const BlockMeta& meta = p.blocks[ins.c];
    if ((ins.t & kBrCanDiag) != 0 && diag_.any()) {
      // Missing-local during command decode is silently dropped (the
      // interpreter still dispatches); other diags report under parameter.
      if (diag_.kind != EvalDiag::Kind::kMissingLocal && param_on) {
        add(Strategy::kParameter, meta.site, detail::cmd_decode_diag(diag_));
      }
      diag_ = EvalDiag{};
    }
    const uint64_t cmd = opd(ins.a);
    const DispatchTable& table = p.tables[ins.b];
    const DispatchEntry* e = nullptr;
    if (!table.entries.empty()) {
      const DispatchEntry* base = table.entries.data();
      size_t n = table.entries.size();
      while (n > 1) {
        const size_t half = n / 2;
        base += (base[half - 1].cmd < cmd) ? half : 0;
        n -= half;
      }
      if (base->cmd == cmd) {
        e = base;
      }
    }
    if (e == nullptr) {
      if (cond_on) {
        add(Strategy::kConditionalJump, meta.site,
            detail::untrained_cmd(meta.name, cmd));
      }
      goto vm_done;  // untrained command; the latch is NOT set
    }
    active_cmd_ = cmd;
    active_access_ = e->access_idx;
    VM_GOTO(e->pc);
  }

  VM_CASE(kIndirect) {
    const Insn& ins = code[pc];
    const BlockMeta& meta = p.blocks[ins.c];
    const uint64_t target = shadow_->param(static_cast<ParamId>(ins.a));
    if (ind_on && !p.edges[ins.b].contains(target)) {
      add(Strategy::kIndirectJump, meta.site,
          detail::indirect_target(meta.name, target));
    }
    VM_GOTO(static_cast<uint32_t>(ins.imm));
  }

  VM_CASE(kCmdEnd) {
    active_cmd_.reset();
    active_access_ = kNoAccess;
    VM_GOTO(static_cast<uint32_t>(code[pc].imm));
  }

  VM_CASE(kTrapUnmapped) {
    // A trained successor that is not a mapped block. The interpreter walks
    // onto it and only then faults — after step/watchdog/budget accounting.
    const Insn& ins = code[pc];
    if (++steps > step_limit) {
      if (steps > watchdog) {
        throw CheckerFault(detail::watchdog_tripped(steps));
      }
      if (cond_on) {
        add(Strategy::kConditionalJump, static_cast<SiteId>(ins.c),
            std::string(detail::kBudgetExceeded));
      }
      goto vm_done;
    }
    throw CheckerFault(detail::unmapped_site(static_cast<SiteId>(ins.c)));
  }

  VM_CASE(kConst) {
    const Insn& ins = code[pc];
    regs[ins.dst] = ins.imm;  // raw, untruncated (kConst semantics)
    VM_NEXT();
  }

  VM_CASE(kLoadParam) {
    const Insn& ins = code[pc];
    regs[ins.dst] = sedspec::truncate_to(
        static_cast<IntType>(ins.t & 7),
        shadow_->param(static_cast<ParamId>(ins.a)));
    VM_NEXT();
  }

  VM_CASE(kLoadLocal) {
    const Insn& ins = code[pc];
    uint64_t v = 0;
    if (!shadow_->local(static_cast<LocalId>(ins.a), &v)) {
      diag_.record(EvalDiag::Kind::kMissingLocal);
      diag_.local = static_cast<LocalId>(ins.a);  // unconditional (eval.cc)
      regs[ins.dst] = 0;
    } else {
      regs[ins.dst] =
          sedspec::truncate_to(static_cast<IntType>(ins.t & 7), v);
    }
    VM_NEXT();
  }

  VM_CASE(kBufLoad) {
    const Insn& ins = code[pc];
    regs[ins.dst] = sedspec::truncate_to(
        static_cast<IntType>(ins.t & 7),
        shadow_->buf_load(static_cast<ParamId>(ins.b), opd(ins.a), &diag_));
    VM_NEXT();
  }

  VM_CASE(kCast) {
    const Insn& ins = code[pc];
    regs[ins.dst] = sedspec::truncate_to(
        static_cast<IntType>(ins.t & 7),
        vm_pattern(static_cast<IntType>(ins.b & 7), opd(ins.a)));
    VM_NEXT();
  }

  VM_CASE(kNeg) {
    const Insn& ins = code[pc];
    const auto t = static_cast<IntType>(ins.t & 7);
    const __int128 v =
        sedspec::interpret(static_cast<IntType>(ins.b & 7), opd(ins.a));
    const __int128 truth = -v;
    if (!sedspec::representable(t, truth)) {
      diag_.record(EvalDiag::Kind::kIntegerOverflow);
      diag_.type = t;  // unconditional (eval.cc kNeg)
    }
    regs[ins.dst] = sedspec::wrap_to(t, truth);
    VM_NEXT();
  }

  VM_CASE(kBitNot) {
    const Insn& ins = code[pc];
    regs[ins.dst] = sedspec::truncate_to(
        static_cast<IntType>(ins.t & 7),
        ~vm_pattern(static_cast<IntType>(ins.b & 7), opd(ins.a)));
    VM_NEXT();
  }

  VM_CASE(kLogNot) {
    const Insn& ins = code[pc];
    regs[ins.dst] =
        sedspec::interpret(static_cast<IntType>(ins.b & 7), opd(ins.a)) == 0
            ? 1
            : 0;
    VM_NEXT();
  }

#define VM_BINARY(name)                                                  \
  VM_CASE(name) {                                                        \
    const Insn& ins = code[pc];                                          \
    regs[ins.dst] = vm_binary<sedspec::BinaryOp::name>(ins, opd(ins.a),  \
                                                       opd(ins.b), diag_); \
    VM_NEXT();                                                           \
  }
  VM_BINARY(kAdd)
  VM_BINARY(kSub)
  VM_BINARY(kMul)
  VM_BINARY(kDiv)
  VM_BINARY(kMod)
  VM_BINARY(kAnd)
  VM_BINARY(kOr)
  VM_BINARY(kXor)
  VM_BINARY(kShl)
  VM_BINARY(kShr)
  VM_BINARY(kEq)
  VM_BINARY(kNe)
  VM_BINARY(kLt)
  VM_BINARY(kLe)
  VM_BINARY(kGt)
  VM_BINARY(kGe)
  VM_BINARY(kLAnd)
  VM_BINARY(kLOr)
#undef VM_BINARY

  VM_CASE(kStoreParam) {
    const Insn& ins = code[pc];
    shadow_->set_param(static_cast<ParamId>(ins.b), opd(ins.a));
    VM_NEXT();
  }

  VM_CASE(kStoreLocal) {
    const Insn& ins = code[pc];
    shadow_->set_local(static_cast<LocalId>(ins.b), opd(ins.a));
    VM_NEXT();
  }

  VM_CASE(kBufStore) {
    const Insn& ins = code[pc];
    shadow_->buf_store(static_cast<ParamId>(ins.b), opd(ins.a), opd(ins.dst),
                       ins.t != 0 ? &diag_ : nullptr);
    VM_NEXT();
  }

  VM_CASE(kBufFill) {
    const Insn& ins = code[pc];
    shadow_->buf_fill(static_cast<ParamId>(ins.b), opd(ins.a), opd(ins.dst),
                      ins.t != 0 ? &diag_ : nullptr);
    VM_NEXT();
  }

  VM_CASE(kDiagCheck) {
    const Insn& ins = code[pc];
    if (diag_.any()) {
      if (diag_.note.empty()) {
        diag_.note = p.notes[ins.c];
      }
      const BlockMeta& meta = p.blocks[ins.b];
      if (diag_.kind == EvalDiag::Kind::kMissingLocal) {
        if (cond_on) {
          add(Strategy::kConditionalJump, meta.site,
              detail::unresolved_sync(diag_));
        }
      } else if (param_on) {
        add(Strategy::kParameter, meta.site, diag_.describe());
      }
      diag_ = EvalDiag{};
    }
    VM_NEXT();
  }

  VM_CASE(kStoreScalar) {
    const Insn& ins = code[pc];
    shadow_->store_scalar(
        ins.c, ins.b,
        sedspec::truncate_to(static_cast<IntType>(ins.t & 7), opd(ins.a)));
    VM_NEXT();
  }

vm_done:
  result.steps = steps;
  return result;
}

#undef VM_CASE
#undef VM_DISPATCH
#undef VM_NEXT
#undef VM_GOTO

}  // namespace sedspec::checker::engine
