// BytecodeEngine: compile-once / execute-many check backend (DESIGN.md §12).
//
// At deploy time the spec::EsCfg and its expr/stmt ASTs are lowered into a
// flat, immutable BytecodeProgram: one contiguous Insn array executed by a
// threaded-code VM (computed-goto dispatch),
// plus side tables — block metadata, statement-note and constant pools,
// sorted command dispatch tables, indirect-jump edge sets (dense bitmap or
// sorted array + branchless binary search) and entry dispatch groups.
//
// Design contract: observational identity with InterpreterEngine. Every
// evaluation quirk of expr/eval.cc (overflow/diag recording order, eager
// &&/||, raw kConst, shift-range rules, missing-local attribution) is
// replicated per opcode, and every violation string is produced by the
// shared engine::detail formatters. The differential suite
// (tests/check_engine_test.cc) holds both engines to identical CheckResults
// across devices, the CVE matrix, and fuzzed specs.
//
// Every program is re-verified against the attached device's StateLayout
// before execution, whether it was just compiled or handed in precompiled:
// a program that passes verify_program may compute wrong results if it is
// garbled, but can never execute unsafely (all indices are range-checked at
// attach, the arena clamps escapes, and internal inconsistencies throw
// CheckerFault into the containment layer).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checker/engine/engine.h"
#include "spec/es_cfg.h"

namespace sedspec::checker::engine {

/// Opcodes. Control ops terminate or redirect the instruction stream; expr
/// ops implement one AST node each (one opcode per BinaryOp — threaded
/// dispatch makes a wide opcode space free); stmt ops mutate the shadow.
///
/// Every value an instruction consumes is an *operand* (see operand_spec
/// below): a register, or a leaf read in place — a constant-pool entry, a
/// scalar field or an I/O field. Only leaves the encoding cannot express
/// (and leaves that can fault) take a dispatch of their own, via kConst or
/// kLoadParam.
enum class Op : uint8_t {
  // Control.
  kEnd = 0,  // round complete (code[0] is always kEnd: jump target 0 = end)
  kJump,     // pc = c
  kProlog,   // block entry: steps/watchdog/budget/visits/syncs/cmd-access
             // (a = block meta, b/dst = sync-pool slice, imm = visit bound)
  kGuardCmpBranch,  // conditional NBTD on `a OP b` (dst = guard_cmp_types,
                    // t = kBrCanDiag); a guard that is not a comparison
                    // compiles to `guard != 0` as u64
  kCmdDispatch,     // command decode dispatch on operand a (sorted table)
  kIndirect,        // indirect-jump edge-set membership check
  kCmdEnd,          // active command ends
  kTrapUnmapped,    // dangling trained successor: step accounting, then
                    // CheckerFault — byte-compatible with the interpreter
                    // walking onto an unmapped site

  // Expressions (dst = register index, a = operand).
  kConst,      // dst = imm (raw, untruncated): a constant past the pool limit
  kLoadParam,  // dst = truncate(t, shadow.param(a)): a param no operand takes
  kLoadLocal,  // dst = truncate(t, local a) | missing-local diag
  kBufLoad,    // dst = truncate(t, shadow.buf_load(b, a, &diag))
  kCast,       // dst = truncate(t, pattern_of(b, a))
  kNeg,        // dst = -a with overflow diag (t = result, b = operand type)
  kBitNot,     // dst = truncate(t, ~pattern_of(b, a))
  kLogNot,     // dst = interpret(b, a) == 0
  // Binary: dst, a = lhs, b = rhs, c = res | lhs<<8 | rhs<<16 types.
  kAdd, kSub, kMul, kDiv, kMod, kAnd, kOr, kXor, kShl, kShr,
  kEq, kNe, kLt, kLe, kGt, kGe, kLAnd, kLOr,

  // Statements (a = source operand).
  kStoreParam,   // shadow.set_param(b, a)
  kStoreLocal,   // shadow.set_local(b, a)
  kBufStore,     // shadow.buf_store(b, a, dst, t ? &diag : null)
  kBufFill,      // shadow.buf_fill(b, a, dst, t ? &diag : null)
  kDiagCheck,    // convert a pending stmt diag into a violation, reset
  // Scalar-field store: the compiler resolves a scalar param's byte
  // offset/width against the layout (emitted only when the id is a valid
  // scalar — invalid ids keep kStoreParam so the arena's runtime
  // containment is engine-identical). The verifier pins the width to 1, 2,
  // 4 or 8 and bounds-checks offset+width against the arena.
  kStoreScalar,  // store_scalar(c, b, truncate(t, a))  (t = field type)

  kOpCount,
};

/// One fixed-size instruction. Field meaning is per-opcode (see Op).
struct Insn {
  uint8_t op = 0;     // Op
  uint8_t t = 0;      // type / flags (per-op)
  uint16_t dst = 0;   // destination register / secondary operand
  uint16_t a = 0;     // operand / id
  uint16_t b = 0;     // operand / id / pool-index
  uint32_t c = 0;     // packed types / meta index / jump target
  uint64_t imm = 0;   // constant / packed branch targets
};
static_assert(sizeof(Insn) == 24);

// kGuardCmpBranch flag bit (Insn::t) and direction bits (low byte of
// Insn::c; the block-meta index lives in the high 24 bits of c).
inline constexpr uint8_t kBrCanDiag = 1;         // guard can raise a diag
inline constexpr uint32_t kDirTakenObserved = 1;
inline constexpr uint32_t kDirTakenEnds = 2;
inline constexpr uint32_t kDirNotTakenObserved = 4;
inline constexpr uint32_t kDirNotTakenEnds = 8;

/// Operand encoding (Insn::a, Insn::b, and Insn::dst of kBufStore/kBufFill).
/// Leaves:    kind(2 bits) << 14 | IntType(3 bits) << 11 | id(11 bits)
/// Registers: kOpdReg << 14 | register(14 bits)
/// A leaf reads as the raw value its register would have held: a constant
/// untruncated, a scalar field or I/O field truncated to its IntType. A
/// register holds its value already typed, so it carries no type.
enum OperandKind : unsigned {
  kOpdConst = 0,   // constant-pool index
  kOpdScalar = 1,  // scalar param id (offset/width resolved at attach)
  kOpdIo = 2,      // IoField
  kOpdReg = 3,     // register
};
inline constexpr uint16_t kOperandIdMax = 0x7ff;
inline constexpr uint16_t kOperandRegMax = 0x3fff;

inline constexpr uint16_t operand_spec(OperandKind kind, sedspec::IntType type,
                                       uint16_t id) {
  return static_cast<uint16_t>((kind << 14) |
                               (static_cast<unsigned>(type) << 11) |
                               (id & kOperandIdMax));
}
inline constexpr uint16_t reg_operand(uint16_t reg) {
  return static_cast<uint16_t>((kOpdReg << 14) | (reg & kOperandRegMax));
}

/// kGuardCmpBranch's Insn::dst: lhs IntType | rhs IntType << 3 | BinaryOp
/// (a comparison) << 8.
inline constexpr uint16_t guard_cmp_types(sedspec::IntType lhs,
                                          sedspec::IntType rhs,
                                          sedspec::BinaryOp op) {
  return static_cast<uint16_t>(static_cast<unsigned>(lhs) |
                               (static_cast<unsigned>(rhs) << 3) |
                               (static_cast<unsigned>(op) << 8));
}

/// Sentinel: the active command has no entry in the command-access table
/// (the access check is skipped, matching commands.find() == end()).
inline constexpr uint32_t kNoAccess = 0xffffffff;

struct BlockMeta {
  std::string name;
  SiteId site = sedspec::kInvalidSite;
  uint64_t trained_max = 0;  // block.max_visits_per_round (for the message)
};

struct DispatchEntry {
  uint64_t cmd = 0;
  uint32_t pc = 0;  // 0 (= kEnd) when this command ends the round
  uint32_t access_idx = kNoAccess;
};

struct DispatchTable {
  std::vector<DispatchEntry> entries;  // sorted by cmd; observed only
};

/// Trained indirect-jump target set.
struct EdgeSet {
  enum : uint8_t { kEmpty = 0, kBitmap = 1, kSorted = 2 };
  uint8_t kind = kEmpty;
  uint64_t base = 0;            // kBitmap: lowest target
  std::vector<uint64_t> words;  // kBitmap: span/64 words
  std::vector<uint64_t> sorted; // kSorted: ascending targets

  [[nodiscard]] bool contains(uint64_t target) const;
};

/// Entry dispatch for one (space, is_write) group: dense direct table when
/// the trained address span is small, otherwise sorted addresses +
/// branchless lower-bound.
struct EntryGroup {
  bool dense = false;
  uint64_t base = 0;
  std::vector<uint32_t> table;  // dense: pc per addr-base offset (kPcMiss)
  std::vector<uint64_t> addrs;  // sparse: ascending
  std::vector<uint32_t> pcs;    // sparse: parallel to addrs
};

inline constexpr uint32_t kPcMiss = 0xffffffff;

/// The compiled, immutable program. Shareable across engines (each engine
/// adds its own mutable state: registers, visit counters).
struct BytecodeProgram {
  std::string device_name;
  uint32_t reg_count = 0;
  std::vector<Insn> code;  // code[0] is kEnd
  std::vector<BlockMeta> blocks;
  std::vector<std::string> notes;
  std::vector<uint64_t> consts;
  std::vector<sedspec::LocalId> sync_pool;
  std::vector<DispatchTable> tables;
  std::vector<EdgeSet> edges;
  // Command access-control table: sorted command values; one bitset row of
  // words_per_block words per command, bit i = block i accessible.
  std::vector<uint64_t> cmd_values;
  std::vector<uint64_t> access_words;
  uint32_t words_per_block = 0;
  EntryGroup entry[4];  // index: (space == kMmio) << 1 | is_write
};

/// Compiles a spec into a program. The result depends only on the spec and
/// the device layout. Throws std::logic_error on structurally malformed
/// specs through the shared validate_targets (engine.h), exactly as
/// InterpreterEngine attach does.
[[nodiscard]] std::shared_ptr<const BytecodeProgram> compile_program(
    const spec::EsCfg& cfg, const Device& device);

/// Structural/memory-safety verifier: every register, operand, pool index
/// and jump target is range-checked against the program's own tables,
/// scalar stores and scalar operands against the attached device's layout,
/// and the last instruction must be a terminator. Throws common DecodeError on the first
/// violation. A verified program executes memory-safely even if its results
/// are garbage.
void verify_program(const BytecodeProgram& p,
                    const sedspec::StateLayout& layout);

class BytecodeEngine final : public CheckEngine {
 public:
  /// Compile-and-attach (the make_engine path).
  BytecodeEngine(const spec::EsCfg* cfg, Device* device,
                 sedspec::StateArena* shadow, const CheckerConfig* config);

  /// Attach a precompiled program. Runs verify_program against the device
  /// before accepting it.
  BytecodeEngine(std::shared_ptr<const BytecodeProgram> program,
                 Device* device, sedspec::StateArena* shadow,
                 const CheckerConfig* config);

  [[nodiscard]] CheckResult check(const IoAccess& io,
                                  const RoundOptions& opts) override;

  [[nodiscard]] std::optional<uint64_t> active_command() const override {
    return active_cmd_;
  }
  void set_active_command(std::optional<uint64_t> cmd) override;

  [[nodiscard]] std::string_view name() const override { return "bytecode"; }

  [[nodiscard]] const BytecodeProgram& program() const { return *program_; }

 private:
  void attach();

  std::shared_ptr<const BytecodeProgram> program_;
  Device* device_;
  sedspec::StateArena* shadow_;
  const CheckerConfig* config_;

  // Mutable per-engine state.
  std::vector<uint64_t> regs_;
  std::vector<uint64_t> visits_;
  std::vector<uint64_t> visit_epoch_;
  uint64_t epoch_ = 0;
  sedspec::EvalDiag diag_;  // clean at statement boundaries
  // Command latch, kept as the optional active_command() returns so the
  // per-round snapshot is a plain copy. active_access_ is its row in the
  // command-access table (kNoAccess when unset or untabled).
  std::optional<uint64_t> active_cmd_;
  uint32_t active_access_ = kNoAccess;

  // Scalar operands, resolved from the *trusted* layout (not the program)
  // at attach() time: for every scalar field id, its byte offset and its
  // width (1, 2, 4 or 8; the verifier admits scalar operands only for such
  // ids). Buffer fields keep width 0.
  std::vector<uint32_t> scalar_off_;
  std::vector<uint8_t> scalar_w_;
};

}  // namespace sedspec::checker::engine
