// Unit tests for the control-structure layout and the state arena — the
// adjacent-field-corruption semantics every exploit model relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "guest/workload.h"
#include "program/arena.h"
#include "program/layout.h"

namespace sedspec {
namespace {

TEST(Layout, NaturalAlignmentLikeAStruct) {
  StateLayout layout("S");
  const ParamId a = layout.add_scalar("a", FieldKind::kRegister, IntType::kU8);
  const ParamId b = layout.add_scalar("b", FieldKind::kRegister, IntType::kU32);
  const ParamId c = layout.add_scalar("c", FieldKind::kRegister, IntType::kU16);
  const ParamId fp = layout.add_funcptr("fp");
  EXPECT_EQ(layout.field(a).offset, 0u);
  EXPECT_EQ(layout.field(b).offset, 4u);  // padded to 4
  EXPECT_EQ(layout.field(c).offset, 8u);
  EXPECT_EQ(layout.field(fp).offset, 16u);  // padded to 8
  EXPECT_EQ(layout.arena_size(), 24u);
}

TEST(Layout, FindAndOffsetLookup) {
  StateLayout layout("S");
  (void)layout.add_scalar("x", FieldKind::kRegister, IntType::kU32);
  const ParamId buf = layout.add_buffer("buf", 1, 16);
  EXPECT_EQ(layout.find("buf"), buf);
  EXPECT_FALSE(layout.find("nope").has_value());
  EXPECT_EQ(layout.field_at_offset(layout.field(buf).offset + 5), buf);
}

TEST(Layout, DuplicateNameRejected) {
  StateLayout layout("S");
  (void)layout.add_scalar("x", FieldKind::kRegister, IntType::kU8);
  EXPECT_THROW(
      (void)layout.add_scalar("x", FieldKind::kRegister, IntType::kU8),
      std::logic_error);
}

struct ArenaEnv {
  StateLayout layout{"S"};
  ParamId before, buf, after, fp;
  std::unique_ptr<StateArena> arena;
  IncidentLog incidents;

  ArenaEnv() {
    before = layout.add_scalar("before", FieldKind::kRegister, IntType::kU32);
    buf = layout.add_buffer("buf", 1, 8);
    after = layout.add_scalar("after", FieldKind::kIndex, IntType::kU32);
    fp = layout.add_funcptr("fp");
    arena = std::make_unique<StateArena>(&layout);
    arena->set_incident_fn(
        [this](const Incident& i) { incidents.push_back(i); });
  }
};

TEST(Arena, ScalarRoundTripTruncatesToFieldType) {
  ArenaEnv env;
  env.arena->set_param(env.before, 0x123456789abcdefULL);
  EXPECT_EQ(env.arena->param(env.before), 0x89abcdefu);
}

TEST(Arena, InBoundsBufferOps) {
  ArenaEnv env;
  EvalDiag diag;
  env.arena->buf_store(env.buf, 7, 0x5a, &diag);
  EXPECT_FALSE(diag.any());
  EXPECT_EQ(env.arena->buf_load(env.buf, 7, &diag), 0x5au);
  EXPECT_FALSE(diag.any());
  EXPECT_TRUE(env.incidents.empty());
}

TEST(Arena, OobStoreCorruptsAdjacentField) {
  ArenaEnv env;
  env.arena->set_param(env.after, 0);
  // buf has 8 elements; index 8..11 land on the 'after' u32.
  env.arena->buf_store(env.buf, 8, 0x44, nullptr);
  EXPECT_EQ(env.arena->param(env.after) & 0xff, 0x44u);
  ASSERT_FALSE(env.incidents.empty());
  EXPECT_EQ(env.incidents.front().kind, IncidentKind::kOobWrite);
}

TEST(Arena, OobStoreCanClobberFunctionPointer) {
  ArenaEnv env;
  env.arena->set_param(env.fp, 0xdeadbeefcafef00dULL);
  const auto& f = env.layout.field(env.fp);
  const auto& b = env.layout.field(env.buf);
  const uint64_t idx = f.offset - b.offset;  // first byte of fp
  env.arena->buf_store(env.buf, idx, 0x41, nullptr);
  EXPECT_NE(env.arena->param(env.fp), 0xdeadbeefcafef00dULL);
}

TEST(Arena, NegativeIndexReachesEarlierFields) {
  ArenaEnv env;
  env.arena->set_param(env.before, 0);
  const auto& b = env.layout.field(env.buf);
  const int64_t idx = -static_cast<int64_t>(b.offset);  // start of arena
  EvalDiag diag;
  env.arena->buf_store(env.buf, static_cast<uint64_t>(idx), 0x99, &diag);
  EXPECT_EQ(diag.kind, EvalDiag::Kind::kBufferOob);
  EXPECT_TRUE(diag.oob_is_write);
  EXPECT_EQ(env.arena->param(env.before) & 0xff, 0x99u);
}

TEST(Arena, EscapeBeyondStructDropped) {
  ArenaEnv env;
  env.arena->buf_store(env.buf, 4096, 0x41, nullptr);
  ASSERT_FALSE(env.incidents.empty());
  EXPECT_EQ(env.incidents.front().kind, IncidentKind::kStructEscape);
}

TEST(Arena, FillZeroesOnlyOutOfFieldBytes) {
  ArenaEnv env;
  env.arena->set_param(env.after, 0x11223344);
  auto span = env.arena->buffer_span(env.buf);
  std::fill(span.begin(), span.end(), 0xee);
  // In-bounds fill: buffer contents untouched by the shadow-side zeroing.
  env.arena->buf_fill(env.buf, 0, 8, nullptr);
  EXPECT_EQ(env.arena->buf_peek(env.buf, 0), 0xeeu);
  EXPECT_EQ(env.arena->param(env.after), 0x11223344u);
  // Overflowing fill: the out-of-field slice (the adjacent u32) is zeroed.
  env.arena->buf_fill(env.buf, 0, 12, nullptr);
  EXPECT_EQ(env.arena->param(env.after), 0u);
}

TEST(Arena, LocalsLifecycle) {
  ArenaEnv env;
  uint64_t v = 0;
  EXPECT_FALSE(env.arena->local(3, &v));
  env.arena->set_local(3, 42);
  EXPECT_TRUE(env.arena->local(3, &v));
  EXPECT_EQ(v, 42u);
  env.arena->clear_locals();
  EXPECT_FALSE(env.arena->local(3, &v));
}

TEST(Arena, CopyFromMirrorsBytes) {
  ArenaEnv a;
  ArenaEnv b;
  a.arena->set_param(a.before, 7);
  a.arena->buf_store(a.buf, 2, 0x33, nullptr);
  b.arena->copy_from(*a.arena);
  EXPECT_EQ(b.arena->param(b.before), 7u);
  EXPECT_EQ(b.arena->buf_peek(b.buf, 2), 0x33u);
}

// Fills every byte of `arena` that a field covers with random data.
void scramble(StateArena& arena, Rng& rng) {
  const StateLayout& layout = arena.layout();
  for (ParamId id = 0; id < layout.field_count(); ++id) {
    if (layout.field(id).is_buffer()) {
      for (uint8_t& b : arena.buffer_span(id)) {
        b = static_cast<uint8_t>(rng.next_u64());
      }
    } else {
      arena.set_param(id, rng.next_u64());
    }
  }
}

// The bytecode engine's load_scalar()/store_scalar() skip the field
// lookup of param()/set_param(); on every scalar and function-pointer
// field they must read and write exactly the same bytes.
void expect_scalar_accessors_match_param(const StateLayout& layout,
                                         const std::string& ctx) {
  Rng rng(0x5ca1a7);
  StateArena arena(&layout);
  size_t checked = 0;
  for (ParamId id = 0; id < layout.field_count(); ++id) {
    const FieldDesc& f = layout.field(id);
    if (f.is_buffer()) {
      continue;
    }
    ASSERT_TRUE(StateArena::is_scalar_width(f.size)) << ctx << " " << f.name;
    for (int rep = 0; rep < 4; ++rep) {
      scramble(arena, rng);
      EXPECT_EQ(arena.load_scalar(f.offset, f.size), arena.param(id))
          << ctx << " " << f.name;

      const std::vector<uint8_t> before(arena.bytes().begin(),
                                        arena.bytes().end());
      const uint64_t raw = truncate_to(f.type, rng.next_u64());
      arena.store_scalar(f.offset, f.size, raw);
      EXPECT_EQ(arena.param(id), raw) << ctx << " " << f.name;
      const auto after = arena.bytes();
      EXPECT_TRUE(std::equal(after.begin(), after.begin() + f.offset,
                             before.begin()))
          << ctx << " " << f.name << ": bytes before the field changed";
      EXPECT_TRUE(std::equal(after.begin() + f.offset + f.size, after.end(),
                             before.begin() + f.offset + f.size))
          << ctx << " " << f.name << ": bytes after the field changed";
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u) << ctx;
}

TEST(StateArena, ScalarAccessorsMatchParam) {
  for (const std::string& name : guest::workload_names()) {
    auto wl = guest::make_workload(name);
    expect_scalar_accessors_match_param(wl->device().program().layout(),
                                        name);
  }
  // Every width and signedness, with the widest field ending on the
  // arena's last byte.
  StateLayout layout("S");
  const IntType types[] = {IntType::kU8,  IntType::kI8,  IntType::kU16,
                           IntType::kI16, IntType::kU32, IntType::kI32,
                           IntType::kU64, IntType::kI64};
  for (const IntType t : types) {
    (void)layout.add_scalar(type_name(t), FieldKind::kRegister, t);
  }
  (void)layout.add_funcptr("fp");
  const ParamId last =
      layout.add_scalar("last", FieldKind::kRegister, IntType::kU64);
  ASSERT_EQ(layout.field(last).offset + 8, layout.arena_size());
  expect_scalar_accessors_match_param(layout, "synthetic");
}

TEST(Arena, PeekIsSilentOnOob) {
  ArenaEnv env;
  EXPECT_EQ(env.arena->buf_peek(env.buf, 123456), 0u);
  EXPECT_TRUE(env.incidents.empty());
}

}  // namespace
}  // namespace sedspec
