// Integer value types.
//
// Every expression carries a declared C integer type, mirroring the LLVM IR
// metadata the paper uses for the parameter check ("using LLVM IR metadata
// to denote the parameter type", §VI-A). Values are stored as raw uint64_t
// bit patterns; signed values use two's complement.
#pragma once

#include <cstdint>
#include <string>

#include "common/assert.h"

namespace sedspec {

enum class IntType : uint8_t {
  kU8,
  kU16,
  kU32,
  kU64,
  kI8,
  kI16,
  kI32,
  kI64,
};

// The helpers below sit on the check VM's hot path (one or more per
// opcode). They are forced inline: left to its heuristics, GCC emits
// out-of-line calls to interpret() from the large VM function.

[[nodiscard, gnu::always_inline]] constexpr bool is_signed(IntType t) {
  return t >= IntType::kI8;
}

[[nodiscard, gnu::always_inline]] constexpr unsigned bits_of(IntType t) {
  switch (t) {
    case IntType::kU8:
    case IntType::kI8:
      return 8;
    case IntType::kU16:
    case IntType::kI16:
      return 16;
    case IntType::kU32:
    case IntType::kI32:
      return 32;
    case IntType::kU64:
    case IntType::kI64:
      return 64;
  }
  return 64;
}

/// Truncates a raw 64-bit pattern to the width of `t` (wrap semantics).
[[nodiscard, gnu::always_inline]] constexpr uint64_t truncate_to(
    IntType t, uint64_t raw) {
  const unsigned b = bits_of(t);
  if (b == 64) return raw;
  return raw & ((uint64_t{1} << b) - 1);
}

/// Interprets a raw (already truncated) pattern as the mathematical value of
/// type `t`, widened to a signed 128-bit integer.
[[nodiscard, gnu::always_inline]] constexpr __int128 interpret(
    IntType t, uint64_t raw) {
  const uint64_t v = truncate_to(t, raw);
  if (!is_signed(t)) return static_cast<__int128>(v);
  const unsigned b = bits_of(t);
  if (b == 64) return static_cast<__int128>(static_cast<int64_t>(v));
  const uint64_t sign_bit = uint64_t{1} << (b - 1);
  if (v & sign_bit) {
    return static_cast<__int128>(static_cast<int64_t>(v - (sign_bit << 1)));
  }
  return static_cast<__int128>(v);
}

/// True if the mathematical value `v` is representable in type `t`.
[[nodiscard, gnu::always_inline]] constexpr bool representable(
    IntType t, __int128 v) {
  const unsigned b = bits_of(t);
  if (is_signed(t)) {
    const __int128 lo = -(static_cast<__int128>(1) << (b - 1));
    const __int128 hi = (static_cast<__int128>(1) << (b - 1)) - 1;
    return v >= lo && v <= hi;
  }
  const __int128 hi = (static_cast<__int128>(1) << b) - 1;
  return v >= 0 && v <= hi;
}

/// Wraps the mathematical value `v` into the raw bit pattern of type `t`.
[[nodiscard, gnu::always_inline]] constexpr uint64_t wrap_to(
    IntType t, __int128 v) {
  return truncate_to(t, static_cast<uint64_t>(static_cast<unsigned __int128>(v)));
}

/// Product of two interpret()ed values (each in [-2^63, 2^64)), for
/// evaluation. The true product can need 129 bits (u64 max * u64 max) and
/// overflow __int128, which happens only when both factors are positive and
/// the product reaches 2^127. Such a product is unrepresentable in every
/// type above, so it comes back as 2^64 plus its low 64 bits:
/// representable() is false and wrap_to() keeps the low bits, as C's
/// unsigned multiply does. Every other product is exact, because the
/// unsigned multiply wraps modulo 2^128 to the two's-complement product.
[[nodiscard]] constexpr __int128 mul_value(__int128 a, __int128 b) {
  const auto product =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  if (a < 0 || b < 0 || product >> 127 == 0) {
    return static_cast<__int128>(product);
  }
  return (static_cast<__int128>(1) << 64) | static_cast<uint64_t>(product);
}

[[nodiscard]] std::string type_name(IntType t);

/// Type of an unsigned field with `size` bytes (1, 2, 4 or 8).
[[nodiscard]] IntType unsigned_type_for_size(uint32_t size);

}  // namespace sedspec
