#include "wasm/exec_common.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "hw/clock.hpp"
#include "obs/trace.hpp"

namespace watz::wasm {

GuestSpan::GuestSpan() noexcept : active_(obs::tracing_active()) {
  if (active_) start_ns_ = hw::monotonic_ns();
}

GuestSpan::~GuestSpan() {
  if (active_) obs::emit_span(obs::Stage::Guest, start_ns_, hw::monotonic_ns());
}

namespace {

inline float as_f32(std::uint64_t bits) {
  float v;
  const std::uint32_t b = static_cast<std::uint32_t>(bits);
  std::memcpy(&v, &b, 4);
  return v;
}

inline double as_f64(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

inline std::uint64_t bits_of(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, 4);
  return b;
}

inline std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, 8);
  return b;
}

/// The result of `a OP b` for a commutative OP (+, *) with the NaN
/// propagation of the SSE unit every tier computes on: a NaN operand's
/// payload survives (quieted), the first operand's when both are NaN. The
/// C++ compiler may commute + and *, which would leave the payload of a
/// NaN + NaN sum to register allocation — and differ from the native tier's
/// `a OP= b`. - and / cannot be commuted, so the hardware already applies
/// this rule to them.
template <typename F>
F nan_ordered(F a, F b, F r) {
  if (!std::isnan(r)) [[likely]]
    return r;
  using Bits = std::conditional_t<sizeof(F) == 4, std::uint32_t, std::uint64_t>;
  constexpr Bits kQuiet = Bits{1} << (std::numeric_limits<F>::digits - 2);
  if (std::isnan(a)) return std::bit_cast<F>(static_cast<Bits>(std::bit_cast<Bits>(a) | kQuiet));
  if (std::isnan(b)) return std::bit_cast<F>(static_cast<Bits>(std::bit_cast<Bits>(b) | kQuiet));
  return r;  // invalid operation (inf - inf, 0 * inf, ...): the default NaN
}

/// IEEE-754 min/max with Wasm's NaN and signed-zero rules.
template <typename F>
F wasm_min(F a, F b) {
  if (std::isnan(a) || std::isnan(b)) return std::numeric_limits<F>::quiet_NaN();
  if (a == 0 && b == 0) return std::signbit(a) ? a : b;
  return a < b ? a : b;
}

template <typename F>
F wasm_max(F a, F b) {
  if (std::isnan(a) || std::isnan(b)) return std::numeric_limits<F>::quiet_NaN();
  if (a == 0 && b == 0) return std::signbit(a) ? b : a;
  return a > b ? a : b;
}

/// f{32,64}.nearest: round half to even.
template <typename F>
F wasm_nearest(F v) {
  return std::nearbyint(v);  // assumes FE_TONEAREST, the C++ default
}

/// Checked float -> int truncation (traps on NaN / out of range).
template <typename Int, typename F>
Int trunc_checked(F v, const char* what) {
  if (std::isnan(v)) trap(std::string("invalid conversion to integer: NaN in ") + what);
  const F t = std::trunc(v);
  // Exact range checks: compare against the first out-of-range values.
  constexpr F lo = static_cast<F>(std::numeric_limits<Int>::min());
  // max+1 is exactly representable for all four Int/F combinations.
  constexpr F hi_plus_1 =
      static_cast<F>(std::numeric_limits<Int>::max() / 2 + 1) * 2;  // 2^width(-1)
  if (!(t >= lo && t < hi_plus_1))
    trap(std::string("integer overflow in ") + what);
  return static_cast<Int>(t);
}

template <typename Int, typename F>
Int trunc_sat(F v) {
  if (std::isnan(v)) return 0;
  constexpr F lo = static_cast<F>(std::numeric_limits<Int>::min());
  constexpr F hi_plus_1 = static_cast<F>(std::numeric_limits<Int>::max() / 2 + 1) * 2;
  if (v <= lo) {
    // For unsigned Int, lo == 0 and v <= 0 saturates to 0 unless in (-1, 0).
    if (v > static_cast<F>(-1.0) && v < 0) return 0;
    return std::numeric_limits<Int>::min();
  }
  if (v >= hi_plus_1) return std::numeric_limits<Int>::max();
  return static_cast<Int>(std::trunc(v));
}

}  // namespace

void exec_trunc_sat(std::uint32_t sub_op, std::vector<std::uint64_t>& stack,
                    std::size_t& sp) {
  std::uint64_t& top = stack[sp - 1];
  switch (sub_op) {
    case kI32TruncSatF32S:
      top = static_cast<std::uint32_t>(trunc_sat<std::int32_t>(as_f32(top)));
      break;
    case kI32TruncSatF32U:
      top = trunc_sat<std::uint32_t>(as_f32(top));
      break;
    case kI32TruncSatF64S:
      top = static_cast<std::uint32_t>(trunc_sat<std::int32_t>(as_f64(top)));
      break;
    case kI32TruncSatF64U:
      top = trunc_sat<std::uint32_t>(as_f64(top));
      break;
    case kI64TruncSatF32S:
      top = static_cast<std::uint64_t>(trunc_sat<std::int64_t>(as_f32(top)));
      break;
    case kI64TruncSatF32U:
      top = trunc_sat<std::uint64_t>(as_f32(top));
      break;
    case kI64TruncSatF64S:
      top = static_cast<std::uint64_t>(trunc_sat<std::int64_t>(as_f64(top)));
      break;
    case kI64TruncSatF64U:
      top = trunc_sat<std::uint64_t>(as_f64(top));
      break;
    default:
      trap("unsupported trunc_sat opcode");
  }
}

void exec_numeric(std::uint16_t op, std::vector<std::uint64_t>& stack, std::size_t& sp) {
  auto pop = [&]() -> std::uint64_t { return stack[--sp]; };
  auto push = [&](std::uint64_t v) { stack[sp++] = v; };
  auto push_b = [&](bool v) { stack[sp++] = v ? 1 : 0; };

  switch (op) {
    // -- i32 comparisons --
    case kI32Eqz: push_b(static_cast<std::uint32_t>(pop()) == 0); return;
    case kI32Eq: { const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop()); push_b(a == b); return; }
    case kI32Ne: { const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop()); push_b(a != b); return; }
    case kI32LtS: { const auto b = static_cast<std::int32_t>(pop()), a = static_cast<std::int32_t>(pop()); push_b(a < b); return; }
    case kI32LtU: { const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop()); push_b(a < b); return; }
    case kI32GtS: { const auto b = static_cast<std::int32_t>(pop()), a = static_cast<std::int32_t>(pop()); push_b(a > b); return; }
    case kI32GtU: { const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop()); push_b(a > b); return; }
    case kI32LeS: { const auto b = static_cast<std::int32_t>(pop()), a = static_cast<std::int32_t>(pop()); push_b(a <= b); return; }
    case kI32LeU: { const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop()); push_b(a <= b); return; }
    case kI32GeS: { const auto b = static_cast<std::int32_t>(pop()), a = static_cast<std::int32_t>(pop()); push_b(a >= b); return; }
    case kI32GeU: { const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop()); push_b(a >= b); return; }

    // -- i64 comparisons --
    case kI64Eqz: push_b(pop() == 0); return;
    case kI64Eq: { const auto b = pop(), a = pop(); push_b(a == b); return; }
    case kI64Ne: { const auto b = pop(), a = pop(); push_b(a != b); return; }
    case kI64LtS: { const auto b = static_cast<std::int64_t>(pop()), a = static_cast<std::int64_t>(pop()); push_b(a < b); return; }
    case kI64LtU: { const auto b = pop(), a = pop(); push_b(a < b); return; }
    case kI64GtS: { const auto b = static_cast<std::int64_t>(pop()), a = static_cast<std::int64_t>(pop()); push_b(a > b); return; }
    case kI64GtU: { const auto b = pop(), a = pop(); push_b(a > b); return; }
    case kI64LeS: { const auto b = static_cast<std::int64_t>(pop()), a = static_cast<std::int64_t>(pop()); push_b(a <= b); return; }
    case kI64LeU: { const auto b = pop(), a = pop(); push_b(a <= b); return; }
    case kI64GeS: { const auto b = static_cast<std::int64_t>(pop()), a = static_cast<std::int64_t>(pop()); push_b(a >= b); return; }
    case kI64GeU: { const auto b = pop(), a = pop(); push_b(a >= b); return; }

    // -- float comparisons --
    case kF32Eq: { const auto b = as_f32(pop()), a = as_f32(pop()); push_b(a == b); return; }
    case kF32Ne: { const auto b = as_f32(pop()), a = as_f32(pop()); push_b(a != b); return; }
    case kF32Lt: { const auto b = as_f32(pop()), a = as_f32(pop()); push_b(a < b); return; }
    case kF32Gt: { const auto b = as_f32(pop()), a = as_f32(pop()); push_b(a > b); return; }
    case kF32Le: { const auto b = as_f32(pop()), a = as_f32(pop()); push_b(a <= b); return; }
    case kF32Ge: { const auto b = as_f32(pop()), a = as_f32(pop()); push_b(a >= b); return; }
    case kF64Eq: { const auto b = as_f64(pop()), a = as_f64(pop()); push_b(a == b); return; }
    case kF64Ne: { const auto b = as_f64(pop()), a = as_f64(pop()); push_b(a != b); return; }
    case kF64Lt: { const auto b = as_f64(pop()), a = as_f64(pop()); push_b(a < b); return; }
    case kF64Gt: { const auto b = as_f64(pop()), a = as_f64(pop()); push_b(a > b); return; }
    case kF64Le: { const auto b = as_f64(pop()), a = as_f64(pop()); push_b(a <= b); return; }
    case kF64Ge: { const auto b = as_f64(pop()), a = as_f64(pop()); push_b(a >= b); return; }

    // -- i32 arithmetic --
    case kI32Clz: { const auto a = static_cast<std::uint32_t>(pop()); push(a == 0 ? 32 : std::countl_zero(a)); return; }
    case kI32Ctz: { const auto a = static_cast<std::uint32_t>(pop()); push(a == 0 ? 32 : std::countr_zero(a)); return; }
    case kI32Popcnt: { const auto a = static_cast<std::uint32_t>(pop()); push(std::popcount(a)); return; }
    case kI32Add: { const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop()); push(static_cast<std::uint32_t>(a + b)); return; }
    case kI32Sub: { const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop()); push(static_cast<std::uint32_t>(a - b)); return; }
    case kI32Mul: { const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop()); push(static_cast<std::uint32_t>(a * b)); return; }
    case kI32DivS: {
      const auto b = static_cast<std::int32_t>(pop()), a = static_cast<std::int32_t>(pop());
      if (b == 0) trap("integer divide by zero");
      if (a == INT32_MIN && b == -1) trap("integer overflow");
      push(static_cast<std::uint32_t>(a / b));
      return;
    }
    case kI32DivU: {
      const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop());
      if (b == 0) trap("integer divide by zero");
      push(a / b);
      return;
    }
    case kI32RemS: {
      const auto b = static_cast<std::int32_t>(pop()), a = static_cast<std::int32_t>(pop());
      if (b == 0) trap("integer divide by zero");
      push(static_cast<std::uint32_t>(b == -1 ? 0 : a % b));
      return;
    }
    case kI32RemU: {
      const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop());
      if (b == 0) trap("integer divide by zero");
      push(a % b);
      return;
    }
    case kI32And: { const auto b = pop(), a = pop(); push(static_cast<std::uint32_t>(a & b)); return; }
    case kI32Or: { const auto b = pop(), a = pop(); push(static_cast<std::uint32_t>(a | b)); return; }
    case kI32Xor: { const auto b = pop(), a = pop(); push(static_cast<std::uint32_t>(a ^ b)); return; }
    case kI32Shl: { const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop()); push(static_cast<std::uint32_t>(a << (b & 31))); return; }
    case kI32ShrS: { const auto b = static_cast<std::uint32_t>(pop()); const auto a = static_cast<std::int32_t>(pop()); push(static_cast<std::uint32_t>(a >> (b & 31))); return; }
    case kI32ShrU: { const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop()); push(a >> (b & 31)); return; }
    case kI32Rotl: { const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop()); push(std::rotl(a, static_cast<int>(b & 31))); return; }
    case kI32Rotr: { const auto b = static_cast<std::uint32_t>(pop()), a = static_cast<std::uint32_t>(pop()); push(std::rotr(a, static_cast<int>(b & 31))); return; }

    // -- i64 arithmetic --
    case kI64Clz: { const auto a = pop(); push(a == 0 ? 64 : std::countl_zero(a)); return; }
    case kI64Ctz: { const auto a = pop(); push(a == 0 ? 64 : std::countr_zero(a)); return; }
    case kI64Popcnt: { push(std::popcount(pop())); return; }
    case kI64Add: { const auto b = pop(), a = pop(); push(a + b); return; }
    case kI64Sub: { const auto b = pop(), a = pop(); push(a - b); return; }
    case kI64Mul: { const auto b = pop(), a = pop(); push(a * b); return; }
    case kI64DivS: {
      const auto b = static_cast<std::int64_t>(pop()), a = static_cast<std::int64_t>(pop());
      if (b == 0) trap("integer divide by zero");
      if (a == INT64_MIN && b == -1) trap("integer overflow");
      push(static_cast<std::uint64_t>(a / b));
      return;
    }
    case kI64DivU: {
      const auto b = pop(), a = pop();
      if (b == 0) trap("integer divide by zero");
      push(a / b);
      return;
    }
    case kI64RemS: {
      const auto b = static_cast<std::int64_t>(pop()), a = static_cast<std::int64_t>(pop());
      if (b == 0) trap("integer divide by zero");
      push(static_cast<std::uint64_t>(b == -1 ? 0 : a % b));
      return;
    }
    case kI64RemU: {
      const auto b = pop(), a = pop();
      if (b == 0) trap("integer divide by zero");
      push(a % b);
      return;
    }
    case kI64And: { const auto b = pop(), a = pop(); push(a & b); return; }
    case kI64Or: { const auto b = pop(), a = pop(); push(a | b); return; }
    case kI64Xor: { const auto b = pop(), a = pop(); push(a ^ b); return; }
    case kI64Shl: { const auto b = pop(), a = pop(); push(a << (b & 63)); return; }
    case kI64ShrS: { const auto b = pop(); const auto a = static_cast<std::int64_t>(pop()); push(static_cast<std::uint64_t>(a >> (b & 63))); return; }
    case kI64ShrU: { const auto b = pop(), a = pop(); push(a >> (b & 63)); return; }
    case kI64Rotl: { const auto b = pop(), a = pop(); push(std::rotl(a, static_cast<int>(b & 63))); return; }
    case kI64Rotr: { const auto b = pop(), a = pop(); push(std::rotr(a, static_cast<int>(b & 63))); return; }

    // -- f32 arithmetic --
    case kF32Abs: push(bits_of(std::fabs(as_f32(pop())))); return;
    case kF32Neg: push(pop() ^ 0x80000000u); return;
    case kF32Ceil: push(bits_of(std::ceil(as_f32(pop())))); return;
    case kF32Floor: push(bits_of(std::floor(as_f32(pop())))); return;
    case kF32Trunc: push(bits_of(std::trunc(as_f32(pop())))); return;
    case kF32Nearest: push(bits_of(wasm_nearest(as_f32(pop())))); return;
    case kF32Sqrt: push(bits_of(std::sqrt(as_f32(pop())))); return;
    case kF32Add: { const auto b = as_f32(pop()), a = as_f32(pop()); push(bits_of(nan_ordered(a, b, a + b))); return; }
    case kF32Sub: { const auto b = as_f32(pop()), a = as_f32(pop()); push(bits_of(a - b)); return; }
    case kF32Mul: { const auto b = as_f32(pop()), a = as_f32(pop()); push(bits_of(nan_ordered(a, b, a * b))); return; }
    case kF32Div: { const auto b = as_f32(pop()), a = as_f32(pop()); push(bits_of(a / b)); return; }
    case kF32Min: { const auto b = as_f32(pop()), a = as_f32(pop()); push(bits_of(wasm_min(a, b))); return; }
    case kF32Max: { const auto b = as_f32(pop()), a = as_f32(pop()); push(bits_of(wasm_max(a, b))); return; }
    case kF32Copysign: { const auto b = as_f32(pop()), a = as_f32(pop()); push(bits_of(std::copysign(a, b))); return; }

    // -- f64 arithmetic --
    case kF64Abs: push(bits_of(std::fabs(as_f64(pop())))); return;
    case kF64Neg: push(pop() ^ 0x8000000000000000ull); return;
    case kF64Ceil: push(bits_of(std::ceil(as_f64(pop())))); return;
    case kF64Floor: push(bits_of(std::floor(as_f64(pop())))); return;
    case kF64Trunc: push(bits_of(std::trunc(as_f64(pop())))); return;
    case kF64Nearest: push(bits_of(wasm_nearest(as_f64(pop())))); return;
    case kF64Sqrt: push(bits_of(std::sqrt(as_f64(pop())))); return;
    case kF64Add: { const auto b = as_f64(pop()), a = as_f64(pop()); push(bits_of(nan_ordered(a, b, a + b))); return; }
    case kF64Sub: { const auto b = as_f64(pop()), a = as_f64(pop()); push(bits_of(a - b)); return; }
    case kF64Mul: { const auto b = as_f64(pop()), a = as_f64(pop()); push(bits_of(nan_ordered(a, b, a * b))); return; }
    case kF64Div: { const auto b = as_f64(pop()), a = as_f64(pop()); push(bits_of(a / b)); return; }
    case kF64Min: { const auto b = as_f64(pop()), a = as_f64(pop()); push(bits_of(wasm_min(a, b))); return; }
    case kF64Max: { const auto b = as_f64(pop()), a = as_f64(pop()); push(bits_of(wasm_max(a, b))); return; }
    case kF64Copysign: { const auto b = as_f64(pop()), a = as_f64(pop()); push(bits_of(std::copysign(a, b))); return; }

    // -- conversions --
    case kI32WrapI64: push(static_cast<std::uint32_t>(pop())); return;
    case kI32TruncF32S: push(static_cast<std::uint32_t>(trunc_checked<std::int32_t>(as_f32(pop()), "i32.trunc_f32_s"))); return;
    case kI32TruncF32U: push(trunc_checked<std::uint32_t>(as_f32(pop()), "i32.trunc_f32_u")); return;
    case kI32TruncF64S: push(static_cast<std::uint32_t>(trunc_checked<std::int32_t>(as_f64(pop()), "i32.trunc_f64_s"))); return;
    case kI32TruncF64U: push(trunc_checked<std::uint32_t>(as_f64(pop()), "i32.trunc_f64_u")); return;
    case kI64ExtendI32S: push(static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int32_t>(pop())))); return;
    case kI64ExtendI32U: push(static_cast<std::uint32_t>(pop())); return;
    case kI64TruncF32S: push(static_cast<std::uint64_t>(trunc_checked<std::int64_t>(as_f32(pop()), "i64.trunc_f32_s"))); return;
    case kI64TruncF32U: push(trunc_checked<std::uint64_t>(as_f32(pop()), "i64.trunc_f32_u")); return;
    case kI64TruncF64S: push(static_cast<std::uint64_t>(trunc_checked<std::int64_t>(as_f64(pop()), "i64.trunc_f64_s"))); return;
    case kI64TruncF64U: push(trunc_checked<std::uint64_t>(as_f64(pop()), "i64.trunc_f64_u")); return;
    case kF32ConvertI32S: push(bits_of(static_cast<float>(static_cast<std::int32_t>(pop())))); return;
    case kF32ConvertI32U: push(bits_of(static_cast<float>(static_cast<std::uint32_t>(pop())))); return;
    case kF32ConvertI64S: push(bits_of(static_cast<float>(static_cast<std::int64_t>(pop())))); return;
    case kF32ConvertI64U: push(bits_of(static_cast<float>(pop()))); return;
    case kF32DemoteF64: push(bits_of(static_cast<float>(as_f64(pop())))); return;
    case kF64ConvertI32S: push(bits_of(static_cast<double>(static_cast<std::int32_t>(pop())))); return;
    case kF64ConvertI32U: push(bits_of(static_cast<double>(static_cast<std::uint32_t>(pop())))); return;
    case kF64ConvertI64S: push(bits_of(static_cast<double>(static_cast<std::int64_t>(pop())))); return;
    case kF64ConvertI64U: push(bits_of(static_cast<double>(pop()))); return;
    case kF64PromoteF32: push(bits_of(static_cast<double>(as_f32(pop())))); return;
    case kI32ReinterpretF32: push(static_cast<std::uint32_t>(pop())); return;
    case kI64ReinterpretF64: return;  // bit pattern already in slot
    case kF32ReinterpretI32: push(static_cast<std::uint32_t>(pop())); return;
    case kF64ReinterpretI64: return;

    // -- sign extension --
    case kI32Extend8S: push(static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int8_t>(pop())))); return;
    case kI32Extend16S: push(static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int16_t>(pop())))); return;
    case kI64Extend8S: push(static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int8_t>(pop())))); return;
    case kI64Extend16S: push(static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int16_t>(pop())))); return;
    case kI64Extend32S: push(static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int32_t>(pop())))); return;

    default:
      trap("exec: unhandled numeric opcode " + std::to_string(op));
  }
}

std::uint64_t mem_load(Memory& mem, std::uint8_t op, std::uint32_t addr,
                       std::uint64_t offset) {
  const std::uint64_t ea = static_cast<std::uint64_t>(addr) + offset;
  std::size_t width;
  switch (op) {
    case kI32Load8S: case kI32Load8U: case kI64Load8S: case kI64Load8U: width = 1; break;
    case kI32Load16S: case kI32Load16U: case kI64Load16S: case kI64Load16U: width = 2; break;
    case kI32Load: case kF32Load: case kI64Load32S: case kI64Load32U: width = 4; break;
    default: width = 8; break;
  }
  if (!mem.in_bounds(ea, width)) trap("out of bounds memory access");
  const std::uint8_t* p = mem.data() + ea;
  switch (op) {
    case kI32Load: return get_u32le(p);
    case kI64Load: case kF64Load: return get_u64le(p);
    case kF32Load: return get_u32le(p);
    case kI32Load8S: return static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int8_t>(p[0])));
    case kI32Load8U: return p[0];
    case kI32Load16S: return static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int16_t>(get_u16le(p))));
    case kI32Load16U: return get_u16le(p);
    case kI64Load8S: return static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int8_t>(p[0])));
    case kI64Load8U: return p[0];
    case kI64Load16S: return static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int16_t>(get_u16le(p))));
    case kI64Load16U: return get_u16le(p);
    case kI64Load32S: return static_cast<std::uint64_t>(static_cast<std::int64_t>(static_cast<std::int32_t>(get_u32le(p))));
    case kI64Load32U: return get_u32le(p);
    default: trap("exec: bad load opcode");
  }
}

void mem_store(Memory& mem, std::uint8_t op, std::uint32_t addr, std::uint64_t offset,
               std::uint64_t value) {
  const std::uint64_t ea = static_cast<std::uint64_t>(addr) + offset;
  std::size_t width;
  switch (op) {
    case kI32Store8: case kI64Store8: width = 1; break;
    case kI32Store16: case kI64Store16: width = 2; break;
    case kI32Store: case kF32Store: case kI64Store32: width = 4; break;
    default: width = 8; break;
  }
  if (!mem.in_bounds(ea, width)) trap("out of bounds memory access");
  std::uint8_t* p = mem.data() + ea;
  switch (width) {
    case 1: p[0] = static_cast<std::uint8_t>(value); break;
    case 2:
      p[0] = static_cast<std::uint8_t>(value);
      p[1] = static_cast<std::uint8_t>(value >> 8);
      break;
    case 4:
      for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(value >> (8 * i));
      break;
    default:
      for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(value >> (8 * i));
      break;
  }
}

void call_host(Instance& inst, const FuncSlot& slot, std::vector<std::uint64_t>& stack,
               std::size_t& sp) {
  const std::size_t nargs = slot.type.params.size();
  std::vector<Value> args(nargs);
  for (std::size_t i = 0; i < nargs; ++i)
    args[i] = Value{slot.type.params[i], stack[sp - nargs + i]};
  sp -= nargs;
  auto results = slot.host(inst, args);
  if (!results.ok()) trap(results.error());
  if (results->size() != slot.type.results.size())
    trap("host function returned wrong result count");
  for (const Value& v : *results) {
    // A host function may return more values than it consumed: grow the
    // stack instead of relying on frame headroom.
    if (sp >= stack.size()) stack.resize(stack.size() * 2 + 16);
    stack[sp++] = v.bits;
  }
}

}  // namespace watz::wasm
