// Differential execution fuzzing across the three tiers.
//
// A seeded generator produces small, always-valid functions (expression
// trees emitted post-order, so the operand stack discipline holds by
// construction) and every module is executed on:
//   1. the bytecode interpreter          (ExecMode::Interp),
//   2. the AOT instruction stream        (ExecMode::Aot, no tier),
//   3. the native JIT                    (ExecMode::Aot, force-compiled tier).
// Results must be bit-identical and traps must carry identical messages.
// On hosts without the JIT (non-x86-64 or WATZ_DISABLE_JIT) tier 3 degrades
// to tier 2 and the suite still checks interp-vs-AOT equivalence.
//
// The generator deliberately produces trapping programs too: unguarded
// divisions, occasionally-unmasked memory addresses and float->int
// truncations whose inputs are only usually clamped, so divide-by-zero,
// overflow, out-of-bounds and truncation-range behaviour is compared
// across tiers as well. The float mix (phase 2) feeds NaN payloads, signed
// zeroes, infinities and out-of-range truncation inputs through the f32/f64
// arithmetic, min/max, comparison and conversion surface.
//
// A second generator (ControlFlowAgreesAcrossTiers, below) targets the
// native tier's register cache and direct calls: value-carrying branches,
// loops, compare-consumer shapes, register-pool spills, values live across
// calls and recursion at the call-depth limit. A third
// (LocalsAgreeAcrossTiers) targets pinned locals: more hot locals of every
// type than the tier has registers for, live across every kind of call
// out of the function. Each prints its first seed; WATZ_FUZZ_SEED=0x<seed>
// replays (or moves) the ranges.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "wasm/builder.hpp"
#include "wasm/decoder.hpp"
#include "wasm/instance.hpp"
#include "wasm/jit/tier.hpp"
#include "wasm/opcodes.hpp"

namespace watz::wasm {
namespace {

struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint32_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<std::uint32_t>(state >> 32);
  }
  std::uint32_t below(std::uint32_t n) { return next() % n; }
  bool chance(std::uint32_t num, std::uint32_t den) { return below(den) < num; }
};

/// Bit-casts payload bits into a double, for NaN-payload terminals.
inline double f64_from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

inline float f32_from_bits(std::uint32_t bits) {
  float v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Emits one random expression of a requested type. Locals:
///   0: i32 param a   1: i32 param b   2: i64 param c
///   3: i32 scratch   4: i64 scratch   5: f64 scratch   6: f32 scratch
class ExprGen {
 public:
  ExprGen(CodeEmitter& ce, Rng& rng) : ce_(ce), rng_(rng) {}

  void i32(int depth) {
    if (depth <= 0 || budget_-- <= 0) return i32_terminal();
    switch (rng_.below(15)) {
      case 0:
        return i32_terminal();
      case 1: {  // plain binary ALU
        static const Op kOps[] = {kI32Add,  kI32Sub,  kI32Mul,  kI32And,
                                  kI32Or,   kI32Xor,  kI32Shl,  kI32ShrS,
                                  kI32ShrU, kI32Rotl, kI32Rotr};
        i32(depth - 1);
        i32(depth - 1);
        ce_.op(kOps[rng_.below(11)]);
        return;
      }
      case 2: {  // division family, divisor usually (not always) nonzero
        static const Op kOps[] = {kI32DivS, kI32DivU, kI32RemS, kI32RemU};
        i32(depth - 1);
        i32(depth - 1);
        if (rng_.chance(3, 4)) ce_.i32_const(1).op(kI32Or);
        ce_.op(kOps[rng_.below(4)]);
        return;
      }
      case 3: {  // i32 comparison
        static const Op kOps[] = {kI32Eq,  kI32Ne,  kI32LtS, kI32LtU,
                                  kI32GtS, kI32GtU, kI32LeS, kI32LeU,
                                  kI32GeS, kI32GeU};
        i32(depth - 1);
        i32(depth - 1);
        ce_.op(kOps[rng_.below(10)]);
        return;
      }
      case 4: {  // i64 comparison
        static const Op kOps[] = {kI64Eq,  kI64Ne,  kI64LtS, kI64LtU,
                                  kI64GtS, kI64GtU, kI64LeS, kI64LeU,
                                  kI64GeS, kI64GeU};
        i64(depth - 1);
        i64(depth - 1);
        ce_.op(kOps[rng_.below(10)]);
        return;
      }
      case 5:
        if (rng_.chance(1, 2)) {
          i32(depth - 1);
          ce_.op(kI32Eqz);
        } else {
          i64(depth - 1);
          ce_.op(kI64Eqz);
        }
        return;
      case 6:
        i64(depth - 1);
        ce_.op(kI32WrapI64);
        return;
      case 7:
        i32(depth - 1);
        i32(depth - 1);
        i32(depth - 1);
        ce_.op(kSelect);
        return;
      case 8:  // if/else expression
        i32(depth - 1);
        ce_.if_(0x7f);
        i32(depth - 1);
        ce_.else_();
        i32(depth - 1);
        ce_.end();
        return;
      case 9: {  // load (address usually masked in bounds, sometimes not)
        static const Op kOps[] = {kI32Load, kI32Load8U, kI32Load8S,
                                  kI32Load16U, kI32Load16S};
        i32(depth - 1);
        if (rng_.chance(7, 8)) ce_.i32_const(0xffc0).op(kI32And);
        ce_.load(kOps[rng_.below(5)], rng_.next() & 0x3f);
        return;
      }
      case 10:
        i32(depth - 1);
        ce_.op(rng_.chance(1, 2) ? kI32Extend8S : kI32Extend16S);
        return;
      case 11: {  // f64 comparison (unordered semantics cross the tiers)
        static const Op kOps[] = {kF64Eq, kF64Ne, kF64Lt,
                                  kF64Gt, kF64Le, kF64Ge};
        f64(depth - 1);
        f64(depth - 1);
        ce_.op(kOps[rng_.below(6)]);
        return;
      }
      case 12: {  // f32 comparison
        static const Op kOps[] = {kF32Eq, kF32Ne, kF32Lt,
                                  kF32Gt, kF32Le, kF32Ge};
        f32(depth - 1);
        f32(depth - 1);
        ce_.op(kOps[rng_.below(6)]);
        return;
      }
      case 13:  // trunc, input usually (not always) clamped into range
        f64(depth - 1);
        if (rng_.chance(3, 4))
          ce_.f64_const(100000.0).op(kF64Min).f64_const(-100000.0).op(kF64Max);
        ce_.op(rng_.chance(1, 2) ? kI32TruncF64S : kI32TruncF64U);
        return;
      default:
        ce_.global_get(0);
        return;
    }
  }

  void i64(int depth) {
    if (depth <= 0 || budget_-- <= 0) return i64_terminal();
    switch (rng_.below(12)) {
      case 0:
        return i64_terminal();
      case 1: {
        static const Op kOps[] = {kI64Add,  kI64Sub,  kI64Mul,  kI64And,
                                  kI64Or,   kI64Xor,  kI64Shl,  kI64ShrS,
                                  kI64ShrU, kI64Rotl, kI64Rotr};
        i64(depth - 1);
        i64(depth - 1);
        ce_.op(kOps[rng_.below(11)]);
        return;
      }
      case 2: {
        static const Op kOps[] = {kI64DivS, kI64DivU, kI64RemS, kI64RemU};
        i64(depth - 1);
        i64(depth - 1);
        if (rng_.chance(3, 4)) ce_.i64_const(1).op(kI64Or);
        ce_.op(kOps[rng_.below(4)]);
        return;
      }
      case 3:
        i32(depth - 1);
        ce_.op(rng_.chance(1, 2) ? kI64ExtendI32S : kI64ExtendI32U);
        return;
      case 4: {
        static const Op kOps[] = {kI64Load,    kI64Load8U,  kI64Load8S,
                                  kI64Load16U, kI64Load32S, kI64Load32U};
        i32(depth - 1);
        if (rng_.chance(7, 8)) ce_.i32_const(0xffc0).op(kI32And);
        ce_.load(kOps[rng_.below(6)], rng_.next() & 0x3f);
        return;
      }
      case 5:
        i64(depth - 1);
        i64(depth - 1);
        i32(depth - 1);
        ce_.op(kSelect);
        return;
      case 6:
        i32(depth - 1);
        ce_.if_(0x7e);
        i64(depth - 1);
        ce_.else_();
        i64(depth - 1);
        ce_.end();
        return;
      case 7: {
        static const Op kOps[] = {kI64Extend8S, kI64Extend16S, kI64Extend32S};
        i64(depth - 1);
        ce_.op(kOps[rng_.below(3)]);
        return;
      }
      case 8:
        if (!callees_.empty()) {  // call an earlier generated function
          i32(depth - 1);
          i32(depth - 1);
          i64(depth - 1);
          ce_.call(callees_[rng_.below(
              static_cast<std::uint32_t>(callees_.size()))]);
          return;
        }
        return i64_terminal();
      case 9:
        f64(depth - 1);
        ce_.op(kI64ReinterpretF64);
        return;
      case 10:  // trunc, input usually (not always) clamped into range
        f64(depth - 1);
        if (rng_.chance(3, 4))
          ce_.f64_const(1e9).op(kF64Min).f64_const(0.0).op(kF64Max);
        ce_.op(rng_.chance(1, 2) ? kI64TruncF64S : kI64TruncF64U);
        return;
      default:
        ce_.global_get(1);
        return;
    }
  }

  void f64(int depth) {
    if (depth <= 0 || budget_-- <= 0) return f64_terminal();
    switch (rng_.below(8)) {
      case 0:
        return f64_terminal();
      case 1: {  // binary arithmetic incl. the NaN-canonicalising min/max
        static const Op kOps[] = {kF64Add, kF64Sub, kF64Mul,     kF64Div,
                                  kF64Min, kF64Max, kF64Copysign};
        f64(depth - 1);
        f64(depth - 1);
        ce_.op(kOps[rng_.below(7)]);
        return;
      }
      case 2: {  // unary (sqrt of a negative produces NaN)
        static const Op kOps[] = {kF64Abs, kF64Neg, kF64Sqrt};
        f64(depth - 1);
        ce_.op(kOps[rng_.below(3)]);
        return;
      }
      case 3:
        if (rng_.chance(1, 2)) {
          i32(depth - 1);
          ce_.op(rng_.chance(1, 2) ? kF64ConvertI32S : kF64ConvertI32U);
        } else {
          i64(depth - 1);
          ce_.op(rng_.chance(1, 2) ? kF64ConvertI64S : kF64ConvertI64U);
        }
        return;
      case 4:
        f32(depth - 1);
        ce_.op(kF64PromoteF32);
        return;
      case 5:
        i64(depth - 1);
        ce_.op(kF64ReinterpretI64);
        return;
      case 6:
        i32(depth - 1);
        ce_.if_(0x7c);  // result f64
        f64(depth - 1);
        ce_.else_();
        f64(depth - 1);
        ce_.end();
        return;
      default:
        ce_.local_get(5);
        return;
    }
  }

  void f32(int depth) {
    if (depth <= 0 || budget_-- <= 0) return f32_terminal();
    switch (rng_.below(6)) {
      case 0:
        return f32_terminal();
      case 1: {
        static const Op kOps[] = {kF32Add, kF32Sub, kF32Mul,     kF32Div,
                                  kF32Min, kF32Max, kF32Copysign};
        f32(depth - 1);
        f32(depth - 1);
        ce_.op(kOps[rng_.below(7)]);
        return;
      }
      case 2: {
        static const Op kOps[] = {kF32Abs, kF32Neg, kF32Sqrt};
        f32(depth - 1);
        ce_.op(kOps[rng_.below(3)]);
        return;
      }
      case 3:  // demotion rounds (and overflows to inf)
        f64(depth - 1);
        ce_.op(kF32DemoteF64);
        return;
      case 4:  // u64 -> f32 crosses the round-to-odd split path
        i64(depth - 1);
        ce_.op(rng_.chance(1, 2) ? kF32ConvertI64U : kF32ConvertI64S);
        return;
      default:
        ce_.local_get(6);
        return;
    }
  }

  /// Side-effect statement: a store, a scratch-local update or a global
  /// update (no net stack effect).
  void statement(int depth) {
    switch (rng_.below(8)) {
      case 0: {
        static const Op kOps[] = {kI32Store, kI32Store8, kI32Store16};
        i32(depth);
        if (rng_.chance(7, 8)) ce_.i32_const(0xffc0).op(kI32And);
        i32(depth);
        ce_.store(kOps[rng_.below(3)], rng_.next() & 0x3f);
        return;
      }
      case 1: {
        static const Op kOps[] = {kI64Store, kI64Store8, kI64Store32};
        i32(depth);
        if (rng_.chance(7, 8)) ce_.i32_const(0xffc0).op(kI32And);
        i64(depth);
        ce_.store(kOps[rng_.below(3)], rng_.next() & 0x3f);
        return;
      }
      case 2:
        i32(depth);
        ce_.local_set(3);
        return;
      case 3:
        i64(depth);
        ce_.local_set(4);
        return;
      case 4:
        f64(depth);
        ce_.local_set(5);
        return;
      case 5:
        f32(depth);
        ce_.local_set(6);
        return;
      case 6: {  // f64 store/load round trips through linear memory
        f64(depth);
        ce_.local_set(5);
        i32(depth);
        if (rng_.chance(7, 8)) ce_.i32_const(0xffc0).op(kI32And);
        ce_.local_get(5);
        ce_.store(kF64Store, rng_.next() & 0x3f);
        return;
      }
      default:
        i32(depth);
        ce_.global_set(0);
        return;
    }
  }

  void set_callees(std::vector<std::uint32_t> callees) {
    callees_ = std::move(callees);
  }

 private:
  void i32_terminal() {
    switch (rng_.below(6)) {
      case 0:
        ce_.i32_const(static_cast<std::int32_t>(rng_.next()));
        return;
      case 1:
        ce_.i32_const(static_cast<std::int32_t>(rng_.below(8)) - 2);
        return;
      case 2:
        ce_.local_get(0);
        return;
      case 3:
        ce_.local_get(1);
        return;
      default:
        ce_.local_get(3);
        return;
    }
  }
  void i64_terminal() {
    switch (rng_.below(5)) {
      case 0:
        ce_.i64_const((static_cast<std::int64_t>(rng_.next()) << 32) |
                      rng_.next());
        return;
      case 1:
        ce_.i64_const(static_cast<std::int64_t>(rng_.below(8)) - 2);
        return;
      case 2:
        ce_.local_get(2);
        return;
      default:
        ce_.local_get(4);
        return;
    }
  }
  void f64_terminal() {
    // The adversarial corner corpus: NaNs with payloads, signed zeroes,
    // infinities, subnormals and the exact trunc-range edges.
    static const double kCorners[] = {
        0.0,
        -0.0,
        1.5,
        -2.25,
        1e300,
        1e-320,                                 // subnormal
        f64_from_bits(0x7ff0000000000000ull),   // +inf
        f64_from_bits(0xfff0000000000000ull),   // -inf
        f64_from_bits(0x7ff8000000000000ull),   // canonical qNaN
        f64_from_bits(0x7ff8dead00000001ull),   // qNaN with payload
        f64_from_bits(0xfff4000000000001ull),   // negative sNaN pattern
        2147483648.0,                           // INT32_MAX + 1
        -2147483649.0,                          // INT32_MIN - 1
        4294967296.0,                           // UINT32_MAX + 1
        9.2233720368547758e18,                  // ~INT64_MAX edge
        1.8446744073709552e19,                  // ~UINT64_MAX edge
        -1.0,
    };
    switch (rng_.below(4)) {
      case 0:
      case 1:
        ce_.f64_const(kCorners[rng_.below(17)]);
        return;
      case 2:
        ce_.local_get(5);
        return;
      default:  // small "normal" value so arithmetic stays meaningful
        ce_.f64_const(static_cast<double>(rng_.below(64)) * 0.25 - 4.0);
        return;
    }
  }
  void f32_terminal() {
    static const float kCorners[] = {
        0.0f,
        -0.0f,
        1.5f,
        3.4e38f,
        1e-44f,                        // subnormal
        f32_from_bits(0x7f800000u),    // +inf
        f32_from_bits(0xff800000u),    // -inf
        f32_from_bits(0x7fc00000u),    // canonical qNaN
        f32_from_bits(0x7fc00dedu),    // qNaN with payload
        f32_from_bits(0xffa00001u),    // negative sNaN pattern
        2147483648.0f,                 // 2^31
        -1.0f,
    };
    switch (rng_.below(4)) {
      case 0:
      case 1:
        ce_.f32_const(kCorners[rng_.below(12)]);
        return;
      case 2:
        ce_.local_get(6);
        return;
      default:
        ce_.f32_const(static_cast<float>(rng_.below(64)) * 0.5f - 8.0f);
        return;
    }
  }

  CodeEmitter& ce_;
  Rng& rng_;
  std::vector<std::uint32_t> callees_;
  int budget_ = 96;  // caps body size regardless of depth
};

/// One generated module: a chain of (i32, i32, i64) -> i64 functions where
/// later functions may call earlier ones; the last is exported as "main".
Bytes generate_module(std::uint64_t seed) {
  Rng rng(seed);
  ModuleBuilder mb;
  mb.add_memory(1, 2);
  mb.add_global(ValType::I32, true,
                static_cast<std::int32_t>(rng.next()));
  mb.add_global(ValType::I64, true,
                static_cast<std::int64_t>(rng.next()));

  FuncType ft{{ValType::I32, ValType::I32, ValType::I64}, {ValType::I64}};
  const std::uint32_t num_funcs = 1 + rng.below(3);
  std::vector<std::uint32_t> funcs;
  for (std::uint32_t i = 0; i < num_funcs; ++i) {
    auto f = mb.add_function(
        ft, {ValType::I32, ValType::I64, ValType::F64, ValType::F32});
    CodeEmitter ce;
    ExprGen gen(ce, rng);
    gen.set_callees(funcs);
    const std::uint32_t stmts = rng.below(3);
    for (std::uint32_t s = 0; s < stmts; ++s) gen.statement(2);
    gen.i64(4);
    mb.set_body(f, ce.bytes());
    funcs.push_back(f);
  }
  mb.export_function("main", funcs.back());
  return mb.build();
}

struct Outcome {
  bool trapped = false;
  std::string detail;  // hex result bits or the trap message
};

Outcome run_one(Instance& inst, std::span<const Value> args) {
  auto r = inst.invoke("main", args);
  if (!r.ok()) return {true, r.error()};
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>((*r)[0].bits));
  return {false, buf};
}

TEST(JitDifferential, ThreeTiersAgreeOnSeededPrograms) {
  const ImportResolver imports;
  const bool native = jit::jit_available();
  int trapping_runs = 0, clean_runs = 0, native_funcs = 0;

  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Bytes bin = generate_module(seed);

    auto make = [&](ExecMode mode) -> std::unique_ptr<Instance> {
      auto mod = decode_module(bin);
      EXPECT_TRUE(mod.ok()) << "seed " << seed << ": " << mod.error();
      if (!mod.ok()) return nullptr;
      auto inst = Instance::instantiate(std::move(*mod), imports, mode);
      EXPECT_TRUE(inst.ok()) << "seed " << seed << ": " << inst.error();
      return inst.ok() ? std::move(*inst) : nullptr;
    };
    auto interp = make(ExecMode::Interp);
    auto aot = make(ExecMode::Aot);
    auto jitted = make(ExecMode::Aot);
    ASSERT_TRUE(interp && aot && jitted) << "seed " << seed;

    std::shared_ptr<jit::TierSet> tier;
    if (native) {
      jit::TierConfig config;
      config.hot_threshold = 1;
      tier = std::make_shared<jit::TierSet>(&jitted->module(), jitted->compiled,
                                            std::move(config));
      // Every generated shape must be within the native surface: a refusal
      // here is a codegen coverage bug, not an acceptable fallback.
      const std::size_t compiled = tier->compile_all();
      EXPECT_EQ(compiled, jitted->compiled.size()) << "seed " << seed;
      native_funcs += static_cast<int>(compiled);
      jitted->tier = tier;
    }

    static const std::int32_t kI32s[] = {0, 1, -1, 7, INT32_MIN, 0x1234};
    static const std::int64_t kI64s[] = {0, -1, 1LL << 40, INT64_MIN};
    Rng pick(seed ^ 0xabcdef);
    for (int v = 0; v < 6; ++v) {
      std::vector<Value> args{Value::from_i32(kI32s[pick.below(6)]),
                              Value::from_i32(kI32s[pick.below(6)]),
                              Value::from_i64(kI64s[pick.below(4)])};
      Outcome a = run_one(*interp, args);
      Outcome b = run_one(*aot, args);
      Outcome c = run_one(*jitted, args);
      EXPECT_EQ(a.trapped, b.trapped) << "seed " << seed << " run " << v
                                      << ": interp=" << a.detail
                                      << " aot=" << b.detail;
      EXPECT_EQ(a.detail, b.detail) << "seed " << seed << " run " << v;
      EXPECT_EQ(b.trapped, c.trapped) << "seed " << seed << " run " << v
                                      << ": aot=" << b.detail
                                      << " native=" << c.detail;
      EXPECT_EQ(b.detail, c.detail) << "seed " << seed << " run " << v;
      (a.trapped ? trapping_runs : clean_runs)++;
    }
    if (HasFatalFailure()) return;
  }

  // The corpus must actually exercise both behaviours and (when available)
  // the native tier, or the differential assertions are vacuous.
  EXPECT_GT(trapping_runs, 10);
  EXPECT_GT(clean_runs, 100);
  if (native) {
    EXPECT_GT(native_funcs, 100);
  }
}

// ---------------------------------------------------------------------------
// Control-flow differential fuzzing: the shapes the native tier's register
// cache has to get right at every boundary. Its own generator and seed
// range, so the expression corpus above stays byte-for-byte unchanged.
//
// Every function has the signature (i32 a, i32 b, f64 x) -> i64 and the
// locals
//   3: i32 outer loop counter   4: i32 accumulator   5: i64 scratch
//   6: f64 accumulator          7: i32 inner loop counter
// The generator emits value-carrying block/if/br/br_if/br_table (some over
// junk the branch drops), f32 values read back as 64-bit bits, bounded
// loops driven by the counter locals, compares feeding br_if/if/select and
// plain arithmetic (wcc's `cmp; i32.const 0; i32.ne` and eqz chains
// included), 16-21 operand folds that keep more values live than either
// register pool holds, and calls with values live across them. Function 0
// is `rec`, self-recursive with a value live across the recursive call; it
// is invoked just under and just over kMaxCallDepth.
class CfGen {
 public:
  CfGen(CodeEmitter& ce, Rng& rng, std::vector<std::uint32_t> callees)
      : ce_(ce), rng_(rng), callees_(std::move(callees)) {}

  /// A comparison result (i32 0/1): the flags-consumer shapes.
  void cond(int d) {
    if (d <= 0 || budget_-- <= 0) {
      ce_.local_get(rng_.below(2)).local_get(4).op(kI32LtS);
      return;
    }
    switch (rng_.below(8)) {
      case 0:
      case 1: {
        static const Op kOps[] = {kI32Eq,  kI32Ne,  kI32LtS, kI32LtU, kI32GtS,
                                  kI32GtU, kI32LeS, kI32LeU, kI32GeS, kI32GeU};
        i32(d - 1);
        i32(d - 1);
        ce_.op(kOps[rng_.below(10)]);
        return;
      }
      case 2: {
        static const Op kOps[] = {kI64Eq, kI64Ne, kI64LtS, kI64GtU, kI64LeS, kI64GeU};
        i64(d - 1);
        i64(d - 1);
        ce_.op(kOps[rng_.below(6)]);
        return;
      }
      case 3:
      case 4: {  // unordered compares fold the parity flag
        static const Op kOps[] = {kF64Eq, kF64Ne, kF64Lt, kF64Gt, kF64Le, kF64Ge};
        f64(d - 1);
        f64(d - 1);
        ce_.op(kOps[rng_.below(6)]);
        return;
      }
      case 5: {
        static const Op kOps[] = {kF32Eq, kF32Ne, kF32Lt, kF32Ge};
        f64(d - 1);
        ce_.op(kF32DemoteF64);
        f64(d - 1);
        ce_.op(kF32DemoteF64);
        ce_.op(kOps[rng_.below(4)]);
        return;
      }
      case 6:  // eqz chains
        cond(d - 1);
        ce_.op(kI32Eqz);
        if (rng_.chance(1, 2)) ce_.op(kI32Eqz);
        return;
      default:  // wcc's boolean normalisation
        cond(d - 1);
        ce_.i32_const(0).op(rng_.chance(1, 2) ? kI32Ne : kI32Eq);
        return;
    }
  }

  void i32(int d) {
    if (d <= 0 || budget_-- <= 0) return i32_terminal();
    switch (rng_.below(15)) {
      case 0:
        return i32_terminal();
      case 1: {
        static const Op kOps[] = {kI32Add, kI32Sub,  kI32Mul,  kI32And, kI32Or,
                                  kI32Xor, kI32Shl, kI32ShrS, kI32ShrU, kI32Rotl};
        i32(d - 1);
        i32(d - 1);
        ce_.op(kOps[rng_.below(10)]);
        return;
      }
      case 2: {  // division, divisor usually (not always) nonzero
        static const Op kOps[] = {kI32DivS, kI32DivU, kI32RemS, kI32RemU};
        i32(d - 1);
        i32(d - 1);
        if (rng_.chance(7, 8)) ce_.i32_const(1).op(kI32Or);
        ce_.op(kOps[rng_.below(4)]);
        return;
      }
      case 3:  // a compare consumed as a plain value
        cond(d - 1);
        i32(d - 1);
        ce_.op(rng_.chance(1, 2) ? kI32Add : kI32Mul);
        return;
      case 4:
        i32(d - 1);
        i32(d - 1);
        if (rng_.chance(3, 4))
          cond(d - 1);
        else
          i32(d - 1);
        ce_.op(kSelect);
        return;
      case 5:
        if (rng_.chance(3, 4))
          cond(d - 1);
        else
          i32(d - 1);
        ce_.if_(0x7f);
        i32(d - 1);
        ce_.else_();
        i32(d - 1);
        ce_.end();
        return;
      case 6: {  // br_if carrying a value out of a block, maybe over junk
        const bool junk = rng_.chance(1, 2);
        ce_.block(0x7f);
        if (junk) i64(d - 1);
        i32(d - 1);
        cond(d - 1);
        ce_.br_if(0).op(kDrop);
        if (junk) ce_.op(kDrop);
        i32(d - 1);
        ce_.end();
        return;
      }
      case 7:  // br_table carrying a value to one of two blocks
        ce_.block(0x7f).block(0x7f);
        if (rng_.chance(1, 2)) f64(d - 1);  // junk the branch drops
        i32(d - 1);
        i32(d - 1);
        ce_.i32_const(3).op(kI32And);
        ce_.br_table({0, 1, 0}, 1);
        ce_.end();
        ce_.i32_const(static_cast<std::int32_t>(rng_.below(100))).op(kI32Add);
        ce_.end();
        return;
      case 8:  // br with a value over junk, dead code behind it
        ce_.block(0x7f);
        if (rng_.chance(1, 2)) i32(d - 1);
        i32(d - 1);
        ce_.br(0).i32_const(7).op(kI32Add);
        ce_.end();
        return;
      case 9:
        if (loops_ >= 2) return i32_terminal();
        ce_.block(0x7f);
        loop_stmt(d - 1);
        ce_.local_get(4);
        ce_.end();
        return;
      case 10:
        if (rng_.chance(1, 3)) return wide_fold(0x7f);
        // The local's old value is still on the stack when it is written.
        ce_.local_get(4);
        i32(d - 1);
        if (rng_.chance(1, 2)) {
          ce_.local_tee(4);
          i32(d - 1);
          ce_.op(kI32Xor);
        } else {
          ce_.local_set(4);
          i32(d - 1);
        }
        ce_.op(kI32Sub);
        return;
      case 11:
        if (!callees_.empty()) {  // the left operand is live across the call
          i32(d - 1);
          call(d - 1);
          ce_.op(kI32WrapI64).op(kI32Add);
          return;
        }
        return i32_terminal();
      case 12:
        i64(d - 1);
        ce_.op(kI32WrapI64);
        return;
      case 13:  // memory, usually masked in bounds
        i32(d - 1);
        if (rng_.chance(7, 8)) ce_.i32_const(0xfc).op(kI32And);
        ce_.load(rng_.chance(1, 2) ? kI32Load : kI32Load8S, rng_.below(8));
        return;
      default:
        ce_.global_get(0);
        return;
    }
  }

  void i64(int d) {
    if (d <= 0 || budget_-- <= 0) return i64_terminal();
    switch (rng_.below(10)) {
      case 0:
        return i64_terminal();
      case 1: {
        static const Op kOps[] = {kI64Add, kI64Sub, kI64Mul,  kI64Xor,
                                  kI64And, kI64Or,  kI64ShrS, kI64Rotl};
        i64(d - 1);
        i64(d - 1);
        ce_.op(kOps[rng_.below(8)]);
        return;
      }
      case 2:
        i32(d - 1);
        ce_.op(rng_.chance(1, 2) ? kI64ExtendI32S : kI64ExtendI32U);
        return;
      case 3:
        cond(d - 1);
        ce_.if_(0x7e);
        i64(d - 1);
        ce_.else_();
        i64(d - 1);
        ce_.end();
        return;
      case 4:
        i64(d - 1);
        i64(d - 1);
        cond(d - 1);
        ce_.op(kSelect);
        return;
      case 5:
        if (!callees_.empty()) {
          i64(d - 1);
          call(d - 1);
          ce_.op(rng_.chance(1, 2) ? kI64Add : kI64Xor);
          return;
        }
        return i64_terminal();
      case 6:
        ce_.block(0x7e);
        i64(d - 1);
        cond(d - 1);
        ce_.br_if(0).op(kDrop);
        i64(d - 1);
        ce_.end();
        return;
      case 7:
        if (rng_.chance(1, 2)) return wide_fold(0x7e);
        return i64_terminal();
      case 8:
        if (rng_.chance(1, 2)) {
          f64(d - 1);
          ce_.op(kI64ReinterpretF64);
        } else {  // f32 bits read back as 64: the upper half must be zero
          f32(d - 1);
          ce_.op(kI32ReinterpretF32).op(kI64ExtendI32U);
        }
        return;
      default:
        i64(d - 1);
        ce_.local_tee(5);
        return;
    }
  }

  void f32(int d) {
    if (d <= 0 || budget_-- <= 0) {
      f64_terminal();
      ce_.op(kF32DemoteF64);
      return;
    }
    switch (rng_.below(6)) {
      case 0: {
        static const Op kOps[] = {kF32Add, kF32Sub, kF32Mul, kF32Div, kF32Max};
        f32(d - 1);
        f32(d - 1);
        ce_.op(kOps[rng_.below(5)]);
        return;
      }
      case 1:
        cond(d - 1);
        ce_.if_(0x7d);
        f32(d - 1);
        ce_.else_();
        f32(d - 1);
        ce_.end();
        return;
      case 2:
        f32(d - 1);
        f32(d - 1);
        cond(d - 1);
        ce_.op(kSelect);
        return;
      case 3:
        ce_.block(0x7d);
        f32(d - 1);
        cond(d - 1);
        ce_.br_if(0).op(kDrop);
        f32(d - 1);
        ce_.end();
        return;
      case 4:
        if (rng_.chance(1, 2)) return wide_fold(0x7d);
        [[fallthrough]];
      default:
        i32(d - 1);
        ce_.op(kF32ConvertI32S);
        return;
    }
  }

  void f64(int d) {
    if (d <= 0 || budget_-- <= 0) return f64_terminal();
    switch (rng_.below(10)) {
      case 0:
        return f64_terminal();
      case 1: {
        static const Op kOps[] = {kF64Add, kF64Sub, kF64Mul, kF64Div, kF64Min, kF64Max};
        f64(d - 1);
        f64(d - 1);
        ce_.op(kOps[rng_.below(6)]);
        return;
      }
      case 2:
        if (rng_.chance(1, 3)) {  // f32 bits widened to 64 and read as f64
          f32(d - 1);
          ce_.op(kI32ReinterpretF32).op(kI64ExtendI32U).op(kF64ReinterpretI64);
          return;
        }
        i32(d - 1);
        ce_.op(kF64ConvertI32S);
        return;
      case 3:
        cond(d - 1);
        ce_.if_(0x7c);
        f64(d - 1);
        ce_.else_();
        f64(d - 1);
        ce_.end();
        return;
      case 4:
        f64(d - 1);
        f64(d - 1);
        cond(d - 1);
        ce_.op(kSelect);
        return;
      case 5:  // an XMM value carried through a branch
        ce_.block(0x7c);
        f64(d - 1);
        cond(d - 1);
        ce_.br_if(0).op(kDrop);
        f64(d - 1);
        ce_.end();
        return;
      case 6:
        if (rng_.chance(1, 2)) return wide_fold(0x7c);
        return f64_terminal();
      case 7: {
        static const Op kOps[] = {kF64Sqrt, kF64Neg, kF64Abs};
        if (rng_.chance(1, 2)) {  // the accumulator read, then overwritten
          ce_.local_get(6);
          f64(d - 1);
          ce_.local_tee(6).op(kF64Sub);
          return;
        }
        f64(d - 1);
        ce_.op(kOps[rng_.below(3)]);
        return;
      }
      case 8:
        i32(d - 1);
        ce_.i32_const(0xf8).op(kI32And);
        ce_.load(kF64Load, 8 * rng_.below(4));
        return;
      default:
        if (loops_ >= 2) return f64_terminal();
        ce_.block(0x7c);
        loop_stmt(d - 1);
        ce_.local_get(6);
        ce_.end();
        return;
    }
  }

  /// A bounded loop over the next free counter local: a while loop with
  /// its exit test up front, or a do-while whose back edge tests a tee.
  void loop_stmt(int d) {
    const std::uint32_t counter = loops_ == 0 ? 3 : 7;
    const std::int32_t trips = 1 + static_cast<std::int32_t>(rng_.below(6));
    ++loops_;
    ce_.i32_const(0).local_set(counter);
    ce_.block().loop();
    if (rng_.chance(1, 2)) {
      ce_.local_get(counter).i32_const(trips).op(kI32GeS).br_if(1);
      body(d);
      ce_.local_get(counter).i32_const(1).op(kI32Add).local_set(counter);
      ce_.br(0);
    } else {
      body(d);
      ce_.local_get(counter).i32_const(1).op(kI32Add).local_tee(counter);
      ce_.i32_const(trips).op(kI32LtS).br_if(0);
    }
    ce_.end().end();
    --loops_;
  }

  /// A statement with no net stack effect.
  void statement(int d) {
    switch (rng_.below(6)) {
      case 0:
        if (loops_ < 2) return loop_stmt(d);
        [[fallthrough]];
      case 1:
        ce_.local_get(4);
        i32(d);
        ce_.op(rng_.chance(1, 2) ? kI32Add : kI32Xor).local_set(4);
        return;
      case 2:
        ce_.local_get(6);
        f64(d);
        ce_.op(kF64Add).local_set(6);
        return;
      case 3:
        i32(d);
        ce_.i32_const(0xf8).op(kI32And);
        f64(d);
        ce_.store(kF64Store, 8 * rng_.below(4));
        return;
      case 4:
        ce_.local_get(6);
        wide_fold(0x7c);
        ce_.op(kF64Add).local_set(6);
        return;
      default:
        i32(d);
        ce_.global_set(0);
        return;
    }
  }

  void set_budget(int budget) { budget_ = budget; }

 private:
  void body(int d) {
    const std::uint32_t n = 1 + rng_.below(2);
    for (std::uint32_t i = 0; i < n; ++i) statement(d);
    if (rng_.chance(1, 4)) {  // an early exit: if -> loop -> block
      cond(d);
      ce_.if_().br(2).end();
    }
  }

  /// 16-21 computed operands pushed before any is consumed: more than
  /// either register pool holds, so the cache spills its deepest entries.
  void wide_fold(std::uint8_t type) {
    const std::uint32_t n = 16 + rng_.below(6);
    const std::int32_t k = static_cast<std::int32_t>(rng_.below(9)) - 4;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (type == 0x7f) {
        i32(1);
        ce_.i32_const(k).op(kI32Add);
      } else if (type == 0x7e) {
        i64(1);
        ce_.i64_const(k).op(kI64Add);
      } else if (type == 0x7c) {
        f64(1);
        ce_.f64_const(k).op(kF64Add);
      } else {
        f32(1);
        ce_.f32_const(static_cast<float>(k)).op(kF32Add);
      }
    }
    for (std::uint32_t i = 1; i < n; ++i) {
      if (type == 0x7f) {
        static const Op kOps[] = {kI32Add, kI32Sub, kI32Xor, kI32Mul};
        ce_.op(kOps[rng_.below(4)]);
      } else if (type == 0x7e) {
        static const Op kOps[] = {kI64Add, kI64Sub, kI64Xor, kI64Mul};
        ce_.op(kOps[rng_.below(4)]);
      } else if (type == 0x7c) {
        static const Op kOps[] = {kF64Add, kF64Sub, kF64Mul, kF64Min};
        ce_.op(kOps[rng_.below(4)]);
      } else {
        static const Op kOps[] = {kF32Add, kF32Sub, kF32Mul, kF32Min};
        ce_.op(kOps[rng_.below(4)]);
      }
    }
  }

  void call(int d) {
    const std::uint32_t callee =
        callees_[rng_.below(static_cast<std::uint32_t>(callees_.size()))];
    if (callee == 0) {  // rec: a shallow, usually bounded recursion
      i32(d);
      ce_.i32_const(rng_.chance(7, 8) ? 15 : -1).op(kI32And);
    } else {
      i32(d);
    }
    i32(d);
    f64(d);
    ce_.call(callee);
  }

  void i32_terminal() {
    switch (rng_.below(6)) {
      case 0:
        ce_.i32_const(static_cast<std::int32_t>(rng_.next()));
        return;
      case 1:
        ce_.i32_const(static_cast<std::int32_t>(rng_.below(8)) - 2);
        return;
      case 2:
        ce_.local_get(0);
        return;
      case 3:
        ce_.local_get(1);
        return;
      case 4:
        ce_.local_get(loops_ > 0 ? 3 : 4);
        return;
      default:
        ce_.local_get(4);
        return;
    }
  }
  void i64_terminal() {
    switch (rng_.below(4)) {
      case 0:
        ce_.i64_const((static_cast<std::int64_t>(rng_.next()) << 32) | rng_.next());
        return;
      case 1:
        ce_.i64_const(static_cast<std::int64_t>(rng_.below(8)) - 2);
        return;
      case 2:
        ce_.local_get(0).op(kI64ExtendI32S);
        return;
      default:
        ce_.local_get(5);
        return;
    }
  }
  void f64_terminal() {
    static const double kValues[] = {0.0, -0.0, 1.5, -2.25, 1e300,
                                     f64_from_bits(0x7ff8000000000000ull),
                                     f64_from_bits(0x7ff8dead00000001ull),
                                     f64_from_bits(0x7ff0000000000000ull)};
    switch (rng_.below(4)) {
      case 0:
        ce_.f64_const(kValues[rng_.below(8)]);
        return;
      case 1:
        ce_.local_get(2);
        return;
      case 2:
        ce_.local_get(6);
        return;
      default:
        ce_.f64_const(static_cast<double>(rng_.below(64)) * 0.25 - 4.0);
        return;
    }
  }

  CodeEmitter& ce_;
  Rng& rng_;
  std::vector<std::uint32_t> callees_;
  int loops_ = 0;
  int budget_ = 80;
};

/// rec (function 0), then 1-3 functions that may call rec and each other;
/// the last is exported as "main", rec as "rec".
Bytes generate_control_module(std::uint64_t seed) {
  Rng rng(seed);
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  mb.add_global(ValType::I32, true, static_cast<std::int32_t>(rng.next()));
  const FuncType ft{{ValType::I32, ValType::I32, ValType::F64}, {ValType::I64}};
  const std::vector<ValType> locals{ValType::I32, ValType::I32, ValType::I64,
                                    ValType::F64, ValType::I32};

  const auto rec = mb.add_function(ft, locals);
  {
    CodeEmitter ce;
    CfGen gen(ce, rng, {});
    gen.set_budget(24);
    ce.local_get(0).i32_const(0).op(kI32LeS);
    ce.if_(0x7e);
    gen.i64(2);
    ce.else_();
    gen.i64(2);  // live across the recursive call
    ce.local_get(0).i32_const(1).op(kI32Sub);
    gen.i32(1);
    gen.f64(1);
    ce.call(rec);
    ce.op(rng.chance(1, 2) ? kI64Add : kI64Xor);
    ce.end();
    mb.set_body(rec, ce.bytes());
  }
  mb.export_function("rec", rec);

  std::vector<std::uint32_t> funcs{rec};
  const std::uint32_t num_funcs = 1 + rng.below(3);
  for (std::uint32_t i = 0; i < num_funcs; ++i) {
    const auto f = mb.add_function(ft, locals);
    CodeEmitter ce;
    CfGen gen(ce, rng, funcs);
    const std::uint32_t stmts = 1 + rng.below(2);
    for (std::uint32_t s = 0; s < stmts; ++s) gen.statement(2);
    gen.i64(4);
    mb.set_body(f, ce.bytes());
    funcs.push_back(f);
  }
  mb.export_function("main", funcs.back());
  return mb.build();
}

Outcome run_named(Instance& inst, const char* name, std::span<const Value> args) {
  auto r = inst.invoke(name, args);
  if (!r.ok()) return {true, r.error()};
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>((*r)[0].bits));
  return {false, buf};
}

/// The first seed of a fuzzer's range: WATZ_FUZZ_SEED when set, else the
/// fuzzer's own default.
std::uint64_t fuzz_seed(std::uint64_t fallback) {
  if (const char* env = std::getenv("WATZ_FUZZ_SEED")) return std::strtoull(env, nullptr, 0);
  return fallback;
}

TEST(JitDifferential, ControlFlowAgreesAcrossTiers) {
  const std::uint64_t first = fuzz_seed(0xcf000000);
  std::printf("control-flow fuzz seed: WATZ_FUZZ_SEED=0x%llx\n",
              static_cast<unsigned long long>(first));
  const ImportResolver imports;
  const bool native = jit::jit_available();
  int trapping_runs = 0, clean_runs = 0, depth_traps = 0;

  for (std::uint64_t seed = first; seed < first + 120; ++seed) {
    Bytes bin = generate_control_module(seed);
    auto make = [&](ExecMode mode) -> std::unique_ptr<Instance> {
      auto mod = decode_module(bin);
      EXPECT_TRUE(mod.ok()) << "seed 0x" << std::hex << seed << ": " << mod.error();
      if (!mod.ok()) return nullptr;
      auto inst = Instance::instantiate(std::move(*mod), imports, mode);
      EXPECT_TRUE(inst.ok()) << "seed 0x" << std::hex << seed << ": " << inst.error();
      return inst.ok() ? std::move(*inst) : nullptr;
    };
    auto interp = make(ExecMode::Interp);
    auto aot = make(ExecMode::Aot);
    auto jitted = make(ExecMode::Aot);
    ASSERT_TRUE(interp && aot && jitted) << "seed 0x" << std::hex << seed;
    if (native) {
      jit::TierConfig config;
      config.hot_threshold = 1;
      auto tier = std::make_shared<jit::TierSet>(&jitted->module(), jitted->compiled,
                                                 std::move(config));
      EXPECT_EQ(tier->compile_all(), jitted->compiled.size()) << "seed 0x" << std::hex << seed;
      jitted->tier = tier;
    }

    auto agree = [&](const char* name, const std::vector<Value>& args, int run) {
      const Outcome a = run_named(*interp, name, args);
      const Outcome b = run_named(*aot, name, args);
      const Outcome c = run_named(*jitted, name, args);
      EXPECT_EQ(a.detail, b.detail) << "seed 0x" << std::hex << seed << " " << name
                                    << " run " << std::dec << run;
      EXPECT_EQ(b.detail, c.detail) << "seed 0x" << std::hex << seed << " " << name
                                    << " run " << std::dec << run;
      (a.trapped ? trapping_runs : clean_runs)++;
      if (a.detail == "trap: call stack exhausted") ++depth_traps;
    };
    static const std::int32_t kI32s[] = {0, 1, -1, 5, INT32_MIN, 0x7fff};
    static const double kF64s[] = {0.0, -1.5, 3.25, 1e10};
    Rng pick(seed ^ 0x5a5a5a5a);
    for (int v = 0; v < 4; ++v) {
      agree("main",
            {Value::from_i32(kI32s[pick.below(6)]), Value::from_i32(kI32s[pick.below(6)]),
             Value::from_f64(kF64s[pick.below(4)])},
            v);
    }
    // rec(n) nests n calls below the entry: depth kMaxCallDepth still runs,
    // one more traps.
    for (int n = kMaxCallDepth - 1; n <= kMaxCallDepth + 1; ++n)
      agree("rec", {Value::from_i32(n), Value::from_i32(3), Value::from_f64(0.5)}, n);
    if (HasFailure()) return;
  }

  // Nearly every module traps on depth once (a few rec bodies trap first,
  // e.g. on a division).
  EXPECT_GT(clean_runs, 200);
  EXPECT_GT(trapping_runs, 120);
  EXPECT_GT(depth_traps, 100);
}


// ---------------------------------------------------------------------------
// Pinned-locals differential fuzzing: the native tier keeps each function's
// hottest locals in registers (5 GPRs, 8 XMM registers) and stores the
// caller-saved ones around every call out of the function. Its own
// generator and seed range, so the two corpora above stay unchanged.
//
// Every function has the signature (i32, i64, f32, f64) -> i64 and 26
// locals, more hot ones of every type than the tier has registers for:
//   i32: 0, 4-10 (9 and 10 are loop counters)   i64: 1, 11-13
//   f32: 2, 14-18                               f64: 3, 19-25
// Statements assign and tee locals (often while an alias of the target is
// still on the stack), run counted loops, read f32 locals back through
// i32/i64 reinterprets, store to memory, grow it and dispatch br_table
// with every local live. Function 0 (`leaf`) is compiled; function 1
// (`slow`) stays on the AOT stream in the tier (its copy of the stream
// refuses), so calls to it take the helper; both sit in the table for
// call_indirect. The other functions call all three ways. Every function
// returns a hash of all its locals.
class LocalsGen {
 public:
  LocalsGen(CodeEmitter& ce, Rng& rng, bool calls, std::uint32_t sig_type)
      : ce_(ce), rng_(rng), calls_(calls), sig_type_(sig_type) {}

  void body() {
    const std::uint32_t n = 3 + rng_.below(4);
    for (std::uint32_t i = 0; i < n; ++i) stmt(2);
    hash_locals();
  }

 private:
  static constexpr std::uint32_t kI32[] = {0, 4, 5, 6, 7, 8, 9, 10};
  static constexpr std::uint32_t kI64[] = {1, 11, 12, 13};
  static constexpr std::uint32_t kF32[] = {2, 14, 15, 16, 17, 18};
  static constexpr std::uint32_t kF64[] = {3, 19, 20, 21, 22, 23, 24, 25};
  enum Ty { I32, I64, F32, F64 };

  template <std::size_t N>
  std::uint32_t pick(const std::uint32_t (&set)[N]) {
    return set[rng_.below(static_cast<std::uint32_t>(N))];
  }
  /// A local of type `t` the body may write (never a loop counter).
  std::uint32_t writable(Ty t) {
    switch (t) {
      case I32: return kI32[rng_.below(6)];
      case I64: return pick(kI64);
      case F32: return pick(kF32);
      default: return pick(kF64);
    }
  }
  void expr(Ty t, int d) {
    switch (t) {
      case I32: return i32(d);
      case I64: return i64(d);
      case F32: return f32(d);
      default: return f64(d);
    }
  }
  /// A binary op of type `t` (commutative and not).
  void binop(Ty t) {
    static const Op k32[] = {kI32Add, kI32Sub, kI32Mul, kI32Xor, kI32Or, kI32Shl, kI32ShrU};
    static const Op k64[] = {kI64Add, kI64Sub, kI64Mul, kI64Xor, kI64And, kI64Rotl};
    static const Op kf32[] = {kF32Add, kF32Sub, kF32Mul, kF32Min, kF32Max};
    static const Op kf64[] = {kF64Add, kF64Sub, kF64Mul, kF64Div, kF64Min};
    switch (t) {
      case I32: ce_.op(k32[rng_.below(7)]); return;
      case I64: ce_.op(k64[rng_.below(6)]); return;
      case F32: ce_.op(kf32[rng_.below(5)]); return;
      default: ce_.op(kf64[rng_.below(5)]); return;
    }
  }

  void stmt(int d) {
    const Ty t = static_cast<Ty>(rng_.below(4));
    switch (d <= 0 ? 0 : rng_.below(12)) {
      case 0:
      case 1:
        expr(t, d);
        ce_.local_set(writable(t));
        return;
      case 2: {  // x OP= expr: the in-place shape
        const std::uint32_t x = writable(t);
        ce_.local_get(x);
        expr(t, d);
        binop(t);
        ce_.local_set(x);
        return;
      }
      case 3: {  // the target's old value is still on the stack at the tee
        const std::uint32_t x = writable(t);
        ce_.local_get(x);
        expr(t, d);
        ce_.local_tee(x);
        binop(t);
        if (rng_.chance(1, 2)) ce_.local_get(x).op(t == I32 ? kI32Add : t == I64 ? kI64Xor
                                                   : t == F32 ? kF32Sub : kF64Add);
        ce_.local_set(writable(t));
        return;
      }
      case 4:
      case 5:
        if (loops_ < 2) return loop_stmt(d);
        [[fallthrough]];
      case 6:
        if (calls_) return call_stmt(d);
        [[fallthrough]];
      case 7: {  // br_table with every local live
        ce_.block().block().block();
        i32(d);
        ce_.i32_const(3).op(kI32And);
        ce_.br_table({0, 1, 2}, rng_.below(3));
        ce_.end();
        stmt(d - 1);
        ce_.end();
        stmt(d - 1);
        ce_.end();
        return;
      }
      case 8: {  // memory.grow (fails once at the maximum)
        const std::uint32_t x = writable(I32);
        ce_.local_get(x).i32_const(static_cast<std::int32_t>(rng_.below(2))).memory_grow();
        ce_.op(kI32Add).local_set(x);
        return;
      }
      case 9:  // f32 locals read back as bits
        ce_.local_get(pick(kF32)).op(kI32ReinterpretF32);
        if (rng_.chance(1, 2)) {
          ce_.op(kI64ExtendI32U);
          if (rng_.chance(1, 2)) {
            ce_.op(kF64ReinterpretI64).local_set(writable(F64));
          } else {
            ce_.local_get(writable(I64)).op(kI64Xor).local_set(writable(I64));
          }
        } else {
          ce_.local_set(writable(I32));
        }
        return;
      case 10:  // store a local's value to memory
        i32(d - 1);
        ce_.i32_const(0xff8).op(kI32And);
        if (rng_.chance(1, 2))
          ce_.local_get(pick(kI64)).store(kI64Store, 0);
        else
          ce_.local_get(pick(kF64)).store(kF64Store, 8);
        return;
      default: {
        const std::uint32_t x = writable(t);
        expr(t, d);
        ce_.local_tee(x).op(kDrop);
        return;
      }
    }
  }

  void loop_stmt(int d) {
    const std::uint32_t counter = loops_ == 0 ? 9 : 10;
    const std::int32_t trips = 1 + static_cast<std::int32_t>(rng_.below(5));
    ++loops_;
    ce_.i32_const(0).local_set(counter);
    ce_.block().loop();
    const std::uint32_t n = 1 + rng_.below(3);
    for (std::uint32_t i = 0; i < n; ++i) stmt(d);
    ce_.local_get(counter).i32_const(1).op(kI32Add).local_tee(counter);
    ce_.i32_const(trips).op(kI32LtS).br_if(0);
    ce_.end().end();
    --loops_;
  }

  /// leaf (direct), slow (helper: not compiled) or either through the
  /// table; the result is folded into an i64 local.
  void call_stmt(int d) {
    const std::uint32_t x = writable(I64);
    ce_.local_get(x);
    i32(d - 1);
    i64(d - 1);
    f32(d - 1);
    f64(d - 1);
    switch (rng_.below(3)) {
      case 0:
        ce_.call(0);
        break;
      case 1:
        ce_.call(1);
        break;
      default:
        ce_.local_get(pick(kI32)).i32_const(1).op(kI32And);
        ce_.call_indirect(sig_type_);
        break;
    }
    ce_.op(rng_.chance(1, 2) ? kI64Add : kI64Xor).local_set(x);
  }

  void i32(int d) {
    if (d <= 0 || rng_.chance(2, 5)) {
      if (rng_.chance(4, 5)) {
        ce_.local_get(pick(kI32));
      } else {
        ce_.i32_const(static_cast<std::int32_t>(rng_.below(16)) - 4);
      }
      return;
    }
    switch (rng_.below(8)) {
      case 0:
      case 1:
        i32(d - 1);
        i32(d - 1);
        binop(I32);
        return;
      case 6:  // memory the stores above wrote
        i32(d - 1);
        ce_.i32_const(0xffc).op(kI32And).load(kI32Load, 0);
        return;
      case 2: {  // constant divisors, and a guarded variable one
        static const std::int32_t kDiv[] = {7, -1, 1, 3, INT32_MIN};
        static const Op kOps[] = {kI32DivS, kI32DivU, kI32RemS, kI32RemU};
        i32(d - 1);
        if (rng_.chance(1, 3)) {
          i32(d - 1);
          ce_.i32_const(1).op(kI32Or);
        } else {
          ce_.i32_const(kDiv[rng_.below(5)]);
        }
        ce_.op(kOps[rng_.below(4)]);
        return;
      }
      case 3:
        i64(d - 1);
        ce_.op(kI32WrapI64);
        return;
      case 4:
        f32(d - 1);
        ce_.op(kI32ReinterpretF32);
        return;
      case 5:
        i32(d - 1);
        i32(d - 1);
        ce_.op(rng_.chance(1, 2) ? kI32LtS : kI32Ne);
        return;
      default:
        i32(d - 1);
        i32(d - 1);
        ce_.local_get(pick(kI32));
        ce_.op(kSelect);
        return;
    }
  }

  void i64(int d) {
    if (d <= 0 || rng_.chance(2, 5)) {
      if (rng_.chance(4, 5))
        ce_.local_get(pick(kI64));
      else
        ce_.i64_const((static_cast<std::int64_t>(rng_.next()) << 32) | rng_.next());
      return;
    }
    switch (rng_.below(5)) {
      case 0:
      case 1:
        i64(d - 1);
        i64(d - 1);
        binop(I64);
        return;
      case 2:
        i32(d - 1);
        ce_.op(rng_.chance(1, 2) ? kI64ExtendI32S : kI64ExtendI32U);
        return;
      case 3:
        f64(d - 1);
        ce_.op(kI64ReinterpretF64);
        return;
      default:  // f32 bits widened to 64: the upper half must be zero
        ce_.local_get(pick(kF32)).op(kI32ReinterpretF32).op(kI64ExtendI32U);
        return;
    }
  }

  void f32(int d) {
    if (d <= 0 || rng_.chance(2, 5)) {
      if (rng_.chance(4, 5))
        ce_.local_get(pick(kF32));
      else
        ce_.f32_const(static_cast<float>(rng_.below(32)) * 0.5f - 4.0f);
      return;
    }
    switch (rng_.below(5)) {
      case 0:
      case 1:
        f32(d - 1);
        f32(d - 1);
        binop(F32);
        return;
      case 2:
        f64(d - 1);
        ce_.op(kF32DemoteF64);
        return;
      case 3:
        i32(d - 1);
        ce_.op(rng_.chance(1, 2) ? kF32ConvertI32S : kF32ReinterpretI32);
        return;
      default:
        f32(d - 1);
        ce_.op(rng_.chance(1, 2) ? kF32Neg : kF32Abs);
        return;
    }
  }

  void f64(int d) {
    if (d <= 0 || rng_.chance(2, 5)) {
      if (rng_.chance(4, 5))
        ce_.local_get(pick(kF64));
      else
        ce_.f64_const(static_cast<double>(rng_.below(64)) * 0.25 - 8.0);
      return;
    }
    switch (rng_.below(6)) {
      case 0:
      case 1:
        f64(d - 1);
        f64(d - 1);
        binop(F64);
        return;
      case 2:
        f32(d - 1);
        ce_.op(kF64PromoteF32);
        return;
      case 3:
        i32(d - 1);
        ce_.op(kF64ConvertI32S);
        return;
      case 4:  // an f32 local's bits widened and read as f64
        ce_.local_get(pick(kF32)).op(kI32ReinterpretF32).op(kI64ExtendI32U);
        ce_.op(kF64ReinterpretI64);
        return;
      default:
        f64(d - 1);
        ce_.op(rng_.chance(1, 2) ? kF64Sqrt : kF64Neg);
        return;
    }
  }

  /// h = rotl(h ^ bits(local), 7) over every local.
  void hash_locals() {
    ce_.i64_const(0x243f6a8885a308d3ll);
    for (std::uint32_t l = 0; l < 26; ++l) {
      ce_.local_get(l);
      if (l == 2 || (l >= 14 && l <= 18)) {
        ce_.op(kI32ReinterpretF32).op(kI64ExtendI32U);
      } else if (l == 3 || l >= 19) {
        ce_.op(kI64ReinterpretF64);
      } else if (l == 0 || (l >= 4 && l <= 10)) {
        ce_.op(kI64ExtendI32U);
      }
      ce_.op(kI64Xor).i64_const(7).op(kI64Rotl);
    }
  }

  CodeEmitter& ce_;
  Rng& rng_;
  const bool calls_;
  const std::uint32_t sig_type_;
  int loops_ = 0;
};

/// leaf (0) and slow (1) without calls, then 1-2 functions that call them;
/// the last is exported as "main".
Bytes generate_locals_module(std::uint64_t seed) {
  Rng rng(seed);
  ModuleBuilder mb;
  mb.add_memory(1, 3);
  mb.add_table(2, 2);
  const FuncType ft{{ValType::I32, ValType::I64, ValType::F32, ValType::F64}, {ValType::I64}};
  const std::uint32_t sig_type = mb.add_type(ft);
  std::vector<ValType> locals(7, ValType::I32);
  locals.insert(locals.end(), 3, ValType::I64);
  locals.insert(locals.end(), 5, ValType::F32);
  locals.insert(locals.end(), 7, ValType::F64);

  std::uint32_t last = 0;
  const std::uint32_t num_funcs = 3 + rng.below(2);
  for (std::uint32_t i = 0; i < num_funcs; ++i) {
    last = mb.add_function(ft, locals);
    CodeEmitter ce;
    LocalsGen gen(ce, rng, /*calls=*/i >= 2, sig_type);
    gen.body();
    mb.set_body(last, ce.bytes());
  }
  mb.add_element(0, {0, 1});
  mb.export_function("main", last);
  return mb.build();
}

TEST(JitDifferential, LocalsAgreeAcrossTiers) {
  const std::uint64_t first = fuzz_seed(0x10ca1000);
  std::printf("pinned-locals fuzz seed: WATZ_FUZZ_SEED=0x%llx\n",
              static_cast<unsigned long long>(first));
  const ImportResolver imports;
  const bool native = jit::jit_available();
  int trapping_runs = 0, clean_runs = 0;
  std::uint64_t helper_calls = 0, native_calls = 0;

  for (std::uint64_t seed = first; seed < first + 100; ++seed) {
    Bytes bin = generate_locals_module(seed);
    std::vector<CompiledFunc> patched;  // outlives the tier that spans it
    auto make = [&](ExecMode mode) -> std::unique_ptr<Instance> {
      auto mod = decode_module(bin);
      EXPECT_TRUE(mod.ok()) << "seed 0x" << std::hex << seed << ": " << mod.error();
      if (!mod.ok()) return nullptr;
      auto inst = Instance::instantiate(std::move(*mod), imports, mode);
      EXPECT_TRUE(inst.ok()) << "seed 0x" << std::hex << seed << ": " << inst.error();
      return inst.ok() ? std::move(*inst) : nullptr;
    };
    auto interp = make(ExecMode::Interp);
    auto aot = make(ExecMode::Aot);
    auto jitted = make(ExecMode::Aot);
    ASSERT_TRUE(interp && aot && jitted) << "seed 0x" << std::hex << seed;
    std::shared_ptr<jit::TierSet> tier;
    if (native) {
      // `slow` refuses in the tier's copy of the stream: calls to it go
      // through the helper and the instance's own AOT stream.
      patched.assign(jitted->compiled.begin(), jitted->compiled.end());
      patched[1].code[0].op = 0x3fe;
      jit::TierConfig config;
      config.hot_threshold = 1 << 30;
      tier = std::make_shared<jit::TierSet>(&jitted->module(), patched, std::move(config));
      EXPECT_EQ(tier->compile_all(), patched.size() - 1) << "seed 0x" << std::hex << seed;
      EXPECT_EQ(tier->entry_for(1), nullptr);
      jitted->tier = tier;
    }

    static const std::int32_t kI32s[] = {0, 1, -1, 6, INT32_MIN};
    static const std::int64_t kI64s[] = {0, -3, INT64_MAX, 0x123456789};
    static const float kF32s[] = {0.0f, -1.5f, 2.25f, f32_from_bits(0x7fc00001)};
    static const double kF64s[] = {0.0, -0.0, 3.5, f64_from_bits(0x7ff8dead00000001ull)};
    Rng pick(seed ^ 0x10ca1);
    for (int v = 0; v < 4; ++v) {
      const std::vector<Value> args{
          Value::from_i32(kI32s[pick.below(5)]), Value::from_i64(kI64s[pick.below(4)]),
          Value::from_f32(kF32s[pick.below(4)]), Value::from_f64(kF64s[pick.below(4)])};
      const Outcome a = run_one(*interp, args);
      const Outcome b = run_one(*aot, args);
      const Outcome c = run_one(*jitted, args);
      EXPECT_EQ(a.detail, b.detail) << "seed 0x" << std::hex << seed << " run " << std::dec << v;
      EXPECT_EQ(b.detail, c.detail) << "seed 0x" << std::hex << seed << " run " << std::dec << v;
      (a.trapped ? trapping_runs : clean_runs)++;
    }
    if (tier) {
      helper_calls += tier->fallback_call();
      native_calls += tier->native_entries();
    }
    if (HasFailure()) return;
  }

  EXPECT_GT(clean_runs, 300);
  if (native) {  // both call paths were exercised with pinned locals live
    EXPECT_GT(helper_calls, 100u);
    EXPECT_GT(native_calls, 400u);
  }
}

}  // namespace
}  // namespace watz::wasm
