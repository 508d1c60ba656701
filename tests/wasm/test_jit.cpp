// Native-codegen tier: direct correctness tests for the baseline x86-64
// JIT. Every test builds a module programmatically, runs it once on the
// plain AOT stream and once with a force-compiled TierSet attached, and
// requires identical results (and identical trap messages).
//
// Native-specific assertions are gated on jit::jit_available() so the suite
// stays green on non-x86-64 hosts and under WATZ_DISABLE_JIT — there the
// AOT-stream half still runs, which is exactly the fallback contract.
#include <gtest/gtest.h>

#include <climits>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "wasm/builder.hpp"
#include "wasm/decoder.hpp"
#include "wasm/instance.hpp"
#include "wasm/jit/tier.hpp"
#include "wasm/opcodes.hpp"
#include "wasm/validator.hpp"

namespace watz::wasm {
namespace {

const ImportResolver& no_imports() {
  static ImportResolver r;
  return r;
}

std::unique_ptr<Instance> instantiate_aot(const Bytes& bin,
                                          const ImportResolver& imports) {
  auto mod = decode_module(bin);
  EXPECT_TRUE(mod.ok()) << mod.error();
  if (!mod.ok()) return nullptr;
  auto inst = Instance::instantiate(std::move(*mod), imports, ExecMode::Aot);
  EXPECT_TRUE(inst.ok()) << inst.error();
  if (!inst.ok()) return nullptr;
  return std::move(*inst);
}

/// Builds a TierSet over the instance's own module/compiled store and
/// force-compiles everything, so the very first invoke runs native code.
std::shared_ptr<jit::TierSet> force_tier(Instance& inst,
                                         std::uint32_t hot_threshold = 1) {
  jit::TierConfig config;
  config.hot_threshold = hot_threshold;
  auto tier = std::make_shared<jit::TierSet>(&inst.module(), inst.compiled,
                                             std::move(config));
  tier->compile_all();
  inst.tier = tier;
  return tier;
}

struct Tiered {
  std::unique_ptr<Instance> aot;  // plain AOT stream
  std::unique_ptr<Instance> nat;  // force-compiled tier attached (if available)
  std::shared_ptr<jit::TierSet> tier;
};

Tiered make_tiered(const Bytes& bin, const ImportResolver& imports = no_imports()) {
  Tiered t;
  t.aot = instantiate_aot(bin, imports);
  t.nat = instantiate_aot(bin, imports);
  if (t.nat && jit::jit_available()) t.tier = force_tier(*t.nat);
  return t;
}

/// Invokes `name` on both instances and asserts bit-identical outcomes
/// (results or trap messages).
void check_both(Tiered& t, const std::string& name, std::vector<Value> args) {
  ASSERT_TRUE(t.aot && t.nat);
  auto a = t.aot->invoke(name, args);
  auto b = t.nat->invoke(name, args);
  ASSERT_EQ(a.ok(), b.ok()) << name << ": aot="
                            << (a.ok() ? "ok" : a.error()) << " native="
                            << (b.ok() ? "ok" : b.error());
  if (!a.ok()) {
    EXPECT_EQ(a.error(), b.error()) << name;
    return;
  }
  ASSERT_EQ(a->size(), b->size()) << name;
  for (std::size_t i = 0; i < a->size(); ++i)
    EXPECT_EQ((*a)[i].bits, (*b)[i].bits) << name << " result " << i;
}

FuncType sig(std::vector<ValType> params, std::vector<ValType> results) {
  return FuncType{std::move(params), std::move(results)};
}

/// The trap message of an invocation expected to trap ("(ok)" otherwise).
std::string trap_of(Instance& inst, const std::string& name,
                    std::vector<Value> args) {
  auto r = inst.invoke(name, args);
  return r.ok() ? std::string("(ok)") : r.error();
}

// ---------------------------------------------------------------------------

TEST(JitCodegen, IntegerArithmetic32) {
  ModuleBuilder mb;
  // f(a, b) = ((a + b) * 7 - (a & b)) ^ (a | b) + (a << (b & 31)) etc.,
  // exercising the whole 32-bit ALU surface in one expression tree.
  auto f = mb.add_function(sig({ValType::I32, ValType::I32}, {ValType::I32}));
  CodeEmitter ce;
  ce.local_get(0).local_get(1).op(kI32Add);
  ce.i32_const(7).op(kI32Mul);
  ce.local_get(0).local_get(1).op(kI32And).op(kI32Sub);
  ce.local_get(0).local_get(1).op(kI32Or).op(kI32Xor);
  ce.local_get(0).local_get(1).op(kI32Shl).op(kI32Add);
  ce.local_get(0).local_get(1).op(kI32ShrU).op(kI32Add);
  ce.local_get(0).local_get(1).op(kI32ShrS).op(kI32Sub);
  ce.local_get(0).local_get(1).op(kI32Rotl).op(kI32Xor);
  ce.local_get(0).local_get(1).op(kI32Rotr).op(kI32Add);
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  Tiered t = make_tiered(mb.build());
  for (auto [a, b] : std::vector<std::pair<std::int32_t, std::int32_t>>{
           {0, 0}, {1, 1}, {-1, 1}, {12345, -678}, {INT32_MIN, 31},
           {INT32_MAX, 33}, {0x77777777, 131}, {-19, 5}}) {
    check_both(t, "f", {Value::from_i32(a), Value::from_i32(b)});
  }
  if (t.tier) {
    EXPECT_GT(t.tier->native_entries(), 0u);
  }
}

TEST(JitCodegen, IntegerArithmetic64) {
  ModuleBuilder mb;
  auto f = mb.add_function(sig({ValType::I64, ValType::I64}, {ValType::I64}));
  CodeEmitter ce;
  ce.local_get(0).local_get(1).op(kI64Add);
  ce.local_get(0).op(kI64Mul);
  ce.local_get(1).op(kI64Xor);
  ce.local_get(0).local_get(1).op(kI64Shl).op(kI64Add);
  ce.local_get(0).local_get(1).op(kI64ShrS).op(kI64Sub);
  ce.local_get(0).local_get(1).op(kI64Rotl).op(kI64Or);
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  Tiered t = make_tiered(mb.build());
  for (auto [a, b] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {0, 0}, {-1, 65}, {INT64_MIN, 1}, {0x123456789abcdef0LL, 17},
           {INT64_MAX, -3}}) {
    check_both(t, "f", {Value::from_i64(a), Value::from_i64(b)});
  }
}

TEST(JitCodegen, DivRemEdgeCases) {
  ModuleBuilder mb;
  auto mk = [&](Op op) {
    auto f = mb.add_function(sig({ValType::I32, ValType::I32}, {ValType::I32}));
    CodeEmitter ce;
    ce.local_get(0).local_get(1).op(op);
    mb.set_body(f, ce.bytes());
    return f;
  };
  mb.export_function("div_s", mk(kI32DivS));
  mb.export_function("div_u", mk(kI32DivU));
  mb.export_function("rem_s", mk(kI32RemS));
  mb.export_function("rem_u", mk(kI32RemU));

  auto f64d = mb.add_function(sig({ValType::I64, ValType::I64}, {ValType::I64}));
  CodeEmitter ce;
  ce.local_get(0).local_get(1).op(kI64DivS);
  mb.set_body(f64d, ce.bytes());
  mb.export_function("div_s64", f64d);

  Tiered t = make_tiered(mb.build());
  // Normal division both signs.
  check_both(t, "div_s", {Value::from_i32(-7), Value::from_i32(2)});
  check_both(t, "div_u", {Value::from_i32(-7), Value::from_i32(2)});
  check_both(t, "rem_s", {Value::from_i32(-7), Value::from_i32(3)});
  check_both(t, "rem_u", {Value::from_i32(-7), Value::from_i32(3)});
  // Divide by zero traps.
  check_both(t, "div_s", {Value::from_i32(1), Value::from_i32(0)});
  check_both(t, "rem_u", {Value::from_i32(1), Value::from_i32(0)});
  // INT_MIN / -1 overflows; INT_MIN % -1 == 0 (must NOT trap).
  check_both(t, "div_s", {Value::from_i32(INT32_MIN), Value::from_i32(-1)});
  check_both(t, "rem_s", {Value::from_i32(INT32_MIN), Value::from_i32(-1)});
  check_both(t, "div_s64", {Value::from_i64(INT64_MIN), Value::from_i64(-1)});

  // Exact spec trap strings survive the native tier.
  if (t.tier) {
    EXPECT_EQ(trap_of(*t.nat, "div_s", {Value::from_i32(1), Value::from_i32(0)}),
              "trap: integer divide by zero");
    EXPECT_EQ(trap_of(*t.nat, "div_s",
                      {Value::from_i32(INT32_MIN), Value::from_i32(-1)}),
              "trap: integer overflow");
  }
}

TEST(JitCodegen, ComparisonsAndSelect) {
  ModuleBuilder mb;
  auto mk = [&](Op op, bool wide) {
    ValType vt = wide ? ValType::I64 : ValType::I32;
    auto f = mb.add_function(sig({vt, vt}, {ValType::I32}));
    CodeEmitter ce;
    ce.local_get(0).local_get(1).op(op);
    mb.set_body(f, ce.bytes());
    return f;
  };
  mb.export_function("lt_s", mk(kI32LtS, false));
  mb.export_function("gt_u", mk(kI32GtU, false));
  mb.export_function("le_s", mk(kI32LeS, false));
  mb.export_function("ge_u", mk(kI32GeU, false));
  mb.export_function("eq64", mk(kI64Eq, true));
  mb.export_function("lt_u64", mk(kI64LtU, true));

  // select(a, b, a < b)
  auto fs = mb.add_function(sig({ValType::I32, ValType::I32}, {ValType::I32}));
  CodeEmitter ce;
  ce.local_get(0).local_get(1).local_get(0).local_get(1).op(kI32LtS).op(kSelect);
  mb.set_body(fs, ce.bytes());
  mb.export_function("min_s", fs);

  // eqz
  auto fz = mb.add_function(sig({ValType::I64}, {ValType::I32}));
  CodeEmitter cz;
  cz.local_get(0).op(kI64Eqz);
  mb.set_body(fz, cz.bytes());
  mb.export_function("eqz64", fz);

  Tiered t = make_tiered(mb.build());
  for (auto [a, b] : std::vector<std::pair<std::int32_t, std::int32_t>>{
           {-1, 1}, {1, -1}, {5, 5}, {INT32_MIN, INT32_MAX}, {0, 0}}) {
    check_both(t, "lt_s", {Value::from_i32(a), Value::from_i32(b)});
    check_both(t, "gt_u", {Value::from_i32(a), Value::from_i32(b)});
    check_both(t, "le_s", {Value::from_i32(a), Value::from_i32(b)});
    check_both(t, "ge_u", {Value::from_i32(a), Value::from_i32(b)});
    check_both(t, "min_s", {Value::from_i32(a), Value::from_i32(b)});
  }
  check_both(t, "eq64", {Value::from_i64(-1), Value::from_i64(-1)});
  check_both(t, "lt_u64", {Value::from_i64(-1), Value::from_i64(1)});
  check_both(t, "eqz64", {Value::from_i64(0)});
  check_both(t, "eqz64", {Value::from_i64(1ull << 40)});
}

TEST(JitCodegen, FusedBranchesAndLoops) {
  ModuleBuilder mb;
  // sum(n) = 1 + 2 + ... + n via a loop with a fused cmp+br_if back edge.
  auto f = mb.add_function(sig({ValType::I32}, {ValType::I32}),
                           {ValType::I32, ValType::I32});
  CodeEmitter ce;
  ce.block();
  ce.loop();
  ce.local_get(1).local_get(0).op(kI32GeS).br_if(1);  // i >= n -> exit
  ce.local_get(1).i32_const(1).op(kI32Add).local_tee(1);
  ce.local_get(2).op(kI32Add).local_set(2);
  ce.br(0);
  ce.end();
  ce.end();
  ce.local_get(2);
  mb.set_body(f, ce.bytes());
  mb.export_function("sum", f);

  // if/else lowered through kInstrBrIfFalse (the fused-false form).
  auto g = mb.add_function(sig({ValType::I32, ValType::I32}, {ValType::I32}));
  CodeEmitter cg;
  cg.local_get(0).local_get(1).op(kI32Eq);
  cg.if_(0x7f);  // result i32
  cg.i32_const(100);
  cg.else_();
  cg.i32_const(-100);
  cg.end();
  mb.set_body(g, cg.bytes());
  mb.export_function("pick", g);

  Tiered t = make_tiered(mb.build());
  check_both(t, "sum", {Value::from_i32(0)});
  check_both(t, "sum", {Value::from_i32(1)});
  check_both(t, "sum", {Value::from_i32(1000)});
  check_both(t, "pick", {Value::from_i32(3), Value::from_i32(3)});
  check_both(t, "pick", {Value::from_i32(3), Value::from_i32(4)});
}

TEST(JitCodegen, MemoryLoadsStores) {
  ModuleBuilder mb;
  mb.add_memory(1, 2);
  // store_load(addr, v): i32.store at addr+4, reload with i32.load8_u,
  // i32.load16_s and a full i32.load; combine.
  auto f = mb.add_function(sig({ValType::I32, ValType::I32}, {ValType::I32}));
  CodeEmitter ce;
  ce.local_get(0).local_get(1).store(kI32Store, 4);
  ce.local_get(0).load(kI32Load8U, 4);
  ce.local_get(0).load(kI32Load16S, 4).op(kI32Add);
  ce.local_get(0).load(kI32Load, 4).op(kI32Xor);
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  // 64-bit round trip including i64.load32_s sign extension.
  auto g = mb.add_function(sig({ValType::I64}, {ValType::I64}));
  CodeEmitter cg;
  cg.i32_const(64).local_get(0).store(kI64Store, 0);
  cg.i32_const(64).load(kI64Load32S, 0);
  cg.i32_const(64).load(kI64Load, 0).op(kI64Add);
  mb.set_body(g, cg.bytes());
  mb.export_function("g", g);

  Tiered t = make_tiered(mb.build());
  check_both(t, "f", {Value::from_i32(0), Value::from_i32(0x12f48623)});
  check_both(t, "f", {Value::from_i32(1000), Value::from_i32(-1)});
  // Last in-bounds word and first out-of-bounds address.
  check_both(t, "f", {Value::from_i32(65536 - 8), Value::from_i32(7)});
  check_both(t, "f", {Value::from_i32(65536 - 7), Value::from_i32(7)});
  check_both(t, "f", {Value::from_i32(-4), Value::from_i32(7)});
  check_both(t, "g", {Value::from_i64(-0x1234567890LL)});

  if (t.tier) {
    EXPECT_EQ(trap_of(*t.nat, "f", {Value::from_i32(-4), Value::from_i32(7)}),
              "trap: out of bounds memory access");
  }
}

TEST(JitCodegen, Globals) {
  ModuleBuilder mb;
  mb.add_global(ValType::I32, true, 17);
  mb.add_global(ValType::I64, true, -5);
  auto f = mb.add_function(sig({ValType::I32}, {ValType::I32}));
  CodeEmitter ce;
  ce.global_get(0).local_get(0).op(kI32Add).global_set(0);
  ce.global_get(1).i64_const(1).op(kI64Add).global_set(1);
  ce.global_get(0);
  mb.set_body(f, ce.bytes());
  mb.export_function("bump", f);

  Tiered t = make_tiered(mb.build());
  // Globals are per-instance state: run the same sequence on both.
  check_both(t, "bump", {Value::from_i32(3)});
  check_both(t, "bump", {Value::from_i32(100)});
  check_both(t, "bump", {Value::from_i32(-120)});
}

TEST(JitCodegen, BrTable) {
  ModuleBuilder mb;
  auto f = mb.add_function(sig({ValType::I32}, {ValType::I32}));
  CodeEmitter ce;
  ce.block();  // depth 2 -> 30
  ce.block();  // depth 1 -> 20
  ce.block();  // depth 0 -> 10
  ce.local_get(0).br_table({0, 1, 2}, 1);
  ce.end();
  ce.i32_const(10).op(kReturn);
  ce.end();
  ce.i32_const(20).op(kReturn);
  ce.end();
  ce.i32_const(30).op(kReturn);
  mb.set_body(f, ce.bytes());
  mb.export_function("switch", f);

  Tiered t = make_tiered(mb.build());
  for (std::int32_t v : {0, 1, 2, 3, -1, 1000}) {
    check_both(t, "switch", {Value::from_i32(v)});
  }
}

TEST(JitCodegen, CallsAndRecursion) {
  ModuleBuilder mb;
  auto fib = mb.add_function(sig({ValType::I32}, {ValType::I32}));
  CodeEmitter ce;
  ce.local_get(0).i32_const(2).op(kI32LtS);
  ce.if_(0x7f);
  ce.local_get(0);
  ce.else_();
  ce.local_get(0).i32_const(1).op(kI32Sub).call(fib);
  ce.local_get(0).i32_const(2).op(kI32Sub).call(fib);
  ce.op(kI32Add);
  ce.end();
  mb.set_body(fib, ce.bytes());
  mb.export_function("fib", fib);

  // Unbounded recursion must trap identically through native frames.
  auto inf = mb.add_function(sig({}, {ValType::I32}));
  CodeEmitter ci;
  ci.call(inf);
  mb.set_body(inf, ci.bytes());
  mb.export_function("inf", inf);

  Tiered t = make_tiered(mb.build());
  check_both(t, "fib", {Value::from_i32(0)});
  check_both(t, "fib", {Value::from_i32(10)});
  check_both(t, "fib", {Value::from_i32(20)});
  check_both(t, "inf", {});
  if (t.tier) {
    EXPECT_EQ(trap_of(*t.nat, "inf", {}), "trap: call stack exhausted");
  }
}

TEST(JitCodegen, CallIndirect) {
  ModuleBuilder mb;
  mb.add_table(4, 4);
  FuncType binop = sig({ValType::I32, ValType::I32}, {ValType::I32});
  std::uint32_t binop_type = mb.add_type(binop);
  auto add = mb.add_function(binop);
  {
    CodeEmitter ce;
    ce.local_get(0).local_get(1).op(kI32Add);
    mb.set_body(add, ce.bytes());
  }
  auto sub = mb.add_function(binop);
  {
    CodeEmitter ce;
    ce.local_get(0).local_get(1).op(kI32Sub);
    mb.set_body(sub, ce.bytes());
  }
  // Slot 3 holds a function of a DIFFERENT type (for the mismatch trap).
  auto nul = mb.add_function(sig({}, {}));
  {
    CodeEmitter ce;
    mb.set_body(nul, ce.bytes());
  }
  mb.add_element(0, {add, sub});  // slot 2 stays uninitialized
  mb.add_element(3, {nul});

  auto f = mb.add_function(sig({ValType::I32, ValType::I32, ValType::I32},
                               {ValType::I32}));
  CodeEmitter ce;
  ce.local_get(1).local_get(2).local_get(0).call_indirect(binop_type);
  mb.set_body(f, ce.bytes());
  mb.export_function("dispatch", f);

  Tiered t = make_tiered(mb.build());
  auto arg = [](std::int32_t s, std::int32_t a, std::int32_t b) {
    return std::vector<Value>{Value::from_i32(s), Value::from_i32(a),
                              Value::from_i32(b)};
  };
  check_both(t, "dispatch", arg(0, 30, 12));   // add
  check_both(t, "dispatch", arg(1, 30, 12));   // sub
  check_both(t, "dispatch", arg(2, 1, 1));     // uninitialized element
  check_both(t, "dispatch", arg(3, 1, 1));     // type mismatch
  check_both(t, "dispatch", arg(9, 1, 1));     // undefined element
  if (t.tier) {
    EXPECT_EQ(trap_of(*t.nat, "dispatch", arg(2, 1, 1)),
              "trap: uninitialized element");
    EXPECT_EQ(trap_of(*t.nat, "dispatch", arg(3, 1, 1)),
              "trap: indirect call type mismatch");
    EXPECT_EQ(trap_of(*t.nat, "dispatch", arg(9, 1, 1)),
              "trap: undefined element");
  }
}

TEST(JitCodegen, MemoryGrowRebindsBase) {
  ModuleBuilder mb;
  mb.add_memory(1, 4);
  // grow(1), then store/load beyond the old limit: the native frame must
  // re-pin mem_base/mem_size after the helper call or this faults.
  auto f = mb.add_function(sig({}, {ValType::I32}));
  CodeEmitter ce;
  ce.i32_const(1).memory_grow().op(kDrop);
  ce.i32_const(65536 + 16).i32_const(4242).store(kI32Store, 0);
  ce.i32_const(65536 + 16).load(kI32Load, 0);
  ce.memory_size().op(kI32Add);
  mb.set_body(f, ce.bytes());
  mb.export_function("grow_rw", f);

  // Failed grow (beyond max) returns -1 and must not rebind anything odd.
  auto g = mb.add_function(sig({}, {ValType::I32}));
  CodeEmitter cg;
  cg.i32_const(100).memory_grow();
  mb.set_body(g, cg.bytes());
  mb.export_function("grow_fail", g);

  Tiered t = make_tiered(mb.build());
  check_both(t, "grow_rw", {});
  check_both(t, "grow_fail", {});
}

TEST(JitCodegen, MemCopyFill) {
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  auto f = mb.add_function(sig({ValType::I32}, {ValType::I32}));
  CodeEmitter ce;
  ce.i32_const(8).i32_const(0x5a).i32_const(16).memory_fill();
  ce.i32_const(100).i32_const(8).local_get(0).memory_copy();
  ce.i32_const(100).load(kI32Load, 0);
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  Tiered t = make_tiered(mb.build());
  check_both(t, "f", {Value::from_i32(16)});
  check_both(t, "f", {Value::from_i32(0)});
  check_both(t, "f", {Value::from_i32(-1)});  // oob copy traps
}

TEST(JitCodegen, FloatOpsLowerNatively) {
  ModuleBuilder mb;
  // The phase-2 surface lowers f32/f64 arithmetic inline (SSE2 scalar ops):
  // bit-identical with the AOT stream AND zero fallback-thunk traffic.
  auto f = mb.add_function(sig({ValType::F64, ValType::F64}, {ValType::F64}));
  CodeEmitter ce;
  ce.local_get(0).local_get(1).op(kF64Add);
  ce.local_get(0).op(kF64Mul);
  ce.local_get(1).op(kF64Div);
  ce.local_get(0).local_get(1).op(kF64Sub).op(kF64Add);
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  auto g = mb.add_function(sig({ValType::F32, ValType::F32}, {ValType::F32}));
  CodeEmitter cg;
  cg.local_get(0).local_get(1).op(kF32Mul);
  cg.local_get(0).op(kF32Add);
  cg.op(kF32Sqrt);
  mb.set_body(g, cg.bytes());
  mb.export_function("g", g);

  Tiered t = make_tiered(mb.build());
  check_both(t, "f", {Value::from_f64(1.5), Value::from_f64(2.25)});
  check_both(t, "f", {Value::from_f64(-0.0), Value::from_f64(1e300)});
  check_both(t, "f", {Value::from_f64(1e-320), Value::from_f64(3.0)});  // subnormal
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  check_both(t, "f", {Value::from_f64(inf), Value::from_f64(-inf)});
  check_both(t, "f", {Value::from_f64(qnan), Value::from_f64(1.0)});
  check_both(t, "g", {Value::from_f32(3.5f), Value::from_f32(-0.25f)});
  check_both(t, "g", {Value::from_f32(-1.0f), Value::from_f32(0.0f)});  // sqrt(<0)
  if (t.tier) EXPECT_EQ(t.tier->fallback_ops(), 0u);
}

TEST(JitCodegen, FloatMinMaxNanAndSignedZero) {
  ModuleBuilder mb;
  auto mk = [&](Op op, bool wide) {
    ValType vt = wide ? ValType::F64 : ValType::F32;
    auto f = mb.add_function(sig({vt, vt}, {vt}));
    CodeEmitter ce;
    ce.local_get(0).local_get(1).op(op);
    mb.set_body(f, ce.bytes());
    return f;
  };
  mb.export_function("min64", mk(kF64Min, true));
  mb.export_function("max64", mk(kF64Max, true));
  mb.export_function("min32", mk(kF32Min, false));
  mb.export_function("max32", mk(kF32Max, false));

  Tiered t = make_tiered(mb.build());
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  // Every zero pairing: wasm min(-0,+0) = -0, max(-0,+0) = +0.
  for (auto [a, b] : std::vector<std::pair<double, double>>{
           {0.0, -0.0}, {-0.0, 0.0}, {0.0, 0.0}, {-0.0, -0.0},
           {1.0, 2.0}, {2.0, 1.0}, {-inf, inf}, {inf, 3.0},
           {qnan, 1.0}, {1.0, qnan}, {qnan, qnan}}) {
    check_both(t, "min64", {Value::from_f64(a), Value::from_f64(b)});
    check_both(t, "max64", {Value::from_f64(a), Value::from_f64(b)});
    check_both(t, "min32", {Value::from_f32(static_cast<float>(a)),
                            Value::from_f32(static_cast<float>(b))});
    check_both(t, "max32", {Value::from_f32(static_cast<float>(a)),
                            Value::from_f32(static_cast<float>(b))});
  }
  // A signalling-ish NaN payload must canonicalise identically both ways.
  Value snan;
  snan.bits = 0x7ff0000000000001ull;  // f64 sNaN
  check_both(t, "min64", {snan, Value::from_f64(2.0)});
  check_both(t, "max64", {Value::from_f64(2.0), snan});
  if (t.tier) EXPECT_EQ(t.tier->fallback_ops(), 0u);
}

TEST(JitCodegen, FloatComparisonsUnordered) {
  ModuleBuilder mb;
  auto mk = [&](Op op) {
    auto f = mb.add_function(sig({ValType::F64, ValType::F64}, {ValType::I32}));
    CodeEmitter ce;
    ce.local_get(0).local_get(1).op(op);
    mb.set_body(f, ce.bytes());
    return f;
  };
  mb.export_function("eq", mk(kF64Eq));
  mb.export_function("ne", mk(kF64Ne));
  mb.export_function("lt", mk(kF64Lt));
  mb.export_function("gt", mk(kF64Gt));
  mb.export_function("le", mk(kF64Le));
  mb.export_function("ge", mk(kF64Ge));

  Tiered t = make_tiered(mb.build());
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  for (auto [a, b] : std::vector<std::pair<double, double>>{
           {1.0, 2.0}, {2.0, 1.0}, {1.0, 1.0}, {0.0, -0.0},
           {qnan, 1.0}, {1.0, qnan}, {qnan, qnan}, {-inf, inf}}) {
    for (const char* name : {"eq", "ne", "lt", "gt", "le", "ge"})
      check_both(t, name, {Value::from_f64(a), Value::from_f64(b)});
  }
  if (t.tier) EXPECT_EQ(t.tier->fallback_ops(), 0u);
}

TEST(JitCodegen, FloatAbsNegCopysign) {
  ModuleBuilder mb;
  auto f = mb.add_function(sig({ValType::F64, ValType::F64}, {ValType::F64}));
  CodeEmitter ce;
  ce.local_get(0).op(kF64Abs).op(kF64Neg);
  ce.local_get(1).op(kF64Copysign);
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  auto g = mb.add_function(sig({ValType::F32, ValType::F32}, {ValType::F32}));
  CodeEmitter cg;
  cg.local_get(0).op(kF32Neg).op(kF32Abs);
  cg.local_get(1).op(kF32Copysign);
  mb.set_body(g, cg.bytes());
  mb.export_function("g", g);

  Tiered t = make_tiered(mb.build());
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  for (auto [a, b] : std::vector<std::pair<double, double>>{
           {1.5, -1.0}, {-1.5, 1.0}, {-0.0, 0.0}, {0.0, -0.0},
           {qnan, -1.0}, {-qnan, 1.0}}) {
    check_both(t, "f", {Value::from_f64(a), Value::from_f64(b)});
    check_both(t, "g", {Value::from_f32(static_cast<float>(a)),
                        Value::from_f32(static_cast<float>(b))});
  }
  // abs/neg/copysign are pure bit ops: NaN payloads pass through untouched.
  Value payload;
  payload.bits = 0xfff8dead00000001ull;
  check_both(t, "f", {payload, payload});
  if (t.tier) EXPECT_EQ(t.tier->fallback_ops(), 0u);
}

TEST(JitCodegen, FloatConversions) {
  ModuleBuilder mb;
  auto mk1 = [&](Op op, ValType from, ValType to) {
    auto f = mb.add_function(sig({from}, {to}));
    CodeEmitter ce;
    ce.local_get(0).op(op);
    mb.set_body(f, ce.bytes());
    return f;
  };
  mb.export_function("cvt_s32", mk1(kF64ConvertI32S, ValType::I32, ValType::F64));
  mb.export_function("cvt_u32", mk1(kF64ConvertI32U, ValType::I32, ValType::F64));
  mb.export_function("cvt_s64", mk1(kF64ConvertI64S, ValType::I64, ValType::F64));
  mb.export_function("cvt_u64", mk1(kF64ConvertI64U, ValType::I64, ValType::F64));
  mb.export_function("cvtf_u64", mk1(kF32ConvertI64U, ValType::I64, ValType::F32));
  mb.export_function("promote", mk1(kF64PromoteF32, ValType::F32, ValType::F64));
  mb.export_function("demote", mk1(kF32DemoteF64, ValType::F64, ValType::F32));
  mb.export_function("bits_fi", mk1(kI64ReinterpretF64, ValType::F64, ValType::I64));
  mb.export_function("bits_if", mk1(kF64ReinterpretI64, ValType::I64, ValType::F64));

  Tiered t = make_tiered(mb.build());
  for (std::int32_t v : {0, 1, -1, INT32_MIN, INT32_MAX}) {
    check_both(t, "cvt_s32", {Value::from_i32(v)});
    check_both(t, "cvt_u32", {Value::from_i32(v)});
  }
  // u64 -> float crosses the 2^63 split path; 0x8000000000000401 exercises
  // the round-to-odd sticky bit in the f32 demotion of the same path.
  for (std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, INT64_MIN, INT64_MAX,
        static_cast<std::int64_t>(0x8000000000000401ull),
        static_cast<std::int64_t>(0xfffffffffffff400ull)}) {
    check_both(t, "cvt_s64", {Value::from_i64(v)});
    check_both(t, "cvt_u64", {Value::from_i64(v)});
    check_both(t, "cvtf_u64", {Value::from_i64(v)});
  }
  check_both(t, "promote", {Value::from_f32(1.5f)});
  check_both(t, "demote", {Value::from_f64(1e300)});   // -> inf
  check_both(t, "demote", {Value::from_f64(1e-300)});  // -> 0 (underflow)
  Value nan64;
  nan64.bits = 0x7ff8000000000001ull;
  check_both(t, "bits_fi", {nan64});
  check_both(t, "bits_if", {Value::from_i64(0x7ff8000000000001ll)});
  if (t.tier) EXPECT_EQ(t.tier->fallback_ops(), 0u);
}

TEST(JitCodegen, TruncTrapsMatchInterpreterMessages) {
  ModuleBuilder mb;
  auto mk = [&](Op op, ValType from, ValType to) {
    auto f = mb.add_function(sig({from}, {to}));
    CodeEmitter ce;
    ce.local_get(0).op(op);
    mb.set_body(f, ce.bytes());
    return f;
  };
  mb.export_function("i32_f64_s", mk(kI32TruncF64S, ValType::F64, ValType::I32));
  mb.export_function("i32_f64_u", mk(kI32TruncF64U, ValType::F64, ValType::I32));
  mb.export_function("i32_f32_s", mk(kI32TruncF32S, ValType::F32, ValType::I32));
  mb.export_function("i64_f64_s", mk(kI64TruncF64S, ValType::F64, ValType::I64));
  mb.export_function("i64_f64_u", mk(kI64TruncF64U, ValType::F64, ValType::I64));
  mb.export_function("i64_f32_u", mk(kI64TruncF32U, ValType::F32, ValType::I64));

  Tiered t = make_tiered(mb.build());
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  // In-range values, the exact edges, one-past edges, NaN and infinities.
  for (double v : {0.0, -0.5, 2147483647.0, -2147483648.0, 2147483648.0,
                   -2147483649.0, 4294967295.0, 4294967296.0, -1.0, -0.9,
                   9.2233720368547738e18, -9.2233720368547758e18,
                   1.8446744073709552e19, inf, -inf, qnan}) {
    check_both(t, "i32_f64_s", {Value::from_f64(v)});
    check_both(t, "i32_f64_u", {Value::from_f64(v)});
    check_both(t, "i64_f64_s", {Value::from_f64(v)});
    check_both(t, "i64_f64_u", {Value::from_f64(v)});
    check_both(t, "i32_f32_s", {Value::from_f32(static_cast<float>(v))});
    check_both(t, "i64_f32_u", {Value::from_f32(static_cast<float>(v))});
  }
  if (t.tier) {
    EXPECT_EQ(trap_of(*t.nat, "i32_f64_s", {Value::from_f64(qnan)}),
              "trap: invalid conversion to integer: NaN in i32.trunc_f64_s");
    EXPECT_EQ(trap_of(*t.nat, "i32_f64_s", {Value::from_f64(2147483648.0)}),
              "trap: integer overflow in i32.trunc_f64_s");
    EXPECT_EQ(trap_of(*t.nat, "i64_f64_u", {Value::from_f64(-1.0)}),
              "trap: integer overflow in i64.trunc_f64_u");
    EXPECT_EQ(trap_of(*t.nat, "i64_f32_u", {Value::from_f32(-2.0f)}),
              "trap: integer overflow in i64.trunc_f32_u");
    EXPECT_EQ(t.tier->fallback_ops(), 0u);
  }
}

TEST(JitCodegen, FusedLoadOpStoreAndResultSink) {
  ModuleBuilder mb;
  mb.add_memory(1, 1);
  // An accumulation loop: local.get feeding ALU ops as memory operands,
  // op results consumed by local.set straight from their registers, and a
  // store/reload through memory between them.
  auto f = mb.add_function(
      sig({ValType::I32}, {ValType::I32}),
      {ValType::I32, ValType::I32, ValType::I32, ValType::I32, ValType::I32,
       ValType::I32, ValType::I32, ValType::I32, ValType::I32});
  CodeEmitter ce;
  ce.block();
  ce.loop();
  ce.local_get(1).local_get(0).op(kI32GeS).br_if(1);
  // acc2 = acc2 + i * 3 (get -> mul -> add -> set: both peepholes fire)
  ce.local_get(2).local_get(1).i32_const(3).op(kI32Mul).op(kI32Add);
  ce.local_set(2);
  // acc3 ^= acc2 - i
  ce.local_get(3).local_get(2).local_get(1).op(kI32Sub).op(kI32Xor);
  ce.local_set(3);
  // Store/reload through memory so fused loads see fresh slot values.
  ce.i32_const(16).local_get(2).store(kI32Store, 0);
  ce.local_get(3).i32_const(16).load(kI32Load, 0).op(kI32Add).local_set(4);
  ce.local_get(1).i32_const(1).op(kI32Add).local_set(1);
  ce.br(0);
  ce.end();
  ce.end();
  ce.local_get(2).local_get(3).op(kI32Add).local_get(4).op(kI32Xor);
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  Tiered t = make_tiered(mb.build());
  check_both(t, "f", {Value::from_i32(0)});
  check_both(t, "f", {Value::from_i32(1)});
  check_both(t, "f", {Value::from_i32(57)});
  check_both(t, "f", {Value::from_i32(1000)});
}

TEST(JitCodegen, SmallLoopsAndFloatChains) {
  ModuleBuilder mb;
  // A small counted int loop and a call-free f64 chain: operands stay in
  // cached registers between the loop's boundaries, f64 values in XMM.
  auto f = mb.add_function(sig({ValType::I32, ValType::I32}, {ValType::I32}),
                           {ValType::I32});
  CodeEmitter ce;
  ce.block();
  ce.loop();
  ce.local_get(1).i32_const(0).op(kI32LeS).br_if(1);
  ce.local_get(2).local_get(0).op(kI32Add).local_set(2);
  ce.local_get(1).i32_const(1).op(kI32Sub).local_set(1);
  ce.br(0);
  ce.end();
  ce.end();
  ce.local_get(2);
  mb.set_body(f, ce.bytes());
  mb.export_function("mul_by_add", f);

  auto g = mb.add_function(sig({ValType::F64, ValType::F64}, {ValType::F64}));
  CodeEmitter cg;
  cg.local_get(0).local_get(1).op(kF64Mul);
  cg.local_get(0).op(kF64Add);
  cg.op(kF64Sqrt);
  mb.set_body(g, cg.bytes());
  mb.export_function("fma_sqrt", g);

  Tiered t = make_tiered(mb.build());
  check_both(t, "mul_by_add", {Value::from_i32(7), Value::from_i32(6)});
  check_both(t, "mul_by_add", {Value::from_i32(-3), Value::from_i32(1000)});
  check_both(t, "mul_by_add", {Value::from_i32(5), Value::from_i32(0)});
  check_both(t, "fma_sqrt", {Value::from_f64(3.0), Value::from_f64(4.0)});
  check_both(t, "fma_sqrt", {Value::from_f64(-8.0), Value::from_f64(1.0)});
  if (t.tier) EXPECT_EQ(t.tier->fallback_ops(), 0u);
}

TEST(JitCodegen, Conversions) {
  ModuleBuilder mb;
  auto wrap = mb.add_function(sig({ValType::I64}, {ValType::I32}));
  {
    CodeEmitter ce;
    ce.local_get(0).op(kI32WrapI64);
    mb.set_body(wrap, ce.bytes());
  }
  mb.export_function("wrap", wrap);
  auto ext_s = mb.add_function(sig({ValType::I32}, {ValType::I64}));
  {
    CodeEmitter ce;
    ce.local_get(0).op(kI64ExtendI32S);
    mb.set_body(ext_s, ce.bytes());
  }
  mb.export_function("ext_s", ext_s);
  auto ext_u = mb.add_function(sig({ValType::I32}, {ValType::I64}));
  {
    CodeEmitter ce;
    ce.local_get(0).op(kI64ExtendI32U);
    mb.set_body(ext_u, ce.bytes());
  }
  mb.export_function("ext_u", ext_u);
  auto sx8 = mb.add_function(sig({ValType::I32}, {ValType::I32}));
  {
    CodeEmitter ce;
    ce.local_get(0).op(kI32Extend8S);
    mb.set_body(sx8, ce.bytes());
  }
  mb.export_function("sx8", sx8);

  Tiered t = make_tiered(mb.build());
  check_both(t, "wrap", {Value::from_i64(0x1ffffffffLL)});
  check_both(t, "wrap", {Value::from_i64(-1)});
  check_both(t, "ext_s", {Value::from_i32(-2)});
  check_both(t, "ext_u", {Value::from_i32(-2)});
  check_both(t, "sx8", {Value::from_i32(0x1ff)});
  check_both(t, "sx8", {Value::from_i32(0x17f)});
}

TEST(JitCodegen, UnreachableTrap) {
  ModuleBuilder mb;
  auto f = mb.add_function(sig({ValType::I32}, {ValType::I32}));
  CodeEmitter ce;
  ce.local_get(0);
  ce.if_(0x7f);
  ce.local_get(0);
  ce.else_();
  ce.op(kUnreachable);
  ce.end();
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  Tiered t = make_tiered(mb.build());
  check_both(t, "f", {Value::from_i32(1)});
  check_both(t, "f", {Value::from_i32(0)});
  if (t.tier) {
    EXPECT_EQ(trap_of(*t.nat, "f", {Value::from_i32(0)}),
              "trap: unreachable executed");
  }
}

TEST(JitCodegen, HostCallFromNativeFrame) {
  ModuleBuilder mb;
  auto host = mb.import_function("env", "twice",
                                 sig({ValType::I32}, {ValType::I32}));
  auto f = mb.add_function(sig({ValType::I32}, {ValType::I32}));
  CodeEmitter ce;
  ce.local_get(0).call(host).i32_const(1).op(kI32Add);
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  ImportResolver imports;
  imports.add_function("env", "twice", sig({ValType::I32}, {ValType::I32}),
                       [](Instance&, std::span<const Value> args) {
                         return Result<std::vector<Value>>{std::vector<Value>{
                             Value::from_i32(args[0].i32() * 2)}};
                       });
  Tiered t = make_tiered(mb.build(), imports);
  check_both(t, "f", {Value::from_i32(21)});
  check_both(t, "f", {Value::from_i32(-1)});
}

// ---------------------------------------------------------------------------
// Constant divisors and pinned locals.

std::unique_ptr<Instance> instantiate_interp(const Bytes& bin) {
  auto mod = decode_module(bin);
  EXPECT_TRUE(mod.ok()) << mod.error();
  if (!mod.ok()) return nullptr;
  auto inst = Instance::instantiate(std::move(*mod), no_imports(), ExecMode::Interp);
  EXPECT_TRUE(inst.ok()) << inst.error();
  return inst.ok() ? std::move(*inst) : nullptr;
}

TEST(JitCodegen, ConstantDivisorsMatchInterpreter) {
  // One function per (width, op, constant divisor): x OP c. The native tier
  // drops the guards a constant cannot trip, folds rem_s by -1 to 0 and
  // still traps on a constant 0 with the canonical message.
  struct Case {
    std::string name;
    bool wide;
  };
  std::vector<Case> cases;
  ModuleBuilder mb;
  static const Op k32[] = {kI32DivS, kI32DivU, kI32RemS, kI32RemU};
  static const Op k64[] = {kI64DivS, kI64DivU, kI64RemS, kI64RemU};
  static const std::int64_t kDivisors[] = {0, 1, -1, 7, INT64_MIN};
  for (const bool wide : {false, true}) {
    const ValType vt = wide ? ValType::I64 : ValType::I32;
    for (int o = 0; o < 4; ++o) {
      for (const std::int64_t d : kDivisors) {
        auto f = mb.add_function(sig({vt}, {vt}));
        CodeEmitter ce;
        ce.local_get(0);
        if (wide)
          ce.i64_const(d);
        else  // INT64_MIN stands for INT32_MIN at 32 bits
          ce.i32_const(d == INT64_MIN ? INT32_MIN : static_cast<std::int32_t>(d));
        ce.op(wide ? k64[o] : k32[o]);
        mb.set_body(f, ce.bytes());
        const std::string name = std::string(wide ? "w" : "n") + std::to_string(o) + "_" +
                                 std::to_string(d);
        mb.export_function(name, f);
        cases.push_back({name, wide});
      }
    }
  }
  const Bytes bin = mb.build();
  Tiered t = make_tiered(bin);
  auto interp = instantiate_interp(bin);
  ASSERT_TRUE(interp);
  static const std::int64_t kDividends[] = {0, 1, -1, 7, -7, 100, INT32_MIN, INT32_MAX,
                                            INT64_MIN, INT64_MAX};
  int traps = 0;
  for (const Case& c : cases) {
    for (const std::int64_t x : kDividends) {
      const std::vector<Value> args{c.wide ? Value::from_i64(x)
                                           : Value::from_i32(static_cast<std::int32_t>(x))};
      check_both(t, c.name, args);
      auto want = interp->invoke(c.name, args);
      auto got = t.nat->invoke(c.name, args);
      ASSERT_EQ(want.ok(), got.ok()) << c.name << " x=" << x;
      if (!want.ok()) {
        EXPECT_EQ(want.error(), got.error()) << c.name << " x=" << x;
        ++traps;
        continue;
      }
      EXPECT_EQ((*want)[0].bits, (*got)[0].bits) << c.name << " x=" << x;
    }
  }
  // Division by 0 always traps; div_s INT_MIN / -1 overflows (both widths).
  EXPECT_EQ(traps, 2 * 4 * 10 + 2);
  EXPECT_EQ(trap_of(*t.nat, "n0_0", {Value::from_i32(5)}), "trap: integer divide by zero");
  EXPECT_EQ(trap_of(*t.nat, "w0_-1", {Value::from_i64(INT64_MIN)}), "trap: integer overflow");
}

/// f(n, m, a, b, x) recurses n deep with 24 padding locals per frame, so
/// the chain grows the operand stack in callee prologues. All five
/// parameters are hot enough to pin, so some land in caller-saved
/// registers: they must be loaded after the growth check, whose helper
/// call clobbers those registers (and may move the stack).
TEST(JitCodegen, PinnedParamsLoadAfterStackGrowth) {
  ModuleBuilder mb;
  std::vector<ValType> pad(24, ValType::I64);
  auto f = mb.add_function(
      sig({ValType::I64, ValType::I64, ValType::I64, ValType::I64, ValType::F64}, {ValType::I64}),
      pad);
  CodeEmitter ce;
  ce.local_get(0).op(kI64Eqz);
  ce.if_(0x7e);
  ce.local_get(1).local_get(2).op(kI64Xor).local_get(3).op(kI64Add);
  ce.local_get(4).op(kI64ReinterpretF64).op(kI64Add);
  ce.else_();
  ce.local_get(0).local_get(1).op(kI64Mul).local_get(2).op(kI64Add).local_get(3).op(kI64Sub);
  ce.local_get(0).i64_const(1).op(kI64Sub);
  ce.local_get(1).i64_const(1).op(kI64Add);
  ce.local_get(2).local_get(0).op(kI64Add);
  ce.local_get(3).local_get(0).op(kI64Xor);
  ce.local_get(4).f64_const(0.5).op(kF64Add);
  ce.call(f).op(kI64Add);
  ce.end();
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  Tiered t = make_tiered(mb.build());
  for (const std::int64_t n : {0, 1, 10, 300, 500}) {
    check_both(t, "f", {Value::from_i64(n), Value::from_i64(3), Value::from_i64(-7),
                        Value::from_i64(0x5555), Value::from_f64(1.25)});
  }
}

TEST(JitCodegen, PinnedLocalAliasKeepsOldValue) {
  ModuleBuilder mb;
  // local.get 0; i32.const 1; local.set 0 leaves the OLD value on the stack.
  auto f = mb.add_function(sig({ValType::I32}, {ValType::I32}));
  {
    CodeEmitter ce;
    ce.local_get(0).i32_const(1).local_set(0);
    mb.set_body(f, ce.bytes());
  }
  mb.export_function("set", f);
  // old + new through a tee: x; (x = x * 3) -> x + 3x.
  auto g = mb.add_function(sig({ValType::I32}, {ValType::I32}));
  {
    CodeEmitter ce;
    ce.local_get(0).local_get(0).i32_const(3).op(kI32Mul).local_tee(0).op(kI32Add);
    ce.local_get(0).op(kI32Add);
    mb.set_body(g, ce.bytes());
  }
  mb.export_function("tee", g);
  // The same on an f64 local (XMM pin): x; (x = x + 1.5) -> x - (x + 1.5).
  auto h = mb.add_function(sig({ValType::F64}, {ValType::F64}));
  {
    CodeEmitter ce;
    ce.local_get(0).local_get(0).f64_const(1.5).op(kF64Add).local_set(0);
    ce.local_get(0).op(kF64Sub);
    mb.set_body(h, ce.bytes());
  }
  mb.export_function("fset", h);

  Tiered t = make_tiered(mb.build());
  for (const std::int32_t x : {0, 41, -7}) {
    check_both(t, "set", {Value::from_i32(x)});
    check_both(t, "tee", {Value::from_i32(x)});
    check_both(t, "fset", {Value::from_f64(x * 0.25)});
  }
  auto r = t.nat->invoke("set", std::vector<Value>{Value::from_i32(41)});
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ((*r)[0].i32(), 41);
  r = t.nat->invoke("tee", std::vector<Value>{Value::from_i32(5)});
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ((*r)[0].i32(), 5 + 15 + 15);
  r = t.nat->invoke("fset", std::vector<Value>{Value::from_f64(2.0)});
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ((*r)[0].f64(), -1.5);
}

/// A loop whose counter ranks third by heat, so it is pinned to a
/// caller-saved register (rbx/r12 go to the two hotter accumulators),
/// calls a compiled function directly and a host import through the
/// helper every iteration. The callee pins its own locals to the same
/// caller-saved registers; the counter must survive both calls.
TEST(JitCodegen, PinnedCounterSurvivesCalls) {
  ModuleBuilder mb;
  auto host = mb.import_function("env", "inc", sig({ValType::I32}, {ValType::I32}));
  // clobber(x): a loop over its own pinned locals (rbx, r12, rsi, ...).
  auto clobber = mb.add_function(sig({ValType::I32}, {ValType::I32}),
                                 {ValType::I32, ValType::I32, ValType::I32, ValType::I32});
  {
    CodeEmitter ce;
    ce.block().loop();
    ce.local_get(1).local_get(0).op(kI32Add).local_set(1);
    ce.local_get(2).local_get(1).op(kI32Xor).local_set(2);
    ce.local_get(3).local_get(2).op(kI32Add).local_set(3);
    ce.local_get(4).i32_const(1).op(kI32Add).local_tee(4);
    ce.i32_const(5).op(kI32LtU).br_if(0);
    ce.end().end();
    ce.local_get(3);
    mb.set_body(clobber, ce.bytes());
  }
  // f(n) and count(n) share a body over locals 1 = i (the counter), 2 = a,
  // 3 = b; f returns a ^ b, count returns i.
  auto body = [&](bool count) {
    CodeEmitter ce;
    ce.block().loop();
    ce.local_get(1).local_get(0).op(kI32GeS).br_if(1);
    for (int k = 0; k < 3; ++k) {  // a and b outrank i
      ce.local_get(2).local_get(3).op(kI32Add).local_set(2);
      ce.local_get(3).local_get(2).op(kI32Xor).local_set(3);
    }
    ce.local_get(2).local_get(1).call(clobber).op(kI32Add).local_set(2);
    ce.local_get(3).local_get(1).call(host).op(kI32Add).local_set(3);
    ce.local_get(1).i32_const(1).op(kI32Add).local_set(1);
    ce.br(0);
    ce.end().end();
    if (count)
      ce.local_get(1);
    else
      ce.local_get(2).local_get(3).op(kI32Xor);
    return ce.bytes();
  };
  for (const bool count : {false, true}) {
    auto f = mb.add_function(sig({ValType::I32}, {ValType::I32}),
                             {ValType::I32, ValType::I32, ValType::I32});
    mb.set_body(f, body(count));
    mb.export_function(count ? "count" : "f", f);
  }

  ImportResolver imports;
  imports.add_function("env", "inc", sig({ValType::I32}, {ValType::I32}),
                       [](Instance&, std::span<const Value> args) {
                         return Result<std::vector<Value>>{
                             std::vector<Value>{Value::from_i32(args[0].i32() + 1)}};
                       });
  Tiered t = make_tiered(mb.build(), imports);
  for (const std::int32_t n : {0, 1, 7, 40}) {
    check_both(t, "f", {Value::from_i32(n)});
    check_both(t, "count", {Value::from_i32(n)});
  }
  if (!t.tier) return;
  auto r = t.nat->invoke("count", std::vector<Value>{Value::from_i32(40)});
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ((*r)[0].i32(), 40);
  EXPECT_GT(t.tier->fallback_call(), 0u);  // the host calls went through the helper
  EXPECT_GT(t.tier->native_entries(), 40u);  // ... and clobber ran natively
}

/// Twelve i32 accumulators and a loop counter, all hot: five get GPRs, the
/// rest stay in slots, and the sum matches the AOT stream.
TEST(JitCodegen, MoreHotLocalsThanRegisters) {
  ModuleBuilder mb;
  constexpr std::uint32_t kLocals = 12;
  auto f = mb.add_function(sig({ValType::I32}, {ValType::I32}),
                           std::vector<ValType>(kLocals + 1, ValType::I32));
  const std::uint32_t counter = kLocals + 1;
  CodeEmitter ce;
  ce.block().loop();
  ce.local_get(counter).local_get(0).op(kI32GeS).br_if(1);
  for (std::uint32_t l = 1; l <= kLocals; ++l) {  // l += l-1 (+ counter)
    ce.local_get(l).local_get(l == 1 ? counter : l - 1).op(kI32Add);
    ce.i32_const(static_cast<std::int32_t>(l)).op(kI32Add).local_set(l);
  }
  ce.local_get(counter).i32_const(1).op(kI32Add).local_set(counter);
  ce.br(0);
  ce.end().end();
  ce.i32_const(0);
  for (std::uint32_t l = 1; l <= kLocals; ++l) ce.local_get(l).op(kI32Add);
  mb.set_body(f, ce.bytes());
  mb.export_function("sum", f);

  Tiered t = make_tiered(mb.build());
  for (const std::int32_t n : {0, 1, 5, 100}) check_both(t, "sum", {Value::from_i32(n)});
}

// ---------------------------------------------------------------------------
// Direct native-to-native calls through the TierSet entry table.

/// leaf(x) = x * 3 + 1; mid(x) = leaf(x) + leaf(x + 1);
/// top(n) = sum over i < n of mid(i). top(n) makes 3n wasm->wasm calls.
Bytes call_chain_module() {
  ModuleBuilder mb;
  const FuncType unary = sig({ValType::I32}, {ValType::I32});
  auto leaf = mb.add_function(unary);
  {
    CodeEmitter ce;
    ce.local_get(0).i32_const(3).op(kI32Mul).i32_const(1).op(kI32Add);
    mb.set_body(leaf, ce.bytes());
  }
  auto mid = mb.add_function(unary);
  {
    CodeEmitter ce;
    ce.local_get(0).call(leaf);
    ce.local_get(0).i32_const(1).op(kI32Add).call(leaf);
    ce.op(kI32Add);
    mb.set_body(mid, ce.bytes());
  }
  auto top = mb.add_function(unary, {ValType::I32, ValType::I32});  // i, acc
  {
    CodeEmitter ce;
    ce.block().loop();
    ce.local_get(1).local_get(0).op(kI32GeS).br_if(1);
    ce.local_get(2).local_get(1).call(mid).op(kI32Add).local_set(2);
    ce.local_get(1).i32_const(1).op(kI32Add).local_set(1);
    ce.br(0).end().end();
    ce.local_get(2);
    mb.set_body(top, ce.bytes());
  }
  mb.export_function("top", top);
  return mb.build();
}

TEST(JitTiering, CompiledCallChainStaysNative) {
  Tiered t = make_tiered(call_chain_module());
  check_both(t, "top", {Value::from_i32(0)});
  check_both(t, "top", {Value::from_i32(10)});
  if (!t.tier) return;
  const std::uint64_t entries = t.tier->native_entries();
  const std::vector<Value> ten{Value::from_i32(10)};
  auto r = t.nat->invoke("top", ten);
  ASSERT_TRUE(r.ok()) << r.error();
  // sum_{i<10} (3i+1) + (3i+4) = 6 * 45 + 50
  EXPECT_EQ((*r)[0].i32(), 320);
  // 30 calls, all direct: the entry plus one native entry per call, and
  // not one helper dispatch.
  EXPECT_EQ(t.tier->native_entries() - entries, 31u);
  EXPECT_EQ(t.tier->fallback_call(), 0u);
}

TEST(JitTiering, UncompiledMiddleCalleeMixesFrames) {
  if (!jit::jit_available()) GTEST_SKIP() << "JIT unavailable on this host";
  auto aot = instantiate_aot(call_chain_module(), no_imports());
  auto inst = instantiate_aot(call_chain_module(), no_imports());
  ASSERT_TRUE(aot && inst);
  // Keep `mid` (function 1) on the AOT stream: its copy in the tier's
  // stream refuses, so top -> mid goes through the helper and the AOT
  // stream, and mid -> leaf re-enters native code through the entry thunk.
  std::vector<CompiledFunc> patched(inst->compiled.begin(), inst->compiled.end());
  patched[1].code[0].op = 0x3fe;
  jit::TierConfig config;
  config.hot_threshold = 1 << 30;  // nothing tiers up behind the test's back
  auto tier = std::make_shared<jit::TierSet>(&inst->module(), patched, std::move(config));
  EXPECT_EQ(tier->compile_all(), 2u);
  EXPECT_EQ(tier->entry_for(1), nullptr);
  inst->tier = tier;

  for (std::int32_t n : {0, 1, 7, 25}) {
    const std::vector<Value> args{Value::from_i32(n)};
    auto a = aot->invoke("top", args);
    auto b = inst->invoke("top", args);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ((*a)[0].bits, (*b)[0].bits) << "n=" << n;
  }
  // n = 0 + 1 + 7 + 25 = 33 calls of mid, each a helper dispatch; each mid
  // enters leaf natively twice through the entry thunk.
  EXPECT_EQ(tier->fallback_call(), 33u);
  EXPECT_EQ(tier->native_entries(), 4u + 66u);
}

TEST(JitTiering, CallIndirectDispatchesThroughTheHelper) {
  ModuleBuilder mb;
  mb.add_table(2, 2);
  const FuncType binop = sig({ValType::I32, ValType::I32}, {ValType::I32});
  const std::uint32_t binop_type = mb.add_type(binop);
  auto add = mb.add_function(binop);
  {
    CodeEmitter ce;
    ce.local_get(0).local_get(1).op(kI32Add);
    mb.set_body(add, ce.bytes());
  }
  auto sub = mb.add_function(binop);
  {
    CodeEmitter ce;
    ce.local_get(0).local_get(1).op(kI32Sub);
    mb.set_body(sub, ce.bytes());
  }
  mb.add_element(0, {add, sub});
  // f(a, b) = table[0](a, b) * table[1](a, b): two indirect calls.
  auto f = mb.add_function(binop);
  CodeEmitter ce;
  ce.local_get(0).local_get(1).i32_const(0).call_indirect(binop_type);
  ce.local_get(0).local_get(1).i32_const(1).call_indirect(binop_type);
  ce.op(kI32Mul);
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  Tiered t = make_tiered(mb.build());
  check_both(t, "f", {Value::from_i32(30), Value::from_i32(12)});
  if (!t.tier) return;
  EXPECT_EQ(t.tier->fallback_call(), 2u);   // both calls went through the helper
  EXPECT_EQ(t.tier->native_entries(), 3u);  // f, then add and sub via the thunk
}

// ---------------------------------------------------------------------------
// Tiering machinery (heat counters, background compile, entry install).

TEST(JitTiering, HeatThresholdTripsBackgroundCompile) {
  if (!jit::jit_available()) GTEST_SKIP() << "JIT unavailable on this host";

  ModuleBuilder mb;
  auto f = mb.add_function(sig({ValType::I32}, {ValType::I32}));
  CodeEmitter ce;
  ce.local_get(0).i32_const(3).op(kI32Mul);
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  auto inst = instantiate_aot(mb.build(), no_imports());
  ASSERT_TRUE(inst);
  jit::TierConfig config;
  config.hot_threshold = 3;
  auto tier = std::make_shared<jit::TierSet>(&inst->module(), inst->compiled,
                                             std::move(config));
  inst->tier = tier;

  // Below the threshold: nothing queued, nothing compiled.
  auto args = std::vector<Value>{Value::from_i32(5)};
  ASSERT_TRUE(inst->invoke("f", args).ok());
  ASSERT_TRUE(inst->invoke("f", args).ok());
  EXPECT_EQ(tier->compile_pending(), 0u);
  EXPECT_EQ(tier->entry_for(0), nullptr);

  // Third call crosses hot_threshold=3 -> queued; the control-plane sweep
  // compiles and installs exactly one entry.
  ASSERT_TRUE(inst->invoke("f", args).ok());
  EXPECT_EQ(tier->compile_pending(), 1u);
  EXPECT_NE(tier->entry_for(0), nullptr);
  EXPECT_EQ(tier->tier_up_compiles(), 1u);
  EXPECT_GT(tier->native_code_bytes(), 0u);

  // Re-sweeping is idempotent; the next invoke runs native.
  EXPECT_EQ(tier->compile_pending(), 0u);
  auto r = inst->invoke("f", args);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].i32(), 15);
  EXPECT_EQ(tier->native_entries(), 1u);
}

TEST(JitTiering, CodeChargeRefusalKeepsAotStream) {
  if (!jit::jit_available()) GTEST_SKIP() << "JIT unavailable on this host";

  ModuleBuilder mb;
  auto f = mb.add_function(sig({}, {ValType::I32}));
  CodeEmitter ce;
  ce.i32_const(7);
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  auto inst = instantiate_aot(mb.build(), no_imports());
  ASSERT_TRUE(inst);
  jit::TierConfig config;
  config.hot_threshold = 1;
  config.charge_code = [](std::size_t) { return false; };  // heap cap exceeded
  auto tier = std::make_shared<jit::TierSet>(&inst->module(), inst->compiled,
                                             std::move(config));
  tier->compile_all();
  inst->tier = tier;

  EXPECT_EQ(tier->entry_for(0), nullptr);
  EXPECT_EQ(tier->tier_up_compiles(), 0u);
  auto r = inst->invoke("f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].i32(), 7);  // still correct on the AOT stream
}

TEST(JitTiering, MetricSinksReceiveFlushes) {
  if (!jit::jit_available()) GTEST_SKIP() << "JIT unavailable on this host";

  ModuleBuilder mb;
  mb.add_table(1, 1);
  const FuncType unop = sig({ValType::F64}, {ValType::F64});
  const std::uint32_t unop_type = mb.add_type(unop);
  // f64.nearest stays outside the lowered surface (round-to-even needs
  // SSE4.1 roundsd), so it is a stable thunk driver; f64.add lowers inline
  // and must NOT count.
  auto f = mb.add_function(unop);
  CodeEmitter ce;
  ce.local_get(0).local_get(0).op(kF64Add).op(kF64Nearest);
  mb.set_body(f, ce.bytes());
  mb.add_element(0, {f});
  // g(x) = table[0](x): one helper call dispatch, landing on f's native
  // entry through the entry thunk.
  auto g = mb.add_function(unop);
  CodeEmitter cg;
  cg.local_get(0).i32_const(0).call_indirect(unop_type);
  mb.set_body(g, cg.bytes());
  mb.export_function("g", g);

  auto inst = instantiate_aot(mb.build(), no_imports());
  ASSERT_TRUE(inst);
  jit::TierConfig config;
  config.hot_threshold = 1;
  auto tier = std::make_shared<jit::TierSet>(&inst->module(), inst->compiled,
                                             std::move(config));
  obs::Counter compiles, entries, fallback_ops, fallback_call;
  obs::Histogram compile_ns;
  const jit::TierSinks sinks{.compiles = &compiles,
                             .native_entries = &entries,
                             .fallback_ops = &fallback_ops,
                             .fallback_call = &fallback_call,
                             .compile_ns = &compile_ns};
  tier->bind_metrics(&sinks);
  tier->compile_all();
  inst->tier = tier;

  std::vector<Value> gargs{Value::from_f64(2.5)};
  auto r = inst->invoke("g", gargs);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].f64(), 5.0);
  EXPECT_EQ(compiles.get(), 2u);
  EXPECT_EQ(compile_ns.count(), 2u);
  EXPECT_EQ(entries.get(), 2u);        // g, then f via the thunk
  EXPECT_EQ(fallback_ops.get(), 1u);   // exactly the f64.nearest thunk
  EXPECT_EQ(fallback_call.get(), 1u);  // exactly the call_indirect helper
  // The sinks see what the TierSet's own totals see.
  EXPECT_EQ(tier->tier_up_compiles(), compiles.get());
  EXPECT_EQ(tier->native_entries(), entries.get());
  EXPECT_EQ(tier->fallback_ops(), fallback_ops.get());
  EXPECT_EQ(tier->fallback_call(), fallback_call.get());
}

TEST(JitTiering, RefusalRecordsOffendingOpcode) {
  if (!jit::jit_available()) GTEST_SKIP() << "JIT unavailable on this host";

  ModuleBuilder mb;
  auto f = mb.add_function(sig({ValType::I32}, {ValType::I32}));
  CodeEmitter ce;
  ce.local_get(0).i32_const(1).op(kI32Add);
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  auto inst = instantiate_aot(mb.build(), no_imports());
  ASSERT_TRUE(inst);
  // Every validated shape currently lowers, so synthesise a refusal: patch
  // the compiled stream with an opcode the prescan does not recognise and
  // tier over the patched copy. The refusal must name the opcode instead of
  // silently falling back wholesale.
  std::vector<CompiledFunc> patched(inst->compiled.begin(),
                                    inst->compiled.end());
  ASSERT_FALSE(patched.empty());
  ASSERT_FALSE(patched[0].code.empty());
  patched[0].code[0].op = 0x3fe;  // not a real instruction
  jit::TierConfig config;
  config.hot_threshold = 1;
  jit::TierSet tier(&inst->module(), patched, std::move(config));
  EXPECT_EQ(tier.refused_functions(), 0u);
  EXPECT_EQ(tier.last_refused_op(), 0xffffffffu);  // nothing refused yet
  tier.compile_all();
  EXPECT_EQ(tier.tier_up_compiles(), 0u);
  EXPECT_EQ(tier.refused_functions(), 1u);
  EXPECT_EQ(tier.last_refused_op(), 0x3feu);

  // The unpatched instance still runs fine on the AOT stream.
  std::vector<Value> args{Value::from_i32(9)};
  auto r = inst->invoke("f", args);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].i32(), 10);
}

}  // namespace
}  // namespace watz::wasm
