#include "wasm/decoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "ann/guest.hpp"
#include "crypto/sha256.hpp"
#include "db/kv_guest.hpp"
#include "polybench/suite.hpp"
#include "wasm/builder.hpp"
#include "wasm/instance.hpp"
#include "wasm/jit/jit.hpp"
#include "wasm/validator.hpp"
#include "wcc/compiler.hpp"

namespace watz::wasm {
namespace {

Bytes minimal_module() {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {ValType::I32}});
  CodeEmitter e;
  e.i32_const(42);
  b.set_body(f, e.bytes());
  b.export_function("answer", f);
  return b.build();
}

TEST(Decoder, AcceptsMinimalModule) {
  auto mod = decode_module(minimal_module());
  ASSERT_TRUE(mod.ok()) << mod.error();
  EXPECT_EQ(mod->functions.size(), 1u);
  EXPECT_EQ(mod->exports.size(), 1u);
  EXPECT_EQ(mod->exports[0].name, "answer");
  EXPECT_TRUE(validate_module(*mod).ok());
}

TEST(Decoder, RejectsBadMagic) {
  Bytes bad = minimal_module();
  bad[0] = 'X';
  EXPECT_FALSE(decode_module(bad).ok());
}

TEST(Decoder, RejectsBadVersion) {
  Bytes bad = minimal_module();
  bad[4] = 9;
  EXPECT_FALSE(decode_module(bad).ok());
}

TEST(Decoder, RejectsTruncatedModule) {
  const Bytes good = minimal_module();
  // Note: 8 bytes (magic + version, no sections) is a *valid* empty module,
  // so cuts start below and above that boundary.
  for (std::size_t cut : {std::size_t{1}, std::size_t{4}, std::size_t{9}, good.size() - 1}) {
    const Bytes truncated(good.begin(), good.begin() + cut);
    EXPECT_FALSE(decode_module(truncated).ok()) << "cut=" << cut;
  }
}

TEST(Decoder, RejectsEmptyInput) { EXPECT_FALSE(decode_module({}).ok()); }

TEST(Decoder, DecodesImportsAndMemory) {
  ModuleBuilder b;
  b.import_function("wasi_snapshot_preview1", "proc_exit", {{ValType::I32}, {}});
  b.add_memory(2, 10);
  const auto f = b.add_function({{}, {}});
  b.set_body(f, {});
  b.export_function("_start", f);
  b.add_export("memory", ImportKind::Memory, 0);
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok()) << mod.error();
  ASSERT_EQ(mod->imports.size(), 1u);
  EXPECT_EQ(mod->imports[0].module, "wasi_snapshot_preview1");
  EXPECT_EQ(mod->num_imported_funcs(), 1u);
  ASSERT_EQ(mod->memories.size(), 1u);
  EXPECT_EQ(mod->memories[0].min, 2u);
  EXPECT_EQ(mod->memories[0].max, 10u);
  EXPECT_TRUE(validate_module(*mod).ok());
}

TEST(Decoder, DecodesGlobalsTablesElementsData) {
  ModuleBuilder b;
  b.add_table(4);
  b.add_memory(1);
  b.add_global(ValType::I64, true, -5);
  const auto f = b.add_function({{}, {}});
  b.set_body(f, {});
  b.add_element(1, {f});
  b.add_data(32, to_bytes("payload"));
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok()) << mod.error();
  EXPECT_EQ(mod->tables.size(), 1u);
  EXPECT_EQ(mod->globals.size(), 1u);
  EXPECT_TRUE(mod->globals[0].mutable_);
  ASSERT_EQ(mod->elements.size(), 1u);
  EXPECT_EQ(mod->elements[0].func_indices.size(), 1u);
  ASSERT_EQ(mod->data.size(), 1u);
  EXPECT_EQ(mod->data[0].data, to_bytes("payload"));
}

TEST(Decoder, CustomSectionsPreserved) {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {}});
  b.set_body(f, {});
  b.add_custom("watz.meta", to_bytes("v1"));
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok()) << mod.error();
  ASSERT_EQ(mod->custom.size(), 1u);
  EXPECT_EQ(mod->custom[0].name, "watz.meta");
  EXPECT_EQ(mod->custom[0].payload, to_bytes("v1"));
}

TEST(Decoder, RejectsDuplicateExports) {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {}});
  b.set_body(f, {});
  b.export_function("f", f);
  b.export_function("f", f);
  EXPECT_FALSE(decode_module(b.build()).ok());
}

TEST(Validator, AcceptsUnreachableFollowedByAnything) {
  // Dead code is stack-polymorphic.
  ModuleBuilder b;
  const auto f = b.add_function({{}, {ValType::I32}});
  CodeEmitter e;
  e.op(kUnreachable).op(kI32Add).op(kDrop).i32_const(1);
  b.set_body(f, e.bytes());
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok());
  EXPECT_TRUE(validate_module(*mod).ok()) << validate_module(*mod).error();
}

// One row per rejection class of the function-body pass. Every row must be
// refused with the same `validate: …` message by the verdict-only entry
// point and by the translating one, including the rows whose fault sits in
// dead code (which is stack-polymorphic but still fully type-checked).
struct RejectRow {
  const char* name;
  FuncType type;
  Bytes body;  // instruction bytes; the builder appends the final `end`
  const char* prefix;
  bool memory = false;
  bool table = false;
  bool raw = false;  // `body` replaces the decoded body as is, with no `end`
};

TEST(Validator, BodyRejectionParity) {
  const FuncType v{{}, {}};
  const FuncType i{{}, {ValType::I32}};
  const FuncType ii{{ValType::I32}, {ValType::I32}};
  const std::vector<RejectRow> rows = {
      {"type mismatch", i, {kI64Const, 1, kI32Const, 2, kI32Add},
       "validate: expected i32 got i64"},
      {"underflow", i, {kI32Add}, "validate: value stack underflow"},
      {"wrong result type", i, {kF64Const, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f},
       "validate: expected i32 got f64"},
      {"values left at end", v, {kI32Const, 1}, "validate: values left on stack at end of block"},
      {"if result without else", ii, {kLocalGet, 0, kIf, 0x7f, kI32Const, 1, kEnd},
       "validate: if with result type but no else"},
      {"else without if", v, {kBlock, 0x40, kElse, kEnd}, "validate: else without if"},
      {"bad branch depth", v, {kBr, 3}, "validate: branch depth out of range"},
      {"br_table arity mismatch", v,
       {kBlock, 0x40, kBlock, 0x7f, kI32Const, 1, kI32Const, 0, kBrTable, 1, 0, 1, kEnd,
        kDrop, kEnd},
       "validate: br_table target type mismatch"},
      {"call index oob", v, {kCall, 5}, "validate: call index oob"},
      {"call_indirect type oob", v, {kI32Const, 0, kCallIndirect, 9, 0},
       "validate: call_indirect type oob", false, true},
      {"call_indirect without table", v, {kI32Const, 0, kCallIndirect, 0, 0},
       "validate: call_indirect without table"},
      {"select type mismatch", i,
       {kI32Const, 1, kI64Const, 2, kI32Const, 0, kSelect, kDrop, kI32Const, 3},
       "validate: select operand types differ"},
      {"bad local index", ii, {kLocalGet, 5}, "validate: local index oob"},
      {"immutable global.set", v, {kI32Const, 2, kGlobalSet, 0},
       "validate: assignment to immutable global"},
      {"unsupported block type", v, {kBlock, 0x55, kEnd}, "validate: unsupported block type"},
      {"unknown opcode", v, {0x06}, "validate: unknown opcode"},
      {"unknown 0xFC sub-op", v, {kPrefixFC, 8}, "validate: unsupported 0xFC opcode"},
      {"memory.size immediate", i, {kMemorySize, 1}, "validate: memory.size operand", true},
      {"memory.grow immediate", i, {kI32Const, 1, kMemoryGrow, 1},
       "validate: memory.grow operand", true},
      {"memory.copy immediate", v,
       {kI32Const, 0, kI32Const, 0, kI32Const, 0, kPrefixFC, kMemoryCopy, 1, 0},
       "validate: memory.copy operands", true},
      {"memory.fill immediate", v,
       {kI32Const, 0, kI32Const, 0, kI32Const, 0, kPrefixFC, kMemoryFill, 1},
       "validate: memory.fill operand", true},
      {"alignment above natural", i, {kI32Const, 0, kI32Load, 3, 0},
       "validate: alignment exceeds natural alignment", true},
      {"memory op without memory", i, {kI32Const, 0, kI32Load, 2, 0},
       "validate: memory access without memory"},
      {"truncated body", v, {kBlock, 0x40}, "validate: body ended without end"},
      {"trailing bytes after end", v, {kEnd}, "validate: trailing bytes after end"},
      {"dead code after unreachable", v, {kUnreachable, kI64Const, 1, kI32Eqz, kDrop},
       "validate: expected i32 got i64"},
      {"dead code after br", v, {kBlock, 0x40, kBr, 0, kI64Const, 1, kI32Eqz, kDrop, kEnd},
       "validate: expected i32 got i64"},
      {"dead code after br_table", v,
       {kBlock, 0x40, kI32Const, 0, kBrTable, 0, 0, kF32Const, 0, 0, 0, 0, kI32Eqz, kDrop,
        kEnd},
       "validate: expected i32 got f32"},
      {"dead code after return", i, {kI32Const, 0, kReturn, kI64Const, 0, kI32Add},
       "validate: expected i32 got i64"},
      {"dead nested block", v, {kUnreachable, kBlock, 0x40, kI32Const, 1, kEnd},
       "validate: values left on stack at end of block"},
      {"dead bad branch depth", v, {kUnreachable, kBr, 5}, "validate: branch depth out of range"},
      // Faults inside LEB128 immediates.
      {"i64.const cut at end of body", v, {kI64Const, 0x80, 0x80}, "unexpected end of data",
       false, false, true},
      {"overlong i32.const", v, {kI32Const, 0x81, 0x80, 0x80, 0x80, 0x80, 0x00, kDrop},
       "sleb32 too long"},
      {"local.get index overflow", ii, {kLocalGet, 0xff, 0xff, 0xff, 0xff, 0x7f},
       "uleb32 overflow"},
      {"11-byte i64.const", v,
       {kI64Const, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00, kDrop},
       "sleb64 too long"},
      {"i64.const payload past bit 63", v,
       {kI64Const, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x05, kDrop},
       "sleb64 overflow"},
  };
  for (const RejectRow& row : rows) {
    ModuleBuilder b;
    if (row.memory) b.add_memory(1);
    if (row.table) b.add_table(1);
    b.add_global(ValType::I32, false, 1);
    const auto f = b.add_function(row.type);
    b.set_body(f, row.body);
    auto mod = decode_module(b.build());
    ASSERT_TRUE(mod.ok()) << row.name << ": " << mod.error();
    if (row.raw) mod->code[0].code = row.body;
    const Status verdict = validate_module(*mod);
    ASSERT_FALSE(verdict.ok()) << row.name;
    EXPECT_EQ(verdict.error().rfind(row.prefix, 0), 0u) << row.name << ": " << verdict.error();
    EXPECT_NE(verdict.error().find("(in function 0)"), std::string::npos) << row.name;
    auto stream = precompile_module(*mod);
    ASSERT_FALSE(stream.ok()) << row.name;
    EXPECT_EQ(stream.error(), verdict.error()) << row.name;
  }
}

// -- seeded body mutation: hostile LOAD_MODULE input ---------------------------
//
// Valid modules (the PolyBench kernels through wcc, genann's training
// module, a builder module touching every control shape) get their function
// bodies mutated: bit flips, byte inserts and deletes, and LEB rewrites
// (boundary, huge and overlong values). Every mutant must come back as a
// Status or a stream -- no crash, no UB under the sanitizers -- and the
// verdict-only and translating entry points must agree. Accepted survivors
// go through the native code generator, compile only: nothing runs, since
// there is no fuel bound. The seed is printed; WATZ_FUZZ_SEED=0x<s> replays
// a run.

Bytes control_shapes_module() {
  ModuleBuilder b;
  b.add_memory(1);
  b.add_table(2);
  b.add_global(ValType::I64, true, 3);
  const FuncType binop{{ValType::I32, ValType::I32}, {ValType::I32}};
  const auto add = b.add_function(binop);
  CodeEmitter ea;
  ea.local_get(0).local_get(1).op(kI32Add);
  b.set_body(add, ea.bytes());

  const auto f = b.add_function(binop, {ValType::I64, ValType::F64, ValType::F32});
  CodeEmitter e;
  e.block(0x7f).local_get(0).local_get(0).br_table({0, 1, 0}, 0).end().local_set(1);
  e.loop().local_get(1).i32_const(1).op(kI32Sub).local_tee(1).br_if(0).end();
  e.local_get(0).if_(0x7e).global_get(0).else_().i64_const(9).end().global_set(0);
  e.i32_const(0).i32_const(8).i32_const(16).memory_copy();
  e.i32_const(0).i32_const(0).i32_const(4).memory_fill();
  e.i32_const(4).load(kF64Load, 0, 3).local_set(3).i32_const(8).local_get(3).store(kF64Store, 0);
  e.local_get(0).local_get(1).i32_const(0).call_indirect(0);
  e.local_get(1).local_get(0).call(add).memory_size().op(kSelect);
  e.f32_const(1.5f).local_tee(4).op(kPrefixFC).bytes().push_back(kI32TruncSatF32S);
  e.op(kI32Add).block().local_get(0).br_if(0).op(kUnreachable).end();
  b.set_body(f, e.bytes());
  b.export_function("f", f);
  return b.build();
}

std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("WATZ_FUZZ_SEED")) return std::strtoull(env, nullptr, 0);
  std::random_device device;
  return (static_cast<std::uint64_t>(device()) << 32) ^ device();
}

void mutate(Bytes& body, std::mt19937_64& rng) {
  auto below = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const std::size_t pos = body.empty() ? 0 : below(body.size());
  switch (below(4)) {
    case 0:  // bit flip
      if (!body.empty()) body[pos] ^= static_cast<std::uint8_t>(1u << below(8));
      break;
    case 1: {  // insert, a control-shape opcode half the time
      static constexpr std::uint8_t kShapes[] = {kUnreachable, kBlock,    kLoop,   kIf,
                                                 kElse,        kEnd,      kBr,     kBrIf,
                                                 kBrTable,     kReturn,   kSelect, kCallIndirect,
                                                 kPrefixFC};
      const auto byte = below(2) ? kShapes[below(std::size(kShapes))]
                                 : static_cast<std::uint8_t>(rng());
      body.insert(body.begin() + static_cast<std::ptrdiff_t>(pos), byte);
      break;
    }
    case 2:  // delete
      if (!body.empty()) body.erase(body.begin() + static_cast<std::ptrdiff_t>(pos));
      break;
    default: {  // replace up to 3 bytes with a boundary, huge or overlong LEB
      static constexpr std::uint64_t kValues[] = {0,      1,          0x3f,       0x40,
                                                  0x7f,   0x80,       0xffff,     0x7fffffff,
                                                  0xffffffffull, 0x100000000ull, ~0ull};
      Bytes leb;
      write_uleb(leb, below(2) ? kValues[below(std::size(kValues))] : rng());
      for (std::size_t pad = below(3); pad > 0; --pad) {
        leb.back() |= 0x80;
        leb.push_back(0);
      }
      const std::size_t cut = std::min(body.size() - pos, 1 + below(3));
      const auto at = body.begin() + static_cast<std::ptrdiff_t>(pos);
      body.insert(body.erase(at, at + static_cast<std::ptrdiff_t>(cut)), leb.begin(), leb.end());
    }
  }
}

/// The 32 valid seed modules: the PolyBench kernels through wcc, genann's
/// training module and the control shapes, each decoded and validated.
void load_corpus(std::vector<Module>& sources) {
  auto add_source = [&sources](const std::string& name, const Bytes& binary) {
    auto mod = decode_module(binary);
    ASSERT_TRUE(mod.ok()) << name << ": " << mod.error();
    ASSERT_TRUE(validate_module(*mod).ok()) << name << ": " << validate_module(*mod).error();
    sources.push_back(std::move(*mod));
  };
  for (const auto& kernel : polybench::suite()) {
    auto binary = wcc::compile(kernel.source);
    ASSERT_TRUE(binary.ok()) << kernel.name << ": " << binary.error();
    add_source(kernel.name, *binary);
  }
  add_source("genann", ann::training_module());
  add_source("control shapes", control_shapes_module());
  ASSERT_EQ(sources.size(), 32u);
}

TEST(Validator, MutatedBodiesYieldStatusOrStream) {
  const std::uint64_t seed = fuzz_seed();
  std::printf("body mutation seed: WATZ_FUZZ_SEED=0x%llx\n",
              static_cast<unsigned long long>(seed));

  std::vector<Module> sources;
  ASSERT_NO_FATAL_FAILURE(load_corpus(sources));

  std::mt19937_64 rng(seed);
  constexpr int kMutants = 2000;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    Module mod = sources[rng() % sources.size()];
    for (std::uint64_t edits = 1 + rng() % 3; edits > 0; --edits)
      mutate(mod.code[rng() % mod.code.size()].code, rng);
    const Status verdict = validate_module(mod);
    auto stream = precompile_module(mod);
    ASSERT_EQ(verdict.ok(), stream.ok())
        << "mutant " << i << ": " << verdict.error() << " | " << stream.error();
    if (!verdict.ok()) {
      ASSERT_EQ(verdict.error(), stream.error()) << "mutant " << i;
      continue;
    }
    ++accepted;
    for (std::uint32_t f = 0; f < stream->size(); ++f)
      (void)jit::compile_function(mod, f, (*stream)[f]);
  }
  std::printf("%d of %d mutants accepted\n", accepted, kMutants);
}

// -- pinned translator output -------------------------------------------------
//
// One SHA-256 over every field of every CompiledFunc the translator emits
// for the seed corpus, the kv guest and a module shaped like the onboarding
// workload's (long straight-line i64.const/i64.add bodies with constants of
// every encoded length). A change to the translator, its LEB reading or the
// guest producers (wcc, the builder) that alters any stream, table or
// height shows up here; a deliberate one re-records the digest.

/// Straight-line `i64.const`/`i64.add` bodies plus an entry that calls them.
Bytes onboarding_shape_module() {
  std::mt19937_64 rng(0x0b0a);
  ModuleBuilder b;
  b.add_memory(1);
  std::vector<std::uint32_t> funcs;
  for (int f = 0; f < 8; ++f) {
    CodeEmitter e;
    e.i64_const(static_cast<std::int64_t>(rng() >> 1));
    for (int i = 0; i < 500; ++i) {
      // Mostly 9-10 byte constants, as in the workload; the rest span every
      // length and sign.
      const std::uint64_t r = rng();
      const auto v = static_cast<std::int64_t>(i % 4 ? r >> 1 : r >> (r % 64));
      e.i64_const(i % 8 == 1 ? -v : v).op(kI64Add);
    }
    const auto fn = b.add_function({{}, {ValType::I64}});
    b.set_body(fn, e.bytes());
    funcs.push_back(fn);
  }
  const auto entry = b.add_function({{}, {ValType::I64}});
  CodeEmitter e;
  e.i32_const(0).load(kI64Load, 0, 3);
  for (std::uint32_t fn : funcs) e.call(fn).op(kI64Add);
  b.set_body(entry, e.bytes());
  b.export_function("entry", entry);
  return b.build();
}

void hash_stream(crypto::Sha256& h, const std::vector<CompiledFunc>& funcs) {
  Bytes buf;
  put_u32le(buf, static_cast<std::uint32_t>(funcs.size()));
  for (const CompiledFunc& f : funcs) {
    put_u32le(buf, static_cast<std::uint32_t>(f.code.size()));
    for (const Instr& in : f.code) {
      put_u16le(buf, in.op);
      put_u16le(buf, in.aux);
      put_u32le(buf, in.a);
      put_u64le(buf, in.imm);
    }
    put_u32le(buf, static_cast<std::uint32_t>(f.tables.size()));
    for (const BrTableEntry& t : f.tables) {
      put_u32le(buf, t.target);
      put_u16le(buf, t.keep);
      put_u32le(buf, t.drop);
    }
    put_u32le(buf, f.num_params);
    put_u32le(buf, f.num_locals);
    put_u32le(buf, f.result_arity);
    put_u32le(buf, f.max_operand_height);
  }
  h.update(buf);
}

TEST(Translator, StreamsMatchPinnedDigest) {
  std::vector<Module> modules;
  ASSERT_NO_FATAL_FAILURE(load_corpus(modules));
  for (const Bytes& binary : {db::kv_guest_module(), onboarding_shape_module()}) {
    auto mod = decode_module(binary);
    ASSERT_TRUE(mod.ok()) << mod.error();
    modules.push_back(std::move(*mod));
  }
  crypto::Sha256 h;
  std::size_t instrs = 0;
  for (const Module& mod : modules) {
    auto stream = precompile_module(mod);
    ASSERT_TRUE(stream.ok()) << stream.error();
    for (const CompiledFunc& f : *stream) instrs += f.code.size();
    hash_stream(h, *stream);
  }
  const auto digest = h.finish();
  std::printf("%zu modules, %zu instructions\n", modules.size(), instrs);
  EXPECT_EQ(to_hex(digest), "391e1dd3b711459089f4f87169036a1bb5a9b17ccf1cac3b6fd96292930fba1a");
}

}  // namespace
}  // namespace watz::wasm
