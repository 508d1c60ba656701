// AOT translation pass: one walk per function body that both validates it
// (the spec's operand-stack type checking) and lowers it into a resolved
// instruction stream (branch targets as absolute indices, immediates
// pre-decoded, structured control flow erased, dead code checked but
// elided).
//
// This is WaTZ's stand-in for WAMR's LLVM AOT pipeline: the translation
// happens once at module-load time, and execution needs no bytecode
// parsing — which is what produces the paper's AOT-vs-interpreter gap
// (reported as ~28x in SS III) without embedding a compiler in the TCB.
#pragma once

#include "common/leb128.hpp"
#include "common/result.hpp"
#include "wasm/instance.hpp"

namespace watz::wasm {

/// Internal opcodes beyond the single-byte Wasm space.
enum InstrOp : std::uint16_t {
  kInstrBrIfFalse = 0x100,   ///< `if` lowering: jump to else/end when top == 0.
  kInstrTruncSatBase = 0x200,  ///< + OpFC sub-opcode (0..7).
  kInstrMemCopy = 0x210,
  kInstrMemFill = 0x211,
};

/// Validates and compiles function `func_index` (module code-space index).
/// A body the spec rejects yields a `validate: …` error naming the function
/// in the unified index space.
Result<CompiledFunc> compile_function(const Module& module, std::uint32_t func_index);

/// Byte-level scanning helper for the interpreter. `pos` must point
/// just after a block/loop/if header. Returns the position just after the
/// matching `end`; if `else_pos` is non-null and an `else` exists at depth 0,
/// stores the position just after it.
Result<std::size_t> find_block_end(ByteView code, std::size_t pos,
                                   std::size_t* else_pos);

}  // namespace watz::wasm
