// Baseline native-codegen tier: shared definitions between the codegen
// (codegen.cpp), the W^X image holder (image.cpp) and the runtime glue
// (exec_native.cpp).
//
// Execution model: a compiled function is a single `NativeFn` entered with
// a JitContext describing the frame — the operand-stack storage, the frame
// base, the linear memory window and the trap flag. The generated code
// keeps hot state in callee-saved registers:
//
//   r15 = JitContext*              (never reloaded)
//   rbp = &stack[base]             (locals + operand slots at fixed offsets)
//   r13 = linear memory base       r14 = linear memory size (bytes)
//
// Operand-stack heights are resolved STATICALLY (the validated stream has
// one height per pc), so each height owns a fixed [rbp + disp] slot. Codegen
// caches the stack in registers on top of that: an operand lives in a GPR
// or XMM register, is a folded constant, aliases a local's slot, or is a
// compare still in EFLAGS feeding a jcc/cmov; it is spilled to its slot
// only when a register pool runs dry. The hottest locals are pinned, each
// to one register for the whole function (the rest stay in their slots);
// the caller-saved ones are stored to their slots around every call. Before
// every branch, merge point, return, helper call and native call the cache
// is flushed to the canonical slot layout, so the dynamic sp only
// materialises at callout boundaries and every path into a merge sees the
// same frame.
//
// Calls: a call to a module-local function whose native entry is installed
// is a direct native-to-native call through the TierSet entry table
// (`entries`): the caller checks depth against kMaxCallDepth, moves `base`
// to the callee's frame, bumps `native_calls` and calls the entry with the
// same JitContext; the callee's prologue grows the operand stack when its
// frame does not fit (jit_helper_grow_stack) and zeroes its non-parameter
// locals; the caller restores base/depth afterwards. Callees not yet
// compiled, host imports and call_indirect go through jit_helper_call*
// (the AOT dispatch, which also feeds the heat counters); so do the few
// ops the baseline does not lower natively (float rounding, clz/ctz/popcnt,
// saturating truncation, br_table unwinding, memory.grow/copy/fill), which
// run ordinary C++ against the same operand stack. Traps NEVER unwind
// through native frames (there is no unwind info): helpers catch
// TrapException into `trap_code`/`trap_msg`, inline checks set the code
// directly, and generated code tests the flag after every callout and
// branches to the epilogue; the C++ entry thunk rethrows.
//
// Reload discipline: a helper or callee that can move the operand-stack
// storage or linear memory (nested calls can resize the stack; a callee can
// memory.grow) updates stack_base/stack_size/mem_base/mem_size in the
// context, and generated code reloads rbp/r13/r14 from the context after
// EVERY helper or native call before touching either again.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "wasm/instance.hpp"

namespace watz::wasm::jit {

class TierSet;

/// Trap codes generated code writes into JitContext::trap_code. Positive
/// codes map to the canonical trap messages (bit-identical with the
/// interpreter and the AOT stream); kTrapCustom carries the message in
/// *trap_msg (helper-caught TrapException).
inline constexpr std::int64_t kTrapNone = 0;
inline constexpr std::int64_t kTrapOob = 1;          // "out of bounds memory access"
inline constexpr std::int64_t kTrapDivZero = 2;      // "integer divide by zero"
inline constexpr std::int64_t kTrapOverflow = 3;     // "integer overflow"
inline constexpr std::int64_t kTrapUnreachable = 4;  // "unreachable executed"
// Trapping float->int truncation: the offending opcode is recorded in
// JitContext::trap_aux so the entry thunk can rebuild the interpreter's
// per-opcode message ("invalid conversion to integer: NaN in i32.trunc_f64_s").
inline constexpr std::int64_t kTrapTruncNan = 5;
inline constexpr std::int64_t kTrapTruncOverflow = 6;
inline constexpr std::int64_t kTrapCallDepth = 7;    // "call stack exhausted"
inline constexpr std::int64_t kTrapCustom = -1;

/// The native frame descriptor. Field offsets are baked into generated
/// code — static_asserts in codegen.cpp pin the layout.
struct JitContext {
  std::uint64_t* stack_base = nullptr;  // 0: operand-stack storage
  std::uint64_t sp = 0;                 // 8: dynamic height (callouts only)
  std::uint64_t base = 0;               // 16: frame base index
  std::uint8_t* mem_base = nullptr;     // 24: linear memory window
  std::uint64_t mem_size = 0;           // 32
  Instance* inst = nullptr;             // 40
  GlobalSlot* globals = nullptr;        // 48 (stride 16, bits at +8)
  std::vector<std::uint64_t>* stack = nullptr;  // 56: for resizing helpers
  std::int64_t depth = 0;               // 64
  std::int64_t trap_code = kTrapNone;   // 72
  std::uint64_t fallback_ops = 0;       // 80: per-opcode thunk invocations
  TierSet* tier = nullptr;              // 88: nested tiered dispatch
  Memory* memory = nullptr;             // 96
  std::string* trap_msg = nullptr;      // 104: kTrapCustom message
  // fallback_call counts helper call dispatches only (callee not compiled
  // yet, host imports, call_indirect); direct calls land in native_calls.
  std::uint64_t fallback_call = 0;      // 112: call/call_indirect helpers
  std::int64_t trap_aux = 0;            // 120: opcode behind kTrapTrunc*
  std::uint64_t stack_size = 0;         // 128: operand-stack capacity (slots)
  /// 136: TierSet entry table, indexed by module-local function index;
  /// null entries are still on the AOT stream.
  const std::atomic<const void*>* entries = nullptr;
  std::uint64_t native_calls = 0;       // 144: direct native-to-native calls
};

using NativeFn = void (*)(JitContext*);

/// True when this host can run the baseline tier: x86-64 and not opted out
/// via the WATZ_DISABLE_JIT environment variable (the CI lever for the
/// non-x86-64 wholesale-fallback path). Checked once per process.
bool jit_available() noexcept;

/// W^X executable pages: mapped RW, filled, then flipped to RX — the image
/// is never writable and executable at once. create() returns null when
/// the platform cannot provide executable pages (the caller falls back to
/// the AOT stream wholesale).
class ExecutableImage {
 public:
  static std::unique_ptr<ExecutableImage> create(const std::uint8_t* code,
                                                 std::size_t size);
  ~ExecutableImage();
  ExecutableImage(const ExecutableImage&) = delete;
  ExecutableImage& operator=(const ExecutableImage&) = delete;

  const std::uint8_t* entry() const noexcept { return pages_; }
  /// Page-rounded footprint (what the secure-heap gauge is charged).
  std::size_t bytes() const noexcept { return map_bytes_; }

 private:
  ExecutableImage(std::uint8_t* pages, std::size_t map_bytes)
      : pages_(pages), map_bytes_(map_bytes) {}
  std::uint8_t* pages_;
  std::size_t map_bytes_;
};

/// Lowers one validated AOT-stream function (module-defined function
/// `func_index`, whose local types come from `module`) to x86-64. Returns
/// the position-independent code bytes (entry at offset 0), or an empty
/// vector when the function uses a shape the baseline refuses (multi-value
/// branches, inconsistent static heights) — the caller keeps that function
/// on the AOT stream forever. On refusal, `refused_op` (when non-null)
/// receives the opcode that stopped lowering (0xffff for structural
/// refusals with no single opcode to blame) so coverage regressions are
/// debuggable instead of silent.
std::vector<std::uint8_t> compile_function(const Module& module, std::uint32_t func_index,
                                           const CompiledFunc& func,
                                           std::uint16_t* refused_op = nullptr);

// -- helper thunks (addresses embedded in generated code) ---------------------

void jit_helper_call(JitContext* ctx, std::uint32_t func_index);
void jit_helper_call_indirect(JitContext* ctx, std::uint32_t type_index);
void jit_helper_fallback(JitContext* ctx, std::uint32_t op);
void jit_helper_memory_grow(JitContext* ctx);
void jit_helper_mem_copy(JitContext* ctx);
void jit_helper_mem_fill(JitContext* ctx);
/// Prologue slow path: the frame needs `need` slots and the operand stack
/// is smaller; resizes with the AOT stream's max(need, 2 x size) policy.
void jit_helper_grow_stack(JitContext* ctx, std::uint64_t need);
/// Pops the selector, unwinds per the chosen BrTableEntry and returns the
/// target pc (generated code indirects through its pc->offset table).
std::uint64_t jit_helper_br_table(JitContext* ctx, const BrTableEntry* entries,
                                  std::uint64_t count);

/// Entry thunk: builds the JitContext around the shared operand stack, runs
/// `entry` (whose prologue sizes the frame and zeroes its locals), flushes
/// metrics — one native entry plus every direct call made under it — and
/// rethrows any recorded trap with its canonical message.
void exec_call_native(Instance& inst, TierSet& tier, const void* entry,
                      const CompiledFunc& cf, std::vector<std::uint64_t>& stack,
                      std::size_t& sp, int depth);

}  // namespace watz::wasm::jit
