// Runtime glue for the native tier: the C++ entry thunk that builds a
// JitContext around the shared operand stack, and the helper thunks
// generated code calls for everything the baseline does not lower inline.
//
// Pointer-pinning contract: any helper that can move the operand-stack
// storage (nested calls and the prologue's grow resize the vector) or
// linear memory (memory.grow) refreshes stack_base / stack_size / mem_base /
// mem_size in the context before returning; generated code reloads its
// pinned registers from the context after every helper or native call.
// Traps never unwind through native frames: helpers catch TrapException
// into trap_code/trap_msg and return normally, and the entry thunk rethrows
// with the canonical message so all three tiers stay bit-identical.
#include <algorithm>
#include <cstring>

#include "wasm/compile.hpp"
#include "wasm/exec_common.hpp"
#include "wasm/jit/tier.hpp"

namespace watz::wasm::jit {

namespace {

/// Re-pins the movable windows after anything that may have reallocated
/// the operand stack or grown linear memory.
inline void refresh(JitContext* ctx) {
  ctx->stack_base = ctx->stack->data();
  ctx->stack_size = ctx->stack->size();
  if (ctx->memory != nullptr) {
    ctx->mem_base = ctx->memory->data();
    ctx->mem_size = ctx->memory->byte_size();
  }
}

inline void record_trap(JitContext* ctx, const TrapException& t) {
  ctx->trap_code = kTrapCustom;
  *ctx->trap_msg = t.message;
}

/// The wasm name of a trapping truncation opcode, for rebuilding the
/// interpreter's exact trap message.
inline const char* trunc_op_name(std::int64_t op) {
  switch (op) {
    case kI32TruncF32S: return "i32.trunc_f32_s";
    case kI32TruncF32U: return "i32.trunc_f32_u";
    case kI32TruncF64S: return "i32.trunc_f64_s";
    case kI32TruncF64U: return "i32.trunc_f64_u";
    case kI64TruncF32S: return "i64.trunc_f32_s";
    case kI64TruncF32U: return "i64.trunc_f32_u";
    case kI64TruncF64S: return "i64.trunc_f64_s";
    default: return "i64.trunc_f64_u";
  }
}

}  // namespace

void jit_helper_call(JitContext* ctx, std::uint32_t func_index) {
  std::vector<std::uint64_t>& stack = *ctx->stack;
  std::size_t sp = ctx->sp;
  try {
    exec_call_aot(*ctx->inst, func_index, stack, sp,
                  static_cast<int>(ctx->depth) + 1);
  } catch (const TrapException& t) {
    record_trap(ctx, t);
  }
  ctx->sp = sp;
  ++ctx->fallback_call;
  refresh(ctx);
}

void jit_helper_call_indirect(JitContext* ctx, std::uint32_t type_index) {
  std::vector<std::uint64_t>& stack = *ctx->stack;
  std::size_t sp = ctx->sp;
  try {
    Instance& inst = *ctx->inst;
    const std::uint32_t index = static_cast<std::uint32_t>(stack[--sp]);
    if (index >= inst.table.size()) trap("undefined element");
    const std::int64_t target = inst.table[index];
    if (target < 0) trap("uninitialized element");
    const FuncSlot& callee = inst.funcs[static_cast<std::uint32_t>(target)];
    if (!(callee.type == inst.module().types[type_index]))
      trap("indirect call type mismatch");
    exec_call_aot(inst, static_cast<std::uint32_t>(target), stack, sp,
                  static_cast<int>(ctx->depth) + 1);
  } catch (const TrapException& t) {
    record_trap(ctx, t);
  }
  ctx->sp = sp;
  ++ctx->fallback_call;
  refresh(ctx);
}

void jit_helper_fallback(JitContext* ctx, std::uint32_t op) {
  std::vector<std::uint64_t>& stack = *ctx->stack;
  std::size_t sp = ctx->sp;
  try {
    if (op >= kInstrTruncSatBase && op < kInstrTruncSatBase + 8) {
      exec_trunc_sat(op - kInstrTruncSatBase, stack, sp);
    } else {
      exec_numeric(static_cast<std::uint16_t>(op), stack, sp);
    }
  } catch (const TrapException& t) {
    record_trap(ctx, t);
  }
  ctx->sp = sp;
  ++ctx->fallback_ops;
  // exec_numeric never resizes the stack or touches memory; the pinned
  // registers stay valid, but keep the context consistent regardless.
}

void jit_helper_memory_grow(JitContext* ctx) {
  std::vector<std::uint64_t>& stack = *ctx->stack;
  const std::size_t sp = ctx->sp;
  const std::uint32_t delta = static_cast<std::uint32_t>(stack[sp - 1]);
  stack[sp - 1] =
      static_cast<std::uint32_t>(ctx->memory->grow(delta));
  refresh(ctx);
}

void jit_helper_mem_copy(JitContext* ctx) {
  std::vector<std::uint64_t>& stack = *ctx->stack;
  std::size_t sp = ctx->sp;
  const std::uint32_t n = static_cast<std::uint32_t>(stack[--sp]);
  const std::uint32_t src = static_cast<std::uint32_t>(stack[--sp]);
  const std::uint32_t dst = static_cast<std::uint32_t>(stack[--sp]);
  ctx->sp = sp;
  Memory* mem = ctx->memory;
  if (!mem->in_bounds(src, n) || !mem->in_bounds(dst, n)) {
    ctx->trap_code = kTrapOob;
    return;
  }
  std::memmove(mem->data() + dst, mem->data() + src, n);
}

void jit_helper_mem_fill(JitContext* ctx) {
  std::vector<std::uint64_t>& stack = *ctx->stack;
  std::size_t sp = ctx->sp;
  const std::uint32_t n = static_cast<std::uint32_t>(stack[--sp]);
  const std::uint8_t value = static_cast<std::uint8_t>(stack[--sp]);
  const std::uint32_t dst = static_cast<std::uint32_t>(stack[--sp]);
  ctx->sp = sp;
  Memory* mem = ctx->memory;
  if (!mem->in_bounds(dst, n)) {
    ctx->trap_code = kTrapOob;
    return;
  }
  std::memset(mem->data() + dst, value, n);
}

void jit_helper_grow_stack(JitContext* ctx, std::uint64_t need) {
  std::vector<std::uint64_t>& stack = *ctx->stack;
  stack.resize(std::max<std::size_t>(need, stack.size() * 2));
  refresh(ctx);
}

std::uint64_t jit_helper_br_table(JitContext* ctx, const BrTableEntry* entries,
                                  std::uint64_t count) {
  std::vector<std::uint64_t>& stack = *ctx->stack;
  std::size_t sp = ctx->sp;
  const std::uint32_t index = static_cast<std::uint32_t>(stack[--sp]);
  const BrTableEntry& entry = entries[index < count ? index : count];
  if (entry.drop != 0) {
    std::memmove(&stack[sp - entry.keep - entry.drop], &stack[sp - entry.keep],
                 entry.keep * sizeof(std::uint64_t));
    sp -= entry.drop;
  }
  ctx->sp = sp;
  return entry.target;
}

void exec_call_native(Instance& inst, TierSet& tier, const void* entry,
                      const CompiledFunc& cf, std::vector<std::uint64_t>& stack,
                      std::size_t& sp, int depth) {
  // The native prologue mirrors the AOT-stream one (frame shape, resize
  // policy, local zeroing), so the two tiers are interchangeable
  // mid-call-stack.
  const std::size_t base = sp - cf.num_params;
  Memory* mem = inst.memory();
  std::string trap_msg;
  JitContext ctx;
  ctx.stack_base = stack.data();
  ctx.stack_size = stack.size();
  ctx.sp = base + cf.num_locals;
  ctx.base = base;
  ctx.mem_base = mem != nullptr ? mem->data() : nullptr;
  ctx.mem_size = mem != nullptr ? mem->byte_size() : 0;
  ctx.inst = &inst;
  ctx.globals = inst.globals.data();
  ctx.stack = &stack;
  ctx.depth = depth;
  ctx.tier = &tier;
  ctx.memory = mem;
  ctx.trap_msg = &trap_msg;
  ctx.entries = tier.entry_table();

  reinterpret_cast<NativeFn>(reinterpret_cast<std::uintptr_t>(entry))(&ctx);
  tier.record_exit(ctx);

  switch (ctx.trap_code) {
    case kTrapNone:
      break;
    case kTrapOob:
      trap("out of bounds memory access");
    case kTrapDivZero:
      trap("integer divide by zero");
    case kTrapOverflow:
      trap("integer overflow");
    case kTrapUnreachable:
      trap("unreachable executed");
    case kTrapTruncNan:
      trap(std::string("invalid conversion to integer: NaN in ") +
           trunc_op_name(ctx.trap_aux));
    case kTrapTruncOverflow:
      trap(std::string("integer overflow in ") + trunc_op_name(ctx.trap_aux));
    case kTrapCallDepth:
      trap("call stack exhausted");
    default:
      throw TrapException{std::move(trap_msg)};
  }
  sp = ctx.sp;  // base + result_arity, written by the native epilogue path
}

}  // namespace watz::wasm::jit
