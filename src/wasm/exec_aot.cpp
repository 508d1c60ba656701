// AOT-mode executor: runs the pre-translated instruction stream produced by
// compile_function(). No bytecode parsing happens here — every immediate and
// branch target was resolved at load time.
#include <cstring>

#include "wasm/compile.hpp"
#include "wasm/exec_common.hpp"
#include "wasm/jit/tier.hpp"

namespace watz::wasm {

namespace {

/// Moves the top `keep` slots down over `drop` slots (branch unwinding).
inline void unwind(std::vector<std::uint64_t>& stack, std::size_t& sp,
                   std::uint32_t keep, std::uint64_t drop) {
  if (drop == 0) return;
  std::memmove(&stack[sp - keep - drop], &stack[sp - keep], keep * sizeof(std::uint64_t));
  sp -= drop;
}

/// Runs the resolved instruction stream (the pre-JIT tier). Pointer
/// lifetime audit for the duration of the dispatch loop:
///   * `mem` (Memory*) is stable — memory.grow reallocates the backing
///     store inside the Memory object, never the object itself;
///   * `code` (Instr*) is stable — the compiled store is immutable and
///     shared, nested calls never mutate it;
///   * the operand stack is only ever touched through `stack[...]`
///     indexing, never through a cached element pointer, because any
///     nested call (kCall/kCallIndirect/call_host) may resize the vector.
void exec_call_aot_stream(Instance& inst, const FuncSlot& slot,
                          std::vector<std::uint64_t>& stack, std::size_t& sp,
                          int depth) {
  const CompiledFunc& cf = inst.compiled[slot.module_func_index];
  const std::size_t base = sp - cf.num_params;
  const std::size_t need = base + cf.num_locals + cf.max_operand_height + 8;
  if (stack.size() < need) stack.resize(std::max(need, stack.size() * 2));
  for (std::uint32_t i = cf.num_params; i < cf.num_locals; ++i) stack[base + i] = 0;
  sp = base + cf.num_locals;

  Memory* mem = inst.memory();
  const Instr* code = cf.code.data();
  std::size_t pc = 0;

  for (;;) {
    const Instr& ins = code[pc++];
    switch (ins.op) {
      case kUnreachable:
        trap("unreachable executed");

      case kBr:
        unwind(stack, sp, ins.aux, ins.imm);
        pc = ins.a;
        break;
      case kBrIf:
        if (stack[--sp] != 0) {
          unwind(stack, sp, ins.aux, ins.imm);
          pc = ins.a;
        }
        break;
      case kInstrBrIfFalse:
        if (stack[--sp] == 0) pc = ins.a;
        break;
      case kBrTable: {
        const std::uint32_t index = static_cast<std::uint32_t>(stack[--sp]);
        const std::uint64_t count = ins.imm;
        const BrTableEntry& entry =
            inst.compiled[slot.module_func_index]
                .tables[ins.a + (index < count ? index : count)];
        unwind(stack, sp, entry.keep, entry.drop);
        pc = entry.target;
        break;
      }
      case kReturn: {
        const std::uint32_t keep = ins.aux;
        std::memmove(&stack[base], &stack[sp - keep], keep * sizeof(std::uint64_t));
        sp = base + keep;
        return;
      }

      case kCall:
        exec_call_aot(inst, ins.a, stack, sp, depth + 1);
        break;
      case kCallIndirect: {
        const std::uint32_t index = static_cast<std::uint32_t>(stack[--sp]);
        if (index >= inst.table.size()) trap("undefined element");
        const std::int64_t target = inst.table[index];
        if (target < 0) trap("uninitialized element");
        const FuncSlot& callee = inst.funcs[static_cast<std::uint32_t>(target)];
        if (!(callee.type == inst.module().types[ins.a]))
          trap("indirect call type mismatch");
        exec_call_aot(inst, static_cast<std::uint32_t>(target), stack, sp, depth + 1);
        break;
      }

      case kDrop:
        --sp;
        break;
      case kSelect: {
        const std::uint64_t c = stack[--sp];
        const std::uint64_t v2 = stack[--sp];
        if (c == 0) stack[sp - 1] = v2;
        break;
      }

      case kLocalGet:
        stack[sp++] = stack[base + ins.a];
        break;
      case kLocalSet:
        stack[base + ins.a] = stack[--sp];
        break;
      case kLocalTee:
        stack[base + ins.a] = stack[sp - 1];
        break;
      case kGlobalGet:
        stack[sp++] = inst.globals[ins.a].bits;
        break;
      case kGlobalSet:
        inst.globals[ins.a].bits = stack[--sp];
        break;

      case kMemorySize:
        stack[sp++] = mem->pages();
        break;
      case kMemoryGrow: {
        const std::uint32_t delta = static_cast<std::uint32_t>(stack[sp - 1]);
        stack[sp - 1] = static_cast<std::uint32_t>(mem->grow(delta));
        break;
      }

      case kI32Const:
      case kI64Const:
      case kF32Const:
      case kF64Const:
        stack[sp++] = ins.imm;
        break;

      case kInstrMemCopy: {
        const std::uint32_t n = static_cast<std::uint32_t>(stack[--sp]);
        const std::uint32_t src = static_cast<std::uint32_t>(stack[--sp]);
        const std::uint32_t dst = static_cast<std::uint32_t>(stack[--sp]);
        if (!mem->in_bounds(src, n) || !mem->in_bounds(dst, n))
          trap("out of bounds memory access");
        std::memmove(mem->data() + dst, mem->data() + src, n);
        break;
      }
      case kInstrMemFill: {
        const std::uint32_t n = static_cast<std::uint32_t>(stack[--sp]);
        const std::uint8_t value = static_cast<std::uint8_t>(stack[--sp]);
        const std::uint32_t dst = static_cast<std::uint32_t>(stack[--sp]);
        if (!mem->in_bounds(dst, n)) trap("out of bounds memory access");
        std::memset(mem->data() + dst, value, n);
        break;
      }

      default:
        if (ins.op >= kI32Load && ins.op <= kI64Load32U) {
          const std::uint32_t addr = static_cast<std::uint32_t>(stack[sp - 1]);
          stack[sp - 1] = mem_load(*mem, static_cast<std::uint8_t>(ins.op), addr, ins.imm);
        } else if (ins.op >= kI32Store && ins.op <= kI64Store32) {
          const std::uint64_t value = stack[--sp];
          const std::uint32_t addr = static_cast<std::uint32_t>(stack[--sp]);
          mem_store(*mem, static_cast<std::uint8_t>(ins.op), addr, ins.imm, value);
        } else if (ins.op >= kInstrTruncSatBase && ins.op < kInstrTruncSatBase + 8) {
          exec_trunc_sat(ins.op - kInstrTruncSatBase, stack, sp);
        } else {
          exec_numeric(ins.op, stack, sp);
        }
        break;
    }
  }
}

}  // namespace

void exec_call_aot(Instance& inst, std::uint32_t func_index,
                   std::vector<std::uint64_t>& stack, std::size_t& sp, int depth) {
  if (depth > kMaxCallDepth) trap("call stack exhausted");
  const FuncSlot& slot = inst.funcs[func_index];
  if (slot.is_host) {
    call_host(inst, slot, stack, sp);
    return;
  }

  // Tiered dispatch: a function whose native entry has been installed
  // (release-store by the control plane) runs machine code; everything
  // else runs the AOT stream and feeds the heat counter that eventually
  // queues it for background compilation.
  if (jit::TierSet* tier = inst.tier.get()) {
    const std::uint32_t module_index = slot.module_func_index;
    if (const void* entry = tier->entry_for(module_index)) {
      jit::exec_call_native(inst, *tier, entry, inst.compiled[module_index],
                            stack, sp, depth);
      return;
    }
    tier->note_call(module_index);
  }
  exec_call_aot_stream(inst, slot, stack, sp, depth);
}

}  // namespace watz::wasm
