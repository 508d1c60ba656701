// One-pass baseline codegen: lowers a validated AOT-stream function
// (`CompiledFunc`) to x86-64 via the Emitter.
//
// STATIC HEIGHTS. The resolved stream has exactly one operand-stack height
// per pc (the prescan derives it, seeding branch targets and verifying
// joins), so every operand height h owns a canonical frame slot
// [rbp + (num_locals + h)*8]. Functions whose streams violate the
// invariants the baseline relies on (multi-value branches, height joins
// that disagree) are refused — compile_function returns empty, reports the
// refusing opcode, and the tier keeps them on the AOT stream.
//
// REGISTER-CACHED VALUE STACK (Liftoff-style). Codegen tracks, per height,
// where the value currently lives:
//   * Gpr / Xmm — a register from the pools below (f32/f64 results stay in
//     XMM end to end; when a pool runs dry the deepest register entry is
//     spilled to its slot);
//   * Const     — an immediate, folded into the consumer as imm32 or a mov;
//   * Mem       — a frame slot: its own canonical slot, or a local's slot
//     (a `local.get` alias: no code, consumers read the local as a memory
//     operand; a write to the local first loads its live aliases);
//   * Pin       — a `local.get` alias of a pinned local (below): no code,
//     consumers read the local's register in place;
//   * Flags     — a comparison whose boolean is still only in EFLAGS. A
//     consuming br_if / br_if_false / select / eqz / `!= 0` compiles to one
//     jcc/cmov; anything else first materialises it with setcc.
//
// PINNED LOCALS. The hottest locals live in one fixed register each for the
// whole function; the rest stay in their frame slots. Heat is the count of
// local.get/set/tee, each weighted 8x per enclosing loop (a loop runs from
// a backward-branch target to its last backward branch); a local with heat
// <= 1 is not worth a register. Up to 5 i32/i64 locals take GPRs (rbx and
// r12 — callee-saved — go to the two hottest; then rsi, rdi, r8), leaving
// at least 3 GPRs for the value stack, since an op holds at most three.
// Up to 8 f32/f64 locals take xmm8-xmm15, leaving 6 XMM registers. Because
// the assignment never changes, every edge into a merge, loop header or
// br_table target agrees on it and no join needs reconciliation code. The
// prologue loads pinned parameters after the stack-growth check (the stack
// may move) and zeroes the other pinned locals with xor. Writes go to the
// register (live aliases are copied first). Every call out of the
// function — native callee or C++ helper — may clobber caller-saved
// registers, so the pinned locals held there are stored to their own frame
// slots before it and reloaded after; the callee's frame lies above the
// caller's locals. Return and trap exits need no write-back.
//
// BOUNDARIES. Before any branch, merge target, return, helper call or
// native call the cache is flushed to the canonical slot layout (Liftoff's
// spill-at-merge baseline), so branch unwinding, br_table, the trap paths
// and the helpers see exactly the frame the AOT stream would. Branches only
// flush the heights their target keeps; the fall-through keeps its cache.
//
// DIRECT CALLS. A call to a module-local function loads the callee's entry
// from the TierSet entry table (JitContext::entries). Installed: the call
// site checks depth (trapping "call stack exhausted" at kMaxCallDepth),
// moves ctx->base to the callee's frame, counts the entry and calls it; the
// callee prologue grows the operand stack when its frame does not fit
// (jit_helper_grow_stack, the AOT stream's resize policy) and zeroes its
// non-parameter locals. Not installed yet, host imports and call_indirect
// go through jit_helper_call* and the AOT dispatch (which feeds the heat
// counters).
//
// Register map (see jit.hpp): r15 = JitContext*, rbp = &stack[base],
// r13 = memory base, r14 = memory size; rax/rcx/rdx and xmm0/xmm1 are
// scratch inside one op; rbx, r12, rsi, rdi, r8-r11 and xmm2-xmm15 hold
// pinned locals first and serve the value stack with the rest. After any
// helper or native call the pinned rbp/r13/r14 are reloaded from the
// context, then the caller-saved pinned locals, and the trap flag is
// checked (nothing unwinds through native frames; see exec_native.cpp).
//
// Float semantics: add/sub/mul/div/sqrt run on the SSE2 scalar unit — the
// unit GCC compiles the interpreter's C++ float ops to, with the same
// operand order, so NaN payloads match bit for bit. min/max branch to
// reproduce wasm's canonical-NaN and signed-zero rules; abs/neg/copysign
// are the interpreter's sign-bit twiddles on GPRs; compares are ucomis with
// the parity flag folding the unordered cases. Trapping truncations
// range-check in f64 and park the opcode in JitContext::trap_aux for the
// canonical message.
#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>
#include <optional>

#include "wasm/compile.hpp"
#include "wasm/jit/emitter.hpp"
#include "wasm/jit/jit.hpp"
#include "wasm/opcodes.hpp"

namespace watz::wasm::jit {

// Generated code hard-codes these offsets; a layout change must show up as
// a compile error here, not as memory corruption at run time.
static_assert(offsetof(JitContext, stack_base) == 0);
static_assert(offsetof(JitContext, sp) == 8);
static_assert(offsetof(JitContext, base) == 16);
static_assert(offsetof(JitContext, mem_base) == 24);
static_assert(offsetof(JitContext, mem_size) == 32);
static_assert(offsetof(JitContext, globals) == 48);
static_assert(offsetof(JitContext, depth) == 64);
static_assert(offsetof(JitContext, trap_code) == 72);
static_assert(offsetof(JitContext, fallback_ops) == 80);
static_assert(offsetof(JitContext, fallback_call) == 112);
static_assert(offsetof(JitContext, trap_aux) == 120);
static_assert(offsetof(JitContext, stack_size) == 128);
static_assert(offsetof(JitContext, entries) == 136);
static_assert(offsetof(JitContext, native_calls) == 144);
static_assert(sizeof(GlobalSlot) == 16);
static_assert(offsetof(GlobalSlot, bits) == 8);
// The entry table is read with a plain 8-byte load (acquire on x86-64).
static_assert(sizeof(std::atomic<const void*>) == 8);
static_assert(std::atomic<const void*>::is_always_lock_free);

namespace {

constexpr std::int32_t kCtxSp = 8;
constexpr std::int32_t kCtxBase = 16;
constexpr std::int32_t kCtxGlobals = 48;
constexpr std::int32_t kCtxDepth = 64;
constexpr std::int32_t kCtxTrapCode = 72;
constexpr std::int32_t kCtxTrapAux = 120;
constexpr std::int32_t kCtxStackSize = 128;
constexpr std::int32_t kCtxEntries = 136;
constexpr std::int32_t kCtxNativeCalls = 144;

std::uint64_t f64_bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

bool fits_simm32(std::uint64_t v) {
  return static_cast<std::int64_t>(v) ==
         static_cast<std::int32_t>(static_cast<std::uint32_t>(v));
}

/// Condition of an integer comparison opcode (eqz: "operand == 0").
std::optional<Cond> int_cmp_cond(std::uint16_t op) {
  if (op == kI32Eqz || op == kI64Eqz) return CC_E;
  if (op >= kI32Eq && op <= kI64GeU) {
    static constexpr Cond kOrder[10] = {CC_E, CC_NE, CC_L,  CC_B,  CC_G,
                                        CC_A, CC_LE, CC_BE, CC_GE, CC_AE};
    return kOrder[op - (op >= kI64Eq ? kI64Eq : kI32Eq)];
  }
  return std::nullopt;
}

/// Net operand-stack effect of a non-branching op, or nullopt for an op the
/// prescan does not recognise (=> refuse the function).
std::optional<int> op_delta(const Module& m, const Instr& ins) {
  const std::uint16_t op = ins.op;
  switch (op) {
    case kNop: return 0;
    case kDrop: return -1;
    case kSelect: return -2;
    case kLocalGet:
    case kGlobalGet:
    case kMemorySize:
    case kI32Const:
    case kI64Const:
    case kF32Const:
    case kF64Const: return 1;
    case kLocalSet:
    case kGlobalSet: return -1;
    case kLocalTee:
    case kMemoryGrow: return 0;
    case kInstrMemCopy:
    case kInstrMemFill: return -3;
    case kCall: {
      const FuncType& t = m.func_type(ins.a);
      return static_cast<int>(t.results.size()) - static_cast<int>(t.params.size());
    }
    case kCallIndirect: {
      if (ins.a >= m.types.size()) return std::nullopt;
      const FuncType& t = m.types[ins.a];
      return -1 + static_cast<int>(t.results.size()) -
             static_cast<int>(t.params.size());
    }
    default: break;
  }
  if (op >= kI32Load && op <= kI64Load32U) return 0;
  if (op >= kI32Store && op <= kI64Store32) return -2;
  if (op == kI32Eqz || op == kI64Eqz) return 0;
  if (op >= kI32Eq && op <= kI64GeU) return -1;   // binary int comparisons
  if (op >= kF32Eq && op <= kF64Ge) return -1;    // binary float comparisons
  if (op >= kI32Clz && op <= kI32Popcnt) return 0;
  if (op >= kI32Add && op <= kI32Rotr) return -1;
  if (op >= kI64Clz && op <= kI64Popcnt) return 0;
  if (op >= kI64Add && op <= kI64Rotr) return -1;
  if (op >= kF32Abs && op <= kF32Sqrt) return 0;
  if (op >= kF32Add && op <= kF32Copysign) return -1;
  if (op >= kF64Abs && op <= kF64Sqrt) return 0;
  if (op >= kF64Add && op <= kF64Copysign) return -1;
  if (op >= kI32WrapI64 && op <= kI64Extend32S) return 0;  // conversions
  if (op >= kInstrTruncSatBase && op < kInstrTruncSatBase + 8) return 0;
  return std::nullopt;
}

/// Ops whose lowering calls out of the function (a native callee or a C++
/// helper: calls, br_table, memory.grow/copy/fill and the ops emit_numeric
/// leaves to the fallback thunk), clobbering the caller-saved registers.
bool calls_out(std::uint16_t op) {
  switch (op) {
    case kCall:
    case kCallIndirect:
    case kBrTable:
    case kMemoryGrow:
    case kInstrMemCopy:
    case kInstrMemFill:
      return true;
    default:
      return (op >= kI32Clz && op <= kI32Popcnt) || (op >= kI64Clz && op <= kI64Popcnt) ||
             (op >= kF32Ceil && op <= kF32Nearest) || (op >= kF64Ceil && op <= kF64Nearest) ||
             (op >= kInstrTruncSatBase && op < kInstrTruncSatBase + 8);
  }
}

class FnCompiler {
 public:
  FnCompiler(const Module& module, std::uint32_t func_index, const CompiledFunc& func)
      : module_(module), func_(func), num_locals_(func.num_locals) {
    if (func_index < module.functions.size() && func_index < module.code.size()) {
      local_types_ = module.types[module.functions[func_index]].params;
      const auto& declared = module.code[func_index].locals;
      local_types_.insert(local_types_.end(), declared.begin(), declared.end());
    }
  }

  bool run() {
    if (!prescan()) return false;
    select_pins();
    vs_.assign(func_.max_operand_height, Val{});
    gpr_ = gpr_base_;
    xmm_ = xmm_base_;
    emit_prologue();
    if (!emit_body()) return false;
    emit_tail();
    return true;
  }

  std::vector<std::uint8_t> take() { return std::move(e_.buf); }
  std::uint16_t refused() const noexcept { return refused_op_; }

 private:
  // -- prescan ----------------------------------------------------------------

  bool prescan() {
    const auto& code = func_.code;
    const std::size_t n = code.size();
    if (n == 0 || func_.result_arity > 1) return false;  // structural (0xffff)
    height_.assign(n, -1);
    is_target_.assign(n, 0);
    dead_.assign(n, 0);
    loop_end_.assign(n, 0);
    int cur = 0;
    bool known = true;  // false after an unconditional control transfer
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (height_[pc] >= 0) {
        if (known && cur != height_[pc]) return refuse(code[pc].op);
        cur = height_[pc];
        known = true;
      } else if (!known) {
        // Unreachable and never branched to (e.g. the implicit end-return
        // after an explicit `return`): control cannot arrive here, so the
        // instruction is simply not emitted. Branches inside a dead region
        // are skipped too — they cannot execute, so they seed nothing.
        dead_[pc] = 1;
        continue;
      } else {
        height_[pc] = cur;
      }
      const Instr& ins = code[pc];
      auto seed = [&](std::uint32_t target, int h) {
        if (target >= n || h < 0) return false;
        is_target_[target] = 1;
        if (target <= pc) {  // backward edge: `target` heads a loop
          loop_end_[target] = std::max(loop_end_[target], static_cast<std::uint32_t>(pc + 1));
          return height_[target] == h;
        }
        if (height_[target] >= 0 && height_[target] != h) return false;
        height_[target] = h;
        return true;
      };
      switch (ins.op) {
        case kUnreachable:
          known = false;
          break;
        case kBr:
          if (ins.aux > 1) return refuse(ins.op);
          if (!seed(ins.a, cur - static_cast<int>(ins.imm))) return refuse(ins.op);
          known = false;
          break;
        case kBrIf:
          if (ins.aux > 1) return refuse(ins.op);
          if (!seed(ins.a, (cur - 1) - static_cast<int>(ins.imm)))
            return refuse(ins.op);
          cur -= 1;
          break;
        case kInstrBrIfFalse:
          if (!seed(ins.a, cur - 1)) return refuse(ins.op);
          cur -= 1;
          break;
        case kBrTable: {
          if (ins.a + ins.imm >= func_.tables.size()) return refuse(ins.op);
          for (std::uint64_t i = 0; i <= ins.imm; ++i) {
            const BrTableEntry& entry = func_.tables[ins.a + i];
            if (entry.keep > 1) return refuse(ins.op);
            if (!seed(entry.target, (cur - 1) - static_cast<int>(entry.drop)))
              return refuse(ins.op);
          }
          known = false;
          break;
        }
        case kReturn:
          if (ins.aux > 1) return refuse(ins.op);
          known = false;
          break;
        default: {
          const auto delta = op_delta(module_, ins);
          if (!delta) return refuse(ins.op);
          cur += *delta;
          break;
        }
      }
      if (known &&
          (cur < 0 || cur > static_cast<int>(func_.max_operand_height))) {
        return refuse(ins.op);
      }
    }
    return true;
  }

  bool refuse(std::uint16_t op) {
    refused_op_ = op;
    return false;
  }

  // -- pinned locals ------------------------------------------------------------

  /// A local's whole-function register (see PINNED LOCALS above).
  struct Pin {
    bool on = false;
    bool xmm = false;  // f32/f64 local in an XMM register
    bool f32 = false;
    std::uint8_t reg = 0;
  };

  static constexpr std::uint8_t kGprPins[5] = {RBX, R12, RSI, RDI, R8};
  static constexpr std::uint8_t kXmmPins[8] = {8, 9, 10, 11, 12, 13, 14, 15};

  /// Weighs each local's accesses by loop depth and hands the hottest
  /// their registers; marks those registers as out of the value-stack pools.
  void select_pins() {
    pins_.assign(num_locals_, Pin{});
    gpr_base_.fill(kFree);
    xmm_base_.fill(kFree);
    if (local_types_.size() != num_locals_) return;
    const auto& code = func_.code;
    const std::size_t n = code.size();
    std::vector<int> depth_step(n + 1, 0);
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (loop_end_[pc] == 0) continue;
      ++depth_step[pc];
      --depth_step[loop_end_[pc]];
    }
    std::vector<std::uint64_t> heat(num_locals_, 0);
    std::uint64_t call_heat = 0;
    int depth = 0;
    for (std::size_t pc = 0; pc < n; ++pc) {
      depth += depth_step[pc];
      if (dead_[pc]) continue;
      const std::uint16_t op = code[pc].op;
      const std::uint64_t weight = 1ull << (3 * std::min(depth, 6));
      if (op == kLocalGet || op == kLocalSet || op == kLocalTee) heat[code[pc].a] += weight;
      if (calls_out(op)) call_heat += weight;
    }
    std::vector<std::uint32_t> order(num_locals_);
    for (std::uint32_t i = 0; i < num_locals_; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) { return heat[a] > heat[b]; });
    std::size_t gprs = 0, xmms = 0;
    for (const std::uint32_t local : order) {
      if (heat[local] <= 1) break;
      const ValType t = local_types_[local];
      // A caller-saved register costs a store and a load at every call
      // out: worth it only for a local used more often than that.
      const bool pays_calls = heat[local] > 2 * call_heat;
      Pin& p = pins_[local];
      if ((t == ValType::I32 || t == ValType::I64) && gprs < std::size(kGprPins) &&
          (gprs < 2 || pays_calls)) {
        p = {.on = true, .reg = kGprPins[gprs++]};
        gpr_base_[p.reg] = kPinned;
      } else if ((t == ValType::F32 || t == ValType::F64) && xmms < std::size(kXmmPins) &&
                 pays_calls) {
        p = {.on = true, .xmm = true, .f32 = t == ValType::F32, .reg = kXmmPins[xmms++]};
        xmm_base_[p.reg] = kPinned;
      } else {
        continue;
      }
      if (p.xmm || (p.reg != RBX && p.reg != R12)) caller_saved_.push_back(local);
    }
  }

  /// Stores the pinned locals in caller-saved registers to their own slots
  /// before a call out of the function (f32 locals too: the 8-byte round
  /// trip restores the register exactly, and nothing else reads the slot).
  void save_pinned_locals() {
    for (const std::uint32_t local : caller_saved_) {
      const Pin& p = pins_[local];
      if (p.xmm)
        e_.movf_store(true, RBP, local_disp(local), p.reg);
      else
        e_.store64(RBP, local_disp(local), static_cast<Reg>(p.reg));
    }
  }
  /// Reloads them after the call, once rbp is re-derived.
  void reload_pinned_locals() {
    for (const std::uint32_t local : caller_saved_) {
      const Pin& p = pins_[local];
      if (p.xmm)
        e_.movf_load(true, p.reg, RBP, local_disp(local));
      else
        e_.load64(static_cast<Reg>(p.reg), RBP, local_disp(local));
    }
  }

  // -- the abstract value stack -------------------------------------------------

  enum class Loc : std::uint8_t { Mem, Gpr, Xmm, Const, Flags, Pin };

  /// A boolean still in EFLAGS. `parity` folds ucomis' unordered case:
  /// 0 = cc alone, 1 = cc AND ordered (f eq), 2 = cc OR unordered (f ne).
  struct Flag {
    Cond cc = CC_NE;
    std::uint8_t parity = 0;
  };
  static Flag negate(Flag f) {
    return {static_cast<Cond>(f.cc ^ 1),
            static_cast<std::uint8_t>(f.parity == 0 ? 0 : 3 - f.parity)};
  }

  struct Val {
    Loc loc = Loc::Mem;
    std::uint8_t reg = 0;    // Gpr / Xmm / Pin
    bool f32 = false;        // Xmm/Pin holding an f32 (4-byte spill + zero upper)
    Flag fl{};               // Flags
    std::uint32_t idx = 0;   // Mem: frame index (local, or num_locals + h); Pin: local
    std::uint64_t imm = 0;   // Const: the canonical 64-bit slot bits
  };

  // Pools exclude the pinned r15/rbp/r13/r14 and the per-op scratch
  // rax/rcx/rdx (div, shifts, setcc folding) and xmm0/xmm1 (truncation).
  // rbx/r12 are saved by the prologue; the rest are caller-saved, which is
  // fine because the cache is flushed before every call. Registers given to
  // pinned locals are marked kPinned and never allocated or freed.
  static constexpr std::uint8_t kGprPool[8] = {RBX, R12, RSI, RDI, R8, R9, R10, R11};
  static constexpr std::uint8_t kXmmPool[14] = {2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  static constexpr int kFree = -1;    // register owner: not in use
  static constexpr int kHeld = -2;    // popped: owned by the op being emitted
  static constexpr int kPinned = -3;  // a pinned local's register

  /// The value is in a general / XMM register: its own, or a pinned local's.
  bool in_gpr(const Val& v) const {
    return v.loc == Loc::Gpr || (v.loc == Loc::Pin && !pins_[v.idx].xmm);
  }
  bool in_xmm(const Val& v) const {
    return v.loc == Loc::Xmm || (v.loc == Loc::Pin && pins_[v.idx].xmm);
  }
  /// Ends an op's hold on a register it read; a pinned local's stays put.
  void free_gpr(Reg r) {
    if (gpr_[r] != kPinned) gpr_[r] = kFree;
  }
  void free_xmm(std::uint8_t x) {
    if (xmm_[x] != kPinned) xmm_[x] = kFree;
  }

  Val canonical(int h) const { return {.idx = num_locals_ + static_cast<std::uint32_t>(h)}; }
  bool is_canonical(int h) const {
    return vs_[h].loc == Loc::Mem && vs_[h].idx == num_locals_ + static_cast<std::uint32_t>(h);
  }
  std::int32_t slot_disp(int h) const {
    return static_cast<std::int32_t>((num_locals_ + h) * 8);
  }

  void push(Val v) {
    if (v.loc == Loc::Gpr) gpr_[v.reg] = sp_;
    if (v.loc == Loc::Xmm) xmm_[v.reg] = sp_;
    if (v.loc == Loc::Flags) flags_h_ = sp_;
    vs_[sp_++] = v;
  }
  void push_gpr(Reg r) { push({.loc = Loc::Gpr, .reg = r}); }
  void push_xmm(std::uint8_t x, bool f64) { push({.loc = Loc::Xmm, .reg = x, .f32 = !f64}); }
  void push_flags(Flag f) { push({.loc = Loc::Flags, .fl = f}); }
  /// Pops the top entry; its register (if any) is held by the caller until
  /// release(). A popped Mem value may be read until the op pushes.
  Val pop() {
    Val v = vs_[--sp_];
    if (v.loc == Loc::Gpr) gpr_[v.reg] = kHeld;
    if (v.loc == Loc::Xmm) xmm_[v.reg] = kHeld;
    if (v.loc == Loc::Flags) flags_h_ = -1;
    return v;
  }
  void release(const Val& v) {
    if (v.loc == Loc::Gpr) gpr_[v.reg] = kFree;
    if (v.loc == Loc::Xmm) xmm_[v.reg] = kFree;
  }

  /// Forgets the cache: heights [0, h) are in their canonical slots (after
  /// a flush or a helper call, or at a merge target).
  void reset(int h) {
    gpr_ = gpr_base_;
    xmm_ = xmm_base_;
    for (int k = 0; k < h; ++k) vs_[k] = canonical(k);
    sp_ = h;
    flags_h_ = -1;
  }

  /// A free register of `pool`, else the one holding the deepest entry,
  /// spilled (an op holds at most three, so a victim always exists).
  template <std::size_t N>
  std::uint8_t alloc(std::array<int, 16>& owner, const std::uint8_t (&pool)[N]) {
    for (const std::uint8_t r : pool)
      if (owner[r] == kFree) {
        owner[r] = kHeld;
        return r;
      }
    std::uint8_t victim = pool[0];
    for (const std::uint8_t r : pool)
      if (owner[r] >= 0 && (owner[victim] < 0 || owner[r] < owner[victim])) victim = r;
    spill(owner[victim]);
    owner[victim] = kHeld;
    return victim;
  }
  Reg alloc_gpr() { return static_cast<Reg>(alloc(gpr_, kGprPool)); }
  std::uint8_t alloc_xmm() { return alloc(xmm_, kXmmPool); }

  /// Writes a (non-Flags) value's 64-bit slot bits to [rbp + disp]. Emits
  /// only moves, so EFLAGS survive; a Mem source goes through rax.
  void store_to(const Val& v, std::int32_t disp) {
    switch (v.loc) {
      case Loc::Gpr:
      case Loc::Xmm:
      case Loc::Pin:
        if (in_gpr(v)) {
          e_.store64(RBP, disp, static_cast<Reg>(v.reg));
        } else if (v.f32) {
          e_.movf_store(false, RBP, disp, v.reg);
          e_.store_dword_imm(RBP, disp + 4, 0);  // canonical zero upper half
        } else {
          e_.movf_store(true, RBP, disp, v.reg);
        }
        break;
      case Loc::Const:
        if (fits_simm32(v.imm)) {
          e_.store_imm32(RBP, disp, static_cast<std::int32_t>(v.imm));
        } else {
          e_.store_dword_imm(RBP, disp, static_cast<std::uint32_t>(v.imm));
          e_.store_dword_imm(RBP, disp + 4, static_cast<std::uint32_t>(v.imm >> 32));
        }
        break;
      case Loc::Mem:
        if (static_cast<std::int32_t>(v.idx * 8) == disp) break;
        e_.load64(RAX, RBP, static_cast<std::int32_t>(v.idx * 8));
        e_.store64(RBP, disp, RAX);
        break;
      case Loc::Flags:
        break;  // callers materialise flags first
    }
  }

  /// Moves entry h to its canonical slot and frees its register.
  void spill(int h) {
    if (vs_[h].loc == Loc::Flags) materialize_flags();
    store_to(vs_[h], slot_disp(h));
    release(vs_[h]);
    vs_[h] = canonical(h);
  }
  void flush_below(int limit) {
    for (int k = 0; k < limit; ++k)
      if (!is_canonical(k)) spill(k);
  }
  void flush_all() { flush_below(sp_); }

  /// setcc (+ parity fold) into `r`; the only code that turns EFLAGS into
  /// a 0/1 value.
  void emit_setcc(const Flag& f, Reg r) {
    e_.setcc(f.cc, r);
    e_.movzx8_rr(r, r);
    if (f.parity != 0) {
      e_.setcc(f.parity == 1 ? CC_NP : CC_P, RAX);
      e_.movzx8_rr(RAX, RAX);
      if (f.parity == 1)
        e_.and_rr(r, RAX, false);
      else
        e_.or_rr(r, RAX, false);
    }
  }
  void materialize_flags() {
    const int h = flags_h_;
    flags_h_ = -1;
    const Reg r = alloc_gpr();  // a spill is a plain store: flags survive
    emit_setcc(vs_[h].fl, r);
    vs_[h] = {.loc = Loc::Gpr, .reg = r};
    gpr_[r] = h;
  }

  /// The live aliases of `local` read the value a write is about to
  /// replace: copy them into registers of their own first.
  void materialize_aliases(std::uint32_t local) {
    for (int k = 0; k < sp_; ++k) {
      const Val v = vs_[k];
      if ((v.loc != Loc::Mem && v.loc != Loc::Pin) || v.idx != local) continue;
      if (in_xmm(v)) {
        const std::uint8_t x = alloc_xmm();
        e_.movaps_rr(x, v.reg);
        vs_[k] = {.loc = Loc::Xmm, .reg = x, .f32 = v.f32};
        xmm_[x] = k;
        continue;
      }
      const Reg r = alloc_gpr();
      if (v.loc == Loc::Pin)
        e_.mov_rr(r, static_cast<Reg>(v.reg));
      else
        e_.load64(r, RBP, static_cast<std::int32_t>(local * 8));
      vs_[k] = {.loc = Loc::Gpr, .reg = r};
      gpr_[r] = k;
    }
  }

  /// local.set/tee of a pinned local: moves `v` (never Flags: a write
  /// materialises them first) into the local's register.
  void write_pin(const Pin& p, const Val& v) {
    const Reg dst = static_cast<Reg>(p.reg);
    const std::int32_t disp = static_cast<std::int32_t>(v.idx * 8);
    if (!p.xmm) {
      if (v.loc == Loc::Const)
        e_.mov_imm(dst, v.imm);
      else if (v.loc == Loc::Mem)
        e_.load64(dst, RBP, disp);
      else if (in_xmm(v))
        e_.mov_rx(dst, v.reg, !v.f32);
      else
        e_.mov_rr(dst, static_cast<Reg>(v.reg));
      return;
    }
    const bool f64 = !p.f32;
    if (v.loc == Loc::Const) {
      if (v.imm == 0) {
        e_.xorps_rr(p.reg, p.reg);
      } else {
        e_.mov_imm(RAX, v.imm);
        e_.mov_xr(p.reg, RAX, f64);
      }
    } else if (v.loc == Loc::Mem) {
      e_.movf_load(f64, p.reg, RBP, disp);
    } else if (in_gpr(v)) {
      e_.mov_xr(p.reg, static_cast<Reg>(v.reg), f64);
    } else if (v.f32 && f64) {  // f32 bits widened to an f64 local
      e_.mov_rx(RAX, v.reg, false);
      e_.mov_xr(p.reg, RAX, true);
    } else {
      e_.movaps_rr(p.reg, v.reg);
    }
  }

  /// A popped value in a held GPR the op may overwrite. Narrow (i32) loads
  /// from memory use the zero-extending 32-bit form; a pinned local is
  /// copied.
  Reg to_gpr(const Val& v, bool wide) {
    Reg r;
    switch (v.loc) {
      case Loc::Gpr:
        return static_cast<Reg>(v.reg);
      case Loc::Pin:
        r = alloc_gpr();
        if (pins_[v.idx].xmm)
          e_.mov_rx(r, v.reg, !v.f32);
        else
          e_.mov_rr(r, static_cast<Reg>(v.reg), wide);
        return r;
      case Loc::Mem:
        r = alloc_gpr();
        if (wide)
          e_.load64(r, RBP, static_cast<std::int32_t>(v.idx * 8));
        else
          e_.load32(r, RBP, static_cast<std::int32_t>(v.idx * 8));
        return r;
      case Loc::Const:
        r = alloc_gpr();
        e_.mov_imm(r, wide ? v.imm : static_cast<std::uint32_t>(v.imm));
        return r;
      case Loc::Xmm:
        r = alloc_gpr();
        e_.mov_rx(r, v.reg, !v.f32);
        xmm_[v.reg] = kFree;
        return r;
      case Loc::Flags:
        r = alloc_gpr();
        emit_setcc(v.fl, r);
        return r;
    }
    return RAX;
  }

  /// A popped value in a held XMM register. An f32 register read as 64
  /// bits (f32 -> i32 -> i64 -> f64 reinterprets are identities) goes
  /// through a GPR: its bits 32..63 are not the value's zero upper half.
  std::uint8_t to_xmm(const Val& v, bool f64) {
    std::uint8_t x;
    switch (v.loc) {
      case Loc::Xmm:
        if (!v.f32 || !f64) return v.reg;
        [[fallthrough]];
      default: {
        if (v.loc == Loc::Pin && pins_[v.idx].xmm && (!v.f32 || !f64)) {
          x = alloc_xmm();
          e_.movaps_rr(x, v.reg);
          return x;
        }
        const Reg r = to_gpr(v, f64);
        x = alloc_xmm();
        e_.mov_xr(x, r, f64);
        gpr_[r] = kFree;
        return x;
      }
      case Loc::Mem:
        x = alloc_xmm();
        e_.movf_load(f64, x, RBP, static_cast<std::int32_t>(v.idx * 8));
        return x;
      case Loc::Const:
        x = alloc_xmm();
        if (v.imm == 0) {
          e_.xorps_rr(x, x);
        } else {
          e_.mov_imm(RAX, v.imm);
          e_.mov_xr(x, RAX, f64);
        }
        return x;
    }
  }

  /// True when `v` aliases a pinned local that the next op (a local.set or
  /// tee of it, not behind a merge) overwrites with this op's result:
  /// `x = x OP y` then computes in x's register, and the write finds its
  /// own alias on top and emits nothing.
  bool result_goes_to(const Val& v) const {
    if (v.loc != Loc::Pin) return false;
    const std::size_t next = pc_ + 1;
    if (next >= func_.code.size() || is_target_[next]) return false;
    const Instr& ins = func_.code[next];
    return (ins.op == kLocalSet || ins.op == kLocalTee) && ins.a == v.idx;
  }
  /// That local's register as the op's destination; its other live
  /// aliases are copied out first.
  std::uint8_t claim_pin(const Val& v) {
    materialize_aliases(v.idx);
    return v.reg;
  }

  /// A popped value's register for an operand the op only reads: a pinned
  /// local's own register in place, else to_gpr / to_xmm. Release with
  /// free_gpr / free_xmm.
  Reg read_gpr(const Val& v, bool wide) {
    if (v.loc == Loc::Pin && !pins_[v.idx].xmm) return static_cast<Reg>(v.reg);
    return to_gpr(v, wide);
  }
  std::uint8_t read_xmm(const Val& v, bool f64) {
    if (v.loc == Loc::Pin && pins_[v.idx].xmm && (!v.f32 || !f64)) return v.reg;
    return to_xmm(v, f64);
  }

  /// Right-hand operand of an integer ALU op: register, frame slot or imm32.
  struct Opnd {
    enum Kind : std::uint8_t { R, M, I } k;
    Reg r;
    std::int32_t v;  // M: displacement; I: immediate
  };
  Opnd operand(const Val& v, bool wide) {
    if (v.loc == Loc::Mem) return {Opnd::M, RAX, static_cast<std::int32_t>(v.idx * 8)};
    if (v.loc == Loc::Const && (!wide || fits_simm32(v.imm)))
      return {Opnd::I, RAX, static_cast<std::int32_t>(static_cast<std::uint32_t>(v.imm))};
    return {Opnd::R, read_gpr(v, wide), 0};
  }
  void release(const Opnd& o) {
    if (o.k == Opnd::R) free_gpr(o.r);
  }
  /// dst = dst OP o. ext: add 0, or 1, and 4, sub 5, xor 6, cmp 7.
  void alu(std::uint8_t ext, Reg dst, const Opnd& o, bool wide) {
    switch (o.k) {
      case Opnd::R:
        e_.alu_rr(static_cast<std::uint8_t>(ext * 8 + 1), dst, o.r, wide);
        break;
      case Opnd::M:
        e_.alu_rm(static_cast<std::uint8_t>(ext * 8 + 3), dst, RBP, o.v, wide);
        break;
      case Opnd::I:
        e_.alu_ri(ext, dst, o.v, wide);
        break;
    }
  }

  /// Flag that is true iff the popped i32 `c` is non-zero (emits the test).
  Flag test_nonzero(const Val& c) {
    if (c.loc == Loc::Flags) return c.fl;
    if (c.loc == Loc::Mem) {
      e_.alu_mi(7, RBP, static_cast<std::int32_t>(c.idx * 8), 0, false);
    } else {
      const Reg r = read_gpr(c, false);
      e_.test_rr(r, r, false);
      free_gpr(r);
    }
    return {CC_NE, 0};
  }

  /// Jumps to `target_pc` when `f` holds.
  void jump_if(const Flag& f, std::uint32_t target_pc) {
    if (f.parity == 1) {  // cc AND ordered
      const std::size_t skip = e_.jcc(CC_P);
      fixups_.push_back({e_.jcc(f.cc), target_pc});
      e_.patch_rel32(skip, e_.size());
    } else {
      if (f.parity == 2) fixups_.push_back({e_.jcc(CC_P), target_pc});
      fixups_.push_back({e_.jcc(f.cc), target_pc});
    }
  }
  /// Forward jump sites taken when `f` holds (patched by the caller).
  std::vector<std::size_t> skip_if(const Flag& f) {
    std::vector<std::size_t> sites;
    if (f.parity == 1) {
      const std::size_t ordered = e_.jcc(CC_P);
      sites.push_back(e_.jcc(f.cc));
      e_.patch_rel32(ordered, e_.size());
    } else {
      if (f.parity == 2) sites.push_back(e_.jcc(CC_P));
      sites.push_back(e_.jcc(f.cc));
    }
    return sites;
  }

  /// Ops that may run while a compare's boolean is still in EFLAGS: they
  /// emit nothing, or consume the flags themselves.
  bool keeps_flags(const Instr& ins) const {
    switch (ins.op) {
      case kNop:
      case kDrop:
      case kLocalGet:
      case kI32Const:
      case kI64Const:
      case kF32Const:
      case kF64Const:
        return true;
      case kBrIf:
      case kInstrBrIfFalse:
      case kSelect:
      case kI32Eqz:
        return flags_h_ == sp_ - 1;
      case kI32Eq:
      case kI32Ne:
        return flags_h_ == sp_ - 2 && vs_[sp_ - 1].loc == Loc::Const &&
               static_cast<std::uint32_t>(vs_[sp_ - 1].imm) == 0;
      default:
        return false;
    }
  }

  // -- context / helper plumbing ------------------------------------------------

  std::int32_t local_disp(std::uint32_t idx) const {
    return static_cast<std::int32_t>(idx * 8);
  }

  /// ctx->sp = ctx->base + num_locals + h (the dynamic height helpers see).
  void spill_sp(int h) {
    e_.load64(RAX, R15, kCtxBase);
    e_.lea_disp(RAX, RAX, static_cast<std::int32_t>(num_locals_ + h));
    e_.store64(R15, kCtxSp, RAX);
  }

  /// Re-derives rbp/r13/r14 from the context (a helper or callee may have
  /// moved the operand-stack storage or grown memory).
  void reload_pinned() {
    e_.load64(RAX, R15, 0);         // stack_base
    e_.load64(RCX, R15, kCtxBase);  // base
    e_.lea_scaled8(RBP, RAX, RCX);
    e_.load64(R13, R15, 24);  // mem_base
    e_.load64(R14, R15, 32);  // mem_size
  }

  void trap_check() {
    e_.cmp_m64_imm8(R15, kCtxTrapCode, 0);
    exit_sites_.push_back(e_.jcc(CC_NE));
  }

  template <typename Fn>
  void call_helper(Fn* fn) {
    e_.mov_ri64(RAX, reinterpret_cast<std::uint64_t>(fn));
    e_.call_r(RAX);
  }

  /// The full helper protocol: canonical frame, dynamic sp, call, re-pin,
  /// trap check. `arg` (when >= 0) goes in esi.
  template <typename Fn>
  void helper_op(Fn* fn, int h, std::int64_t arg, int delta) {
    flush_all();
    save_pinned_locals();
    spill_sp(h);
    e_.mov_rr(RDI, R15);
    if (arg >= 0) e_.mov_ri32(RSI, static_cast<std::uint32_t>(arg));
    call_helper(fn);
    reload_pinned();
    reload_pinned_locals();
    trap_check();
    reset(h + delta);
  }

  /// Bounds-checks `addr + offset + width <= mem_size` and returns the
  /// [r13 + index + disp] operand of the access (clobbers rax/rcx).
  std::pair<Reg, std::int32_t> emit_addr(Reg addr, std::uint64_t offset,
                                         std::uint32_t width) {
    if (offset + width <= 0x7fffffffull) {
      e_.lea_disp(RAX, addr, static_cast<std::int32_t>(offset + width));
      e_.cmp_rr(RAX, R14, true);
      trap_sites_[kTrapOob].push_back(e_.jcc(CC_A));
      return {addr, static_cast<std::int32_t>(offset)};
    }
    e_.mov_imm(RAX, offset);
    e_.add_rr(RAX, addr, true);
    e_.lea_disp(RCX, RAX, static_cast<std::int32_t>(width));
    e_.cmp_rr(RCX, R14, true);
    trap_sites_[kTrapOob].push_back(e_.jcc(CC_A));
    return {RAX, 0};
  }

  // -- emission -----------------------------------------------------------------

  void emit_prologue() {
    e_.push_r(RBP);
    e_.push_r(RBX);
    e_.push_r(R12);
    e_.push_r(R13);
    e_.push_r(R14);
    e_.push_r(R15);
    e_.sub_rsp8();  // keeps rsp 16-byte aligned at call sites
    e_.mov_rr(R15, RDI);
    // Frame capacity: the AOT stream's `need` and resize policy.
    e_.load64(RAX, R15, kCtxBase);
    e_.lea_disp(RSI, RAX,
                static_cast<std::int32_t>(num_locals_ + func_.max_operand_height + 8));
    e_.alu_rm(0x3B, RSI, R15, kCtxStackSize, true);  // cmp need, stack_size
    const std::size_t fits = e_.jcc(CC_BE);
    e_.mov_rr(RDI, R15);
    call_helper(&jit_helper_grow_stack);
    e_.patch_rel32(fits, e_.size());
    reload_pinned();
    // Zero the non-parameter locals (a pinned one's slot is written before
    // it is ever read: by the save before a call).
    std::uint32_t slot_zeros = 0;
    for (std::uint32_t i = func_.num_params; i < num_locals_; ++i)
      slot_zeros += pins_[i].on ? 0 : 1;
    if (slot_zeros <= 8) {
      for (std::uint32_t i = func_.num_params; i < num_locals_; ++i)
        if (!pins_[i].on) e_.store_imm32(RBP, local_disp(i), 0);
    } else {
      e_.mov_ri32(RAX, 0);
      e_.lea_disp(RDI, RBP, local_disp(func_.num_params));
      e_.mov_ri32(RCX, num_locals_ - func_.num_params);
      e_.rep_stosq();
    }
    // Pinned locals: parameters from their slots, the rest zeroed.
    for (std::uint32_t i = 0; i < num_locals_; ++i) {
      const Pin& p = pins_[i];
      if (!p.on) continue;
      const bool param = i < func_.num_params;
      if (p.xmm && param)
        e_.movf_load(!p.f32, p.reg, RBP, local_disp(i));
      else if (p.xmm)
        e_.xorps_rr(p.reg, p.reg);
      else if (param)
        e_.load64(static_cast<Reg>(p.reg), RBP, local_disp(i));
      else
        e_.xor_rr(static_cast<Reg>(p.reg), static_cast<Reg>(p.reg), false);
    }
  }

  bool emit_body() {
    const auto& code = func_.code;
    const std::size_t n = code.size();
    offsets_.assign(n, 0);
    bool reachable = true;
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (dead_[pc]) {  // unreachable: prescan proved nothing lands here
        offsets_[pc] = e_.size();
        continue;
      }
      if (is_target_[pc]) {
        // Every edge into a merge point arrives with the canonical frame:
        // jumpers flushed at their branch, the fall-through flushes here.
        if (reachable) flush_all();
        reset(height_[pc]);
        reachable = true;
      }
      offsets_[pc] = e_.size();
      pc_ = pc;
      const Instr& ins = code[pc];
      if (sp_ != height_[pc]) return refuse(ins.op);  // codegen/prescan drift
      if (flags_h_ >= 0 && !keeps_flags(ins)) materialize_flags();
      if (!emit_op(ins, reachable)) {
        refused_op_ = ins.op;
        return false;
      }
    }
    return true;
  }

  /// Stack-shaped and control ops; everything table-shaped goes on to
  /// emit_numeric. `reachable` is cleared after an unconditional transfer.
  bool emit_op(const Instr& ins, bool& reachable) {
    const int h = sp_;
    switch (ins.op) {
      case kNop:
        return true;
      case kUnreachable:
        trap_sites_[kTrapUnreachable].push_back(e_.jmp());
        reachable = false;
        return true;

      case kBr: {
        const int drop = static_cast<int>(ins.imm);
        if (ins.aux == 1 && drop > 0) {
          Val v = pop();
          flush_below(sp_ - drop);
          store_to(v, slot_disp(sp_ - drop));
          release(v);
        } else {
          flush_below(h - drop);
        }
        fixups_.push_back({e_.jmp(), ins.a});
        reachable = false;
        return true;
      }
      case kBrIf: {
        const Val c = pop();
        const int drop = static_cast<int>(ins.imm);
        const bool keep = ins.aux == 1 && drop > 0;
        // The taken edge keeps heights [0, target); the fall-through keeps
        // its cache above that.
        const int target_h = sp_ - drop;
        flush_below(keep ? target_h - 1 : target_h);
        const Flag f = test_nonzero(c);
        release(c);
        if (!keep) {
          jump_if(f, ins.a);
          return true;
        }
        const std::vector<std::size_t> skip = skip_if(negate(f));
        store_to(vs_[sp_ - 1], slot_disp(target_h - 1));
        fixups_.push_back({e_.jmp(), ins.a});
        for (const std::size_t at : skip) e_.patch_rel32(at, e_.size());
        return true;
      }
      case kInstrBrIfFalse: {
        const Val c = pop();
        flush_all();
        const Flag f = test_nonzero(c);
        release(c);
        jump_if(negate(f), ins.a);
        return true;
      }
      case kBrTable: {
        flush_all();
        save_pinned_locals();
        spill_sp(h);
        e_.mov_rr(RDI, R15);
        e_.mov_ri64(RSI, reinterpret_cast<std::uint64_t>(&func_.tables[ins.a]));
        e_.mov_ri32(RDX, static_cast<std::uint32_t>(ins.imm));
        call_helper(&jit_helper_br_table);
        // rax = target pc. The helper only memmoves within the stack, so
        // rbp/r13/r14 stay valid — reload the pinned locals and dispatch
        // straight through the appended pc->offset table
        // (position-independent via rip).
        reload_pinned_locals();
        const std::size_t table_at = e_.lea_rip(RCX);
        e_.load32_scaled4(RDX, RCX, RAX);
        const std::size_t base_at = e_.lea_rip(RCX);
        e_.add_rr(RCX, RDX, true);
        e_.jmp_r(RCX);
        table_sites_.push_back({table_at, base_at});
        reachable = false;
        return true;
      }
      case kReturn: {
        if (ins.aux == 1) {
          Val v = pop();
          store_to(v, 0);  // result to stack[base]
          release(v);
        }
        e_.load64(RAX, R15, kCtxBase);
        if (ins.aux != 0) e_.lea_disp(RAX, RAX, static_cast<std::int32_t>(ins.aux));
        e_.store64(R15, kCtxSp, RAX);  // ctx->sp = base + keep
        exit_sites_.push_back(e_.jmp());
        reachable = false;
        return true;
      }

      case kCall:
        emit_call(ins, h);
        return true;
      case kCallIndirect:
        helper_op(&jit_helper_call_indirect, h, ins.a, *op_delta(module_, ins));
        return true;

      case kDrop:
        release(pop());
        return true;
      case kSelect:
        emit_select();
        return true;

      case kLocalGet: {  // alias: consumers read the local's register or slot
        const Pin& p = pins_[ins.a];
        if (p.on)
          push({.loc = Loc::Pin, .reg = p.reg, .f32 = p.f32, .idx = ins.a});
        else
          push({.idx = ins.a});
        return true;
      }
      case kLocalSet:
      case kLocalTee: {
        const Val top = vs_[sp_ - 1];
        if ((top.loc == Loc::Mem || top.loc == Loc::Pin) && top.idx == ins.a) {
          if (ins.op == kLocalSet) pop();
          return true;
        }
        Val v = pop();
        materialize_aliases(ins.a);
        const Pin& p = pins_[ins.a];
        if (p.on) {
          write_pin(p, v);
          release(v);
          if (ins.op == kLocalTee)
            push({.loc = Loc::Pin, .reg = p.reg, .f32 = p.f32, .idx = ins.a});
          return true;
        }
        if (ins.op == kLocalTee && v.loc == Loc::Mem)
          v = {.loc = Loc::Gpr, .reg = to_gpr(v, true)};
        store_to(v, local_disp(ins.a));
        if (ins.op == kLocalTee)
          push(v);
        else
          release(v);
        return true;
      }
      case kGlobalGet: {
        const Reg r = alloc_gpr();
        e_.load64(r, R15, kCtxGlobals);
        e_.load64(r, r, static_cast<std::int32_t>(ins.a * 16 + 8));
        push_gpr(r);
        return true;
      }
      case kGlobalSet: {
        const Val v = pop();
        const Reg r = read_gpr(v, true);
        e_.load64(RAX, R15, kCtxGlobals);
        e_.store64(RAX, static_cast<std::int32_t>(ins.a * 16 + 8), r);
        free_gpr(r);
        return true;
      }

      case kMemorySize: {
        const Reg r = alloc_gpr();
        e_.mov_rr(r, R14);
        e_.shift_ri(5, r, 16, true);  // bytes -> 64 KiB pages
        push_gpr(r);
        return true;
      }
      case kMemoryGrow:  // grow itself never traps; the check is a no-op
        helper_op(&jit_helper_memory_grow, h, -1, 0);
        return true;
      case kInstrMemCopy:
        helper_op(&jit_helper_mem_copy, h, -1, -3);
        return true;
      case kInstrMemFill:
        helper_op(&jit_helper_mem_fill, h, -1, -3);
        return true;

      case kI32Const:
      case kI64Const:
      case kF32Const:
      case kF64Const:
        push({.loc = Loc::Const, .imm = ins.imm});
        return true;

      default:
        return emit_numeric(ins, h);
    }
  }

  /// Direct native-to-native call when the callee's entry is installed,
  /// else (and for host imports) the jit_helper_call round trip.
  void emit_call(const Instr& ins, int h) {
    const FuncType& type = module_.func_type(ins.a);
    const int params = static_cast<int>(type.params.size());
    const int results = static_cast<int>(type.results.size());
    flush_all();
    save_pinned_locals();
    const std::uint32_t imports = module_.num_imported_funcs();
    std::size_t join = 0;
    const bool direct = ins.a >= imports;
    if (direct) {
      e_.load64(RAX, R15, kCtxEntries);
      e_.load64(RAX, RAX, static_cast<std::int32_t>((ins.a - imports) * 8));
      e_.test_rr(RAX, RAX, true);
      const std::size_t slow = e_.jcc(CC_E);
      e_.alu_mi(7, R15, kCtxDepth, kMaxCallDepth, true);
      trap_sites_[kTrapCallDepth].push_back(e_.jcc(CC_GE));
      // Callee frame base = caller base + num_locals + h - params.
      const std::int32_t delta = static_cast<std::int32_t>(num_locals_) + h - params;
      e_.alu_mi(0, R15, kCtxDepth, 1, true);
      e_.alu_mi(0, R15, kCtxBase, delta, true);
      e_.alu_mi(0, R15, kCtxNativeCalls, 1, true);
      e_.mov_rr(RDI, R15);
      e_.call_r(RAX);
      e_.alu_mi(5, R15, kCtxBase, delta, true);
      e_.alu_mi(5, R15, kCtxDepth, 1, true);
      join = e_.jmp();
      e_.patch_rel32(slow, e_.size());
    }
    spill_sp(h);
    e_.mov_rr(RDI, R15);
    e_.mov_ri32(RSI, ins.a);
    call_helper(&jit_helper_call);
    if (direct) e_.patch_rel32(join, e_.size());
    reload_pinned();
    reload_pinned_locals();
    trap_check();
    reset(h - params + results);
  }

  /// select: cmov on the live compare flags, or on a test of the condition.
  void emit_select() {
    const Val c = pop();
    const Val v2 = pop();
    const Val v1 = pop();
    const bool live = c.loc == Loc::Flags && c.fl.parity == 0;
    Reg rc = RAX;
    if (!live && c.loc != Loc::Mem) rc = read_gpr(c, false);
    // Loading the arms emits only moves: live flags survive.
    const Reg r1 = to_gpr(v1, true);
    const Opnd o2 = v2.loc == Loc::Const ? Opnd{Opnd::R, to_gpr(v2, true), 0}
                                         : operand(v2, true);
    Flag f = c.fl;
    if (!live) {
      if (c.loc == Loc::Mem)
        e_.alu_mi(7, RBP, static_cast<std::int32_t>(c.idx * 8), 0, false);
      else
        e_.test_rr(rc, rc, false);
      f = {CC_NE, 0};
      if (c.loc != Loc::Mem) free_gpr(rc);
    }
    const Cond take_v2 = negate(f).cc;
    if (o2.k == Opnd::M)
      e_.cmovcc_rm(take_v2, r1, RBP, o2.v);
    else
      e_.cmovcc(take_v2, r1, o2.r);
    release(o2);
    push_gpr(r1);
  }

  /// div/rem with the wasm trap/edge semantics (divide-by-zero trap,
  /// INT_MIN/-1 overflow trap for div_s, INT_MIN%-1 == 0 for rem_s). A
  /// constant divisor drops the guards it cannot trip: the zero test when it
  /// is non-zero, the -1 checks when it is not -1; rem_s by -1 folds to 0.
  void emit_div(bool wide, bool is_signed, bool is_rem) {
    const Val b = pop();
    const Val a = pop();
    const bool known = b.loc == Loc::Const;
    const std::uint64_t d = wide ? b.imm : static_cast<std::uint32_t>(b.imm);
    const bool minus_one = is_signed && d == (wide ? ~0ull : 0xffffffffull);
    const bool may_be_zero = !known || d == 0;
    const bool may_be_minus_one = !known || minus_one;
    if (known && minus_one && is_rem) {
      release(a);
      push({.loc = Loc::Const, .imm = 0});
      return;
    }
    const Reg ra = to_gpr(a, wide);
    const Reg rb = read_gpr(b, wide);
    e_.mov_rr(RAX, ra, wide);
    if (may_be_zero) {
      e_.test_rr(rb, rb, wide);
      trap_sites_[kTrapDivZero].push_back(e_.jcc(CC_E));
    }
    Reg result = RAX;
    if (is_signed) {
      std::size_t zero_site = 0;
      if (is_rem && may_be_minus_one) {
        // divisor == -1 => remainder 0 (also sidesteps the INT_MIN idiv #DE)
        e_.cmp_ri(rb, -1, wide);
        zero_site = e_.jcc(CC_E);
      } else if (may_be_minus_one) {
        if (wide) {
          e_.mov_ri64(RDX, 0x8000000000000000ull);
          e_.cmp_rr(RAX, RDX, true);
        } else {
          e_.cmp_ri(RAX, std::numeric_limits<std::int32_t>::min(), false);
        }
        const std::size_t ok_site = e_.jcc(CC_NE);
        e_.cmp_ri(rb, -1, wide);
        trap_sites_[kTrapOverflow].push_back(e_.jcc(CC_E));
        e_.patch_rel32(ok_site, e_.size());
      }
      if (wide)
        e_.cqo();
      else
        e_.cdq();
      e_.idiv(rb, wide);
      if (is_rem) {
        result = RDX;
        if (may_be_minus_one) {
          const std::size_t done_site = e_.jmp();
          e_.patch_rel32(zero_site, e_.size());
          e_.xor_rr(RDX, RDX, false);
          e_.patch_rel32(done_site, e_.size());
        }
      }
    } else {
      e_.xor_rr(RDX, RDX, false);
      e_.div(rb, wide);
      if (is_rem) result = RDX;
    }
    e_.mov_rr(ra, result, wide);
    free_gpr(rb);
    push_gpr(ra);
  }

  /// Float comparison via ucomis: unordered sets ZF=PF=CF=1, so lt/le test
  /// the swapped-operand above/above-equal forms (false on NaN), and eq/ne
  /// fold the parity flag.
  void emit_fcompare(std::uint16_t op) {
    const bool f64 = op >= kF64Eq;
    const std::uint16_t rel = op - (f64 ? kF64Eq : kF32Eq);
    // eq: equal AND ordered; ne: not-equal OR unordered; lt/le: b > a,
    // b >= a; gt/ge: a > b, a >= b.
    static constexpr struct {
      bool swap;
      Flag f;
    } kShapes[6] = {{false, {CC_E, 1}}, {false, {CC_NE, 2}}, {true, {CC_A, 0}},
                    {false, {CC_A, 0}}, {true, {CC_AE, 0}}, {false, {CC_AE, 0}}};
    const Val b = pop();
    const Val a = pop();
    const std::uint8_t xa = read_xmm(a, f64);
    const std::uint8_t xb = read_xmm(b, f64);
    const auto& shape = kShapes[rel];
    if (shape.swap)
      e_.ucomis_rr(f64, xb, xa);
    else
      e_.ucomis_rr(f64, xa, xb);
    free_xmm(xa);
    free_xmm(xb);
    push_flags(shape.f);
  }

  /// wasm min/max: NaN either side -> the positive canonical quiet NaN;
  /// equal operands merge sign bits (orpd keeps -0 for min, andpd keeps +0
  /// for max — exactly the interpreter's signbit selection across all four
  /// zero pairings); otherwise the plain ordered pick.
  void emit_fminmax(bool f64, bool is_min) {
    const Val b = pop();
    const Val a = pop();
    const std::uint8_t xa = to_xmm(a, f64);
    const std::uint8_t xb = read_xmm(b, f64);
    e_.ucomis_rr(f64, xa, xb);
    const std::size_t nan_site = e_.jcc(CC_P);
    const std::size_t eq_site = e_.jcc(CC_E);
    const std::size_t keep_site = e_.jcc(is_min ? CC_B : CC_A);  // keep a
    e_.movaps_rr(xa, xb);                                        // take b
    const std::size_t done1 = e_.jmp();
    e_.patch_rel32(eq_site, e_.size());
    if (is_min)
      e_.orpd_rr(xa, xb);
    else
      e_.andpd_rr(xa, xb);
    const std::size_t done2 = e_.jmp();
    e_.patch_rel32(nan_site, e_.size());
    if (f64) {
      e_.mov_ri64(RAX, 0x7ff8000000000000ull);
      e_.mov_xr(xa, RAX, true);
    } else {
      e_.mov_ri32(RAX, 0x7fc00000u);
      e_.mov_xr(xa, RAX, false);
    }
    e_.patch_rel32(keep_site, e_.size());
    e_.patch_rel32(done1, e_.size());
    e_.patch_rel32(done2, e_.size());
    free_xmm(xb);
    push_xmm(xa, f64);
  }

  /// u64 -> f32/f64: cvtsi2sd directly when the top bit is clear; else
  /// halve with the low bit folded in (round-to-odd, exact) and double the
  /// result — the correctly-rounded sequence GCC emits for the C++ cast,
  /// so all tiers agree bit-for-bit.
  void emit_convert_u64(bool f64) {
    const Val a = pop();
    const Reg r = read_gpr(a, true);
    const std::uint8_t x = alloc_xmm();
    e_.test_rr(r, r, true);
    const std::size_t big = e_.jcc(CC_S);
    e_.cvt_i2f(f64, true, x, r);
    const std::size_t done = e_.jmp();
    e_.patch_rel32(big, e_.size());
    e_.mov_rr(RAX, r);
    e_.shift_ri(5, RAX, 1, true);  // rax = x >> 1
    e_.mov_rr(RCX, r, false);
    e_.alu_ri(4, RCX, 1, false);   // ecx = x & 1
    e_.or_rr(RAX, RCX, true);
    e_.cvt_i2f(f64, true, x, RAX);
    e_.sse_arith_rr(f64, 0x58, x, x);  // x2
    e_.patch_rel32(done, e_.size());
    free_gpr(r);
    push_xmm(x, f64);
  }

  /// Trapping float->int truncation. The operand is promoted to f64
  /// (exact) in xmm0 and range-checked there: the bounds are chosen so `v`
  /// passes iff trunc(v) is representable, matching the interpreter's
  /// trunc_checked exactly (including the -2^63 edge, where the exact
  /// minimum is representable and the check is >=). The opcode lands in
  /// ctx->trap_aux before any check so the entry thunk can rebuild the
  /// canonical per-op message.
  void emit_trunc(std::uint16_t op) {
    const bool src_f64 = op == kI32TruncF64S || op == kI32TruncF64U ||
                         op == kI64TruncF64S || op == kI64TruncF64U;
    const bool wide = op >= kI64TruncF32S;
    const bool uns = op == kI32TruncF32U || op == kI32TruncF64U ||
                     op == kI64TruncF32U || op == kI64TruncF64U;
    const Val a = pop();
    const std::uint8_t x = read_xmm(a, src_f64);
    if (src_f64)
      e_.movaps_rr(0, x);
    else
      e_.cvtss2sd(0, x);
    free_xmm(x);
    const Reg r = alloc_gpr();
    e_.store_imm32(R15, kCtxTrapAux, op);  // trap_aux = opcode, for the message
    e_.ucomis_rr(true, 0, 0);              // NaN is the only unordered-with-self
    trap_sites_[kTrapTruncNan].push_back(e_.jcc(CC_P));
    double lo, hi;
    bool lo_strict;  // strict: require v > lo; else require v >= lo
    if (!wide && !uns) {
      lo = -2147483649.0;  // first double at or below every out-of-range v
      lo_strict = true;
      hi = 2147483648.0;
    } else if (!wide) {
      lo = -1.0;
      lo_strict = true;
      hi = 4294967296.0;
    } else if (!uns) {
      lo = -9223372036854775808.0;  // exact; -2^63-1 is not representable
      lo_strict = false;
      hi = 9223372036854775808.0;
    } else {
      lo = -1.0;
      lo_strict = true;
      hi = 18446744073709551616.0;
    }
    e_.mov_ri64(RAX, f64_bits(lo));
    e_.mov_xr(1, RAX, true);
    e_.ucomis_rr(true, 0, 1);
    trap_sites_[kTrapTruncOverflow].push_back(e_.jcc(lo_strict ? CC_BE : CC_B));
    e_.mov_ri64(RAX, f64_bits(hi));
    e_.mov_xr(1, RAX, true);
    e_.ucomis_rr(true, 0, 1);
    trap_sites_[kTrapTruncOverflow].push_back(e_.jcc(CC_AE));
    if (!wide && !uns) {
      e_.cvtt_f2i(true, false, r, 0);  // r32 (zero-extends)
    } else if (!wide || !uns) {
      e_.cvtt_f2i(true, true, r, 0);  // u32 fits the signed 64-bit convert
    } else {
      // u64: values >= 2^63 convert shifted by 2^63 (subtraction is exact:
      // v >= 2^52 is an integer) and the top bit is added back as an int.
      e_.mov_ri64(RAX, f64_bits(9223372036854775808.0));
      e_.mov_xr(1, RAX, true);
      e_.ucomis_rr(true, 0, 1);
      const std::size_t small = e_.jcc(CC_B);
      e_.sse_arith_rr(true, 0x5C, 0, 1);  // v -= 2^63
      e_.cvtt_f2i(true, true, r, 0);
      e_.mov_ri64(RAX, 0x8000000000000000ull);
      e_.add_rr(r, RAX, true);
      const std::size_t done = e_.jmp();
      e_.patch_rel32(small, e_.size());
      e_.cvtt_f2i(true, true, r, 0);
      e_.patch_rel32(done, e_.size());
    }
    push_gpr(r);
  }

  /// Loads, stores, numeric ops, conversions — everything table-shaped.
  bool emit_numeric(const Instr& ins, int h) {
    const std::uint16_t op = ins.op;

    if (op >= kI32Load && op <= kI64Load32U) {
      struct Shape {
        std::uint8_t width_log2;
        bool sign, wide;
      };
      static constexpr Shape kLoads[14] = {
          {2, false, false},  // i32.load
          {3, false, true},   // i64.load
          {2, false, false},  // f32.load
          {3, false, true},   // f64.load
          {0, true, false},   // i32.load8_s
          {0, false, false},  // i32.load8_u
          {1, true, false},   // i32.load16_s
          {1, false, false},  // i32.load16_u
          {0, true, true},    // i64.load8_s
          {0, false, false},  // i64.load8_u
          {1, true, true},    // i64.load16_s
          {1, false, false},  // i64.load16_u
          {2, true, true},    // i64.load32_s
          {2, false, false},  // i64.load32_u
      };
      const Shape s = kLoads[op - kI32Load];
      const bool to_xmm_reg = op == kF32Load || op == kF64Load;
      const Reg ra = read_gpr(pop(), false);
      const std::uint8_t x = to_xmm_reg ? alloc_xmm() : 0;
      // An integer load lands in the address register unless that is a
      // pinned local's.
      const Reg rd = !to_xmm_reg && gpr_[ra] == kPinned ? alloc_gpr() : ra;
      const auto [index, disp] = emit_addr(ra, ins.imm, 1u << s.width_log2);
      if (to_xmm_reg) {  // floats load straight into an XMM register
        e_.sse_rmi(op == kF64Load ? 0xF2 : 0xF3, 0x10, x, R13, index, disp);
        free_gpr(ra);
        push_xmm(x, op == kF64Load);
      } else {
        e_.load_mem_extend(rd, R13, index, disp, s.width_log2, s.sign, s.wide);
        push_gpr(rd);
      }
      return true;
    }

    if (op >= kI32Store && op <= kI64Store32) {
      static constexpr std::uint8_t kStoreWidthLog2[9] = {
          2,  // i32.store
          3,  // i64.store
          2,  // f32.store
          3,  // f64.store
          0,  // i32.store8
          1,  // i32.store16
          0,  // i64.store8
          1,  // i64.store16
          2,  // i64.store32
      };
      const std::uint8_t w = kStoreWidthLog2[op - kI32Store];
      const Val v = pop();
      const Val a = pop();
      const bool from_xmm = in_xmm(v) && (op == kF32Store || (op == kF64Store && !v.f32));
      const Reg rv = from_xmm ? RAX : read_gpr(v, w == 3);
      const Reg ra = read_gpr(a, false);
      const auto [index, disp] = emit_addr(ra, ins.imm, 1u << w);
      if (from_xmm)
        e_.sse_rmi(op == kF64Store ? 0xF2 : 0xF3, 0x11, v.reg, R13, index, disp);
      else
        e_.store_mem(R13, index, disp, w, rv);
      release(v);
      if (!from_xmm) free_gpr(rv);
      free_gpr(ra);
      return true;
    }

    if (const auto cc = int_cmp_cond(op)) {
      const bool wide = op == kI64Eqz || op >= kI64Eq;
      if (op == kI32Eqz || op == kI64Eqz) {
        const Val a = pop();
        if (a.loc == Loc::Flags) {  // eqz of a live compare: invert it
          push_flags(negate(a.fl));
          return true;
        }
        if (a.loc == Loc::Mem) {
          e_.alu_mi(7, RBP, static_cast<std::int32_t>(a.idx * 8), 0, wide);
        } else {
          const Reg r = read_gpr(a, wide);
          e_.test_rr(r, r, wide);
          free_gpr(r);
        }
        push_flags({CC_E, 0});
        return true;
      }
      const Val b = pop();
      const Val a = pop();
      if (a.loc == Loc::Flags) {  // wcc's `cmp; i32.const 0; i32.ne` shape
        push_flags(op == kI32Ne ? a.fl : negate(a.fl));
        return true;
      }
      const Opnd ob = operand(b, wide);
      if (a.loc == Loc::Mem && ob.k != Opnd::M) {
        const std::int32_t disp = static_cast<std::int32_t>(a.idx * 8);
        if (ob.k == Opnd::I)
          e_.alu_mi(7, RBP, disp, ob.v, wide);
        else
          e_.alu_mr(0x39, RBP, disp, ob.r, wide);
      } else {
        const Reg ra = read_gpr(a, wide);
        alu(7, ra, ob, wide);
        free_gpr(ra);
      }
      release(ob);
      push_flags({*cc, 0});
      return true;
    }

    if (op >= kF32Eq && op <= kF64Ge) {
      emit_fcompare(op);
      return true;
    }

    const bool i32_bin = op >= kI32Add && op <= kI32Rotr;
    const bool i64_bin = op >= kI64Add && op <= kI64Rotr;
    if (i32_bin || i64_bin) {
      const bool wide = i64_bin;
      // rel: 0 add, 1 sub, 2 mul, 3 div_s, 4 div_u, 5 rem_s, 6 rem_u,
      //      7 and, 8 or, 9 xor, 10 shl, 11 shr_s, 12 shr_u, 13 rotl, 14 rotr
      const std::uint16_t rel = op - (wide ? kI64Add : kI32Add);
      if (rel >= 3 && rel <= 6) {
        emit_div(wide, rel == 3 || rel == 5, rel >= 5);
        return true;
      }
      Val b = pop();
      Val a = pop();
      if (rel >= 10) {
        // shl / shr_s / shr_u / rotl / rotr — x86 masks the count exactly
        // as wasm requires (&31 / &63).
        static constexpr std::uint8_t kShiftExt[5] = {4, 7, 5, 0, 1};
        const bool in_place = result_goes_to(a);
        const Reg ra = in_place ? static_cast<Reg>(claim_pin(a)) : to_gpr(a, wide);
        if (b.loc == Loc::Const) {
          e_.shift_ri(kShiftExt[rel - 10], ra,
                      static_cast<std::uint8_t>(b.imm & (wide ? 63 : 31)), wide);
        } else {
          const Opnd ob = operand(b, false);
          if (ob.k == Opnd::M)
            e_.load32(RCX, RBP, ob.v);
          else
            e_.mov_rr(RCX, ob.r, false);
          release(ob);
          e_.shift_cl(kShiftExt[rel - 10], ra, wide);
        }
        in_place ? push(a) : push_gpr(ra);
        return true;
      }
      // Commutative ops reuse whichever operand is already in a register,
      // or the pinned local the result is written back to.
      if (rel != 1 && !result_goes_to(a) &&
          (result_goes_to(b) || (a.loc != Loc::Gpr && b.loc == Loc::Gpr)))
        std::swap(a, b);
      const bool in_place = result_goes_to(a);
      const Reg ra = in_place ? static_cast<Reg>(claim_pin(a)) : to_gpr(a, wide);
      const Opnd ob = operand(b, wide);
      if (rel == 2) {
        const std::uint64_t m = static_cast<std::uint32_t>(ob.v);
        if (ob.k == Opnd::I && ob.v > 0 && (m & (m - 1)) == 0)  // * 2^k = << k
          e_.shift_ri(4, ra, static_cast<std::uint8_t>(std::countr_zero(m)), wide);
        else if (ob.k == Opnd::R)
          e_.imul_rr(ra, ob.r, wide);
        else if (ob.k == Opnd::M)
          e_.imul_rm(ra, RBP, ob.v, wide);
        else
          e_.imul_rri(ra, ra, ob.v, wide);
      } else {
        static constexpr std::uint8_t kExt[10] = {0, 5, 0, 0, 0, 0, 0, 4, 1, 6};
        alu(kExt[rel], ra, ob, wide);
      }
      release(ob);
      in_place ? push(a) : push_gpr(ra);
      return true;
    }

    const bool f32_un = op >= kF32Abs && op <= kF32Sqrt;
    const bool f64_un = op >= kF64Abs && op <= kF64Sqrt;
    if (f32_un || f64_un) {
      const bool f64 = f64_un;
      // rel: 0 abs, 1 neg, 2 ceil, 3 floor, 4 trunc, 5 nearest, 6 sqrt
      const std::uint16_t rel = op - (f64 ? kF64Abs : kF32Abs);
      if (rel == 6) {
        const Val a = pop();
        const std::uint8_t x = to_xmm(a, f64);
        e_.sse_arith_rr(f64, 0x51, x, x);  // sqrtsd/sqrtss
        push_xmm(x, f64);
        return true;
      }
      if (rel <= 1) {
        // abs clears / neg flips the sign bit — the interpreter's exact
        // bit operation, NaN payloads untouched.
        const Val a = pop();
        const Reg r = to_gpr(a, f64);
        if (f64) {
          e_.mov_ri64(RAX, rel == 0 ? 0x7fffffffffffffffull : 0x8000000000000000ull);
          e_.alu_rr(rel == 0 ? 0x21 : 0x31, r, RAX, true);
        } else {
          e_.alu_ri(rel == 0 ? 4 : 6, r,
                    rel == 0 ? 0x7fffffff : std::numeric_limits<std::int32_t>::min(),
                    false);
        }
        push_gpr(r);
        return true;
      }
      // ceil/floor/trunc/nearest: SSE4.1 roundsd territory — thunked below.
    }

    const bool f32_bin = op >= kF32Add && op <= kF32Copysign;
    const bool f64_bin = op >= kF64Add && op <= kF64Copysign;
    if (f32_bin || f64_bin) {
      const bool f64 = f64_bin;
      // rel: 0 add, 1 sub, 2 mul, 3 div, 4 min, 5 max, 6 copysign
      const std::uint16_t rel = op - (f64 ? kF64Add : kF32Add);
      if (rel == 4 || rel == 5) {
        emit_fminmax(f64, rel == 4);
        return true;
      }
      const Val b = pop();
      const Val a = pop();
      if (rel <= 3) {
        // Operand order is the interpreter's (a OP b): with two NaNs the
        // result carries a's payload on both.
        static constexpr std::uint8_t kOpc[4] = {0x58, 0x5C, 0x59, 0x5E};
        const bool in_place = result_goes_to(a);
        const std::uint8_t x = in_place ? claim_pin(a) : to_xmm(a, f64);
        if (b.loc == Loc::Mem) {
          e_.sse_arith_rm(f64, kOpc[rel], x, RBP, static_cast<std::int32_t>(b.idx * 8));
        } else {
          const std::uint8_t xb = read_xmm(b, f64);
          e_.sse_arith_rr(f64, kOpc[rel], x, xb);
          free_xmm(xb);
        }
        in_place ? push(a) : push_xmm(x, f64);
        return true;
      }
      // copysign: (a & ~signbit) | (b & signbit) in GPRs.
      const Reg ra = to_gpr(a, f64);
      const Reg rb = to_gpr(b, f64);
      if (f64) {
        e_.mov_ri64(RDX, 0x7fffffffffffffffull);
        e_.and_rr(ra, RDX, true);
        e_.mov_ri64(RDX, 0x8000000000000000ull);
        e_.and_rr(rb, RDX, true);
        e_.or_rr(ra, rb, true);
      } else {
        e_.alu_ri(4, ra, 0x7fffffff, false);
        e_.alu_ri(4, rb, std::numeric_limits<std::int32_t>::min(), false);
        e_.or_rr(ra, rb, false);
      }
      gpr_[rb] = kFree;
      push_gpr(ra);
      return true;
    }

    switch (op) {
      // Identities on the canonical 64-bit slot bits (i32/f32 values keep
      // zero upper halves everywhere they live).
      case kI64ExtendI32U:
      case kI32ReinterpretF32:
      case kF32ReinterpretI32:
      case kI64ReinterpretF64:
      case kF64ReinterpretI64:
        return true;
      case kI32WrapI64: {
        const Val a = pop();
        const Reg r = to_gpr(a, false);  // a 32-bit load already truncates
        if (a.loc != Loc::Mem) e_.mov_rr(r, r, false);
        push_gpr(r);
        return true;
      }
      case kI64ExtendI32S:
      case kI64Extend32S:
      case kI32Extend8S:
      case kI32Extend16S:
      case kI64Extend8S:
      case kI64Extend16S: {
        const bool wide = op == kI64ExtendI32S || op == kI64Extend32S ||
                          op == kI64Extend8S || op == kI64Extend16S;
        const std::uint8_t from_log2 =
            (op == kI32Extend8S || op == kI64Extend8S)     ? 0
            : (op == kI32Extend16S || op == kI64Extend16S) ? 1
                                                           : 2;
        const Val a = pop();
        const Reg r = to_gpr(a, wide && from_log2 != 2);
        e_.movsx_rr(r, r, from_log2, wide);
        push_gpr(r);
        return true;
      }

      case kF64ConvertI32S:
      case kF64ConvertI32U:
      case kF64ConvertI64S:
      case kF32ConvertI32S:
      case kF32ConvertI32U:
      case kF32ConvertI64S: {
        const bool f64 = op == kF64ConvertI32S || op == kF64ConvertI32U ||
                         op == kF64ConvertI64S;
        const bool src64 = op == kF64ConvertI64S || op == kF32ConvertI64S;
        // i32 unsigned: the zero-extended value converts exactly as i64.
        const bool wide_cvt = op != kF64ConvertI32S && op != kF32ConvertI32S;
        const Val a = pop();
        const Reg r = read_gpr(a, src64);
        const std::uint8_t x = alloc_xmm();
        e_.cvt_i2f(f64, wide_cvt, x, r);
        free_gpr(r);
        push_xmm(x, f64);
        return true;
      }
      case kF64ConvertI64U:
        emit_convert_u64(true);
        return true;
      case kF32ConvertI64U:
        emit_convert_u64(false);
        return true;
      case kF64PromoteF32:
      case kF32DemoteF64: {
        const bool to_f64 = op == kF64PromoteF32;
        const Val a = pop();
        const std::uint8_t x = to_xmm(a, !to_f64);
        if (to_f64)
          e_.cvtss2sd(x, x);
        else
          e_.cvtsd2ss(x, x);
        push_xmm(x, to_f64);
        return true;
      }

      case kI32TruncF32S:
      case kI32TruncF32U:
      case kI32TruncF64S:
      case kI32TruncF64U:
      case kI64TruncF32S:
      case kI64TruncF32U:
      case kI64TruncF64S:
      case kI64TruncF64U:
        emit_trunc(op);
        return true;

      default:
        break;
    }

    // Everything else the stream can legally contain — float rounding,
    // clz/ctz/popcnt, saturating truncation — runs through the per-opcode
    // fallback thunk. The prescan already priced its stack effect, so
    // tier-up is never blocked.
    if (const auto delta = op_delta(module_, ins)) {
      helper_op(&jit_helper_fallback, h, op, *delta);
      return true;
    }
    return false;
  }

  void emit_tail() {
    // Epilogue (every exit funnels here, including trap paths).
    const std::size_t epilogue = e_.size();
    e_.add_rsp8();
    e_.pop_r(R15);
    e_.pop_r(R14);
    e_.pop_r(R13);
    e_.pop_r(R12);
    e_.pop_r(RBX);
    e_.pop_r(RBP);
    e_.ret();

    // Trap stubs: set the code, exit. One stub per trap kind in use.
    for (int code = kTrapOob; code <= kTrapCallDepth; ++code) {
      if (trap_sites_[code].empty()) continue;
      const std::size_t stub = e_.size();
      e_.store_imm32(R15, kCtxTrapCode, code);
      e_.patch_rel32(e_.jmp(), epilogue);
      for (const std::size_t at : trap_sites_[code]) e_.patch_rel32(at, stub);
    }

    for (const std::size_t at : exit_sites_) e_.patch_rel32(at, epilogue);
    for (const auto& [at, target_pc] : fixups_)
      e_.patch_rel32(at, offsets_[target_pc]);

    // br_table dispatch data: one u32 code offset per pc, appended after
    // the code and addressed rip-relatively (position-independent image).
    if (!table_sites_.empty()) {
      e_.align(4);
      const std::size_t table = e_.size();
      for (const std::size_t off : offsets_)
        e_.u32(static_cast<std::uint32_t>(off));
      for (const auto& [table_at, base_at] : table_sites_) {
        e_.patch_rel32(table_at, table);
        e_.patch_rel32(base_at, 0);  // rcx = image base
      }
    }
  }

  const Module& module_;
  const CompiledFunc& func_;
  const std::uint32_t num_locals_;
  Emitter e_;

  std::vector<int> height_;         // operand height at each pc
  std::vector<std::uint8_t> is_target_;
  std::vector<std::uint8_t> dead_;  // unreachable pcs: emitted as nothing
  std::vector<std::uint32_t> loop_end_;  // loop header pc -> last backward branch + 1
  std::vector<std::size_t> offsets_;  // emitted offset of each pc

  std::vector<ValType> local_types_;      // params, then declared locals
  std::vector<Pin> pins_;                 // per local
  std::vector<std::uint32_t> caller_saved_;  // pinned locals saved around calls
  std::array<int, 16> gpr_base_{};        // kFree, or kPinned for a local's register
  std::array<int, 16> xmm_base_{};

  std::vector<Val> vs_;             // the abstract value stack
  int sp_ = 0;                      // its height
  std::size_t pc_ = 0;              // pc being emitted
  int flags_h_ = -1;                // height of the live Flags entry
  std::array<int, 16> gpr_{};       // register -> owner height / kFree / kHeld
  std::array<int, 16> xmm_{};
  std::uint16_t refused_op_ = 0xffff;  // opcode behind a refusal

  struct Fixup {
    std::size_t at;
    std::uint32_t target_pc;
  };
  std::vector<Fixup> fixups_;
  std::vector<std::size_t> exit_sites_;                 // -> epilogue
  std::array<std::vector<std::size_t>, 8> trap_sites_;  // [trap code]
  struct TableSite {
    std::size_t table_at;
    std::size_t base_at;
  };
  std::vector<TableSite> table_sites_;
};

}  // namespace

std::vector<std::uint8_t> compile_function(const Module& module, std::uint32_t func_index,
                                           const CompiledFunc& func,
                                           std::uint16_t* refused_op) {
  FnCompiler compiler(module, func_index, func);
  if (!compiler.run()) {
    if (refused_op) *refused_op = compiler.refused();
    return {};
  }
  return compiler.take();
}

}  // namespace watz::wasm::jit
