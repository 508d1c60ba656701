#include "wasm/compile.hpp"

#include <array>
#include <cstring>

#include "common/leb128.hpp"
#include "wasm/opcodes.hpp"
#include "wasm/validator.hpp"

namespace watz::wasm {

namespace {

/// Skips the immediates of opcode `op` (already consumed from `r`).
/// Returns nullptr, or the reader's error message.
const char* skip_immediates(ByteReader& r, std::uint8_t op) {
  std::uint64_t index = 0;
  std::int64_t constant = 0;
  std::uint32_t count = 0;
  const std::uint8_t* raw = nullptr;
  switch (op) {
    case kBlock:
    case kLoop:
    case kIf:
      return r.take_bytes(1, raw);  // block type
    case kBr:
    case kBrIf:
    case kCall:
    case kLocalGet:
    case kLocalSet:
    case kLocalTee:
    case kGlobalGet:
    case kGlobalSet:
      return r.take_leb(index);
    case kBrTable:
      if (const char* e = r.take_leb(count)) return e;
      for (std::uint32_t i = 0; i <= count; ++i)
        if (const char* e = r.take_leb(index)) return e;
      return nullptr;
    case kCallIndirect:
      if (const char* e = r.take_leb(index)) return e;
      return r.take_bytes(1, raw);
    case kI32Const:
    case kI64Const:
      return r.take_leb(constant);
    case kF32Const:
      return r.take_bytes(4, raw);
    case kF64Const:
      return r.take_bytes(8, raw);
    case kMemorySize:
    case kMemoryGrow:
      return r.take_bytes(1, raw);
    case kPrefixFC:
      if (const char* e = r.take_leb(count)) return e;
      if (count == kMemoryCopy) return r.take_bytes(2, raw);
      if (count == kMemoryFill) return r.take_bytes(1, raw);
      return nullptr;  // trunc-sat: no immediates
    default:
      if (op >= kI32Load && op <= kI64Store32) {
        if (const char* e = r.take_leb(index)) return e;  // alignment
        return r.take_leb(index);                          // offset
      }
      return nullptr;  // no immediates
  }
}

}  // namespace

Result<std::size_t> find_block_end(ByteView code, std::size_t pos,
                                   std::size_t* else_pos) {
  ByteReader r(code);
  r.seek(pos);
  int depth = 0;
  while (true) {
    std::uint8_t op = 0;
    if (r.take_u8(op)) return Result<std::size_t>::err("scan: unterminated block");
    switch (op) {
      case kBlock:
      case kLoop:
      case kIf:
        ++depth;
        break;
      case kElse:
        if (depth == 0 && else_pos != nullptr) *else_pos = r.pos();
        continue;
      case kEnd:
        if (depth == 0) return r.pos();
        --depth;
        continue;
      default:
        break;
    }
    if (const char* e = skip_immediates(r, op)) return Result<std::size_t>::err(e);
  }
}

namespace {

using enum ValType;

/// The spec's "Unknown" operand type: what a pop yields from the empty
/// stack of an unreachable frame. It matches every expected type.
constexpr ValType kUnknown = static_cast<ValType>(0);

constexpr std::uint32_t kNone = UINT32_MAX;
constexpr std::uint32_t kFixupTableFlag = 0x80000000u;

/// Signature of a pure numeric opcode: pops `arity` operands of type `in`,
/// pushes one `out`. arity 0 marks a byte that is not a numeric opcode.
struct NumericSig {
  std::uint8_t arity = 0;
  ValType in = kUnknown;
  ValType out = kUnknown;
};

constexpr std::array<NumericSig, 256> make_numeric_sigs() {
  std::array<NumericSig, 256> t{};
  auto range = [&t](int lo, int hi, std::uint8_t arity, ValType in, ValType out) {
    for (int op = lo; op <= hi; ++op) t[op] = NumericSig{arity, in, out};
  };
  range(kI32Eqz, kI32Eqz, 1, I32, I32);
  range(kI32Eq, kI32GeU, 2, I32, I32);
  range(kI64Eqz, kI64Eqz, 1, I64, I32);
  range(kI64Eq, kI64GeU, 2, I64, I32);
  range(kF32Eq, kF32Ge, 2, F32, I32);
  range(kF64Eq, kF64Ge, 2, F64, I32);
  range(kI32Clz, kI32Popcnt, 1, I32, I32);
  range(kI32Add, kI32Rotr, 2, I32, I32);
  range(kI64Clz, kI64Popcnt, 1, I64, I64);
  range(kI64Add, kI64Rotr, 2, I64, I64);
  range(kF32Abs, kF32Sqrt, 1, F32, F32);
  range(kF32Add, kF32Copysign, 2, F32, F32);
  range(kF64Abs, kF64Sqrt, 1, F64, F64);
  range(kF64Add, kF64Copysign, 2, F64, F64);
  range(kI32WrapI64, kI32WrapI64, 1, I64, I32);
  range(kI32TruncF32S, kI32TruncF32U, 1, F32, I32);
  range(kI32TruncF64S, kI32TruncF64U, 1, F64, I32);
  range(kI64ExtendI32S, kI64ExtendI32U, 1, I32, I64);
  range(kI64TruncF32S, kI64TruncF32U, 1, F32, I64);
  range(kI64TruncF64S, kI64TruncF64U, 1, F64, I64);
  range(kF32ConvertI32S, kF32ConvertI32U, 1, I32, F32);
  range(kF32ConvertI64S, kF32ConvertI64U, 1, I64, F32);
  range(kF32DemoteF64, kF32DemoteF64, 1, F64, F32);
  range(kF64ConvertI32S, kF64ConvertI32U, 1, I32, F64);
  range(kF64ConvertI64S, kF64ConvertI64U, 1, I64, F64);
  range(kF64PromoteF32, kF64PromoteF32, 1, F32, F64);
  range(kI32ReinterpretF32, kI32ReinterpretF32, 1, F32, I32);
  range(kI64ReinterpretF64, kI64ReinterpretF64, 1, F64, I64);
  range(kF32ReinterpretI32, kF32ReinterpretI32, 1, I32, F32);
  range(kF64ReinterpretI64, kF64ReinterpretI64, 1, I64, F64);
  range(kI32Extend8S, kI32Extend16S, 1, I32, I32);
  range(kI64Extend8S, kI64Extend32S, 1, I64, I64);
  return t;
}

constexpr std::array<NumericSig, 256> kNumericSigs = make_numeric_sigs();

/// Value type and log2 natural alignment of the loads and stores, indexed
/// by opcode - kI32Load.
struct MemSig {
  ValType type;
  std::uint8_t align_log2;
};

constexpr MemSig kMemSigs[] = {
    {I32, 2}, {I64, 3}, {F32, 2}, {F64, 3},                      // loads
    {I32, 0}, {I32, 0}, {I32, 1}, {I32, 1},                      // i32 narrow loads
    {I64, 0}, {I64, 0}, {I64, 1}, {I64, 1}, {I64, 2}, {I64, 2},  // i64 narrow loads
    {I32, 2}, {I64, 3}, {F32, 2}, {F64, 3},                      // stores
    {I32, 0}, {I32, 1}, {I64, 0}, {I64, 1}, {I64, 2},            // narrow stores
};

/// One control frame. MVP blocks carry at most one result.
struct Frame {
  std::uint8_t kind;          // kBlock / kLoop / kIf / kElse
  bool live;                  // opened in emitting code; dead frames emit nothing
  bool unreachable;           // rest of the frame is stack-polymorphic
  std::uint8_t arity;         // 0 or 1
  ValType result;             // valid when arity == 1
  std::uint32_t height;       // operand height at entry
  std::uint32_t loop_target;  // kLoop: instr index of the loop head
  std::uint32_t fixups;       // chain of branches to patch at `end` (kNone: empty)
  std::uint32_t else_fixup;   // kIf: the br_if_false to patch at `else`/`end`
};

/// The single pass over one function body: type-checks every opcode
/// against the spec's operand stack and, in the same step, emits its
/// CompiledFunc instruction. Operand height is the type stack's size.
/// Dead code (after unreachable/br/br_table/return) is fully type-checked
/// but emits nothing.
class Translator {
 public:
  Translator(const Module& module, std::uint32_t func_index)
      : module_(module),
        body_(module.code[func_index]),
        type_(module.types[module.functions[func_index]]),
        reader_(body_.code),
        total_funcs_(module.total_funcs()) {
    bool has_table = !module.tables.empty();
    bool has_memory = !module.memories.empty();
    for (const auto& imp : module.imports) {
      has_table |= imp.kind == ImportKind::Table;
      has_memory |= imp.kind == ImportKind::Memory;
    }
    has_table_ = has_table;
    has_memory_ = has_memory;
  }

  Result<CompiledFunc> run() {
    out_.num_params = static_cast<std::uint32_t>(type_.params.size());
    out_.num_locals = out_.num_params + static_cast<std::uint32_t>(body_.locals.size());
    out_.result_arity = static_cast<std::uint32_t>(type_.results.size());
    vals_.reserve(64);
    frames_.reserve(16);
    push_frame(kBlock, static_cast<std::uint8_t>(out_.result_arity),
               out_.result_arity ? type_.results[0] : kUnknown);

    while (!frames_.empty()) {
      std::uint8_t op = 0;
      if (reader_.take_u8(op)) return Result<CompiledFunc>::err("validate: body ended without end");
      const Frame& top = frames_.back();
      live_ = top.live && !top.unreachable;
      if (!step(op)) return Result<CompiledFunc>::err(std::move(error_));
    }
    if (!reader_.at_end())
      return Result<CompiledFunc>::err("validate: trailing bytes after end");
    return std::move(out_);
  }

 private:
  bool fail(std::string message) {
    error_ = std::move(message);
    return false;
  }

  // -- immediates -------------------------------------------------------------

  /// Reads one LEB128 immediate of type `T` through the reader's core.
  template <typename T>
  bool read_leb(T& v) {
    if (const char* e = reader_.take_leb(v)) return fail(e);
    return true;
  }

  /// Reads the single-byte immediate that must be 0 (memory and table
  /// indices of the MVP); otherwise fails with `message`.
  bool read_zero(const char* message) {
    std::uint8_t b = 0;
    if (reader_.take_u8(b) || b != 0) return fail(message);
    return true;
  }

  /// Reads a block type: `arity` 0 (0x40) or 1 with its value type.
  bool read_block_type(std::uint8_t& arity, ValType& result) {
    std::uint8_t b = 0;
    if (const char* e = reader_.take_u8(b)) return fail(e);
    arity = b == 0x40 ? 0 : 1;
    result = static_cast<ValType>(b);
    if (b == 0x40 || b == 0x7f || b == 0x7e || b == 0x7d || b == 0x7c) return true;
    return fail("validate: unsupported block type");
  }

  // -- operand and control stacks (spec appendix algorithm) -----------------

  void push(ValType t) {
    vals_.push_back(t);
    if (live_ && vals_.size() > out_.max_operand_height)
      out_.max_operand_height = static_cast<std::uint32_t>(vals_.size());
  }

  bool pop_any(ValType& actual) {
    const Frame& frame = frames_.back();
    if (vals_.size() == frame.height) {
      if (!frame.unreachable) return fail("validate: value stack underflow");
      actual = kUnknown;
      return true;
    }
    actual = vals_.back();
    vals_.pop_back();
    return true;
  }

  bool pop(ValType expect) {
    ValType actual;
    if (!pop_any(actual)) return false;
    if (actual != kUnknown && actual != expect)
      return fail(std::string("validate: expected ") + val_type_name(expect) + " got " +
                  val_type_name(actual));
    return true;
  }

  void push_frame(std::uint8_t kind, std::uint8_t arity, ValType result) {
    frames_.push_back(Frame{kind, live_, false, arity, result,
                            static_cast<std::uint32_t>(vals_.size()),
                            static_cast<std::uint32_t>(out_.code.size()), kNone, kNone});
  }

  /// Pops the frame's results and checks nothing else is left above it.
  bool close_frame(const Frame& frame) {
    if (frame.arity && !pop(frame.result)) return false;
    if (vals_.size() != frame.height)
      return fail("validate: values left on stack at end of block");
    return true;
  }

  void set_unreachable() {
    Frame& frame = frames_.back();
    vals_.resize(frame.height);
    frame.unreachable = true;
  }

  /// Branch target at relative depth `depth`; a loop's label takes no
  /// values, any other label takes the block's results.
  bool label(std::uint32_t depth, Frame*& target) {
    if (depth >= frames_.size()) return fail("validate: branch depth out of range");
    target = &frames_[frames_.size() - 1 - depth];
    return true;
  }

  static std::uint8_t label_arity(const Frame& f) { return f.kind == kLoop ? 0 : f.arity; }

  bool pop_label(const Frame& target) {
    return !label_arity(target) || pop(target.result);
  }

  // -- emission ---------------------------------------------------------------

  /// Appends one instruction when the current code is live.
  std::uint32_t emit(std::uint16_t op, std::uint16_t aux = 0, std::uint32_t a = 0,
                     std::uint64_t imm = 0) {
    if (!live_) return kNone;
    out_.code.push_back(Instr{op, aux, a, imm});
    return static_cast<std::uint32_t>(out_.code.size() - 1);
  }

  /// Operands a branch to `target` taken at operand `height` discards
  /// below the label's values.
  static std::uint32_t branch_drop(const Frame& target, std::size_t height) {
    return static_cast<std::uint32_t>(height - target.height - label_arity(target));
  }

  /// Emits a keep/drop branch to `target` from operand height `height`.
  void emit_branch(std::uint16_t opcode, Frame& target, std::size_t height) {
    if (!live_) return;
    const bool to_loop = target.kind == kLoop;
    const std::uint32_t idx = emit(opcode, label_arity(target),
                                   to_loop ? target.loop_target : target.fixups,
                                   branch_drop(target, height));
    if (!to_loop) target.fixups = idx;
  }

  /// Resolves every pending branch of `frame` to `end_pc`. Each fixup's
  /// target field holds the next link of the chain until patched.
  void patch_frame(const Frame& frame, std::uint32_t end_pc) {
    for (std::uint32_t link = frame.fixups; link != kNone;) {
      std::uint32_t& slot = (link & kFixupTableFlag)
                                ? out_.tables[link & ~kFixupTableFlag].target
                                : out_.code[link].a;
      link = slot;
      slot = end_pc;
    }
    if (frame.else_fixup != kNone) out_.code[frame.else_fixup].a = end_pc;
  }

  bool step(std::uint8_t op);
  bool step_br_table();
  bool step_memory(std::uint8_t op);
  bool step_fc();

  const Module& module_;
  const FunctionBody& body_;
  const FuncType& type_;
  ByteReader reader_;
  const std::uint32_t total_funcs_;
  bool has_table_ = false;
  bool has_memory_ = false;
  bool live_ = true;  // the current op emits
  CompiledFunc out_;
  std::vector<ValType> vals_;
  std::vector<Frame> frames_;
  std::string error_;
};

bool Translator::step_br_table() {
  std::uint32_t count;
  if (!read_leb(count)) return false;
  const std::size_t targets_pos = reader_.pos();
  std::uint32_t depth;
  for (std::uint32_t i = 0; i <= count; ++i)
    if (!read_leb(depth)) return false;
  const std::size_t end_pos = reader_.pos();
  if (!pop(I32)) return false;
  Frame* def;
  if (!label(depth, def)) return false;
  const std::size_t height = vals_.size();
  const std::uint32_t base = static_cast<std::uint32_t>(out_.tables.size());
  reader_.seek(targets_pos);
  for (std::uint32_t i = 0; i <= count; ++i) {
    Frame* target;
    if (!read_leb(depth) || !label(depth, target)) return false;
    if (label_arity(*target) != label_arity(*def) ||
        (label_arity(*def) && target->result != def->result))
      return fail("validate: br_table target type mismatch");
    if (!live_) continue;
    const bool to_loop = target->kind == kLoop;
    out_.tables.push_back(BrTableEntry{to_loop ? target->loop_target : target->fixups,
                                       label_arity(*target), branch_drop(*target, height)});
    if (!to_loop)
      target->fixups = static_cast<std::uint32_t>(out_.tables.size() - 1) | kFixupTableFlag;
  }
  reader_.seek(end_pos);
  if (!pop_label(*def)) return false;
  emit(kBrTable, 0, base, count);
  set_unreachable();
  return true;
}

bool Translator::step_memory(std::uint8_t op) {
  const MemSig sig = kMemSigs[op - kI32Load];
  if (!has_memory_) return fail("validate: memory access without memory");
  std::uint32_t align, offset;
  if (!read_leb(align)) return false;
  if (align > sig.align_log2) return fail("validate: alignment exceeds natural alignment");
  if (!read_leb(offset)) return false;
  if (op <= kI64Load32U) {
    if (!pop(I32)) return false;
    push(sig.type);
  } else if (!pop(sig.type) || !pop(I32)) {
    return false;
  }
  emit(op, 0, 0, offset);
  return true;
}

bool Translator::step_fc() {
  std::uint32_t sub;
  if (!read_leb(sub)) return false;
  if (sub <= kI64TruncSatF64U) {
    if (!pop((sub & 2) ? F64 : F32)) return false;
    push(sub < kI64TruncSatF32S ? I32 : I64);
    emit(static_cast<std::uint16_t>(kInstrTruncSatBase + sub));
    return true;
  }
  if (sub == kMemoryCopy) {
    if (!read_zero("validate: memory.copy operands") ||
        !read_zero("validate: memory.copy operands"))
      return false;
    if (!pop(I32) || !pop(I32) || !pop(I32)) return false;
    emit(kInstrMemCopy);
    return true;
  }
  if (sub == kMemoryFill) {
    if (!read_zero("validate: memory.fill operand")) return false;
    if (!pop(I32) || !pop(I32) || !pop(I32)) return false;
    emit(kInstrMemFill);
    return true;
  }
  return fail("validate: unsupported 0xFC opcode");
}

bool Translator::step(std::uint8_t op) {
  switch (op) {
    case kUnreachable:
      emit(kUnreachable);
      set_unreachable();
      return true;
    case kNop:
      return true;

    case kBlock:
    case kLoop:
    case kIf: {
      std::uint8_t arity;
      ValType result;
      if (!read_block_type(arity, result)) return false;
      if (op == kIf && !pop(I32)) return false;
      const std::uint32_t cond = op == kIf ? emit(kInstrBrIfFalse) : kNone;
      push_frame(op, arity, result);
      frames_.back().else_fixup = cond;
      return true;
    }
    case kElse: {
      Frame& frame = frames_.back();
      if (!close_frame(frame)) return false;
      if (frame.kind != kIf) return fail("validate: else without if");
      // The then arm jumps over the else arm; the if's false edge lands here.
      live_ = frame.live;
      const std::uint32_t br = emit(kBr, 0, frame.fixups);
      if (live_) frame.fixups = br;
      if (frame.else_fixup != kNone) {
        out_.code[frame.else_fixup].a = static_cast<std::uint32_t>(out_.code.size());
        frame.else_fixup = kNone;
      }
      frame.kind = kElse;
      frame.unreachable = false;
      return true;
    }
    case kEnd: {
      const Frame frame = frames_.back();
      if (!close_frame(frame)) return false;
      if (frame.kind == kIf && frame.arity)
        return fail("validate: if with result type but no else");
      frames_.pop_back();
      live_ = frame.live;
      if (live_) patch_frame(frame, static_cast<std::uint32_t>(out_.code.size()));
      if (frame.arity) vals_.push_back(frame.result);
      if (frames_.empty()) emit(kReturn, static_cast<std::uint16_t>(out_.result_arity));
      return true;
    }

    case kBr: {
      std::uint32_t depth;
      Frame* target;
      if (!read_leb(depth) || !label(depth, target)) return false;
      emit_branch(kBr, *target, vals_.size());
      if (!pop_label(*target)) return false;
      set_unreachable();
      return true;
    }
    case kBrIf: {
      std::uint32_t depth;
      if (!read_leb(depth) || !pop(I32)) return false;
      Frame* target;
      if (!label(depth, target)) return false;
      emit_branch(kBrIf, *target, vals_.size());
      if (!pop_label(*target)) return false;
      if (label_arity(*target)) push(target->result);
      return true;
    }
    case kBrTable:
      return step_br_table();
    case kReturn: {
      if (out_.result_arity && !pop(type_.results[0])) return false;
      emit(kReturn, static_cast<std::uint16_t>(out_.result_arity));
      set_unreachable();
      return true;
    }
    case kCall:
    case kCallIndirect: {
      std::uint32_t idx;
      if (!read_leb(idx)) return false;
      if (op == kCall && idx >= total_funcs_) return fail("validate: call index oob");
      if (op == kCallIndirect) {
        if (idx >= module_.types.size()) return fail("validate: call_indirect type oob");
        if (!read_zero("validate: call_indirect table must be 0")) return false;
        if (!has_table_) return fail("validate: call_indirect without table");
        if (!pop(I32)) return false;
      }
      const FuncType& ft = op == kCall ? module_.func_type(idx) : module_.types[idx];
      for (auto it = ft.params.rbegin(); it != ft.params.rend(); ++it)
        if (!pop(*it)) return false;
      for (ValType t : ft.results) push(t);
      emit(op, 0, idx);
      return true;
    }

    case kDrop: {
      ValType t;
      if (!pop_any(t)) return false;
      emit(kDrop);
      return true;
    }
    case kSelect: {
      ValType a, b;
      if (!pop(I32) || !pop_any(a) || !pop_any(b)) return false;
      if (a != kUnknown && b != kUnknown && a != b)
        return fail("validate: select operand types differ");
      if (a == FuncRef || b == FuncRef) return fail("validate: select on reference type");
      push(a != kUnknown ? a : b);
      emit(kSelect);
      return true;
    }

    case kLocalGet:
    case kLocalSet:
    case kLocalTee: {
      std::uint32_t idx;
      if (!read_leb(idx)) return false;
      const std::size_t np = type_.params.size();
      if (idx >= np + body_.locals.size()) return fail("validate: local index oob");
      const ValType t = idx < np ? type_.params[idx] : body_.locals[idx - np];
      if (op != kLocalGet && !pop(t)) return false;
      if (op != kLocalSet) push(t);
      emit(op, 0, idx);
      return true;
    }
    case kGlobalGet:
    case kGlobalSet: {
      std::uint32_t idx;
      if (!read_leb(idx)) return false;
      auto type = module_global_type(module_, idx);
      if (!type.ok()) return fail(type.error());
      if (op == kGlobalGet) {
        push(type->first);
      } else {
        if (!type->second) return fail("validate: assignment to immutable global");
        if (!pop(type->first)) return false;
      }
      emit(op, 0, idx);
      return true;
    }

    case kMemorySize:
    case kMemoryGrow: {
      if (!read_zero(op == kMemorySize ? "validate: memory.size operand"
                                       : "validate: memory.grow operand"))
        return false;
      if (op == kMemoryGrow && !pop(I32)) return false;
      push(I32);
      emit(op);
      return true;
    }

    case kI32Const: {
      std::int32_t v = 0;
      if (!read_leb(v)) return false;
      push(I32);
      emit(kI32Const, 0, 0, static_cast<std::uint32_t>(v));
      return true;
    }
    case kI64Const: {
      std::int64_t v = 0;
      if (!read_leb(v)) return false;
      push(I64);
      emit(kI64Const, 0, 0, static_cast<std::uint64_t>(v));
      return true;
    }
    case kF32Const: {
      const std::uint8_t* v = nullptr;
      if (const char* e = reader_.take_bytes(4, v)) return fail(e);
      push(F32);
      emit(kF32Const, 0, 0, get_u32le(v));
      return true;
    }
    case kF64Const: {
      const std::uint8_t* v = nullptr;
      if (const char* e = reader_.take_bytes(8, v)) return fail(e);
      push(F64);
      emit(kF64Const, 0, 0, get_u64le(v));
      return true;
    }

    case kPrefixFC:
      return step_fc();

    default:
      break;
  }

  if (op >= kI32Load && op <= kI64Store32) return step_memory(op);

  const NumericSig sig = kNumericSigs[op];
  if (sig.arity == 0) return fail("validate: unknown opcode " + std::to_string(op));
  // Fast path: the top `arity` operands sit above the frame and have the
  // expected type. Underflow, Unknown or a mismatch takes the generic pops,
  // which produce the messages.
  const std::size_t height = vals_.size();
  if (height >= frames_.back().height + sig.arity && vals_[height - 1] == sig.in &&
      vals_[height - sig.arity] == sig.in) {
    vals_.resize(height - sig.arity);
  } else {
    for (int i = 0; i < sig.arity; ++i)
      if (!pop(sig.in)) return false;
  }
  push(sig.out);
  emit(op);
  return true;
}

}  // namespace

Result<CompiledFunc> compile_function(const Module& module, std::uint32_t func_index) {
  auto compiled = Translator(module, func_index).run();
  if (!compiled.ok())
    return Result<CompiledFunc>::err(compiled.error() + " (in function " +
                                     std::to_string(func_index + module.num_imported_funcs()) +
                                     ")");
  return compiled;
}

}  // namespace watz::wasm
