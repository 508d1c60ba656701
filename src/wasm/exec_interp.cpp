// Interpreter-mode executor: walks the raw bytecode, decoding immediates on
// every visit and locating block ends by forward scanning. Deliberately the
// simple/slow execution strategy the paper contrasts with AOT (SS III:
// "interpreted is the simplest yet slowest").
#include <cstring>

#include "common/leb128.hpp"
#include "wasm/compile.hpp"
#include "wasm/exec_common.hpp"

namespace watz::wasm {

namespace {

struct Label {
  std::size_t start = 0;     // position after block header (loop continuation)
  std::uint32_t arity = 0;   // result arity (br transfer count for non-loops)
  std::size_t height = 0;    // operand height at entry
  bool is_loop = false;
};

inline void unwind(std::vector<std::uint64_t>& stack, std::size_t& sp,
                   std::size_t target_height, std::uint32_t keep) {
  if (sp - keep == target_height) return;
  std::memmove(&stack[target_height], &stack[sp - keep], keep * sizeof(std::uint64_t));
  sp = target_height + keep;
}

class Interp {
 public:
  Interp(Instance& inst, const FunctionBody& body, const FuncType& type,
         std::vector<std::uint64_t>& stack, std::size_t& sp, std::size_t base,
         int depth)
      : inst_(inst),
        body_(body),
        type_(type),
        stack_(stack),
        sp_(sp),
        base_(base),
        depth_(depth),
        reader_(body.code) {}

  void run() {
    labels_.push_back(Label{0, static_cast<std::uint32_t>(type_.results.size()),
                            sp_, false});
    while (true) {
      const std::uint8_t op = read_u8();
      if (step(op)) return;
    }
  }

 private:
  std::uint8_t read_u8() {
    auto v = reader_.read_u8();
    if (!v.ok()) trap(v.error());
    return *v;
  }
  std::uint32_t read_uleb32() {
    auto v = reader_.read_uleb32();
    if (!v.ok()) trap(v.error());
    return *v;
  }
  std::int32_t read_sleb32() {
    auto v = reader_.read_sleb32();
    if (!v.ok()) trap(v.error());
    return *v;
  }
  std::int64_t read_sleb64() {
    auto v = reader_.read_sleb64();
    if (!v.ok()) trap(v.error());
    return *v;
  }

  void push(std::uint64_t v) {
    if (sp_ >= stack_.size()) stack_.resize(stack_.size() * 2 + 16);
    stack_[sp_++] = v;
  }
  std::uint64_t pop() { return stack_[--sp_]; }

  std::uint32_t read_block_arity() {
    const std::uint8_t bt = read_u8();
    return bt == 0x40 ? 0u : 1u;
  }

  /// Transfers control to relative label depth `d`.
  void do_branch(std::uint32_t d) {
    if (d >= labels_.size()) trap("branch depth out of range");
    const std::size_t target_index = labels_.size() - 1 - d;
    const Label target = labels_[target_index];
    if (target.is_loop) {
      unwind(stack_, sp_, target.height, 0);
      labels_.resize(target_index + 1);
      reader_.seek(target.start);
    } else {
      // Scan forward from the block start for the matching end.
      auto end = find_block_end(body_.code, target.start, nullptr);
      if (!end.ok()) trap(end.error());
      unwind(stack_, sp_, target.height, target.arity);
      labels_.resize(target_index);
      reader_.seek(*end);
      if (labels_.empty()) do_return();  // branch targeted the function body
    }
  }

  void do_return() {
    const std::uint32_t keep = static_cast<std::uint32_t>(type_.results.size());
    std::memmove(&stack_[base_], &stack_[sp_ - keep], keep * sizeof(std::uint64_t));
    sp_ = base_ + keep;
    returned_ = true;
  }

  /// Executes one opcode. Returns true when the function is finished.
  bool step(std::uint8_t op);

  Instance& inst_;
  const FunctionBody& body_;
  const FuncType& type_;
  std::vector<std::uint64_t>& stack_;
  std::size_t& sp_;
  std::size_t base_;
  int depth_;
  ByteReader reader_;
  std::vector<Label> labels_;
  bool returned_ = false;
};

bool Interp::step(std::uint8_t op) {
  switch (op) {
    case kUnreachable:
      trap("unreachable executed");
    case kNop:
      return false;

    case kBlock: {
      const std::uint32_t arity = read_block_arity();
      labels_.push_back(Label{reader_.pos(), arity, sp_, false});
      return false;
    }
    case kLoop: {
      const std::uint32_t arity = read_block_arity();
      labels_.push_back(Label{reader_.pos(), arity, sp_, true});
      return false;
    }
    case kIf: {
      const std::uint32_t arity = read_block_arity();
      const std::size_t body_start = reader_.pos();
      const std::uint64_t cond = pop();
      labels_.push_back(Label{body_start, arity, sp_, false});
      if (cond == 0) {
        std::size_t else_pos = 0;
        auto end = find_block_end(body_.code, body_start, &else_pos);
        if (!end.ok()) trap(end.error());
        if (else_pos != 0) {
          reader_.seek(else_pos);  // execute the else arm
        } else {
          reader_.seek(*end);
          labels_.pop_back();
        }
      }
      return false;
    }
    case kElse: {
      // Reached by falling out of a live then-arm: jump to the block end.
      const Label frame = labels_.back();
      auto end = find_block_end(body_.code, frame.start, nullptr);
      if (!end.ok()) trap(end.error());
      labels_.pop_back();
      reader_.seek(*end);
      return false;
    }
    case kEnd:
      labels_.pop_back();
      if (labels_.empty()) {
        do_return();
        return true;
      }
      return false;

    case kBr:
      do_branch(read_uleb32());
      return returned_;
    case kBrIf: {
      const std::uint32_t d = read_uleb32();
      if (pop() != 0) {
        do_branch(d);
        return returned_;
      }
      return false;
    }
    case kBrTable: {
      const std::uint32_t count = read_uleb32();
      std::vector<std::uint32_t> targets(count);
      for (std::uint32_t i = 0; i < count; ++i) targets[i] = read_uleb32();
      const std::uint32_t fallback = read_uleb32();
      const std::uint32_t index = static_cast<std::uint32_t>(pop());
      do_branch(index < count ? targets[index] : fallback);
      return returned_;
    }
    case kReturn:
      do_return();
      return true;

    case kCall: {
      const std::uint32_t idx = read_uleb32();
      exec_call_interp(inst_, idx, stack_, sp_, depth_ + 1);
      return false;
    }
    case kCallIndirect: {
      const std::uint32_t type_index = read_uleb32();
      read_u8();  // table byte
      const std::uint32_t index = static_cast<std::uint32_t>(pop());
      if (index >= inst_.table.size()) trap("undefined element");
      const std::int64_t target = inst_.table[index];
      if (target < 0) trap("uninitialized element");
      const FuncSlot& callee = inst_.funcs[static_cast<std::uint32_t>(target)];
      if (!(callee.type == inst_.module().types[type_index]))
        trap("indirect call type mismatch");
      exec_call_interp(inst_, static_cast<std::uint32_t>(target), stack_, sp_, depth_ + 1);
      return false;
    }

    case kDrop:
      --sp_;
      return false;
    case kSelect: {
      const std::uint64_t c = pop();
      const std::uint64_t v2 = pop();
      if (c == 0) stack_[sp_ - 1] = v2;
      return false;
    }

    case kLocalGet: {
      const std::uint32_t idx = read_uleb32();
      push(stack_[base_ + idx]);
      return false;
    }
    case kLocalSet: {
      const std::uint32_t idx = read_uleb32();
      stack_[base_ + idx] = pop();
      return false;
    }
    case kLocalTee: {
      const std::uint32_t idx = read_uleb32();
      stack_[base_ + idx] = stack_[sp_ - 1];
      return false;
    }
    case kGlobalGet:
      push(inst_.globals[read_uleb32()].bits);
      return false;
    case kGlobalSet:
      inst_.globals[read_uleb32()].bits = pop();
      return false;

    case kMemorySize:
      read_u8();
      push(inst_.memory()->pages());
      return false;
    case kMemoryGrow: {
      read_u8();
      const std::uint32_t delta = static_cast<std::uint32_t>(stack_[sp_ - 1]);
      stack_[sp_ - 1] = static_cast<std::uint32_t>(inst_.memory()->grow(delta));
      return false;
    }

    case kI32Const:
      push(static_cast<std::uint32_t>(read_sleb32()));
      return false;
    case kI64Const:
      push(static_cast<std::uint64_t>(read_sleb64()));
      return false;
    case kF32Const: {
      auto v = reader_.read_bytes(4);
      if (!v.ok()) trap(v.error());
      push(get_u32le(v->data()));
      return false;
    }
    case kF64Const: {
      auto v = reader_.read_bytes(8);
      if (!v.ok()) trap(v.error());
      push(get_u64le(v->data()));
      return false;
    }

    case kPrefixFC: {
      const std::uint32_t sub = read_uleb32();
      if (sub <= kI64TruncSatF64U) {
        exec_trunc_sat(sub, stack_, sp_);
        return false;
      }
      if (sub == kMemoryCopy) {
        read_u8();
        read_u8();
        const std::uint32_t n = static_cast<std::uint32_t>(pop());
        const std::uint32_t src = static_cast<std::uint32_t>(pop());
        const std::uint32_t dst = static_cast<std::uint32_t>(pop());
        Memory* mem = inst_.memory();
        if (!mem->in_bounds(src, n) || !mem->in_bounds(dst, n))
          trap("out of bounds memory access");
        std::memmove(mem->data() + dst, mem->data() + src, n);
        return false;
      }
      if (sub == kMemoryFill) {
        read_u8();
        const std::uint32_t n = static_cast<std::uint32_t>(pop());
        const std::uint8_t value = static_cast<std::uint8_t>(pop());
        const std::uint32_t dst = static_cast<std::uint32_t>(pop());
        Memory* mem = inst_.memory();
        if (!mem->in_bounds(dst, n)) trap("out of bounds memory access");
        std::memset(mem->data() + dst, value, n);
        return false;
      }
      trap("unsupported 0xFC opcode");
    }

    default:
      break;
  }

  if (op >= kI32Load && op <= kI64Load32U) {
    read_uleb32();  // align
    const std::uint64_t offset = read_uleb32();
    const std::uint32_t addr = static_cast<std::uint32_t>(stack_[sp_ - 1]);
    stack_[sp_ - 1] = mem_load(*inst_.memory(), op, addr, offset);
    return false;
  }
  if (op >= kI32Store && op <= kI64Store32) {
    read_uleb32();  // align
    const std::uint64_t offset = read_uleb32();
    const std::uint64_t value = pop();
    const std::uint32_t addr = static_cast<std::uint32_t>(pop());
    mem_store(*inst_.memory(), op, addr, offset, value);
    return false;
  }

  // Numeric ops may push one value; reserve headroom.
  if (sp_ + 1 >= stack_.size()) stack_.resize(stack_.size() * 2 + 16);
  exec_numeric(op, stack_, sp_);
  return false;
}

}  // namespace

void exec_call_interp(Instance& inst, std::uint32_t func_index,
                      std::vector<std::uint64_t>& stack, std::size_t& sp, int depth) {
  if (depth > kMaxCallDepth) trap("call stack exhausted");
  const FuncSlot& slot = inst.funcs[func_index];
  if (slot.is_host) {
    call_host(inst, slot, stack, sp);
    return;
  }

  const FunctionBody& body = inst.module().code[slot.module_func_index];
  const std::size_t num_params = slot.type.params.size();
  const std::size_t num_locals = num_params + body.locals.size();
  const std::size_t base = sp - num_params;
  if (stack.size() < base + num_locals + 32)
    stack.resize(std::max(base + num_locals + 64, stack.size() * 2));
  for (std::size_t i = num_params; i < num_locals; ++i) stack[base + i] = 0;
  sp = base + num_locals;

  Interp interp(inst, body, slot.type, stack, sp, base, depth);
  interp.run();
}

}  // namespace watz::wasm
