#include "wasm/instance.hpp"

#include <cstring>

#include "common/leb128.hpp"
#include "wasm/compile.hpp"
#include "wasm/exec_common.hpp"
#include "wasm/opcodes.hpp"
#include "wasm/validator.hpp"

namespace watz::wasm {

// ---------------------------------------------------------------------------
// ImportResolver

void ImportResolver::add_function(std::string module, std::string name, FuncType type,
                                  HostFn fn) {
  funcs_[module + '\0' + name] = Entry{std::move(type), std::move(fn)};
}

const ImportResolver::Entry* ImportResolver::find(const std::string& module,
                                                  const std::string& name) const {
  const auto it = funcs_.find(module + '\0' + name);
  return it == funcs_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Memory

Memory::Memory(Limits limits) : limits_(limits) {
  data_.resize(static_cast<std::size_t>(limits.min) * kPageSize);
}

std::int32_t Memory::grow(std::uint32_t delta) {
  const std::uint64_t current = pages();
  const std::uint64_t target = current + delta;
  const std::uint64_t cap = limits_.has_max ? limits_.max : 65536;
  if (target > cap || target > 65536) return -1;
  data_.resize(static_cast<std::size_t>(target) * kPageSize);
  return static_cast<std::int32_t>(current);
}

Status Memory::copy_in(std::uint32_t addr, ByteView src) {
  if (!in_bounds(addr, src.size())) return Status::err("memory copy_in out of bounds");
  std::memcpy(data_.data() + addr, src.data(), src.size());
  return {};
}

Result<Bytes> Memory::copy_out(std::uint32_t addr, std::uint32_t len) const {
  if (!in_bounds(addr, len)) return Result<Bytes>::err("memory copy_out out of bounds");
  return Bytes(data_.begin() + addr, data_.begin() + addr + len);
}

// ---------------------------------------------------------------------------
// Instantiation

namespace {

Result<std::uint64_t> eval_const_expr(const Bytes& expr,
                                      const std::vector<GlobalSlot>& globals) {
  ByteReader r(expr);
  auto op = r.read_u8();
  if (!op.ok()) return Result<std::uint64_t>::err("empty const expr");
  switch (*op) {
    case kI32Const: {
      auto v = r.read_sleb32();
      if (!v.ok()) return Result<std::uint64_t>::err(v.error());
      return static_cast<std::uint64_t>(static_cast<std::uint32_t>(*v));
    }
    case kI64Const: {
      auto v = r.read_sleb64();
      if (!v.ok()) return Result<std::uint64_t>::err(v.error());
      return static_cast<std::uint64_t>(*v);
    }
    case kF32Const: {
      auto v = r.read_bytes(4);
      if (!v.ok()) return Result<std::uint64_t>::err(v.error());
      return std::uint64_t{get_u32le(v->data())};
    }
    case kF64Const: {
      auto v = r.read_bytes(8);
      if (!v.ok()) return Result<std::uint64_t>::err(v.error());
      return get_u64le(v->data());
    }
    case kGlobalGet: {
      auto idx = r.read_uleb32();
      if (!idx.ok()) return Result<std::uint64_t>::err(idx.error());
      if (*idx >= globals.size()) return Result<std::uint64_t>::err("const expr global oob");
      return globals[*idx].bits;
    }
    default:
      return Result<std::uint64_t>::err("invalid const expr");
  }
}

}  // namespace

Result<std::vector<CompiledFunc>> precompile_module(const Module& module) {
  const Status valid = validate_module_level(module);
  if (!valid.ok()) return Result<std::vector<CompiledFunc>>::err(valid.error());
  std::vector<CompiledFunc> compiled;
  compiled.reserve(module.code.size());
  for (std::uint32_t i = 0; i < module.code.size(); ++i) {
    auto cf = compile_function(module, i);
    if (!cf.ok()) return Result<std::vector<CompiledFunc>>::err(cf.error());
    compiled.push_back(std::move(*cf));
  }
  return compiled;
}

Result<std::unique_ptr<Instance>> Instance::instantiate(Module module,
                                                       const ImportResolver& imports,
                                                       ExecMode mode) {
  return instantiate_shared(std::make_shared<const Module>(std::move(module)), imports,
                            mode);
}

Result<std::unique_ptr<Instance>> Instance::instantiate_shared(
    std::shared_ptr<const Module> module_ptr, const ImportResolver& imports,
    ExecMode mode, std::shared_ptr<const std::vector<CompiledFunc>> precompiled,
    bool already_validated) {
  using InstancePtr = std::unique_ptr<Instance>;
  const Module& module = *module_ptr;

  // AOT pre-translation of every function (the "loading" phase of Fig 4),
  // unless the embedder already ran precompile_module(). Translating
  // validates too, so that path needs no separate validation walk. The
  // compiled image is immutable at run time, so a caller-provided store is
  // shared, not copied.
  const bool translate =
      mode == ExecMode::Aot &&
      !(precompiled && precompiled->size() == module.code.size() && !module.code.empty());
  if (translate) {
    auto compiled = precompile_module(module);
    if (!compiled.ok()) return Result<InstancePtr>::err(compiled.error());
    precompiled = std::make_shared<const std::vector<CompiledFunc>>(std::move(*compiled));
  } else if (!already_validated) {
    const Status valid = validate_module(module);
    if (!valid.ok()) return Result<InstancePtr>::err(valid.error());
  }

  auto inst = std::unique_ptr<Instance>(new Instance());
  inst->mode_ = mode;

  // Link imports. Only function imports are supported (WaTZ apps import the
  // WASI surface; memories/tables/globals are module-defined).
  for (const Import& imp : module.imports) {
    switch (imp.kind) {
      case ImportKind::Func: {
        const auto* entry = imports.find(imp.module, imp.name);
        if (entry == nullptr)
          return Result<InstancePtr>::err("unresolved import " + imp.module + "." +
                                          imp.name);
        if (!(entry->type == module.types[imp.type_index]))
          return Result<InstancePtr>::err("import type mismatch for " + imp.module +
                                          "." + imp.name);
        inst->funcs.push_back(FuncSlot{entry->type, true, entry->fn, 0});
        break;
      }
      case ImportKind::Memory:
      case ImportKind::Table:
      case ImportKind::Global:
        return Result<InstancePtr>::err("only function imports are supported");
    }
  }

  for (std::uint32_t i = 0; i < module.functions.size(); ++i) {
    inst->funcs.push_back(
        FuncSlot{module.types[module.functions[i]], false, nullptr, i});
  }

  inst->module_ = std::move(module_ptr);
  const Status state = inst->reset_state();
  if (!state.ok()) return Result<InstancePtr>::err(state.error());

  if (mode == ExecMode::Aot) {
    inst->compiled_store_ = std::move(precompiled);
    inst->compiled = *inst->compiled_store_;
  }

  if (inst->module_->start) {
    auto r = inst->invoke_index(*inst->module_->start, {});
    if (!r.ok()) return Result<InstancePtr>::err("start function trapped: " + r.error());
  }
  return inst;
}

Status Instance::reset_state() {
  const Module& module = *module_;

  if (!module.memories.empty())
    memory_ = std::make_unique<Memory>(module.memories[0]);
  if (!module.tables.empty()) table.assign(module.tables[0].min, -1);

  // Globals (imports excluded -> index space starts at module globals).
  globals.clear();
  for (const Global& g : module.globals) {
    auto bits = eval_const_expr(g.init_expr, globals);
    if (!bits.ok()) return Status::err(bits.error());
    globals.push_back(GlobalSlot{g.type, g.mutable_, *bits});
  }

  // Element segments.
  for (const ElementSegment& seg : module.elements) {
    auto offset = eval_const_expr(seg.offset_expr, globals);
    if (!offset.ok()) return Status::err(offset.error());
    const std::uint64_t off = static_cast<std::uint32_t>(*offset);
    if (off + seg.func_indices.size() > table.size())
      return Status::err("element segment out of bounds");
    for (std::size_t i = 0; i < seg.func_indices.size(); ++i)
      table[off + i] = seg.func_indices[i];
  }

  // Data segments.
  for (const DataSegment& seg : module.data) {
    auto offset = eval_const_expr(seg.offset_expr, globals);
    if (!offset.ok()) return Status::err(offset.error());
    if (memory_ == nullptr) return Status::err("data segment without memory");
    const Status st = memory_->copy_in(static_cast<std::uint32_t>(*offset), seg.data);
    if (!st.ok()) return Status::err("data segment out of bounds");
  }
  return {};
}

Status Instance::reinitialize() {
  const Status state = reset_state();
  if (!state.ok()) return state;
  if (module_->start) {
    auto r = invoke_index(*module_->start, {});
    if (!r.ok()) return Status::err("start function trapped: " + r.error());
  }
  return {};
}

Result<std::uint32_t> Instance::find_exported_func(const std::string& name) const {
  for (const Export& ex : module_->exports) {
    if (ex.kind == ImportKind::Func && ex.name == name) return ex.index;
  }
  return Result<std::uint32_t>::err("no exported function named '" + name + "'");
}

Result<std::vector<Value>> Instance::invoke(const std::string& export_name,
                                            std::span<const Value> args) {
  auto idx = find_exported_func(export_name);
  if (!idx.ok()) return Result<std::vector<Value>>::err(idx.error());
  return invoke_index(*idx, args);
}

Result<std::vector<Value>> Instance::invoke_index(std::uint32_t func_index,
                                                  std::span<const Value> args) {
  if (func_index >= funcs.size())
    return Result<std::vector<Value>>::err("function index out of range");
  const FuncType& type = funcs[func_index].type;
  if (args.size() != type.params.size())
    return Result<std::vector<Value>>::err("argument count mismatch");
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i].type != type.params[i])
      return Result<std::vector<Value>>::err("argument type mismatch at " +
                                             std::to_string(i));
  }

  std::vector<std::uint64_t> stack(1024);
  std::size_t sp = 0;
  for (const Value& v : args) stack[sp++] = v.bits;

  try {
    GuestSpan guest_span;
    if (mode_ == ExecMode::Aot) {
      exec_call_aot(*this, func_index, stack, sp, 0);
    } else {
      exec_call_interp(*this, func_index, stack, sp, 0);
    }
  } catch (const TrapException& trap_ex) {
    return Result<std::vector<Value>>::err("trap: " + trap_ex.message);
  }

  std::vector<Value> results;
  results.reserve(type.results.size());
  for (std::size_t i = 0; i < type.results.size(); ++i)
    results.push_back(Value{type.results[i], stack[i]});
  return results;
}

}  // namespace watz::wasm
