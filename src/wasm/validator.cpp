#include "wasm/validator.hpp"

#include "common/leb128.hpp"
#include "wasm/compile.hpp"
#include "wasm/opcodes.hpp"

namespace watz::wasm {

Result<std::pair<ValType, bool>> module_global_type(const Module& module,
                                                    std::uint32_t index) {
  std::uint32_t i = 0;
  for (const auto& imp : module.imports) {
    if (imp.kind != ImportKind::Global) continue;
    if (i == index) return std::pair{imp.global_type, imp.global_mutable};
    ++i;
  }
  const std::uint32_t local = index - i;
  if (local >= module.globals.size())
    return Result<std::pair<ValType, bool>>::err("validate: global index oob");
  return std::pair{module.globals[local].type, module.globals[local].mutable_};
}

namespace {

Status validate_const_expr(const Module& module, const Bytes& expr, ValType expected) {
  ByteReader r(expr);
  auto op = r.read_u8();
  if (!op.ok()) return Status::err("validate: empty const expr");
  switch (*op) {
    case kI32Const:
      return expected == ValType::I32 ? Status{}
                                      : Status::err("validate: const expr type mismatch");
    case kI64Const:
      return expected == ValType::I64 ? Status{}
                                      : Status::err("validate: const expr type mismatch");
    case kF32Const:
      return expected == ValType::F32 ? Status{}
                                      : Status::err("validate: const expr type mismatch");
    case kF64Const:
      return expected == ValType::F64 ? Status{}
                                      : Status::err("validate: const expr type mismatch");
    case kGlobalGet: {
      auto idx = r.read_uleb32();
      if (!idx.ok()) return Status::err(idx.error());
      if (*idx >= module.num_imported_globals())
        return Status::err("validate: const expr global.get must reference import");
      auto type = module_global_type(module, *idx);
      if (!type.ok()) return Status::err(type.error());
      if (type->second) return Status::err("validate: const expr global must be immutable");
      if (type->first != expected)
        return Status::err("validate: const expr type mismatch");
      return {};
    }
    default:
      return Status::err("validate: invalid const expr opcode");
  }
}

}  // namespace

Status validate_module_level(const Module& module) {
  // Export indices.
  std::uint32_t num_tables = module.tables.size();
  std::uint32_t num_memories = module.memories.size();
  std::uint32_t num_globals =
      module.num_imported_globals() + static_cast<std::uint32_t>(module.globals.size());
  for (const auto& imp : module.imports) {
    if (imp.kind == ImportKind::Table) ++num_tables;
    if (imp.kind == ImportKind::Memory) ++num_memories;
  }
  if (num_tables > 1) return Status::err("validate: more than one table");
  if (num_memories > 1) return Status::err("validate: more than one memory");

  for (const auto& ex : module.exports) {
    switch (ex.kind) {
      case ImportKind::Func:
        if (ex.index >= module.total_funcs()) return Status::err("validate: export func oob");
        break;
      case ImportKind::Table:
        if (ex.index >= num_tables) return Status::err("validate: export table oob");
        break;
      case ImportKind::Memory:
        if (ex.index >= num_memories) return Status::err("validate: export memory oob");
        break;
      case ImportKind::Global:
        if (ex.index >= num_globals) return Status::err("validate: export global oob");
        break;
    }
  }

  if (module.start) {
    if (*module.start >= module.total_funcs())
      return Status::err("validate: start function oob");
    const FuncType& ft = module.func_type(*module.start);
    if (!ft.params.empty() || !ft.results.empty())
      return Status::err("validate: start function must be [] -> []");
  }

  for (const auto& g : module.globals) {
    const Status st = validate_const_expr(module, g.init_expr, g.type);
    if (!st.ok()) return st;
  }
  for (const auto& seg : module.elements) {
    if (num_tables == 0) return Status::err("validate: element segment without table");
    const Status st = validate_const_expr(module, seg.offset_expr, ValType::I32);
    if (!st.ok()) return st;
    for (std::uint32_t fi : seg.func_indices)
      if (fi >= module.total_funcs()) return Status::err("validate: element func oob");
  }
  for (const auto& seg : module.data) {
    if (num_memories == 0) return Status::err("validate: data segment without memory");
    const Status st = validate_const_expr(module, seg.offset_expr, ValType::I32);
    if (!st.ok()) return st;
  }

  return {};
}

Status validate_module(const Module& module) {
  const Status st = validate_module_level(module);
  if (!st.ok()) return st;
  for (std::uint32_t i = 0; i < module.code.size(); ++i) {
    auto compiled = compile_function(module, i);
    if (!compiled.ok()) return Status::err(compiled.error());
  }
  return {};
}

}  // namespace watz::wasm
