// WebAssembly module validation. The module-level checks (table/memory
// counts, export indices, start function, constant expressions,
// element/data segments) live here; function bodies are type-checked by the
// AOT translator's single pass (compile.hpp), which validates and emits in
// one walk. A validated module cannot make the executors read out of bounds
// of their own structures (linear-memory accesses are checked at run time).
#pragma once

#include <utility>

#include "common/result.hpp"
#include "wasm/module.hpp"

namespace watz::wasm {

/// Module-level checks only; no function body is read.
Status validate_module_level(const Module& module);

/// Full validation: the module-level checks plus the translator's pass over
/// every body, its instruction stream discarded (Interp mode, tests).
Status validate_module(const Module& module);

/// Type and mutability of global `index` in the unified (imports-first)
/// index space.
Result<std::pair<ValType, bool>> module_global_type(const Module& module,
                                                    std::uint32_t index);

}  // namespace watz::wasm
