// Module instantiation and execution entry points.
//
// An Instance owns the sandbox: linear memory, globals, table and the
// executable form of the code. Two execution modes mirror the paper's
// runtime (SS III "Execution modes"):
//   * ExecMode::Interp — a naive in-place bytecode interpreter;
//   * ExecMode::Aot    — code pre-translated at load time into a resolved
//     instruction stream (the architectural stand-in for WAMR's AOT mode:
//     translate once when the module is loaded, no compiler at run time).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "wasm/module.hpp"

namespace watz::wasm {

class Instance;

namespace jit {
class TierSet;
}

/// Host (native) function: receives the instance (for memory access) and the
/// argument values; returns results or a trap message.
using HostFn =
    std::function<Result<std::vector<Value>>(Instance&, std::span<const Value>)>;

/// Import database: (module, name) -> host function. WaTZ registers the
/// WASI and WASI-RA implementations here before instantiating guest code.
class ImportResolver {
 public:
  void add_function(std::string module, std::string name, FuncType type, HostFn fn);

  struct Entry {
    FuncType type;
    HostFn fn;
  };
  const Entry* find(const std::string& module, const std::string& name) const;

 private:
  std::unordered_map<std::string, Entry> funcs_;  // key: module + '\0' + name
};

/// Sandboxed linear memory. All guest accesses are bounds-checked; the
/// backing store is private to the instance (the Wasm SFI property WaTZ
/// relies on to isolate mutually distrusting applications, SS III).
class Memory {
 public:
  explicit Memory(Limits limits);

  std::uint32_t pages() const noexcept { return static_cast<std::uint32_t>(data_.size() / kPageSize); }
  std::size_t byte_size() const noexcept { return data_.size(); }
  std::uint8_t* data() noexcept { return data_.data(); }
  const std::uint8_t* data() const noexcept { return data_.data(); }

  /// Grows by `delta` pages; returns previous page count or -1 on failure.
  std::int32_t grow(std::uint32_t delta);

  bool in_bounds(std::uint64_t addr, std::uint64_t len) const noexcept {
    return addr + len <= data_.size() && addr + len >= addr;
  }

  /// Host-side checked accessors (used by WASI shims).
  Status copy_in(std::uint32_t addr, ByteView src);
  Result<Bytes> copy_out(std::uint32_t addr, std::uint32_t len) const;

 private:
  std::vector<std::uint8_t> data_;
  Limits limits_;
};

enum class ExecMode { Interp, Aot };

/// Pre-decoded instruction for the AOT executor (see compile.cpp).
struct Instr {
  std::uint16_t op = 0;
  std::uint16_t aux = 0;
  std::uint32_t a = 0;
  std::uint64_t imm = 0;
};

struct BrTableEntry {
  std::uint32_t target = 0;
  std::uint16_t keep = 0;
  std::uint32_t drop = 0;
};

struct CompiledFunc {
  std::vector<Instr> code;
  std::vector<BrTableEntry> tables;
  std::uint32_t num_params = 0;
  std::uint32_t num_locals = 0;  // params + declared locals
  std::uint32_t result_arity = 0;
  std::uint32_t max_operand_height = 0;
};

/// One callable function slot in the unified index space.
struct FuncSlot {
  FuncType type;
  bool is_host = false;
  HostFn host;                       // if is_host
  std::uint32_t module_func_index = 0;  // index into Module::code otherwise
};

struct GlobalSlot {
  ValType type;
  bool mutable_ = false;
  std::uint64_t bits = 0;
};

class Instance {
 public:
  /// Decodes nothing: takes a decoded module, validates it, links imports,
  /// evaluates segments and (in AOT mode) pre-compiles every function —
  /// the AOT translation validates as it goes, so no separate pass runs
  /// there. Runs the start function if present.
  static Result<std::unique_ptr<Instance>> instantiate(Module module,
                                                       const ImportResolver& imports,
                                                       ExecMode mode);

  /// Zero-copy variant: the module (and its AOT form) stay owned by the
  /// caller -- typically a module cache -- and are only referenced. Both
  /// are immutable during execution, so any number of instances can share
  /// one prepared image; per-instance state (memory, globals, table) is
  /// still private.
  ///
  /// `precompiled` lets the embedder run the AOT translation ("loading"
  /// phase in the paper's Fig 4 breakdown) separately via
  /// precompile_module() and hand the result in; when null and mode==Aot,
  /// translation happens here.
  ///
  /// `already_validated` skips the validation pass for modules the embedder
  /// has run through validate_module() before (e.g. a cached prepared
  /// module being re-instantiated); passing an unvalidated module with the
  /// flag set is undefined behaviour at execution time.
  static Result<std::unique_ptr<Instance>> instantiate_shared(
      std::shared_ptr<const Module> module, const ImportResolver& imports,
      ExecMode mode,
      std::shared_ptr<const std::vector<CompiledFunc>> precompiled = nullptr,
      bool already_validated = false);

  /// Invokes an exported function by name.
  Result<std::vector<Value>> invoke(const std::string& export_name,
                                    std::span<const Value> args);

  /// Resets all per-instance sandbox state -- linear memory (re-created at
  /// its initial size), globals, table, element/data segments, start
  /// function -- to the freshly-instantiated state. Instance pools call
  /// this before handing a sandbox to the next caller so no guest state
  /// leaks between invocations.
  Status reinitialize();

  /// Invokes by unified function index (used by call opcodes and tests).
  Result<std::vector<Value>> invoke_index(std::uint32_t func_index,
                                          std::span<const Value> args);

  Memory* memory() noexcept { return memory_ ? memory_.get() : nullptr; }
  const Module& module() const noexcept { return *module_; }
  ExecMode mode() const noexcept { return mode_; }

  Result<std::uint32_t> find_exported_func(const std::string& name) const;

  /// Opaque per-instance context slot for the embedder (WaTZ stores the
  /// per-application WASI state here).
  void set_user_data(void* p) noexcept { user_data_ = p; }
  void* user_data() const noexcept { return user_data_; }

  /// Executor internals (public to the execution engine only by convention).
  std::vector<FuncSlot> funcs;
  std::vector<GlobalSlot> globals;
  std::vector<std::int64_t> table;  // -1 == null, otherwise func index
  /// Parallel to module().code (AOT mode). A view into the shared compiled
  /// store: instances of one prepared module all read the same image.
  std::span<const CompiledFunc> compiled;
  /// Optional native-codegen tier shared by every instance of one prepared
  /// module (owned by the embedder, e.g. PreparedModule). When set, the AOT
  /// entry point dispatches hot functions to installed native entries and
  /// feeds the per-function heat counters. Null means pure AOT-stream.
  std::shared_ptr<jit::TierSet> tier;

 private:
  Instance() = default;

  /// (Re)builds memory/globals/table and evaluates segments from module_.
  Status reset_state();

  std::shared_ptr<const Module> module_;
  std::shared_ptr<const std::vector<CompiledFunc>> compiled_store_;
  std::unique_ptr<Memory> memory_;
  ExecMode mode_ = ExecMode::Aot;
  void* user_data_ = nullptr;
};

/// Runs the module-level checks and the AOT translation (which validates each
/// body as it emits) for every function; an invalid module yields the same
/// `validate: …` error as validate_module().
Result<std::vector<CompiledFunc>> precompile_module(const Module& module);

/// Thrown by executors on a sandbox trap; converted to Result at the
/// invoke() boundary.
struct TrapException {
  std::string message;
};

/// Entry points implemented by the two executors.
void exec_call_aot(Instance& inst, std::uint32_t func_index,
                   std::vector<std::uint64_t>& stack, std::size_t& sp, int depth);
void exec_call_interp(Instance& inst, std::uint32_t func_index,
                      std::vector<std::uint64_t>& stack, std::size_t& sp, int depth);

inline constexpr int kMaxCallDepth = 512;

}  // namespace watz::wasm
