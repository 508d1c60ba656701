// Per-module tiering state: heat counters, the compile queue and the
// installed native entry pointers.
//
// One TierSet exists per prepared module (owned by PreparedModule, shared
// into every Instance via `Instance::tier`), so codegen is paid once per
// measurement fleet-wide and warm pool checkouts inherit native entries.
//
// Concurrency contract:
//   * note_call()/entry_for() run on SandboxSlot workers — lock-free.
//   * compile_pending()/compile_all() run on the control plane (the
//     gateway's background sweeper or an explicit test/bench call), never
//     on a worker. A mutex serialises compilers; installation is a single
//     release-store into the per-function entry pointer, which workers
//     load-acquire. A worker that reads the old null simply runs the AOT
//     stream one more time — there is no blocking anywhere on the hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "wasm/jit/jit.hpp"

namespace watz::wasm::jit {

struct TierConfig {
  /// Calls to one function before it is queued for native compilation.
  std::uint32_t hot_threshold = 64;
  /// Secure-heap accounting for executable pages: charge returns false when
  /// the reservation would exceed the enclave heap bound (the function then
  /// stays on the AOT stream); release undoes the charge (TierSet dtor).
  std::function<bool(std::size_t)> charge_code;
  std::function<void(std::size_t)> release_code;
};

/// Registry-owned instruments a TierSet's metric flushes feed (fleet-wide
/// counters). Null members are skipped; local totals always accumulate.
struct TierSinks {
  obs::Counter* compiles = nullptr;
  obs::Counter* native_entries = nullptr;
  obs::Counter* fallback_ops = nullptr;
  obs::Counter* fallback_call = nullptr;
  obs::Histogram* compile_ns = nullptr;
};

class TierSet {
 public:
  TierSet(const Module* module, std::span<const CompiledFunc> compiled,
          TierConfig config);
  ~TierSet();
  TierSet(const TierSet&) = delete;
  TierSet& operator=(const TierSet&) = delete;

  /// Hot path: the installed native entry for a module-local function
  /// index, or null while the function is still on the AOT stream.
  const void* entry_for(std::uint32_t index) const noexcept {
    return entries_[index].load(std::memory_order_acquire);
  }
  /// The entry pointers as one array (indexed like entry_for) for
  /// generated code's direct calls: an aligned 8-byte load is an acquire
  /// load on x86-64, pairing with compile_one's release-store.
  const std::atomic<const void*>* entry_table() const noexcept {
    return entries_.get();
  }

  /// Hot path: bump the heat counter; queues the function for background
  /// compilation when it crosses the threshold (exactly once).
  void note_call(std::uint32_t index) noexcept;

  /// Control plane: compile everything the heat counters queued. Returns
  /// the number of functions tiered up by this call. The batch is claimed
  /// under the compile lock, so a call that finds nothing left returns only
  /// after any concurrent sweep has installed what it claimed.
  std::size_t compile_pending();

  /// Control plane / tests: force-compile every eligible function now.
  std::size_t compile_all();

  /// Points the metric flushes at `sinks` (null = unbound). The sinks must
  /// outlive every flush: the owner of the TierSet keeps them.
  void bind_metrics(const TierSinks* sinks) noexcept {
    sinks_.store(sinks, std::memory_order_release);
  }

  /// Called by the native entry thunk at frame exit: flushes the frame's
  /// counts — the entry itself plus the direct native-to-native calls made
  /// under it, thunk runs and helper call dispatches — in one record.
  void record_exit(const JitContext& ctx) noexcept;

  std::uint64_t tier_up_compiles() const noexcept {
    return compiles_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t native_entries() const noexcept {
    return entries_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t fallback_ops() const noexcept {
    return fallback_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t fallback_call() const noexcept {
    return fallback_call_.load(std::memory_order_relaxed);
  }
  /// Coverage diagnostics: how many functions codegen refused, and the
  /// opcode that stopped the most recent refusal (0xffffffff while no
  /// function has refused; 0xffff for structural refusals).
  std::uint64_t refused_functions() const noexcept {
    return refused_functions_.load(std::memory_order_relaxed);
  }
  std::uint32_t last_refused_op() const noexcept {
    return last_refused_op_.load(std::memory_order_relaxed);
  }
  /// Page-rounded executable bytes currently mapped (charged to the
  /// secure heap).
  std::size_t native_code_bytes() const noexcept {
    return code_bytes_.load(std::memory_order_relaxed);
  }
  std::uint32_t hot_threshold() const noexcept { return config_.hot_threshold; }

  /// Snapshot accessors for the STATS tier-state surface (relaxed scans
  /// over the per-function atomics; approximate under concurrent calls,
  /// which is all a stats sample needs).
  std::uint32_t func_count() const noexcept { return func_count_; }
  /// Functions currently dispatching through an installed native entry.
  std::uint32_t native_functions() const noexcept {
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < func_count_; ++i)
      if (entries_[i].load(std::memory_order_relaxed) != nullptr) ++n;
    return n;
  }
  /// Module heat: the sum of every function's call counter.
  std::uint64_t total_calls() const noexcept {
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < func_count_; ++i)
      n += funcs_[i].calls.load(std::memory_order_relaxed);
    return n;
  }

 private:
  struct TierFunc {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<bool> requested{false};
    std::atomic<bool> failed{false};
  };

  /// Compile + W^X-map + charge + install one function. compile_mu_ held.
  bool compile_one(std::uint32_t index);

  const Module* module_;
  std::span<const CompiledFunc> compiled_;
  TierConfig config_;
  std::unique_ptr<TierFunc[]> funcs_;
  std::unique_ptr<std::atomic<const void*>[]> entries_;  ///< null = AOT stream
  std::uint32_t func_count_ = 0;  ///< size of funcs_ (snapshot scans)

  std::mutex pending_mu_;
  std::vector<std::uint32_t> pending_;

  std::mutex compile_mu_;  // serialises compilers; images_ lives under it
  std::vector<std::unique_ptr<ExecutableImage>> images_;

  std::atomic<std::size_t> code_bytes_{0};
  std::atomic<std::uint64_t> compiles_total_{0};
  std::atomic<std::uint64_t> entries_total_{0};
  std::atomic<std::uint64_t> fallback_total_{0};
  std::atomic<std::uint64_t> fallback_call_{0};
  std::atomic<std::uint64_t> refused_functions_{0};
  std::atomic<std::uint32_t> last_refused_op_{0xffffffff};

  std::atomic<const TierSinks*> sinks_{nullptr};
};

}  // namespace watz::wasm::jit
