// Guest binaries the workloads send, and the native code each CPU-bound
// workload divides by.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "wasm/types.hpp"

namespace perfbench {

/// warm-rpc / batch-fanout guest: add(a, b) -> a + b (i32), one page.
Bytes adder_module();

/// tenant-onboard guest: ~`target_bytes` of straight-line i64 arithmetic
/// over seeded constants, exporting entry() -> i64 which calls every
/// function, sums their results and adds the u64 nonce stored in an 8-byte
/// data segment at address 0. A module is made unique per operation by
/// patching that nonce, so every load is a distinct measurement while the
/// expensive generation happens once, before any timer starts.
/// Size of the tenant-onboard modules (and of the per-layer wasm, core and
/// crypto inputs, so those rates are measured on the onboarding sizes).
inline constexpr std::size_t kOnboardModuleBytes = 256 * 1024;

class OnboardModule {
 public:
  OnboardModule(Rng& rng, std::size_t target_bytes);
  /// The binary with `nonce` patched in.
  Bytes with_nonce(std::uint64_t nonce) const;
  /// What entry() returns for that binary.
  std::int64_t expected(std::uint64_t nonce) const {
    return static_cast<std::int64_t>(sum_ + nonce);
  }
  std::size_t size() const noexcept { return binary_.size(); }

 private:
  Bytes binary_;
  std::size_t nonce_offset_ = 0;
  std::uint64_t sum_ = 0;
};

/// One guest-kernels kernel: the wasm binary, the gateway invoke arguments
/// and the same algorithm compiled natively.
struct Kernel {
  std::string name;
  Bytes binary;
  std::string entry;
  std::vector<wasm::Value> args;       ///< the timed invoke
  std::vector<wasm::Value> warm_args;  ///< cheap invoke that heats the tier
  /// Runs the native build once and returns its result as the guest would
  /// (f64 checksum bits, or the i32 correct-count).
  std::function<std::uint64_t()> native;
  /// The guest's result in the same encoding as `native`.
  std::function<std::uint64_t(const std::vector<wasm::Value>&)> guest_result;
  /// `native`'s time at nominal host speed (see kNominalReferenceMs).
  double nominal_native_ms = 0.0;
};

/// gem (PolyBench f64 mul-add), flo (PolyBench integer Floyd-Warshall)
/// and genann (the fig8 train_at step over a seeded Iris-like set baked
/// into the module), in round order.
std::vector<Kernel> make_kernels(Rng& rng);

/// Guest heap of every invoke the benchmark sends: holds the kernels'
/// 16-page memories and keeps the pooled kernels well inside the default
/// ModuleCacheConfig budget (four kernels at a 2 MiB heap overflowed it;
/// see README).
inline constexpr std::uint64_t kGuestHeapBytes = 1 << 20;

/// Host speed on a shared machine drifts by tens of percent within
/// minutes, so the time of a CPU-bound operation is only comparable across
/// runs as a ratio to native work timed right next to it. The end-to-end
/// metrics report such times at a fixed nominal host speed: ratio x the
/// native work's nominal time. Nominal is this machine class: reference_work()
/// took kNominalReferenceMs, and each kernel's native build its
/// Kernel::nominal_native_ms, on a 4-vCPU 2.1 GHz x86-64 VM. The constants
/// only fix the unit; changing them would rescale every later comparison.
inline constexpr double kNominalReferenceMs = 3.4;

/// The tenant-onboard yardstick: a fixed amount of benchmark-owned work
/// shaped like onboarding (64-bit limb multiplies as in P-256, ARX
/// compression over a 256 KiB buffer as in SHA-256, LEB128 scanning as in
/// the decoder). Returns a checksum that must never change.
std::uint64_t reference_work();
std::uint64_t reference_checksum();
/// Median wall time of `reps` reference_work() calls, in ns; a changed
/// checksum fails `report`.
double time_reference(Report& report, int reps);

}  // namespace perfbench
