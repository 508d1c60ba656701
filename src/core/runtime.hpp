// The WaTZ trusted runtime (SS III): a trusted application hosting Wasm
// sandboxes in the secure world.
//
// Launch path, exactly as Fig 4 instruments it:
//   1. the normal world places the AOT Wasm binary in a shared buffer and
//      triggers WaTZ through the secure monitor (Transition);
//   2. WaTZ allocates executable secure memory via the kernel extension and
//      copies the bytecode in (Memory allocation);
//   3. the bytecode is measured -- SHA-256, the future attestation claim
//      (Hashing);
//   4. the runtime environment is created and the WASI / WASI-RA host
//      symbols are registered (Initialisation);
//   5. the module is decoded, validated and AOT-translated (Loading);
//   6. linking + segment evaluation (Instantiate); then execution.
//
// The pipeline is split at the cacheable boundary: phases 1-3+5 produce a
// PreparedModule (everything derivable from the bytes alone), phases 4+6
// consume one and produce a LoadedApp. launch() composes both; the gateway
// module cache keeps PreparedModules so repeat launches of the same
// measurement skip the dominant Loading phase entirely.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "attestation/service.hpp"
#include "core/wasi_ra.hpp"
#include "crypto/fortuna.hpp"
#include "optee/trusted_os.hpp"
#include "tz/monitor.hpp"
#include "wasi/wasi.hpp"
#include "wasm/instance.hpp"

namespace watz::core {

/// Nanosecond cost of each launch phase (Fig 4 categories).
struct StartupBreakdown {
  std::uint64_t transition_ns = 0;
  std::uint64_t memory_allocation_ns = 0;
  std::uint64_t hashing_ns = 0;
  std::uint64_t initialisation_ns = 0;
  std::uint64_t loading_ns = 0;
  std::uint64_t instantiate_ns = 0;
  std::uint64_t execution_ns = 0;  ///< until the first instruction retires

  std::uint64_t total_ns() const {
    return transition_ns + memory_allocation_ns + hashing_ns + initialisation_ns +
           loading_ns + instantiate_ns + execution_ns;
  }
};

struct AppConfig {
  std::vector<std::string> args;
  /// Guest heap reservation charged against the secure heap (the paper's
  /// compile-time TA heap size; e.g. 12 MB for PolyBench, 25 MB for SQLite).
  std::size_t heap_bytes = 2 * 1024 * 1024;
  wasm::ExecMode mode = wasm::ExecMode::Aot;
};

/// Native-codegen tiering knobs (effective only where jit::jit_available():
/// x86-64 hosts with WATZ_DISABLE_JIT unset; everywhere else execution
/// falls back to the AOT stream wholesale).
struct JitTierOptions {
  bool enabled = true;
  /// Per-function call count before background compilation is queued.
  std::uint32_t hot_threshold = 64;

  bool operator==(const JitTierOptions&) const = default;
};

/// The cacheable product of the expensive launch phases: measured bytecode
/// in executable secure pages plus its decoded + validated + AOT-translated
/// form. Immutable once built; instantiation copies out of it, so one
/// PreparedModule serves any number of concurrent LoadedApps.
class PreparedModule {
 public:
  const crypto::Sha256Digest& measurement() const noexcept { return measurement_; }
  const wasm::Module& module() const noexcept { return module_; }
  const std::vector<wasm::CompiledFunc>& compiled() const noexcept { return compiled_; }
  wasm::ExecMode mode() const noexcept { return mode_; }
  /// Secure-heap footprint of the retained executable pages (what a module
  /// cache charges against its budget).
  std::size_t code_bytes() const noexcept { return code_memory_.size(); }
  /// Cost of the cold phases (Transition + Memory allocation + Hashing +
  /// Loading) paid when this module was prepared.
  const StartupBreakdown& load_cost() const noexcept { return load_cost_; }
  /// Native-codegen tiering state shared by every instance of this module
  /// (heat counters, compile queue, installed entries). Null when tiering
  /// is off, the mode is not Aot, or the host cannot run the JIT. The
  /// per-function entry installs are the only mutation; they are atomic
  /// and publication-safe, so this does not break module immutability for
  /// concurrent instances.
  const std::shared_ptr<wasm::jit::TierSet>& tier() const noexcept { return tier_; }

 private:
  friend class WatzRuntime;
  crypto::Sha256Digest measurement_{};
  wasm::Module module_;
  std::vector<wasm::CompiledFunc> compiled_;
  wasm::ExecMode mode_ = wasm::ExecMode::Aot;
  optee::SecureAlloc code_memory_;  // executable pages holding the bytecode
  StartupBreakdown load_cost_{};
  std::shared_ptr<wasm::jit::TierSet> tier_;
};

/// One sandboxed Wasm application loaded in the secure world.
///
/// Threading: an app is bound at instantiation to ONE secure monitor (a CPU
/// context of the SoC) and must only ever be driven from the thread that
/// owns that monitor. Apps bound to different monitors of the same device
/// invoke concurrently — that is the sandbox-pool execution model; see
/// core::SandboxSlot.
class LoadedApp {
 public:
  const crypto::Sha256Digest& measurement() const noexcept {
    return prepared_->measurement();
  }
  const StartupBreakdown& startup() const noexcept { return startup_; }
  wasm::Instance& instance() noexcept { return *instance_; }
  wasi::WasiEnv& wasi() noexcept { return *wasi_env_; }
  WasiRaEnv& wasi_ra() noexcept { return *wasi_ra_env_; }
  /// The shared prepared form this app was instantiated from.
  const std::shared_ptr<const PreparedModule>& prepared() const noexcept {
    return prepared_;
  }
  /// Secure-heap charge of the guest heap reservation (pool accounting).
  std::size_t heap_bytes() const noexcept { return heap_memory_.size(); }
  /// The secure monitor this app is bound to (identifies the sandbox slot
  /// that may drive it; pool handouts match on it).
  tz::SecureMonitor* monitor() const noexcept { return monitor_; }

  /// Invokes an exported function inside the sandbox, crossing the world
  /// boundary (charged by the monitor).
  Result<std::vector<wasm::Value>> invoke(const std::string& entry,
                                          std::span<const wasm::Value> args);

 private:
  friend class WatzRuntime;
  StartupBreakdown startup_{};
  std::shared_ptr<const PreparedModule> prepared_;
  optee::SecureAlloc heap_memory_;  // guest heap reservation
  /// Per-app RNG stream (WASI random_get etc.). Owned by the app so
  /// concurrent guests on different slots never contend on — or race —
  /// one shared generator.
  std::unique_ptr<crypto::Fortuna> rng_;
  std::unique_ptr<wasi::WasiEnv> wasi_env_;
  std::unique_ptr<WasiRaEnv> wasi_ra_env_;
  std::unique_ptr<wasm::ImportResolver> imports_;
  std::unique_ptr<wasm::Instance> instance_;
  tz::SecureMonitor* monitor_ = nullptr;
};

/// Threading: the runtime itself is thread-safe — prepare() serialises the
/// shared-memory staging on an internal mutex, counters are atomic, and
/// every LoadedApp gets its own RNG stream. What stays single-threaded is
/// each secure monitor: pass a distinct `monitor` (a core::SandboxSlot's)
/// to prepare()/instantiate() from each concurrent caller; callers that
/// pass none share the device's primary monitor and must serialise
/// themselves (gateway: core::DeviceControl's TEE mutex).
class WatzRuntime {
 public:
  WatzRuntime(optee::TrustedOs& os, tz::SecureMonitor& monitor,
              const attestation::AttestationService& attestation_service);

  /// Cold half of the pipeline: stages the binary through the shared
  /// buffer, copies it into executable secure pages, measures it and runs
  /// decode + validate (+ AOT translation). The result is immutable and
  /// shareable across launches. `monitor` is the secure-world entry point
  /// to charge (nullptr = the device's primary monitor).
  Result<std::shared_ptr<const PreparedModule>> prepare(
      ByteView wasm_binary, wasm::ExecMode mode = wasm::ExecMode::Aot,
      tz::SecureMonitor* monitor = nullptr);

  /// Warm half: allocates the guest heap, builds the runtime environment
  /// and instantiates the module. Only Transition + Memory allocation +
  /// Initialisation + Instantiate appear in the resulting startup()
  /// breakdown -- the Loading phase was paid once, in prepare(). The app
  /// is bound to `monitor` (nullptr = the device's primary monitor): every
  /// later invoke crosses that monitor, so apps instantiated on different
  /// sandbox-slot monitors execute concurrently.
  Result<std::unique_ptr<LoadedApp>> instantiate(
      std::shared_ptr<const PreparedModule> prepared, AppConfig config,
      tz::SecureMonitor* monitor = nullptr);

  /// Launches a Wasm application from a normal-world binary. The full
  /// paper flow: shared buffer -> secure copy -> measure -> load -> run
  /// until the first instruction (the start/_start entry is NOT invoked;
  /// call LoadedApp::invoke for that). Equivalent to prepare() +
  /// instantiate() with the phase costs merged.
  Result<std::unique_ptr<LoadedApp>> launch(ByteView wasm_binary, AppConfig config);

  /// The device's primary monitor: what prepare()/instantiate() bind to
  /// when no slot monitor is passed (single-threaded / control-plane use).
  tz::SecureMonitor& primary_monitor() noexcept { return monitor_; }

  /// Tiering knobs for modules prepared AFTER this call (a TierSet is
  /// built per PreparedModule at prepare() time).
  void set_jit_options(JitTierOptions options) noexcept { jit_options_ = options; }
  const JitTierOptions& jit_options() const noexcept { return jit_options_; }

  std::uint64_t apps_launched() const noexcept {
    return apps_launched_.load(std::memory_order_relaxed);
  }
  std::uint64_t modules_prepared() const noexcept {
    return modules_prepared_.load(std::memory_order_relaxed);
  }

 private:
  /// Derives a fresh per-app RNG seed from the runtime stream (serialised:
  /// Fortuna is not thread-safe and instantiates race across slots).
  Bytes next_app_seed();

  optee::TrustedOs& os_;
  tz::SecureMonitor& monitor_;
  const attestation::AttestationService& attestation_;
  std::mutex rng_mu_;  // guards app_rng_ (seed derivation only)
  crypto::Fortuna app_rng_;
  /// Serialises the shared-memory staging of prepare(): the world-shared
  /// buffer is one physical region per device, not per slot.
  std::mutex prepare_mu_;
  JitTierOptions jit_options_{};
  std::atomic<std::uint64_t> apps_launched_{0};
  std::atomic<std::uint64_t> modules_prepared_{0};
};

}  // namespace watz::core
