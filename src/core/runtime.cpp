#include "core/runtime.hpp"

#include <cstring>

#include "hw/clock.hpp"
#include "wasm/decoder.hpp"
#include "wasm/jit/tier.hpp"
#include "wasm/validator.hpp"

namespace watz::core {

WatzRuntime::WatzRuntime(optee::TrustedOs& os, tz::SecureMonitor& monitor,
                         const attestation::AttestationService& attestation_service)
    : os_(os), monitor_(monitor), attestation_(attestation_service) {
  // Per-runtime RNG for session keys etc., rooted in the device secret so
  // deterministic device fixtures produce reproducible runs.
  app_rng_.reseed(os.huk_subkey_derive("watz-runtime-rng-v1"));
}

Result<std::vector<wasm::Value>> LoadedApp::invoke(const std::string& entry,
                                                   std::span<const wasm::Value> args) {
  return monitor_->smc_call([&] { return instance_->invoke(entry, args); });
}

Bytes WatzRuntime::next_app_seed() {
  std::lock_guard<std::mutex> lock(rng_mu_);
  Bytes seed(32);
  app_rng_.fill(seed);
  return seed;
}

Result<std::shared_ptr<const PreparedModule>> WatzRuntime::prepare(
    ByteView wasm_binary, wasm::ExecMode mode, tz::SecureMonitor* monitor) {
  using Prepared = std::shared_ptr<const PreparedModule>;
  auto now = [] { return hw::monotonic_ns(); };
  tz::SecureMonitor& entry = monitor ? *monitor : monitor_;

  auto prepared = std::make_shared<PreparedModule>();
  prepared->mode_ = mode;

  // The world-shared staging buffer is one physical region per device;
  // concurrent prepares (two slots cold-missing at once) serialise here.
  std::lock_guard<std::mutex> stage_lock(prepare_mu_);

  // The normal world stages the binary in a world-shared buffer. OP-TEE
  // caps shared buffers (9 MB): oversized binaries fail here, exactly the
  // operational ceiling the paper reports.
  auto shared = os_.shared_memory().allocate(wasm_binary.size());
  if (!shared.ok()) return Result<Prepared>::err(shared.error());
  std::memcpy(shared->data(), wasm_binary.data(), wasm_binary.size());

  const std::uint64_t t_request = now();

  Result<Status> result = entry.smc_call([&]() -> Result<Status> {
    prepared->load_cost_.transition_ns = now() - t_request;

    // Phase: memory allocation (code half). The executable pages live as
    // long as the prepared module does -- a module cache pins them.
    std::uint64_t t0 = now();
    auto code_mem = os_.allocate_executable(wasm_binary.size());
    if (!code_mem.ok()) return Result<Status>::err(code_mem.error());
    prepared->code_memory_ = std::move(*code_mem);
    std::memcpy(prepared->code_memory_.data(), shared->data(), shared->size());
    prepared->load_cost_.memory_allocation_ns = now() - t0;

    // Phase: hashing. The measurement that will appear as the claim in
    // every piece of evidence an app of this module requests.
    t0 = now();
    prepared->measurement_ = crypto::sha256(prepared->code_memory_.view());
    prepared->load_cost_.hashing_ns = now() - t0;

    // Phase: loading. Decode, then one validate+translate pass per function
    // body (the dominant cost in Fig 4, ~73%). This is exactly what caching
    // a PreparedModule amortises away.
    t0 = now();
    auto module = wasm::decode_module(prepared->code_memory_.view());
    if (!module.ok()) return Result<Status>::err("watz: " + module.error());
    prepared->module_ = std::move(*module);
    if (mode != wasm::ExecMode::Aot) {
      const Status valid = wasm::validate_module(prepared->module_);
      if (!valid.ok()) return Result<Status>::err("watz: " + valid.error());
    } else {
      auto pc = wasm::precompile_module(prepared->module_);
      if (!pc.ok()) return Result<Status>::err("watz: " + pc.error());
      prepared->compiled_ = std::move(*pc);
      // Native-codegen tier: one TierSet per prepared module, so heat and
      // compiled images are shared by every instance of this measurement
      // (codegen paid once fleet-wide). Non-x86-64 hosts or an explicit
      // WATZ_DISABLE_JIT fall back to the AOT stream wholesale.
      if (jit_options_.enabled && wasm::jit::jit_available() &&
          !prepared->compiled_.empty()) {
        wasm::jit::TierConfig tier_config;
        tier_config.hot_threshold = jit_options_.hot_threshold;
        tier_config.charge_code = [os = &os_](std::size_t n) {
          return os->try_charge_code(n);
        };
        tier_config.release_code = [os = &os_](std::size_t n) {
          os->release_code(n);
        };
        prepared->tier_ = std::make_shared<wasm::jit::TierSet>(
            &prepared->module_,
            std::span<const wasm::CompiledFunc>(prepared->compiled_),
            std::move(tier_config));
      }
    }
    prepared->load_cost_.loading_ns = now() - t0;
    return Status{};
  });
  if (!result.ok()) return Result<Prepared>::err(result.error());
  if (!result->ok()) return Result<Prepared>::err(result->error());

  modules_prepared_.fetch_add(1, std::memory_order_relaxed);
  return Prepared(std::move(prepared));
}

Result<std::unique_ptr<LoadedApp>> WatzRuntime::instantiate(
    std::shared_ptr<const PreparedModule> prepared, AppConfig config,
    tz::SecureMonitor* monitor) {
  using App = std::unique_ptr<LoadedApp>;
  auto now = [] { return hw::monotonic_ns(); };

  if (config.mode != prepared->mode())
    return Result<App>::err(
        "watz: prepared module mode does not match AppConfig.mode");

  auto app = std::make_unique<LoadedApp>();
  app->monitor_ = monitor ? monitor : &monitor_;
  app->prepared_ = std::move(prepared);
  app->rng_ = std::make_unique<crypto::Fortuna>(next_app_seed());

  const std::uint64_t t_request = now();

  Result<Status> result = app->monitor_->smc_call([&]() -> Result<Status> {
    app->startup_.transition_ns = now() - t_request;

    // Phase: memory allocation (heap half; SS VI-B's second buffer).
    std::uint64_t t0 = now();
    auto heap_mem = os_.allocate(config.heap_bytes);
    if (!heap_mem.ok()) return Result<Status>::err(heap_mem.error());
    app->heap_memory_ = std::move(*heap_mem);
    app->startup_.memory_allocation_ns = now() - t0;

    // Phase: initialisation. Runtime environment + host symbol registration.
    t0 = now();
    app->wasi_env_ = std::make_unique<wasi::WasiEnv>(
        config.args,
        [os = &os_] {
          auto t = os->get_system_time();  // charged supplicant RPC (Fig 3a)
          return t.ok() ? t->nanos : hw::monotonic_ns();
        },
        app->rng_.get());
    app->wasi_ra_env_ = std::make_unique<WasiRaEnv>(
        attestation_, *os_.supplicant(), *app->rng_, app->prepared_->measurement());
    app->imports_ = std::make_unique<wasm::ImportResolver>();
    app->wasi_env_->register_imports(*app->imports_);
    app->wasi_ra_env_->register_imports(*app->imports_);
    app->startup_.initialisation_ns = now() - t0;

    // Phase: instantiate. Linking, segment evaluation, start function. The
    // module and its AOT image stay inside the shared prepared form
    // (aliasing pointers keep it alive); only per-instance state is built.
    t0 = now();
    std::shared_ptr<const wasm::Module> module_ptr(app->prepared_,
                                                   &app->prepared_->module());
    std::shared_ptr<const std::vector<wasm::CompiledFunc>> compiled_ptr(
        app->prepared_, &app->prepared_->compiled());
    auto instance = wasm::Instance::instantiate_shared(
        std::move(module_ptr), *app->imports_, app->prepared_->mode(),
        std::move(compiled_ptr), /*already_validated=*/true);
    if (!instance.ok()) return Result<Status>::err("watz: " + instance.error());
    app->instance_ = std::move(*instance);
    // Warm checkouts inherit any native entries already installed for this
    // measurement: the tier travels with the prepared module, not the app.
    app->instance_->tier = app->prepared_->tier_;
    app->startup_.instantiate_ns = now() - t0;
    return Status{};
  });
  if (!result.ok()) return Result<App>::err(result.error());
  if (!result->ok()) return Result<App>::err(result->error());

  apps_launched_.fetch_add(1, std::memory_order_relaxed);
  return app;
}

Result<std::unique_ptr<LoadedApp>> WatzRuntime::launch(ByteView wasm_binary,
                                                       AppConfig config) {
  using App = std::unique_ptr<LoadedApp>;
  // One world crossing for the whole pipeline, exactly like the paper's
  // single-shot launch: prepare() and instantiate() run nested inside this
  // SMC (nested calls don't re-cross), so their own transition slices are
  // ~zero and the outer crossing is the one Fig 4 charges.
  const std::uint64_t t_request = hw::monotonic_ns();
  return monitor_.smc_call([&]() -> Result<App> {
    const std::uint64_t transition_ns = hw::monotonic_ns() - t_request;
    auto prepared = prepare(wasm_binary, config.mode);
    if (!prepared.ok()) return Result<App>::err(prepared.error());
    auto app = instantiate(std::move(*prepared), std::move(config));
    if (!app.ok()) return app;

    // A one-shot launch pays both halves; merge so startup() reads exactly
    // as the paper's Fig 4 single-pipeline breakdown.
    const StartupBreakdown& cold = (*app)->prepared_->load_cost();
    StartupBreakdown& s = (*app)->startup_;
    s.transition_ns += cold.transition_ns + transition_ns;
    s.memory_allocation_ns += cold.memory_allocation_ns;
    s.hashing_ns = cold.hashing_ns;
    s.loading_ns = cold.loading_ns;
    return app;
  });
}

}  // namespace watz::core
