#include "gateway/module_cache.hpp"

#include "hw/clock.hpp"
#include "wasm/jit/tier.hpp"

namespace watz::gateway {

Result<AppLease> ModuleCache::acquire(const crypto::Sha256Digest& measurement,
                                      ByteView binary, const core::AppConfig& config,
                                      tz::SecureMonitor* monitor) {
  std::lock_guard<std::mutex> lock(mu_);
  tz::SecureMonitor* const bound = monitor ? monitor : &runtime_.primary_monitor();
  auto it = entries_.find(measurement);

  // Cold miss: run the full pipeline and retain the prepared form.
  if (it == entries_.end()) {
    if (binary.empty())
      return Result<AppLease>::err("module cache: measurement unknown and no binary");
    misses_.add();
    const std::uint64_t t0 = hw::monotonic_ns();  // cold launch pays it all
    auto inserted = insert(measurement, binary, config.mode, bound);
    if (!inserted.ok()) return Result<AppLease>::err(inserted.error());
    it = *inserted;

    auto app = runtime_.instantiate(it->second.prepared, config, bound);
    if (!app.ok()) return Result<AppLease>::err(app.error());
    ++it->second.live;
    AppLease lease;
    lease.cache = this;
    lease.app = std::move(*app);
    lease.launch_ns = hw::monotonic_ns() - t0;
    return lease;
  }

  Entry& entry = it->second;
  entry.last_used = ++tick_;
  hits_.add();

  // The cached prepared form dictates the execution mode, as on the
  // instantiate path (which rejects a mismatch rather than silently
  // switching modes).
  if (entry.prepared->mode() != config.mode)
    return Result<AppLease>::err(
        "module cache: cached module mode does not match AppConfig.mode");

  // Warmest path: an instance of this module parked by the SAME slot (the
  // monitor an app is bound to is the slot identity — handing it to
  // another slot would let two threads race one sandbox's monitor) whose
  // guest heap matches what the caller asked for (a smaller or larger
  // reservation than requested would silently change the app's memory
  // ceiling).
  for (auto pooled = entry.pool.begin(); pooled != entry.pool.end(); ++pooled) {
    if ((*pooled)->monitor() != bound) continue;
    if ((*pooled)->heap_bytes() != config.heap_bytes) continue;
    pool_hits_.add();
    AppLease lease;
    lease.cache = this;
    lease.app = std::move(*pooled);
    entry.pool.erase(pooled);
    const std::size_t freed = lease.app->heap_bytes();
    entry.pooled_bytes -= freed;
    charged_bytes_.sub(freed);
    ++entry.live;
    lease.module_cache_hit = true;
    lease.pool_hit = true;
    return lease;
  }

  // Warm path: instantiate from the cached prepared form (no Loading)
  // onto the caller's slot monitor.
  const std::uint64_t t0 = hw::monotonic_ns();
  auto app = runtime_.instantiate(entry.prepared, config, bound);
  if (!app.ok()) return Result<AppLease>::err(app.error());
  ++entry.live;
  AppLease lease;
  lease.cache = this;
  lease.app = std::move(*app);
  lease.launch_ns = hw::monotonic_ns() - t0;
  lease.module_cache_hit = true;
  return lease;
}

Status ModuleCache::prepare(const crypto::Sha256Digest& measurement,
                            ByteView binary, wasm::ExecMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.contains(measurement)) return Status{};
  if (binary.empty())
    return Status::err("module cache: prewarm needs the module binary");
  prewarms_.add();
  auto inserted = insert(measurement, binary, mode, &runtime_.primary_monitor());
  if (!inserted.ok()) return Status::err(inserted.error());
  return Status{};
}

Result<ModuleCache::Entries::iterator> ModuleCache::insert(
    const crypto::Sha256Digest& measurement, ByteView binary,
    wasm::ExecMode mode, tz::SecureMonitor* monitor) {
  using R = Result<Entries::iterator>;
  auto prepared = runtime_.prepare(binary, mode, monitor);
  if (!prepared.ok()) return R::err(prepared.error());
  if ((*prepared)->measurement() != measurement)
    return R::err("module cache: binary does not match measurement");
  make_room((*prepared)->code_bytes(), nullptr);
  Entry entry;
  entry.prepared = std::move(*prepared);
  entry.last_used = ++tick_;
  charged_bytes_.add(entry.prepared->code_bytes());
  // A fresh measurement's tier flushes into the same fleet-wide sinks as
  // every other cached module from its first compile on.
  if (entry.prepared->tier()) entry.prepared->tier()->bind_metrics(&tier_sinks_);
  return entries_.emplace(measurement, std::move(entry)).first;
}

void ModuleCache::release(std::unique_ptr<core::LoadedApp> app) {
  if (!app) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(app->measurement());
  if (it == entries_.end()) return;  // module was evicted meanwhile: drop
  Entry& entry = it->second;
  if (entry.live > 0) --entry.live;
  if (entry.pool.size() >= config_.max_pool_per_module) return;
  // Scrub the sandbox before the next tenant sees it: rebuild memory,
  // globals, table and segments to the freshly-instantiated state, and
  // clear the WASI output buffers. An instance that cannot be reset is
  // dropped rather than pooled.
  if (!app->instance().reinitialize().ok()) return;
  app->wasi().clear_output();
  const std::size_t cost = app->heap_bytes();
  if (charged_bytes_.get() + cost > config_.budget_bytes)
    make_room(cost, &it->first);
  if (charged_bytes_.get() + cost > config_.budget_bytes)
    return;  // still no room
  entry.pooled_bytes += cost;
  charged_bytes_.add(cost);
  entry.pool.push_back(std::move(app));
}

void ModuleCache::forfeit(const crypto::Sha256Digest& measurement) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(measurement);
  if (it != entries_.end() && it->second.live > 0) --it->second.live;
}

std::size_t ModuleCache::sweep_tier_compiles() {
  std::vector<std::shared_ptr<wasm::jit::TierSet>> tiers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tiers.reserve(entries_.size());
    for (const auto& [digest, entry] : entries_)
      if (entry.prepared->tier()) tiers.push_back(entry.prepared->tier());
  }
  // Codegen runs outside mu_: the cache mutex is a leaf held only for map
  // surgery, and slot workers must keep acquiring/releasing while the
  // control plane compiles.
  std::size_t compiled = 0;
  for (const auto& tier : tiers) compiled += tier->compile_pending();
  return compiled;
}

std::vector<ModuleCache::TierState> ModuleCache::tier_states() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TierState> states;
  states.reserve(entries_.size());
  for (const auto& [digest, entry] : entries_) {
    TierState state;
    state.measurement = digest;
    state.mode = entry.prepared->mode();
    state.functions =
        static_cast<std::uint32_t>(entry.prepared->compiled().size());
    if (const auto& tier = entry.prepared->tier()) {
      state.native_functions = tier->native_functions();
      state.hot_threshold = tier->hot_threshold();
      state.total_calls = tier->total_calls();
    }
    states.push_back(state);
  }
  return states;
}

void ModuleCache::make_room(std::size_t incoming, const crypto::Sha256Digest* keep) {
  while (charged_bytes_.get() + incoming >
         config_.budget_bytes) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (keep && it->first == *keep) continue;
      // A module live in any slot is pinned: evicting it would strand the
      // checked-out instances' shared AOT image accounting.
      if (it->second.live > 0) continue;
      if (victim == entries_.end() || it->second.last_used < victim->second.last_used)
        victim = it;
    }
    if (victim == entries_.end()) return;  // nothing evictable
    charged_bytes_.sub(entry_bytes(victim->second));
    entries_.erase(victim);
    evictions_.add();
  }
}

}  // namespace watz::gateway
