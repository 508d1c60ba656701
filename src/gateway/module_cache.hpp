// Per-device module cache for the attested execution gateway.
//
// Fig 4 shows the Loading phase (decode + validate + AOT translation)
// dominating launch cost at ~73%. It depends only on the module bytes, so
// the cache keeps the PreparedModule of every measurement it has seen and
// repeat launches pay only Transition + heap allocation + Instantiate. On
// top of that sits a warm pool of ready LoadedApp instances per
// measurement, handed out PER SLOT: every pooled instance is bound to the
// secure monitor it was instantiated on (one core::SandboxSlot of the
// device), and acquire() only hands it back to a caller presenting that
// same monitor — an instance is never shared across slots, so concurrent
// slots never race one sandbox's monitor state. Releasing an app parks it
// for the next invocation of the same (module, slot), which then skips
// instantiation entirely.
//
// Both live in the device's secure heap (27 MB ceiling), so the cache
// enforces a byte budget: retained code pages plus pooled guest heaps are
// charged, and least-recently-used measurements are evicted whole when a
// newcomer would overflow the budget. A module that is LIVE in any slot
// (checked out via acquire, not yet released or forfeited) is pinned: it
// is only evictable once no slot holds an instance of it.
//
// Concurrency: acquire/release/contains are serialised by a per-cache
// mutex, held for the whole operation (including prepare/instantiate —
// holding it is what guarantees a pooled instance is never handed to two
// tenants and the budget is never overshot by a racing insert). The mutex
// is a leaf: no fabric, session or gateway lock is ever taken under it,
// and it is never held across a guest invoke (invokes happen on the
// lease, outside the cache). Counters are atomic so fleet stats can
// sample them from other threads without taking the lock.
#pragma once

#include <map>
#include <mutex>
#include <vector>

#include "core/runtime.hpp"
#include "obs/metrics.hpp"
#include "wasm/jit/tier.hpp"

namespace watz::gateway {

struct ModuleCacheConfig {
  /// Secure-heap budget for retained code pages + pooled instances.
  std::size_t budget_bytes = 8 * 1024 * 1024;
  /// Warm LoadedApp instances retained per measurement (across all slots;
  /// a pool serving an N-slot device wants at least N so every slot can
  /// park one — Gateway::add_device widens it accordingly).
  std::size_t max_pool_per_module = 2;
};

class ModuleCache;

/// What acquire() hands out; give the app back via ModuleCache::release()
/// to warm the pool for the next caller. A lease destroyed while still
/// holding its app (guest trap, error path, a test dropping it) forfeits
/// its live pin automatically, so the module becomes evictable again.
struct AppLease {
  AppLease() = default;
  AppLease(AppLease&& other) noexcept { *this = std::move(other); }
  AppLease& operator=(AppLease&& other) noexcept {
    if (this != &other) {
      drop_pin();
      app = std::move(other.app);
      module_cache_hit = other.module_cache_hit;
      pool_hit = other.pool_hit;
      launch_ns = other.launch_ns;
      cache = other.cache;
      other.cache = nullptr;
    }
    return *this;
  }
  AppLease(const AppLease&) = delete;
  AppLease& operator=(const AppLease&) = delete;
  ~AppLease() { drop_pin(); }

  std::unique_ptr<core::LoadedApp> app;
  bool module_cache_hit = false;  ///< prepared module reused (Loading skipped)
  bool pool_hit = false;          ///< whole instance reused (nothing launched)
  std::uint64_t launch_ns = 0;    ///< instantiation cost paid by this acquire
  ModuleCache* cache = nullptr;   ///< issuing cache (live-pin bookkeeping)

 private:
  inline void drop_pin() noexcept;
};

class ModuleCache {
 public:
  /// `tier_sinks` receives the tier metric flushes of every measurement
  /// this cache prepares (registry-owned, fleet-wide counters that must
  /// outlive the cache; unset sinks are skipped). They outlive each module
  /// the cache evicts, so the fleet totals never drop.
  ModuleCache(core::WatzRuntime& runtime, ModuleCacheConfig config = {},
              wasm::jit::TierSinks tier_sinks = {})
      : runtime_(runtime), config_(config), tier_sinks_(tier_sinks) {}

  /// Acquires a ready instance for `measurement`, bound to `monitor` (a
  /// sandbox slot's; nullptr = the device's primary monitor). Pool hit:
  /// pops an instance parked by the SAME slot. Module hit: instantiates
  /// from the cached prepared form onto the slot's monitor. Miss: runs the
  /// full cold pipeline on `binary` (an error if empty). Every successful
  /// lease pins the module against eviction until release()/forfeit().
  Result<AppLease> acquire(const crypto::Sha256Digest& measurement, ByteView binary,
                           const core::AppConfig& config,
                           tz::SecureMonitor* monitor = nullptr);

  /// Prewarm: runs the Loading phase for `measurement` and retains the
  /// prepared form WITHOUT instantiating anything — what the gateway's
  /// cross-device prewarm sweep pushes to every enrolled device so a
  /// session failing over lands on a warm cache (its first invoke is a
  /// cache HIT). A measurement already cached is a no-op success; a fresh
  /// prepare counts in prewarms(), NOT misses() — the whole point is that
  /// failover pays zero cold misses. The prepared form binds to the
  /// device's primary monitor, like any acquire-path prepare.
  Status prepare(const crypto::Sha256Digest& measurement, ByteView binary,
                 wasm::ExecMode mode);

  /// Parks the instance in the warm pool of its measurement, tagged with
  /// the slot monitor it is bound to (subject to pool-size and budget
  /// limits; dropped otherwise). Drops the lease's live pin.
  void release(std::unique_ptr<core::LoadedApp> app);

  /// Drops the live pin of a lease whose app was torn down instead of
  /// released (guest trap, shutdown path).
  void forfeit(const crypto::Sha256Digest& measurement);

  /// Control plane: runs the queued native tier-up compiles of every cached
  /// measurement. The TierSets are collected under mu_ but compiled OUTSIDE
  /// it (mu_ is a leaf and codegen is slow); the sets are shared_ptr-held so
  /// a concurrent eviction cannot pull code pages out from under the
  /// compiler. Returns the number of functions tiered up by this sweep.
  std::size_t sweep_tier_compiles();

  bool contains(const crypto::Sha256Digest& measurement) const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.contains(measurement);
  }

  std::size_t charged_bytes() const noexcept {
    return static_cast<std::size_t>(charged_bytes_.get());
  }
  std::uint64_t hits() const noexcept { return hits_.get(); }
  std::uint64_t misses() const noexcept { return misses_.get(); }
  std::uint64_t evictions() const noexcept { return evictions_.get(); }
  std::uint64_t pool_hits() const noexcept { return pool_hits_.get(); }
  std::uint64_t prewarms() const noexcept { return prewarms_.get(); }

  /// The cache's own metric instances, exposed so a gateway can link them
  /// into its obs::Registry under device-scoped names (the cache stays the
  /// owner; gateway-free users keep working untouched).
  const obs::Counter& hits_counter() const noexcept { return hits_; }
  const obs::Counter& misses_counter() const noexcept { return misses_; }
  const obs::Counter& evictions_counter() const noexcept { return evictions_; }
  const obs::Counter& pool_hits_counter() const noexcept { return pool_hits_; }
  const obs::Counter& prewarms_counter() const noexcept { return prewarms_; }
  const obs::Gauge& charged_bytes_gauge() const noexcept {
    return charged_bytes_;
  }

  /// Per-measurement execution-tier snapshot of every cached module, for
  /// the STATS detail surface: which tier it runs on (interp / AOT /
  /// native entries installed) and how hot it is.
  struct TierState {
    crypto::Sha256Digest measurement{};
    wasm::ExecMode mode = wasm::ExecMode::Aot;
    std::uint32_t functions = 0;
    std::uint32_t native_functions = 0;
    std::uint32_t hot_threshold = 0;
    std::uint64_t total_calls = 0;
  };
  std::vector<TierState> tier_states() const;

 private:
  struct Entry {
    std::shared_ptr<const core::PreparedModule> prepared;
    std::vector<std::unique_ptr<core::LoadedApp>> pool;
    std::size_t pooled_bytes = 0;  // guest heaps parked in the pool
    std::uint64_t last_used = 0;
    /// Leases checked out and not yet released/forfeited. A module with
    /// live instances in any slot is pinned against eviction.
    std::uint32_t live = 0;
  };

  using Entries = std::map<crypto::Sha256Digest, Entry>;

  std::size_t entry_bytes(const Entry& entry) const {
    return entry.prepared->code_bytes() + entry.pooled_bytes;
  }

  /// The Loading phase for an uncached measurement: prepares `binary` onto
  /// `monitor`, checks it hashes to `measurement`, evicts LRU entries to
  /// fit its code and retains it with its tier bound to the cache's sinks.
  /// Caller holds mu_.
  Result<Entries::iterator> insert(const crypto::Sha256Digest& measurement,
                                   ByteView binary, wasm::ExecMode mode,
                                   tz::SecureMonitor* monitor);

  /// Evicts LRU entries (sparing `keep` and anything live in a slot)
  /// until `incoming` more bytes fit the budget. Best effort: stops when
  /// nothing evictable remains. Caller holds mu_.
  void make_room(std::size_t incoming, const crypto::Sha256Digest* keep);

  core::WatzRuntime& runtime_;
  ModuleCacheConfig config_;
  /// Every TierSet this cache prepares flushes through a pointer to this
  /// copy; no tier runs past the cache, as no lease may outlive it.
  const wasm::jit::TierSinks tier_sinks_;
  mutable std::mutex mu_;  // guards entries_ and tick_
  Entries entries_;
  std::uint64_t tick_ = 0;
  obs::Gauge charged_bytes_;
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter pool_hits_;
  obs::Counter prewarms_;
};

inline void AppLease::drop_pin() noexcept {
  // An app still held at destruction was torn down instead of released:
  // drop its live pin so the module becomes evictable again.
  if (cache && app) cache->forfeit(app->measurement());
  cache = nullptr;
}

}  // namespace watz::gateway
