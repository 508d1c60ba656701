#include "gateway/gateway.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string_view>
#include <thread>

#include "hw/clock.hpp"
#include "ra/attester.hpp"
#include "wasm/jit/jit.hpp"

namespace watz::gateway {

namespace {

/// The platform claim a device attests to: the hash of its measured boot
/// chain (SPL, U-Boot/ATF, trusted OS), i.e. what a measured-boot TPM
/// would have accumulated by the time the runtime is up.
crypto::Sha256Digest platform_claim(core::Device& device) {
  crypto::Sha256 hasher;
  for (const crypto::Sha256Digest& stage : device.os().boot_report().measurements)
    hasher.update(stage);
  return hasher.finish();
}

bool is_appraisal_failure(const std::string& error) {
  return error.find("failed appraisal") != std::string::npos;
}

/// The semantic identity of one invocation: measurement + entry + args +
/// heap reservation. Two requests with equal keys run the same function on
/// the same module with the same inputs — what both in-call rider dedup and
/// the result memo key on.
std::string invoke_dedup_key(const InvokeRequest& invoke) {
  std::string key(invoke.measurement.begin(), invoke.measurement.end());
  key += invoke.entry;
  key.push_back('\0');
  for (const wasm::Value& v : invoke.args) {
    key.push_back(static_cast<char>(v.type));
    key.append(reinterpret_cast<const char*>(&v.bits), sizeof(v.bits));
  }
  key.append(reinterpret_cast<const char*>(&invoke.heap_bytes),
             sizeof(invoke.heap_bytes));
  return key;
}

}  // namespace

Gateway::Gateway(net::Fabric& fabric, GatewayConfig config, ByteView identity_seed)
    : fabric_(fabric),
      config_(std::move(config)),
      rng_(identity_seed),
      sessions_(config_.session_policy) {
  ra::ShardedVerifierConfig shard_config;
  shard_config.shards = config_.ra_shards;
  shard_config.appraisal_latency_ns = config_.ra_appraisal_latency_ns;
  verifier_ = std::make_unique<ra::ShardedVerifier>(crypto::ecdsa_keygen(rng_),
                                                    identity_seed, shard_config);
  // The blob msg3 provisions: a gateway session ticket. The appraisal side
  // effects (endorsement, reference value, MAC and signature checks) are
  // what the handshake is run for.
  verifier_->set_secret_provider(
      [](const crypto::Sha256Digest&) { return to_bytes("watz-gateway-ticket-v1"); });
}

Gateway::~Gateway() {
  // Unbind from the fabric FIRST so no new request can reach a handler
  // capturing a dying `this` (clients that outlive the gateway then get
  // "peer gone" instead of a dangling callback), then retire the renewal
  // sweeper (it posts control-lane items), then drain the slot workers.
  if (started_) {
    fabric_.unlisten(config_.hostname, config_.port);
    fabric_.unlisten(config_.hostname, config_.ra_port);
  }
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(renew_mu_);
    renew_stop_ = true;
  }
  renew_cv_.notify_all();
  if (renew_thread_.joinable()) renew_thread_.join();
  for (auto& [name, backend] : backends_) {
    for (auto& slot : backend.slots) {
      {
        std::lock_guard<std::mutex> lock(slot->queue_mu);
        slot->stop = true;
      }
      slot->queue_cv.notify_all();
      if (slot->worker.joinable()) slot->worker.join();
    }
  }
}

Status Gateway::start() {
  if (started_) return Status::err("gateway: already started");

  // RA endpoint: the gateway's sharded verifier, appraising devices.
  // Handshakes arrive concurrently from every backend worker; each routes
  // to its session's shard and locks only that shard, so the fleet
  // appraises in parallel (batch frames fan one device's lanes out too).
  Status ra = fabric_.listen(
      config_.hostname, config_.ra_port,
      [this](std::uint64_t conn, ByteView message) -> Result<Bytes> {
        return verifier_->handle(conn, message);
      },
      [this](std::uint64_t conn) { verifier_->end_session(conn); });
  if (!ra.ok()) return ra;

  // Client-facing dispatcher. Application failures travel inside the
  // response envelope; the transport only fails on malformed frames. The
  // close hook detaches every session attached over the dropped
  // connection, failing its queued work before its state goes away.
  Status dispatcher = fabric_.listen(
      config_.hostname, config_.port,
      [this](std::uint64_t conn, ByteView request) -> Result<Bytes> {
        auto response = handle_request(conn, request);
        return response.ok() ? std::move(*response) : err_envelope(response.error());
      },
      [this](std::uint64_t conn) { on_client_close(conn); });
  if (!dispatcher.ok()) return dispatcher;

  // The background sweeper runs when evidence renewal has a finite TTL to
  // stay ahead of (an infinite TTL never goes stale) and/or JIT tiering
  // needs its compile pump (only where the host can actually run native
  // code — elsewhere the heat counters never queue anything).
  const bool renew_evidence = config_.evidence_renewal &&
                              config_.session_policy.evidence_ttl_ns != ~0ull;
  const bool pump_tiering = config_.jit_tiering && wasm::jit::jit_available();
  if ((renew_evidence || pump_tiering || config_.module_prewarm) &&
      !renew_thread_.joinable())
    renew_thread_ = std::thread([this, renew_evidence, pump_tiering] {
      renewal_loop(renew_evidence, pump_tiering);
    });

  started_ = true;
  return {};
}

Status Gateway::add_device(core::Device& device) {
  const std::size_t pool = config_.slots_per_device ? config_.slots_per_device : 1;
  Backend* backend = nullptr;
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(backends_mu_);
    backend = &backends_[device.hostname()];
    fresh = backend->hostname.empty();
    if (fresh) {
      backend->hostname = device.hostname();
      backend->enrol_index = backend_order_.size();
      backend_order_.push_back(backend);
      backend->slots.reserve(pool);
      for (std::size_t i = 0; i < pool; ++i) {
        auto slot = std::make_unique<Slot>();
        slot->backend = backend;
        slot->index = i;
        slot->global_id = slot_order_.size();
        slot_order_.push_back(slot.get());
        backend->slots.push_back(std::move(slot));
      }
    }
  }
  {
    // Re-enrolment == reboot/board swap: swap in the (possibly new) device,
    // a fresh cache + attester RNG, and bump the boot count so cached
    // evidence goes stale. Workers snapshot all of these under state_mu,
    // so an invoke mid-flight across the "reboot" finishes on the old
    // cache instead of racing the swap. The control (TEE mutex + slot
    // monitors) is per BOARD: a reboot of the same board keeps it, since a
    // second mutex over its one primary monitor would let a mid-flight
    // handshake and a new one enter that monitor at once.
    std::lock_guard<std::mutex> lock(backend->state_mu);
    Backend::State& state = backend->state;
    state.device = &device;
    if (!state.control || &state.control->device() != &device)
      state.control = std::make_shared<core::DeviceControl>(device, pool);
    // The warm pool hands instances out per slot; widen the per-module
    // pool so every slot can park one (0 stays 0: pooling disabled).
    ModuleCacheConfig cache_config = config_.cache;
    cache_config.max_pool_per_module =
        cache_config.max_pool_per_module
            ? std::max(cache_config.max_pool_per_module, pool)
            : 0;
    // Fleet tiering knobs reach the device runtime BEFORE any module is
    // prepared through the fresh cache (TierSets are built at prepare()
    // time). jit_available() gates inside the runtime, so this is a no-op
    // on non-x86-64 hosts / WATZ_DISABLE_JIT. Written only when they
    // differ: a rebooted board's runtime may be mid-prepare on a slot
    // worker, reading them.
    const core::JitTierOptions jit{config_.jit_tiering, config_.jit_hot_calls};
    if (device.runtime().jit_options() != jit) device.runtime().set_jit_options(jit);
    state.cache = std::make_shared<ModuleCache>(
        device.runtime(), cache_config,
        wasm::jit::TierSinks{.compiles = &tier_up_compiles_,
                             .native_entries = &native_entries_,
                             .fallback_ops = &jit_fallback_ops_,
                             .fallback_call = &jit_fallback_call_,
                             .compile_ns = &tier_compile_ns_hist_});
    state.attester_rng = std::make_shared<crypto::Fortuna>(
        device.os().huk_subkey_derive("watz-gateway-attester-v1"));
    state.platform_claim = platform_claim(device);
    ++state.boot_count;

    // Wire this enrolment into the metrics plane. The registry hands out
    // stable addresses, so the monitors and the per-device histogram
    // pointer stay valid across re-enrolments; the cache/heap links are
    // re-pointed because a reboot swaps in fresh instances.
    device.monitor().set_transition_histograms(&stage_tee_entry_hist_,
                                               &stage_tee_exit_hist_);
    for (std::size_t i = 0; i < pool; ++i)
      state.control->slot(i).monitor().set_transition_histograms(
          &stage_tee_entry_hist_, &stage_tee_exit_hist_);
    const std::string prefix = "device." + backend->hostname + ".";
    if (backend->queue_delay_hist == nullptr)
      backend->queue_delay_hist = &registry_.histogram(prefix + "queue_delay");
    const ModuleCache& cache = *state.cache;
    registry_.link_counter(prefix + "cache.hits", &cache.hits_counter());
    registry_.link_counter(prefix + "cache.misses", &cache.misses_counter());
    registry_.link_counter(prefix + "cache.evictions", &cache.evictions_counter());
    registry_.link_counter(prefix + "cache.pool_hits", &cache.pool_hits_counter());
    registry_.link_counter(prefix + "cache.prewarms", &cache.prewarms_counter());
    registry_.link_gauge(prefix + "cache.charged_bytes",
                         &cache.charged_bytes_gauge());
    registry_.link_gauge(prefix + "heap_in_use", &device.os().heap_gauge());
  }
  if (fresh)
    for (auto& slot : backend->slots)
      slot->worker = std::thread([this, s = slot.get()] { worker_loop(*s); });

  // Broadcast to every shard (ShardedVerifier locks one shard at a time).
  verifier_->endorse_device(device.attestation_service().public_key());
  verifier_->add_reference_measurement(backend->state.platform_claim);
  return {};
}

// -- worker fabric -----------------------------------------------------------

template <class Fn>
auto Gateway::submit(Slot& slot, Fn fn, bool force)
    -> Result<std::future<std::invoke_result_t<Fn&, std::uint64_t>>> {
  using T = std::invoke_result_t<Fn&, std::uint64_t>;
  using R = Result<std::future<T>>;
  auto promise = std::make_shared<std::promise<T>>();
  std::future<T> future = promise->get_future();
  {
    std::lock_guard<std::mutex> lock(slot.queue_mu);
    if (slot.stop) return R::err("gateway: shutting down");
    const std::uint32_t depth = slot.inflight.load(std::memory_order_relaxed);
    if (!force && depth >= config_.worker_queue_capacity) {
      slot.queue_full_rejections.add();
      return R::err(std::string(kQueueFullPrefix) + ": " + slot.backend->hostname +
                    "#" + std::to_string(slot.index) + " run queue at capacity (" +
                    std::to_string(depth) + ")");
    }
    const std::uint32_t now_inflight = depth + 1;
    slot.inflight.store(now_inflight, std::memory_order_relaxed);
    std::uint32_t peak = slot.queue_depth_peak.load(std::memory_order_relaxed);
    while (now_inflight > peak &&
           !slot.queue_depth_peak.compare_exchange_weak(peak, now_inflight)) {
    }
    // Admission timestamp: the worker measures pickup - admission as the
    // item's queueing delay (the STATS percentiles and the per-response
    // queue_delay_ns both come from this stamp).
    slot.queue.push_back(Slot::WorkItem{
        hw::monotonic_ns(),
        [&slot, fn = std::move(fn), promise](std::uint64_t queue_delay_ns) mutable {
          T result = fn(queue_delay_ns);
          slot.inflight.fetch_sub(1, std::memory_order_release);
          promise->set_value(std::move(result));
        }});
  }
  slot.queue_cv.notify_one();
  return R(std::move(future));
}

template <class T, class Fn>
std::vector<T> Gateway::on_control_lanes(const std::vector<Backend*>& backends,
                                         const T& stopped, Fn fn) {
  // Fan first, collect second: waiting inside the loop would serialise the
  // fleet. The items reference `fn` and `stopped` in place: every posted
  // one is awaited below, before they go away.
  std::vector<Result<std::future<T>>> fanned;
  fanned.reserve(backends.size());
  for (std::size_t i = 0; i < backends.size(); ++i)
    fanned.push_back(submit(
        *backends[i]->slots.front(),
        [this, &fn, &stopped, i](std::uint64_t) -> T {
          return stopping_.load(std::memory_order_acquire) ? stopped : fn(i);
        },
        /*force=*/true));
  std::vector<T> out;
  out.reserve(fanned.size());
  for (Result<std::future<T>>& item : fanned)
    out.push_back(item.ok() ? item->get() : stopped);
  return out;
}

std::vector<Gateway::Backend*> Gateway::fleet() {
  std::lock_guard<std::mutex> lock(backends_mu_);
  return backend_order_;
}

void Gateway::worker_loop(Slot& slot) {
  for (;;) {
    Slot::WorkItem item;
    {
      std::unique_lock<std::mutex> lock(slot.queue_mu);
      slot.queue_cv.wait(lock, [&] { return slot.stop || !slot.queue.empty(); });
      if (slot.queue.empty()) return;  // stop requested and queue drained
      item = std::move(slot.queue.front());
      slot.queue.pop_front();
    }
    const std::uint64_t now = hw::monotonic_ns();
    const std::uint64_t delay =
        now > item.admitted_ns ? now - item.admitted_ns : 0;
    queue_delay_hist_.record(delay);
    if (slot.backend->queue_delay_hist != nullptr)
      slot.backend->queue_delay_hist->record(delay);
    // On shutdown the loop still drains every queued item: each one
    // observes stopping_ and fails fast, fulfilling its promise so no
    // admitted request is ever left dangling. submit()'s item decrements
    // inflight just BEFORE publishing its result — so admission capacity
    // is provably free by the time a waiter observes completion
    // (decrementing here, after the item, would let a hot client see the
    // completion and get bounced before this thread is rescheduled).
    item.run(delay);
  }
}

std::uint64_t Gateway::maybe_trace(std::uint64_t wire_trace_id) {
  // A client-supplied id always wins: the caller is stitching this request
  // into a trace it owns (batch lanes, cross-service correlation).
  if (wire_trace_id != 0) return wire_trace_id;
  const std::uint64_t n = config_.trace_sample_n;
  if (n == 0) return 0;
  return trace_tick_.fetch_add(1, std::memory_order_relaxed) % n == 0
             ? obs::next_trace_id()
             : 0;
}

void Gateway::record_slow_invoke(SlowInvoke entry) {
  std::lock_guard<std::mutex> lock(slow_mu_);
  if (slow_invokes_.size() >= kSlowInvokeRing) slow_invokes_.pop_front();
  slow_invokes_.push_back(std::move(entry));
}

std::uint64_t Gateway::placement_cost(const Slot& slot) {
  // Predicted completion of one more admission: every item ahead of it
  // (queued + executing) plus itself, each costing the slot's observed
  // EWMA service time. Bounded: depth <= queue capacity, EWMA < minutes,
  // no overflow.
  const std::uint64_t depth = slot.inflight.load(std::memory_order_relaxed);
  const std::uint64_t ewma = slot.ewma_invoke_ns.load(std::memory_order_relaxed);
  if (ewma == 0) {
    // Unsampled slot: probe it ahead of anything measured — but only
    // with a couple of items. No sample can land until the first probe
    // completes, so unbounded optimism would let one batch admission
    // pass pile lanes onto a fresh (possibly slow) board up to the whole
    // queue bound. Past the probes it scores as a middling ~1 ms board
    // until real samples take over.
    constexpr std::uint64_t kUnsampledServiceGuessNs = 1'000'000;
    return depth < 2 ? depth + 1 : (depth + 1) * kUnsampledServiceGuessNs;
  }
  return (depth + 1) * ewma;
}

Gateway::ScoredSlot Gateway::score_slot(Slot& slot) {
  return ScoredSlot{placement_cost(slot),
                    slot.busy_ns.load(std::memory_order_relaxed),
                    slot.global_id, &slot};
}

// -- request handling --------------------------------------------------------

Result<Bytes> Gateway::handle_request(std::uint64_t conn, ByteView request) {
  auto op = peek_op(request);
  if (!op.ok()) return Result<Bytes>::err(op.error());
  switch (*op) {
    case Op::Attach: return handle_attach(conn, request);
    case Op::AttachBatch: return handle_attach_batch(conn, request);
    case Op::LoadModule: return handle_load_module(request);
    case Op::Invoke: return handle_invoke(request);
    case Op::InvokeBatch: return handle_invoke_batch(request);
    case Op::Stats: return handle_stats(request);
    case Op::Detach: return handle_detach(request);
  }
  return Result<Bytes>::err("gateway: unknown opcode");
}

Result<Bytes> Gateway::handle_attach(std::uint64_t conn, ByteView request) {
  auto req = AttachRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  // A plain attach is a batch of one: same fan-out, same merge, same
  // teardown semantics — only the response framing differs.
  auto batch = attach_sessions(conn, {req->client});
  if (!batch.ok()) return Result<Bytes>::err(batch.error());
  const AttachBatchResult& result = batch->results.front();
  if (!result.ok()) return Result<Bytes>::err(result.error);
  AttachResponse resp;
  resp.session_id = result.session_id;
  resp.devices_attested = result.devices_attested;
  resp.ra_exchanges = result.ra_exchanges;
  return ok_envelope(resp.encode());
}

Result<Bytes> Gateway::handle_attach_batch(std::uint64_t conn, ByteView request) {
  auto req = AttachBatchRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  auto resp = attach_sessions(conn, req->clients);
  if (!resp.ok()) return Result<Bytes>::err(resp.error());
  return ok_envelope(resp->encode());
}

Result<AttachBatchResponse> Gateway::attach_sessions(
    std::uint64_t conn, const std::vector<std::string>& clients) {
  using R = Result<AttachBatchResponse>;
  const std::vector<Backend*> backends = fleet();
  if (backends.empty()) return R::err("gateway: no devices enrolled");

  const std::uint64_t now = hw::monotonic_ns();
  std::vector<SessionPtr> sessions;
  sessions.reserve(clients.size());
  for (const std::string& client : clients)
    sessions.push_back(sessions_.attach(client, now));

  // One attest() per backend, on its control lane: a single batched
  // protocol exchange covering EVERY session — lane i is session i — so
  // each device pays two RA round-trips for the whole batch instead of two
  // per session, and the fleet's batches run in parallel across the
  // backends' control lanes.
  Attested stopped;
  stopped.lanes.assign(sessions.size(),
                       Result<std::uint32_t>::err("gateway: shutting down"));
  const std::vector<Attested> devices =
      on_control_lanes(backends, stopped, [&](std::size_t d) {
        return attest(*backends[d], sessions, std::nullopt);
      });

  AttachBatchResponse resp;
  resp.results.resize(sessions.size());
  std::vector<std::string> last_error(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i)
    resp.results[i].session_id = sessions[i]->id;
  for (const Attested& device : devices) {
    resp.ra_fabric_exchanges += device.fabric_exchanges;
    for (std::size_t i = 0; i < device.lanes.size(); ++i) {
      if (device.lanes[i].ok()) {
        ++resp.results[i].devices_attested;
        resp.results[i].ra_exchanges += *device.lanes[i];
      } else {
        last_error[i] = device.lanes[i].error();
      }
    }
  }

  // Partial success by design: a session no device would attest detaches
  // and reports its error at its index; its siblings attach normally.
  std::vector<std::uint64_t> attached;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (resp.results[i].devices_attested == 0) {
      sessions_.detach(sessions[i]->id);
      resp.results[i].session_id = 0;
      resp.results[i].error =
          "gateway: no device passed appraisal: " + last_error[i];
      continue;
    }
    attached.push_back(sessions[i]->id);
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    std::vector<std::uint64_t>& linked = conn_sessions_[conn];
    linked.insert(linked.end(), attached.begin(), attached.end());
  }
  return resp;
}

Result<Bytes> Gateway::handle_load_module(ByteView request) {
  auto req = LoadModuleRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  if (!sessions_.find(req->session_id))
    return Result<Bytes>::err("gateway: unknown session");
  // A binary the registry can never hold is refused outright: registering
  // it would evict every other tenant's binary and still overrun the budget.
  if (req->binary.size() > config_.binary_registry_budget_bytes)
    return Result<Bytes>::err("gateway: binary of " + std::to_string(req->binary.size()) +
                              " bytes exceeds the registry budget of " +
                              std::to_string(config_.binary_registry_budget_bytes) + " bytes");

  LoadModuleResponse resp;
  resp.measurement = crypto::sha256(req->binary);
  std::lock_guard<std::mutex> lock(binaries_mu_);
  resp.already_registered = binaries_.contains(resp.measurement);
  if (!resp.already_registered)
    register_binary(resp.measurement, std::move(req->binary));
  return ok_envelope(resp.encode());
}

// -- invoke admission --------------------------------------------------------

Result<Bytes> Gateway::handle_invoke(ByteView request) {
  auto req = InvokeRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  // A plain INVOKE is a one-lane batch: same admission, only the response
  // framing differs — and total backpressure gets its own envelope status.
  Result<InvokeResponse> result = std::move(admit_lanes({&*req, 1}).front());
  if (result.ok()) return ok_envelope(result->encode());
  if (is_queue_full(result.error())) return busy_envelope(result.error());
  return Result<Bytes>::err(result.error());
}

Result<Bytes> Gateway::handle_invoke_batch(ByteView request) {
  auto req = InvokeBatchRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  std::vector<InvokeRequest> invokes;
  invokes.reserve(req->lanes.size());
  for (InvokeBatchRequest::Lane& lane : req->lanes)
    invokes.push_back(std::move(lane.invoke));
  std::vector<Result<InvokeResponse>> results = admit_lanes(invokes);

  InvokeBatchResponse resp;
  resp.results.resize(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    resp.results[i].lane = req->lanes[i].lane;
    if (results[i].ok())
      resp.results[i].result = std::move(*results[i]);
    else
      resp.results[i].error = results[i].error();
  }
  return ok_envelope(resp.encode());
}

std::vector<Result<InvokeResponse>> Gateway::admit_lanes(
    std::span<const InvokeRequest> lanes) {
  using R = Result<InvokeResponse>;
  std::vector<R> out(lanes.size(), R::err({}));  // every lane is answered below
  std::vector<Slot*> fleet;
  {
    std::lock_guard<std::mutex> lock(backends_mu_);
    fleet = slot_order_;
  }
  const bool memo = config_.invoke_memo_ttl_ns != 0;
  // Each lane's dedup key is built at most once, and only when something
  // reads it: the memo, or in-call dedup (which a lone lane cannot use).
  std::vector<std::string> keys(memo || lanes.size() > 1 ? lanes.size() : 0);

  // One trace decision covers the whole call: every traced lane shares the
  // trace_id under its own root span, so a fan renders as ONE flame graph.
  // A client-supplied lane id adopts the call into that trace.
  std::uint64_t wire_trace = 0;
  for (const InvokeRequest& lane : lanes)
    if (lane.trace_id != 0) {
      wire_trace = lane.trace_id;
      break;
    }
  const std::uint64_t trace_id = maybe_trace(wire_trace);
  // Dispatcher-side stage spans (admit, migrate, respond) end now.
  const auto record_span = [this](const obs::TraceContext& trace, obs::Stage stage,
                                  std::uint64_t start_ns, std::uint32_t detail) {
    obs::SpanRecord span;
    span.trace_id = trace.trace_id;
    span.span_id = obs::next_span_id();
    span.parent_id = trace.span_id;
    span.start_ns = start_ns;
    span.dur_ns = hw::monotonic_ns() - start_ns;
    span.stage = stage;
    span.detail = detail;
    span_sink_.record(span);
  };

  // A lane admitted to a slot queue, plus the twins riding its result.
  struct Admitted {
    std::size_t index = 0;
    SessionPtr session;
    obs::TraceContext trace;  ///< call trace_id + this lane's root span
    Slot* slot = nullptr;
    std::future<R> future;
    std::uint64_t boot_count = 0;  ///< of the device, at admission (riders)
    std::vector<std::size_t> riders;
  };

  // Placement: the session's affinity slot leads while idle (its warm pool
  // holds the instance; a busy warm slot must not collect a convoy), else
  // the cheapest slot by a full scan, and a full queue spills down the
  // sorted cost order. submit() bumps inflight at once, so lane k's scores
  // already see where lanes 0..k-1 landed. Slots of `failed` devices
  // (appraisal failures of this lane) are skipped.
  const auto place = [&](Admitted& lane,
                         const std::vector<const Backend*>& failed) -> Status {
    const std::uint64_t admit_start = lane.trace.active() ? hw::monotonic_ns() : 0;
    const std::string* key = keys.empty() ? nullptr : &keys[lane.index];
    const auto try_slot = [&](Slot& slot) -> Status {
      // The item reads the request and its key in place: admission awaits
      // every future it posts before `lanes` and `keys` go away.
      auto submitted = submit(
          slot,
          [this, slot = &slot, session = lane.session, &invoke = lanes[lane.index],
           key, trace = lane.trace](std::uint64_t queue_delay_ns) {
            // Install the lane's trace for everything below this frame: the
            // cache, the monitors, the wasm executor and (via the fabric's
            // same-thread callback) the verifier shards all emit against it.
            obs::ScopedTrace scope(trace.active() ? &span_sink_ : nullptr,
                                   trace.trace_id, trace.span_id);
            return execute_invoke(*slot, session, invoke, key, queue_delay_ns);
          },
          /*force=*/false);
      if (!submitted.ok()) return Status::err(submitted.error());
      lane.slot = &slot;
      lane.future = std::move(*submitted);
      if (lane.trace.active())
        record_span(lane.trace, obs::Stage::Admit, admit_start,
                    static_cast<std::uint32_t>(slot.index));
      return {};
    };
    const auto eligible = [&](const Slot* slot) {
      return std::find(failed.begin(), failed.end(), slot->backend) == failed.end();
    };

    Status last = Status::err("gateway: no devices enrolled");
    Slot* warm = nullptr;
    const std::uint64_t hint = lane.session->affinity_slot.load(std::memory_order_relaxed);
    if (hint != 0 && hint <= fleet.size() && eligible(fleet[hint - 1]) &&
        fleet[hint - 1]->inflight.load(std::memory_order_relaxed) == 0) {
      warm = fleet[hint - 1];
      if ((last = try_slot(*warm)).ok()) return last;
    }
    std::vector<ScoredSlot> scored;
    scored.reserve(fleet.size());
    for (Slot* slot : fleet)
      if (slot != warm && eligible(slot)) scored.push_back(score_slot(*slot));
    if (scored.empty()) return last;
    std::iter_swap(scored.begin(), std::min_element(scored.begin(), scored.end()));
    if ((last = try_slot(*scored.front().slot)).ok()) return last;
    std::sort(scored.begin() + 1, scored.end());
    for (auto it = scored.begin() + 1; it != scored.end(); ++it)
      if ((last = try_slot(*it->slot)).ok()) return last;
    return last;
  };

  // The first pass admits every lane. Riders of a leader that failed or
  // migrated re-enter in a second pass, alone (no dedup), where each makes
  // its own trust decision.
  std::vector<std::size_t> todo(lanes.size());
  std::iota(todo.begin(), todo.end(), std::size_t{0});
  for (bool dedup = lanes.size() > 1; !todo.empty(); dedup = false) {
    std::vector<Admitted> admitted;
    admitted.reserve(todo.size());
    std::map<std::string_view, std::size_t> leaders;  // key -> admitted index
    for (const std::size_t i : todo) {
      SessionPtr session = sessions_.find(lanes[i].session_id);
      if (!session) {
        out[i] = R::err("gateway: unknown session");
        continue;
      }
      if (!keys.empty() && keys[i].empty()) keys[i] = invoke_dedup_key(lanes[i]);
      // Memo: an identical invoke ran within the TTL and the trust gate
      // passes — answered here, never admitted. This is what makes a
      // retried delivery idempotent: a lane whose first delivery executed
      // but whose response was lost redeems the result instead of running
      // again.
      if (memo) {
        if (auto hit = memo_lookup(*session, keys[i])) {
          session->invocations.fetch_add(1, std::memory_order_relaxed);
          out[i] = std::move(*hit);
          continue;
        }
      }
      // Dedup: a twin of an admitted leader whose session already holds
      // fresh evidence for the leader's device RIDES the leader's result
      // (the freshness gate keeps the trust decision per session — a stale
      // twin executes normally and pays its own handshake).
      if (dedup) {
        const auto leader = leaders.find(keys[i]);
        if (leader != leaders.end()) {
          Admitted& lead = admitted[leader->second];
          if (sessions_.has_fresh(*session, lead.slot->backend->hostname,
                                  lead.boot_count, hw::monotonic_ns())) {
            lead.riders.push_back(i);
            continue;
          }
        }
      }
      Admitted lane;
      lane.index = i;
      lane.session = std::move(session);
      if (trace_id != 0) lane.trace = {trace_id, obs::next_span_id()};
      Status placed = place(lane, {});
      if (!placed.ok()) {
        // Total backpressure (or an empty fleet) fails THIS lane only; the
        // client sees the failed index and owns the retry.
        if (is_queue_full(placed.error())) queue_full_rejections_.add();
        out[i] = R::err(placed.error());
        continue;
      }
      if (dedup) {
        lane.boot_count = lane.slot->backend->snapshot().boot_count;
        leaders.try_emplace(keys[i], admitted.size());
      }
      admitted.push_back(std::move(lane));
    }

    // Await after the whole pass, so the lanes execute concurrently across
    // the slot workers.
    std::vector<std::size_t> retry;
    for (Admitted& lane : admitted) {
      R outcome = lane.future.get();
      // Trust decides placement: a lane whose device failed appraisal is
      // re-admitted past every device that failed it — a session migration
      // when it then lands on a live board.
      std::vector<const Backend*> failed;
      std::uint64_t migrate_start = 0;
      while (!outcome.ok() && is_appraisal_failure(outcome.error())) {
        if (failed.empty()) migrate_start = hw::monotonic_ns();
        failed.push_back(lane.slot->backend);
        Status again = place(lane, failed);
        if (!again.ok()) {
          // Nothing left to try keeps the appraisal error; backpressure
          // replaces it.
          if (is_queue_full(again.error())) {
            queue_full_rejections_.add();
            outcome = R::err(again.error());
          }
          break;
        }
        outcome = lane.future.get();
      }
      const bool migrated = !failed.empty();
      if (migrated && outcome.ok()) {
        migrations_.add();
        if (lane.trace.active())
          record_span(lane.trace, obs::Stage::Migrate, migrate_start, 0);
      }
      const std::uint64_t respond_start = lane.trace.active() ? hw::monotonic_ns() : 0;
      if (outcome.ok() && !migrated) {
        // Riders fan the leader's execution: same results, zero RA traffic
        // of their own (the freshness gate guaranteed their evidence).
        for (const std::size_t rider : lane.riders) {
          InvokeResponse copy = *outcome;
          copy.ra_exchanges = 0;
          out[rider] = std::move(copy);
        }
        if (!lane.riders.empty()) deduped_lanes_.add(lane.riders.size());
      } else {
        // A failed OR migrated leader never speaks for its riders: they
        // were freshness-gated against the device it left.
        retry.insert(retry.end(), lane.riders.begin(), lane.riders.end());
      }
      out[lane.index] = std::move(outcome);
      if (lane.trace.active())
        record_span(lane.trace, obs::Stage::Respond, respond_start, 0);
    }
    todo = std::move(retry);
  }
  return out;
}

// Runs on the slot's worker thread. The guest executes on the SLOT's
// monitor (data plane, concurrent across the pool); only a lazy handshake
// (a one-session attest) detours through the device's primary
// monitor, serialised on the DeviceControl TEE mutex. Lock discipline
// (DESIGN.md §2): session.mu and cache.mu are leaves; neither is held
// across the guest invoke below.
Result<InvokeResponse> Gateway::execute_invoke(Slot& slot,
                                               const SessionPtr& session,
                                               const InvokeRequest& request,
                                               const std::string* memo_key,
                                               std::uint64_t queue_delay_ns) {
  using R = Result<InvokeResponse>;
  Backend& backend = *slot.backend;
  if (stopping_.load(std::memory_order_acquire)) return R::err("gateway: shutting down");
  if (session->closed.load(std::memory_order_acquire))
    return R::err("gateway: session detached");

  const bool traced = obs::tracing_active();
  const bool slow_log = config_.slow_invoke_threshold_ns != 0;
  const std::uint64_t pickup_ns =
      (traced || slow_log) ? hw::monotonic_ns() : 0;
  if (traced)
    // The Queue span is reconstructed from the admission stamp the work
    // item carried: it ended at pickup and lasted the measured delay.
    obs::emit_span(obs::Stage::Queue,
                   pickup_ns - std::min(queue_delay_ns, pickup_ns), pickup_ns,
                   static_cast<std::uint32_t>(slot.index));

  const Backend::State state = backend.snapshot();
  ModuleCache& cache = *state.cache;
  const std::string& hostname = backend.hostname;

  // Trust first: the session must hold fresh evidence for this device
  // (free when cached; a TTL/boot-count miss drops it and re-runs the
  // handshake, whose evidence is stamped with the time it started).
  const std::uint64_t ra_start = hw::monotonic_ns();
  std::uint32_t exchanges = 0;
  std::uint64_t ra_ns = 0;
  if (!sessions_.reuse_fresh(*session, hostname, state.boot_count, ra_start)) {
    Result<std::uint32_t> lane =
        std::move(attest(backend, {&session, 1}, ra_start).lanes.front());
    if (!lane.ok()) return R::err(lane.error());
    exchanges = *lane;
    // Only a lazy handshake on the critical path counts as RA latency; a
    // fresh-evidence hit is the amortisation working as intended.
    ra_ns = hw::monotonic_ns() - ra_start;
    stage_ra_hist_.record(ra_ns);
    if (traced) obs::emit_span(obs::Stage::Ra, ra_start, ra_start + ra_ns);
  }

  // The registry is only consulted on a cold cache miss, and the binary is
  // copied out so the worker never holds a view into a registry another
  // client may be evicting.
  Bytes binary;
  if (!cache.contains(request.measurement)) binary = copy_binary(request.measurement);

  core::AppConfig app_config;
  app_config.heap_bytes = request.heap_bytes
                              ? static_cast<std::size_t>(request.heap_bytes)
                              : config_.default_heap_bytes;
  // The lease is bound to THIS slot's monitor: pool hits only ever reuse
  // an instance this slot parked, so no sandbox is driven by two threads.
  tz::SecureMonitor& slot_monitor = state.control->slot(slot.index).monitor();
  const std::uint64_t enters_before = slot_monitor.enter_count();
  const std::uint64_t leaves_before = slot_monitor.leave_count();
  const std::uint64_t acquire_start = hw::monotonic_ns();
  auto lease = cache.acquire(request.measurement, binary, app_config, &slot_monitor);
  if (!lease.ok()) return R::err(lease.error());
  const std::uint64_t acquire_end = hw::monotonic_ns();
  if (traced)
    // A pool hit is a Checkout (nothing launched); anything that paid
    // instantiation — cold or module-cached — renders as Prepare.
    obs::emit_span(lease->pool_hit ? obs::Stage::Checkout : obs::Stage::Prepare,
                   acquire_start, acquire_end);

  const std::uint64_t t0 = hw::monotonic_ns();
  auto result = lease->app->invoke(request.entry, request.args);
  const std::uint64_t invoke_ns = hw::monotonic_ns() - t0;
  stage_exec_hist_.record(invoke_ns);
  if (traced) obs::emit_span(obs::Stage::Exec, t0, t0 + invoke_ns);

  const std::uint64_t service_ns = lease->launch_ns + invoke_ns;
  slot.busy_ns.fetch_add(service_ns, std::memory_order_relaxed);
  // EWMA (alpha = 1/8) of the slot's per-invoke service time, feeding
  // placement_cost. Plain load/store: only this slot's worker thread
  // ever writes it (atomic only for the cross-thread placement reads). A
  // sample counts for at most 4x the current mean: placement stops
  // feeding a slot it prices high, so one outlier (a preempted host
  // thread) could otherwise starve the slot for good — it would take no
  // samples to correct the price. A board that really turned slow still
  // climbs within a few invokes.
  const std::uint64_t prev_ewma =
      slot.ewma_invoke_ns.load(std::memory_order_relaxed);
  const std::uint64_t sample =
      prev_ewma ? std::min(service_ns, 4 * prev_ewma) : service_ns;
  slot.ewma_invoke_ns.store(
      prev_ewma ? prev_ewma - prev_ewma / 8 + sample / 8 : sample,
      std::memory_order_relaxed);
  slot.invocations.fetch_add(1, std::memory_order_relaxed);
  invocations_.add();
  session->invocations.fetch_add(1, std::memory_order_relaxed);
  // Soft affinity: the next invoke of this session prefers this slot while
  // it sits idle — its warm pool now holds the instance released below.
  session->affinity_slot.store(slot.global_id + 1, std::memory_order_relaxed);

  if (slow_log) {
    const std::uint64_t end_ns = hw::monotonic_ns();
    const std::uint64_t total_ns = queue_delay_ns + (end_ns - pickup_ns);
    if (total_ns >= config_.slow_invoke_threshold_ns) {
      // World-switch time is reconstructed from the slot monitor's
      // transition counters (written only by this thread) times the
      // configured charges — the modeled truth, free of clock jitter.
      // A disabled latency model charges nothing, so reports nothing.
      const hw::LatencyConfig& charge = slot_monitor.latency().config();
      SlowInvoke slow;
      slow.trace_id = obs::thread_trace().trace_id;
      slow.total_ns = total_ns;
      slow.queue_ns = queue_delay_ns;
      slow.prepare_ns = acquire_end - acquire_start;
      if (charge.enabled)
        slow.tee_ns =
            (slot_monitor.enter_count() - enters_before) * charge.smc_enter_ns +
            (slot_monitor.leave_count() - leaves_before) * charge.smc_leave_ns;
      slow.exec_ns = invoke_ns;
      slow.ra_ns = ra_ns;
      slow.device = hostname;
      slow.entry = request.entry;
      record_slow_invoke(std::move(slow));
    }
  }

  if (!result.ok()) return R::err("gateway: " + result.error());
  // Only clean exits go back to the warm pool; trapped instances are torn
  // down with their sandbox state (the lease forfeits its live pin).
  cache.release(std::move(lease->app));

  InvokeResponse resp;
  resp.results = std::move(*result);
  resp.device = hostname;
  resp.module_cache_hit = lease->module_cache_hit;
  resp.pool_hit = lease->pool_hit;
  resp.launch_ns = lease->launch_ns;
  resp.invoke_ns = invoke_ns;
  resp.ra_exchanges = exchanges;
  resp.queue_delay_ns = queue_delay_ns;
  resp.trace_id = obs::thread_trace().trace_id;
  // Feed the result memo: a twin admitted within the TTL by any session
  // trusting this device rides this execution instead of its own — and a
  // chaos-replayed delivery of THIS request redeems it instead of
  // executing again.
  if (memo_key != nullptr && config_.invoke_memo_ttl_ns != 0)
    memo_store(*memo_key, resp, hostname, state.boot_count, session->id);
  return resp;
}

std::optional<InvokeResponse> Gateway::memo_lookup(Session& session,
                                                   const std::string& key) {
  const std::uint64_t now = hw::monotonic_ns();
  auto hit = memo_.lookup(key, now, config_.invoke_memo_ttl_ns);
  if (!hit) return std::nullopt;
  InvokeMemo::Entry entry = std::move(*hit);
  // Trust gate, decided OUTSIDE the memo lock (has_fresh takes the
  // session lock; the memo's mutex stays a leaf):
  //   * the producer redeeming its OWN result needs no freshness check —
  //     the result was produced under evidence fresh at execution time,
  //     and the TTL bounds the redemption window. This is the replay
  //     absorber: after a dropped/stalled response (or even a device
  //     reboot that bumped the boot count), the producer's retry is
  //     answered from the memo instead of executing a second time;
  //   * any OTHER session must hold fresh evidence for the device (at the
  //     boot count) that produced the result — the same per-session trust
  //     gate as an INVOKE_BATCH rider.
  const bool producer = entry.producer_session == session.id;
  if (!producer &&
      !sessions_.has_fresh(session, entry.device, entry.boot_count, now))
    return std::nullopt;
  memo_.note_hit(key, now);
  invoke_memo_hits_.add();
  entry.response.ra_exchanges = 0;
  entry.response.queue_delay_ns = 0;
  entry.response.trace_id = 0;
  return std::move(entry.response);
}

void Gateway::memo_store(const std::string& key, const InvokeResponse& response,
                         const std::string& device, std::uint64_t boot_count,
                         std::uint64_t producer_session) {
  InvokeMemo::Entry entry;
  entry.response = response;
  entry.device = device;
  entry.boot_count = boot_count;
  entry.producer_session = producer_session;
  memo_.store(key, std::move(entry), hw::monotonic_ns());
}

Gateway::Attested Gateway::attest(Backend& backend,
                                  std::span<const SessionPtr> sessions,
                                  std::optional<std::uint64_t> stamp_ns) {
  const std::uint64_t boot_count = backend.snapshot().boot_count;
  // Session migration keys on this prefix (is_appraisal_failure).
  const std::string failed = "gateway: " + backend.hostname + " failed appraisal: ";
  Attested out;
  auto batch = run_handshake_batch(backend, sessions.size());
  if (!batch.ok()) {
    out.lanes.assign(sessions.size(), Result<std::uint32_t>::err(failed + batch.error()));
    return out;
  }
  out.fabric_exchanges = batch->fabric_exchanges;
  const std::uint64_t attested_at = stamp_ns ? *stamp_ns : hw::monotonic_ns();
  out.lanes.reserve(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    Result<attestation::Evidence>& lane = batch->lanes[i];
    if (!lane.ok()) {
      out.lanes.push_back(Result<std::uint32_t>::err(failed + lane.error()));
      continue;
    }
    Status recorded = sessions_.record_attestation(
        *sessions[i], backend.hostname, boot_count, attested_at, std::move(*lane));
    out.lanes.push_back(recorded.ok() ? Result<std::uint32_t>(kRaExchangesPerHandshake)
                                      : Result<std::uint32_t>::err(recorded.error()));
  }
  return out;
}

Result<Gateway::BatchHandshake> Gateway::run_handshake_batch(Backend& backend,
                                                             std::size_t lanes) {
  using R = Result<BatchHandshake>;
  const std::string& hostname = backend.hostname;
  const Backend::State state = backend.snapshot();
  core::Device& device = *state.device;
  // One TEE entry covers the whole batch: `lanes` attester state machines
  // advance in lockstep, and each protocol step crosses the fabric ONCE as
  // a batch frame (ra/messages.hpp) instead of once per session. Control
  // plane: the primary monitor, serialised on the DeviceControl TEE mutex
  // against every other handshake of this board. The attester's socket
  // calls are relayed by the supplicant across the fabric to the gateway's
  // RA endpoint (the SS V deployment, with the gateway as relying party).
  std::lock_guard<std::mutex> tee_lock(state.control->tee_mutex());
  return device.monitor().smc_call([&]() -> R {
    optee::Supplicant* supplicant = device.os().supplicant();
    if (!supplicant) return R::err("gateway: " + hostname + ": no supplicant");

    BatchHandshake out;
    out.lanes.assign(lanes, Result<attestation::Evidence>::err(
                                "gateway: " + hostname + ": no verifier reply"));

    std::vector<ra::AttesterSession> attesters;
    attesters.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i)
      attesters.emplace_back(*state.attester_rng, verifier_->identity_key());

    auto conn = supplicant->socket_connect(config_.hostname, config_.ra_port);
    if (!conn.ok()) return R::err(conn.error());
    struct CloseGuard {
      optee::Supplicant* s;
      std::uint32_t handle;
      ~CloseGuard() { s->socket_close(handle); }
    } guard{supplicant, *conn};

    // Round-trip 1: every lane's msg0 in one exchange, msg1s back.
    std::vector<ra::BatchItem> msg0s;
    msg0s.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i)
      msg0s.push_back(
          ra::BatchItem{static_cast<std::uint32_t>(i), attesters[i].make_msg0()});
    auto reply1 = supplicant->socket_send_recv(*conn, ra::encode_batch(msg0s));
    if (!reply1.ok()) return R::err(reply1.error());
    ++out.fabric_exchanges;
    auto msg1s = ra::decode_batch_reply(*reply1);
    if (!msg1s.ok()) return R::err(msg1s.error());

    // Evidence is issued per lane while consuming msg1 (the anchor binds it
    // to that lane's session); failed lanes drop out of round-trip 2.
    std::vector<attestation::Evidence> evidences(lanes);
    std::vector<bool> alive(lanes, false);
    std::vector<ra::BatchItem> msg2s;
    for (const ra::BatchReplyItem& item : *msg1s) {
      if (item.lane >= lanes) continue;  // not a lane we opened
      if (!item.ok) {
        out.lanes[item.lane] = Result<attestation::Evidence>::err(item.error);
        continue;
      }
      auto msg2 = attesters[item.lane].handle_msg1(
          item.payload, [&](const std::array<std::uint8_t, 32>& anchor) {
            evidences[item.lane] =
                device.attestation_service().issue_evidence(anchor, state.platform_claim);
            return evidences[item.lane];
          });
      if (!msg2.ok()) {
        out.lanes[item.lane] = Result<attestation::Evidence>::err(msg2.error());
        continue;
      }
      msg2s.push_back(ra::BatchItem{item.lane, std::move(*msg2)});
      alive[item.lane] = true;
    }
    if (msg2s.empty()) return out;  // every lane failed before appraisal

    // Round-trip 2: surviving msg2s; per-lane msg3 or appraisal rejection.
    auto reply2 = supplicant->socket_send_recv(*conn, ra::encode_batch(msg2s));
    if (!reply2.ok()) return R::err(reply2.error());
    ++out.fabric_exchanges;
    auto msg3s = ra::decode_batch_reply(*reply2);
    if (!msg3s.ok()) return R::err(msg3s.error());
    for (const ra::BatchReplyItem& item : *msg3s) {
      if (item.lane >= lanes || !alive[item.lane]) continue;
      if (!item.ok) {
        out.lanes[item.lane] = Result<attestation::Evidence>::err(item.error);
        continue;
      }
      auto ticket = attesters[item.lane].handle_msg3(item.payload);
      if (!ticket.ok()) {
        out.lanes[item.lane] = Result<attestation::Evidence>::err(ticket.error());
        continue;
      }
      out.lanes[item.lane] = std::move(evidences[item.lane]);
    }
    return out;
  });
}

// -- evidence renewal --------------------------------------------------------

std::size_t Gateway::sweep_evidence_renewals() {
  const std::uint64_t ttl = config_.session_policy.evidence_ttl_ns;
  if (ttl == ~0ull) return 0;  // infinite TTL: nothing ever goes stale
  // Renew past ~80% of the TTL: early enough that the batch completes
  // before expiry, late enough not to double the handshake rate.
  const std::uint64_t threshold = ttl - ttl / 5;

  // One attest() per device with sessions due, on its control lane — all
  // N sessions re-prove in 2 fabric round-trips per device, and the
  // DEVICES renew in parallel, so late-ordered devices' evidence does not
  // lapse while the sweep works through the fleet. A device with nothing
  // due gets no control-lane item.
  std::vector<Backend*> backends;
  std::vector<std::vector<SessionPtr>> due;
  for (Backend* backend : fleet()) {
    auto sessions =
        sessions_.renewal_candidates(backend->hostname, backend->snapshot().boot_count,
                                     hw::monotonic_ns(), threshold);
    if (sessions.empty()) continue;
    backends.push_back(backend);
    due.push_back(std::move(sessions));
  }
  const std::vector<std::size_t> renewed =
      on_control_lanes(backends, std::size_t{0}, [&](std::size_t d) -> std::size_t {
        const Attested attested = attest(*backends[d], due[d], std::nullopt);
        return std::count_if(attested.lanes.begin(), attested.lanes.end(),
                             [](const Result<std::uint32_t>& lane) { return lane.ok(); });
      });
  const std::size_t renewed_total =
      std::accumulate(renewed.begin(), renewed.end(), std::size_t{0});
  if (renewed_total) evidence_renewals_.add(renewed_total);
  return renewed_total;
}

std::size_t Gateway::sweep_module_prewarms() {
  // Snapshot the registered binaries once (copies — a worker must never
  // hold a view into a registry another client may be evicting), then
  // prepare on every backend's control lane whatever its cache does not
  // hold yet. The prepares run CONCURRENTLY across the fleet; within one
  // device they serialise behind that device's control-plane work, which
  // is exactly where a Loading-phase burn belongs (never on a data slot
  // mid-storm).
  std::vector<std::pair<crypto::Sha256Digest, Bytes>> binaries;
  {
    std::lock_guard<std::mutex> lock(binaries_mu_);
    binaries.reserve(binaries_.size());
    for (const auto& [measurement, registered] : binaries_)
      binaries.emplace_back(measurement, registered.bytes);
  }
  if (binaries.empty()) return 0;
  const wasm::ExecMode mode = core::AppConfig{}.mode;
  const std::vector<Backend*> backends = fleet();
  const std::vector<std::size_t> prepared =
      on_control_lanes(backends, std::size_t{0}, [&](std::size_t d) {
        const std::shared_ptr<ModuleCache> cache = backends[d]->snapshot().cache;
        std::size_t count = 0;
        if (cache) {
          for (const auto& [measurement, binary] : binaries) {
            if (cache->contains(measurement)) continue;
            if (cache->prepare(measurement, binary, mode).ok()) ++count;
          }
        }
        return count;
      });
  const std::size_t prepared_total =
      std::accumulate(prepared.begin(), prepared.end(), std::size_t{0});
  if (prepared_total) prewarm_prepares_.add(prepared_total);
  return prepared_total;
}

std::size_t Gateway::sweep_tier_compiles() {
  // Codegen never enters a TEE and the per-cache sweep takes only leaf
  // locks, so the whole fleet compiles on THIS (control-plane) thread —
  // no slot queue is occupied and no guest invoke is delayed. The compile
  // metric flushes ride the TierSets' bound registry sinks.
  std::size_t compiled = 0;
  for (Backend* backend : fleet()) {
    const std::shared_ptr<ModuleCache> cache = backend->snapshot().cache;
    if (cache) compiled += cache->sweep_tier_compiles();
  }
  return compiled;
}

void Gateway::renewal_loop(bool renew_evidence, bool pump_tiering) {
  std::uint64_t interval = config_.renewal_interval_ns;
  if (interval == 0)
    // Several sweeps per TTL; with no TTL to chase (tiering-only duty) a
    // fixed cadence keeps hot functions from waiting long for native code.
    interval = renew_evidence ? config_.session_policy.evidence_ttl_ns / 5 : 10'000'000;
  if (interval < 100'000) interval = 100'000;  // floor: don't spin
  std::unique_lock<std::mutex> lock(renew_mu_);
  while (!renew_stop_) {
    renew_cv_.wait_for(lock, std::chrono::nanoseconds(interval),
                       [&] { return renew_stop_; });
    if (renew_stop_) return;
    lock.unlock();
    if (renew_evidence) sweep_evidence_renewals();
    if (pump_tiering) sweep_tier_compiles();
    if (config_.module_prewarm) sweep_module_prewarms();
    lock.lock();
  }
}

// -- binary registry ---------------------------------------------------------

Bytes Gateway::copy_binary(const crypto::Sha256Digest& measurement) {
  std::lock_guard<std::mutex> lock(binaries_mu_);
  const auto it = binaries_.find(measurement);
  if (it == binaries_.end()) return {};
  it->second.last_used = ++binaries_tick_;
  return it->second.bytes;
}

void Gateway::register_binary(const crypto::Sha256Digest& measurement, Bytes binary) {
  // The normal-world registry is budgeted like the secure-side caches:
  // least-recently-used binaries are dropped to make room (an evicted
  // binary simply has to be re-uploaded before its next cold miss).
  // handle_load_module refuses binaries larger than the whole budget.
  while (!binaries_.empty() &&
         binaries_bytes_ + binary.size() > config_.binary_registry_budget_bytes) {
    auto victim = binaries_.begin();
    for (auto it = binaries_.begin(); it != binaries_.end(); ++it)
      if (it->second.last_used < victim->second.last_used) victim = it;
    binaries_bytes_ -= victim->second.bytes.size();
    binaries_.erase(victim);
  }
  binaries_bytes_ += binary.size();
  binaries_.emplace(measurement,
                    RegisteredBinary{std::move(binary), ++binaries_tick_});
}

// -- session teardown --------------------------------------------------------

bool Gateway::detach_session(std::uint64_t session_id) {
  // Mark the session closed FIRST so queued work items fail fast instead
  // of executing against a half-dropped session.
  if (!sessions_.detach(session_id)) return false;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [conn, ids] : conn_sessions_)
      std::erase(ids, session_id);
  }
  return true;
}

void Gateway::on_client_close(std::uint64_t conn) {
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    const auto it = conn_sessions_.find(conn);
    if (it == conn_sessions_.end()) return;
    ids = std::move(it->second);
    conn_sessions_.erase(it);
  }
  for (std::uint64_t id : ids) detach_session(id);
}

Result<Bytes> Gateway::handle_stats(ByteView request) {
  auto req = StatsRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  if (!sessions_.find(req->session_id))
    return Result<Bytes>::err("gateway: unknown session");
  return ok_envelope(stats(req->detail).encode());
}

Result<Bytes> Gateway::handle_detach(ByteView request) {
  auto req = DetachRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  if (!detach_session(req->session_id))
    return Result<Bytes>::err("gateway: unknown session");
  return ok_envelope({});
}

namespace {

/// Percentile summary of one registry histogram, as STATS serialises it.
StageStats stage_summary(const obs::Histogram& hist) {
  StageStats summary;
  summary.count = hist.count();
  summary.p50_ns = hist.percentile(0.50);
  summary.p90_ns = hist.percentile(0.90);
  summary.p99_ns = hist.percentile(0.99);
  return summary;
}

}  // namespace

GatewayStats Gateway::stats(bool detail) {
  GatewayStats stats;
  stats.sessions_active = sessions_.active();
  stats.sessions_total = sessions_.sessions_total();
  stats.handshakes_run = sessions_.handshakes_run();
  stats.handshakes_reused = sessions_.handshakes_reused();
  stats.invocations = invocations_.get();
  stats.queue_full_rejections = queue_full_rejections_.get();
  stats.deduped_lanes = deduped_lanes_.get();
  stats.evidence_renewals = evidence_renewals_.get();
  stats.tier_up_compiles = tier_up_compiles_.get();
  stats.native_entries = native_entries_.get();
  stats.jit_fallback_ops = jit_fallback_ops_.get();
  stats.jit_fallback_call = jit_fallback_call_.get();
  stats.invoke_memo_hits = invoke_memo_hits_.get();
  stats.migrations = migrations_.get();
  stats.prewarm_prepares = prewarm_prepares_.get();
  stats.stage_queue = stage_summary(queue_delay_hist_);
  stats.stage_exec = stage_summary(stage_exec_hist_);
  stats.stage_tee_entry = stage_summary(stage_tee_entry_hist_);
  stats.stage_ra = stage_summary(stage_ra_hist_);
  if (detail) {
    // Compile-duration percentiles ride the detail flag like the
    // slow-invoke ring: bulk diagnostics, not steady-state polling fare.
    stats.stage_jit_compile = stage_summary(tier_compile_ns_hist_);
    std::lock_guard<std::mutex> lock(slow_mu_);
    stats.slow_invokes.assign(slow_invokes_.begin(), slow_invokes_.end());
  }
  for (const ra::VerifierShardStats& s : verifier_->stats()) {
    RaShardStats shard;
    shard.msg0s = s.msg0s;
    shard.handshakes = s.handshakes;
    shard.rejects = s.rejects;
    shard.key_rotations = s.key_rotations;
    stats.ra_shards.push_back(shard);
  }
  {
    std::lock_guard<std::mutex> lock(binaries_mu_);
    stats.modules_registered = binaries_.size();
  }
  std::lock_guard<std::mutex> lock(backends_mu_);
  for (auto& [name, backend] : backends_) {
    DeviceStats d;
    d.hostname = name;
    d.pool_slots = static_cast<std::uint32_t>(backend.slots.size());
    for (const auto& slot : backend.slots) {
      SlotStats s;
      s.inflight = slot->inflight.load(std::memory_order_relaxed);
      s.queue_depth_peak = slot->queue_depth_peak.load(std::memory_order_relaxed);
      s.invocations = slot->invocations.load(std::memory_order_relaxed);
      s.busy_ns = slot->busy_ns.load(std::memory_order_relaxed);
      s.queue_full_rejections = slot->queue_full_rejections.get();
      d.invocations += s.invocations;
      d.busy_ns += s.busy_ns;
      d.queue_depth_peak = std::max(d.queue_depth_peak, s.queue_depth_peak);
      d.slots.push_back(s);
    }
    if (backend.queue_delay_hist != nullptr) {
      d.queue_delay_p50_ns = backend.queue_delay_hist->percentile(0.50);
      d.queue_delay_p90_ns = backend.queue_delay_hist->percentile(0.90);
      d.queue_delay_p99_ns = backend.queue_delay_hist->percentile(0.99);
    }
    {
      std::lock_guard<std::mutex> lock(backend.state_mu);
      d.secure_heap_in_use = backend.state.device->os().heap_in_use();
      d.boot_count = backend.state.boot_count;
      const ModuleCache& cache = *backend.state.cache;
      d.cache_hits = cache.hits();
      d.cache_misses = cache.misses();
      d.cache_evictions = cache.evictions();
      d.pool_hits = cache.pool_hits();
      d.cache_prewarms = cache.prewarms();
      if (detail) {
        // Per-measurement tier states ride the detail flag like the
        // slow-invoke ring: which tier each cached module executes on
        // (interp / AOT / native entries installed) and how hot it runs.
        for (const ModuleCache::TierState& t : cache.tier_states()) {
          ModuleTierStats m;
          m.measurement = t.measurement;
          m.mode = static_cast<std::uint8_t>(t.mode);
          m.functions = t.functions;
          m.native_functions = t.native_functions;
          m.hot_threshold = t.hot_threshold;
          m.calls = t.total_calls;
          d.modules.push_back(m);
        }
      }
    }
    stats.devices.push_back(std::move(d));
  }
  return stats;
}

}  // namespace watz::gateway
