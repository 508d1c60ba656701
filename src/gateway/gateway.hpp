// The attested execution gateway: a multi-tenant service layer in front of
// a fleet of WaTZ devices.
//
// The gateway binds two fabric endpoints:
//   * a client-facing dispatcher (GatewayConfig::port) speaking the framed
//     protocol of protocol.hpp;
//   * an RA endpoint (GatewayConfig::ra_port) where the gateway's
//     ra::ShardedVerifier listens and enrolled devices prove themselves —
//     the same four-message WaTZ protocol of SS IV, with the device's
//     *platform claim* (hash of its measured boot chain) as the claim.
//     Handshake state is sharded by session id (GatewayConfig::ra_shards)
//     and whole fleets of handshakes pipeline through the batch frames of
//     ra/messages.hpp (one fabric exchange carries N msg0s), so attach
//     storms scale with shards instead of serialising on a verifier lock.
//
// Amortisation happens in two layers, one per expensive path:
//   * SessionManager — the RA handshake runs once per (session, device)
//     and its verified evidence is cached until the policy (TTL or a
//     boot-count change) invalidates it;
//   * ModuleCache (one per device) — the Loading phase runs once per
//     (device, measurement); warm invokes reuse the prepared module or a
//     pooled instance outright.
//
// Execution model (see DESIGN.md §2 "Concurrency model"): every enrolled
// device runs a POOL of sandbox slots (GatewayConfig::slots_per_device).
// Each slot is one core::SandboxSlot — its own secure monitor, its own
// worker thread, its own bounded run queue — so N slots of one device
// execute guest invokes concurrently, while control-plane TEE entry (RA
// handshakes on the device's primary monitor) serialises on the device's
// core::DeviceControl. The warm instance pool is handed out per slot
// (ModuleCache matches on the slot monitor), and sessions carry a soft
// slot-affinity hint so repeat invokes reuse a warm instance. Dispatcher
// handlers run on the calling client's thread and only ADMIT work: every
// invoke — INVOKE is one lane, INVOKE_BATCH N — goes through one admission
// function that places each lane on a SLOT (the session's idle affinity
// slot, else the cheapest by queue depth x EWMA slot latency), enqueues a
// work item and waits for the result. When every eligible queue is at its
// bound the lane is bounced with QUEUE_FULL backpressure instead of being
// admitted unbounded. The per-device
// secure-heap budget stays SHARED across the pool: all slots charge one
// TrustedOs heap and one ModuleCache budget.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/device.hpp"
#include "gateway/client.hpp"
#include "gateway/invoke_memo.hpp"
#include "gateway/module_cache.hpp"
#include "gateway/protocol.hpp"
#include "gateway/session_manager.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ra/verifier_shard.hpp"

namespace watz::gateway {

struct GatewayConfig {
  std::string hostname = "gateway";
  std::uint16_t port = 7000;     ///< client-facing dispatcher endpoint
  std::uint16_t ra_port = 7001;  ///< attestation endpoint devices prove to
  SessionPolicy session_policy{};
  ModuleCacheConfig cache{};
  /// Guest heap for invokes that do not specify one.
  std::size_t default_heap_bytes = 2 * 1024 * 1024;
  /// Normal-world budget for the LOAD_MODULE binary registry;
  /// least-recently-used binaries are dropped beyond it (clients re-upload
  /// on the resulting cold miss). LOAD_MODULE refuses a binary larger than
  /// the whole budget.
  std::size_t binary_registry_budget_bytes = 64 * 1024 * 1024;
  /// Bound of each slot's run queue (queued + executing work items).
  /// Invoke admission past it answers QUEUE_FULL.
  std::size_t worker_queue_capacity = 64;
  /// Sandbox slots per enrolled device: each slot is one
  /// core::SandboxSlot (own secure monitor) with its own worker thread
  /// and run queue, so one device executes up to this many invokes
  /// concurrently. 1 reproduces the old single-worker actor model.
  std::size_t slots_per_device = 1;
  /// Native-codegen tiering across the fleet: forwarded to each enrolled
  /// device's runtime (core::JitTierOptions) at enrolment. Hot functions
  /// tier up to x86-64 native code, compiled ONCE per measurement by the
  /// background sweeper and inherited by every warm checkout. No-ops on
  /// hosts where wasm::jit::jit_available() is false (non-x86-64,
  /// WATZ_DISABLE_JIT): execution stays on the AOT stream wholesale.
  bool jit_tiering = true;
  /// Per-function call count before background native compilation.
  std::uint32_t jit_hot_calls = 64;
  /// Invoke result memo: a lane whose (measurement, entry, args, heap)
  /// executed this recently — and whose session holds fresh evidence for
  /// the executing device, or produced the result itself — is answered
  /// with the memoised result instead of entering a sandbox (the
  /// cross-call counterpart of in-batch rider dedup, and the replay
  /// absorber for retried deliveries). 0 (default) disables the memo.
  std::uint64_t invoke_memo_ttl_ns = 0;
  /// Background evidence renewal: re-attest session evidence at ~80% of
  /// SessionPolicy::evidence_ttl_ns (batched, on the control lane) so the
  /// invoke hot path never pays a lazy RA handshake. Only meaningful with
  /// a finite TTL.
  bool evidence_renewal = true;
  /// Renewal sweep period; 0 = auto (evidence_ttl_ns / 5).
  std::uint64_t renewal_interval_ns = 0;
  /// Cross-device module prewarm: the background sweeper pushes every
  /// registered LOAD_MODULE binary through ModuleCache::prepare() on every
  /// enrolled device (prepare-only — no instantiation), so a session that
  /// fails over to another device lands on a warm cache instead of paying
  /// the ~73% Loading phase cold. Off by default; tests/benches can also
  /// drive sweep_module_prewarms() directly.
  bool module_prewarm = false;
  /// Verifier shards on the RA endpoint: handshake state is sharded by
  /// session id so attach storms from many devices appraise in parallel
  /// instead of serialising on one verifier lock.
  std::size_t ra_shards = 4;
  /// Modeled per-appraisal verifier latency, slept under the owning shard
  /// lock (see ra::ShardedVerifierConfig::appraisal_latency_ns). Bench
  /// knob; 0 (default) disables it.
  std::uint64_t ra_appraisal_latency_ns = 0;
  /// Trace sampling: every Nth INVOKE or INVOKE_BATCH (whose lanes share
  /// one trace) records stage spans into the gateway's SpanSink.
  /// 0 (default) = tracing off; a non-zero trace_id on the wire request
  /// forces a trace regardless.
  std::uint64_t trace_sample_n = 0;
  /// Invocations whose end-to-end gateway residency (queueing included)
  /// exceeds this land in the slow-invoke ring dumped by STATS detail.
  /// 0 disables the log.
  std::uint64_t slow_invoke_threshold_ns = 0;
};

class Gateway {
 public:
  Gateway(net::Fabric& fabric, GatewayConfig config, ByteView identity_seed);
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Binds the dispatcher and RA endpoints on the fabric.
  Status start();

  /// Enrols a device: endorses its attestation key, registers its platform
  /// claim as a reference value, gives it a module cache and starts its
  /// worker thread. Re-enrolling the same hostname models a reboot/board
  /// swap: the boot count bumps, which invalidates every session's cached
  /// evidence for that device (the worker survives the reboot).
  Status add_device(core::Device& device);

  /// Fleet-wide statistics, serialised from the metrics registry. `detail`
  /// additionally copies out the slow-invoke ring (GatewayStats::slow_invokes).
  GatewayStats stats(bool detail = false);
  /// The typed metrics plane: every gateway counter/gauge/histogram lives
  /// here (or is linked here by its owning layer) under a stable name.
  obs::Registry& registry() noexcept { return registry_; }
  /// The span sink sampled invocations record into; drain it (or hand it
  /// to obs::SpanSink::to_chrome_trace) to render invocation flame graphs.
  obs::SpanSink& span_sink() noexcept { return span_sink_; }
  SessionManager& sessions() noexcept { return sessions_; }
  ra::ShardedVerifier& verifier() noexcept { return *verifier_; }
  const crypto::EcPoint& identity() const noexcept { return verifier_->identity_key(); }
  const GatewayConfig& config() const noexcept { return config_; }

  /// Runs one evidence-renewal pass NOW (what the background sweeper does
  /// every renewal interval): re-attests every session whose evidence has
  /// aged past ~80% of the TTL, one batched attest() per device on its
  /// control lane. Returns how many evidences were renewed. Public so
  /// tests drive renewal deterministically.
  std::size_t sweep_evidence_renewals();

  /// Runs one native tier-up pass NOW (what the background sweeper does
  /// every interval): compiles every function the fleet's heat counters
  /// queued since the last pass. Codegen never enters a TEE and takes only
  /// leaf locks, so it runs on the calling (control-plane) thread rather
  /// than occupying a sandbox slot. Returns functions tiered up. Public so
  /// tests and benches drive tiering deterministically.
  std::size_t sweep_tier_compiles();

  /// Runs one cross-device prewarm pass NOW (what the background sweeper
  /// does when GatewayConfig::module_prewarm is on): on every device's
  /// control lane, pushes every registered binary its cache does not hold
  /// through ModuleCache::prepare(). Returns how many modules were freshly
  /// prepared across the fleet. Public so tests drive prewarm
  /// deterministically.
  std::size_t sweep_module_prewarms();

 private:
  struct Backend;

  /// One sandbox slot of a device's execution pool: a worker thread
  /// draining a bounded MPSC run queue, bound to one core::SandboxSlot
  /// (its monitor) of the backend's current DeviceControl. All guest
  /// execution happens on slot workers; control-plane items (attach
  /// attestation, evidence renewal, module prewarm) ride slot 0 — the
  /// "control lane" — with force admission, serialising on the
  /// DeviceControl TEE mutex inside the item.
  struct Slot {
    Backend* backend = nullptr;
    std::size_t index = 0;      ///< within the device pool (monitor binding)
    std::size_t global_id = 0;  ///< fleet-wide id (affinity hints, tie-break)

    /// Bounded MPSC run queue: any dispatcher thread posts, the one worker
    /// drains. inflight counts queued + executing and is what admission
    /// bounds and placement compares. Every item carries its admission
    /// timestamp; the worker hands the measured queueing delay to the task.
    struct WorkItem {
      std::uint64_t admitted_ns = 0;
      std::function<void(std::uint64_t queue_delay_ns)> run;
    };
    std::mutex queue_mu;
    std::condition_variable queue_cv;
    std::deque<WorkItem> queue;
    bool stop = false;
    std::thread worker;

    std::atomic<std::uint32_t> inflight{0};
    std::atomic<std::uint32_t> queue_depth_peak{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> invocations{0};
    /// EWMA (alpha = 1/8) of the observed per-invoke service time
    /// (launch + guest execution) on this slot. Written only by the
    /// slot's own worker thread; read by placement on any dispatcher
    /// thread. 0 = never sampled: placement probes such a slot ahead
    /// of anything measured, but only with a bounded couple of items
    /// (see placement_cost).
    std::atomic<std::uint64_t> ewma_invoke_ns{0};
    /// Admissions this slot bounced with QUEUE_FULL. Spill-over admission
    /// bumps every slot it bounced off, so the per-slot counts expose
    /// WHICH queues saturate (the gateway-level counter only counts
    /// requests that exhausted every candidate).
    obs::Counter queue_full_rejections;
  };

  /// One enrolled device: the control-plane state shared by its slot pool.
  struct Backend {
    std::string hostname;         ///< immutable after first enrolment
    std::size_t enrol_index = 0;  ///< stable enrolment order

    /// Re-enrolment swaps these under state_mu; workers snapshot them so
    /// a mid-flight invoke keeps the pre-reboot cache (and, on a board
    /// swap, the pre-swap device + its slot monitors) alive instead of
    /// racing the swap.
    struct State {
      core::Device* device = nullptr;
      std::shared_ptr<core::DeviceControl> control;
      std::shared_ptr<ModuleCache> cache;
      std::shared_ptr<crypto::Fortuna> attester_rng;
      crypto::Sha256Digest platform_claim{};
      std::uint64_t boot_count = 0;
    };
    std::mutex state_mu;
    State state;  ///< guarded by state_mu
    State snapshot() {
      std::lock_guard<std::mutex> lock(state_mu);
      return state;
    }

    /// The slot pool: fixed at first enrolment (slots_per_device), the
    /// worker threads survive re-enrolment the way the old single worker
    /// did.
    std::vector<std::unique_ptr<Slot>> slots;

    /// This device's admission->pickup delay histogram
    /// (device.<host>.queue_delay in the gateway registry); set once at
    /// first enrolment, stable thereafter (registry entries never move).
    obs::Histogram* queue_delay_hist = nullptr;
  };

  /// Placement cost of admitting one more item to `slot`: predicted
  /// completion time (queued + executing + the newcomer) x the slot's
  /// EWMA service time — the "Adaptive placement" model that lets
  /// heterogeneous fleets route around slow boards. Admission bumps
  /// `inflight` immediately, so lanes a batch pass already admitted are
  /// visible to the next lane's score with no extra bookkeeping.
  static std::uint64_t placement_cost(const Slot& slot);

  Result<Bytes> handle_request(std::uint64_t conn, ByteView request);
  Result<Bytes> handle_attach(std::uint64_t conn, ByteView request);
  Result<Bytes> handle_attach_batch(std::uint64_t conn, ByteView request);
  /// Shared attach fan-out: creates one session per client, attests the
  /// whole fleet for all of them (one attest() per backend on its control
  /// lane, lane i == session i), detaches sessions no device would attest,
  /// links survivors to `conn`. A plain ATTACH is a batch of one.
  Result<AttachBatchResponse> attach_sessions(std::uint64_t conn,
                                              const std::vector<std::string>& clients);
  Result<Bytes> handle_load_module(ByteView request);
  /// INVOKE and INVOKE_BATCH decode into lanes for admit_lanes; they differ
  /// only in framing.
  Result<Bytes> handle_invoke(ByteView request);
  Result<Bytes> handle_invoke_batch(ByteView request);
  Result<Bytes> handle_stats(ByteView request);
  Result<Bytes> handle_detach(ByteView request);

  /// The one invoke admission path; returns one result per lane, in
  /// order. Per lane: session lookup, memo lookup, in-call dedup (a twin
  /// whose session holds fresh evidence for an admitted leader's device
  /// rides that leader's result; deduped_lanes counts riders), placement
  /// (the session's idle affinity slot, else the cheapest ScoredSlot by a
  /// full scan, spilling down the cost order past full queues), then —
  /// once the whole pass is admitted, so lanes execute concurrently —
  /// the await, re-admission past devices that fail appraisal (session
  /// migration), the rider fan-out and the Respond span. Failures —
  /// unknown session, total backpressure, appraisal, traps — report at
  /// that lane's index while its siblings succeed.
  std::vector<Result<InvokeResponse>> admit_lanes(std::span<const InvokeRequest> lanes);

  /// Fabric close hook for the dispatcher endpoint: a client that drops
  /// its connection implicitly detaches every session it attached over it,
  /// failing that session's queued work instead of racing it.
  void on_client_close(std::uint64_t conn);
  /// Detach + unlink the conn mapping.
  bool detach_session(std::uint64_t session_id);

  /// Immutable placement snapshot of one slot: the three ranking keys
  /// read ONCE from the live atomics. Sorting/min-ing snapshots (instead
  /// of comparing the atomics in the comparator) keeps the order strict-
  /// weak even while workers mutate inflight/busy/EWMA concurrently —
  /// comparing live atomics inside std::sort is undefined behaviour.
  struct ScoredSlot {
    std::uint64_t cost = 0;   ///< placement_cost at snapshot time
    std::uint64_t busy = 0;   ///< accumulated busy time tie-break
    std::size_t order = 0;    ///< global slot-order tie-break
    Slot* slot = nullptr;
    /// The placement order: cheapest first.
    bool operator<(const ScoredSlot& other) const noexcept {
      if (cost != other.cost) return cost < other.cost;
      if (busy != other.busy) return busy < other.busy;
      return order < other.order;
    }
  };
  static ScoredSlot score_slot(Slot& slot);

  /// The one way work reaches a slot: enqueues `fn` on the slot's run
  /// queue, stamping its admission time, and returns the future of
  /// fn(queue_delay_ns). The item decrements `inflight` just BEFORE
  /// publishing its result, so admission capacity is free by the time a
  /// waiter observes completion. Fails (nothing enqueued) on shutdown, and
  /// QUEUE_FULL at the bound unless `force` (control-plane items).
  template <class Fn>
  auto submit(Slot& slot, Fn fn, bool force)
      -> Result<std::future<std::invoke_result_t<Fn&, std::uint64_t>>>;
  void worker_loop(Slot& slot);

  /// The control-plane fan-out: runs fn(i) as one forced item on the
  /// control lane (slot 0) of every backends[i] — concurrently across the
  /// fleet, so `fn` runs on several worker threads at once — and returns
  /// the results in order. `stopped` stands in for fn(i) once the gateway
  /// is shutting down: the item found stopping_ set, or the lane refused
  /// the post (a forced post fails for no other reason).
  template <class T, class Fn>
  std::vector<T> on_control_lanes(const std::vector<Backend*>& backends,
                                  const T& stopped, Fn fn);

  /// Snapshot of the enrolled backends, in enrolment order.
  std::vector<Backend*> fleet();

  /// Background sweeper (started by start(), which decides its duties):
  /// wakes every renewal interval and runs sweep_evidence_renewals() when
  /// `renew_evidence`, sweep_tier_compiles() when `pump_tiering`, and
  /// sweep_module_prewarms() when GatewayConfig::module_prewarm.
  void renewal_loop(bool renew_evidence, bool pump_tiering);

  /// Result-memo lookup (gated on invoke_memo_ttl_ns != 0): the memoised
  /// response under `key` (invoke_dedup_key of the lane), if
  /// one was recorded within the TTL and the trust gate passes — either
  /// `session` holds fresh evidence for the device that executed it, or
  /// `session` IS the producer redeeming its own result (a retry after a
  /// chaos-dropped response; its result was produced under evidence that
  /// was fresh at execution time, so no freshness re-check can invalidate
  /// it — this is what absorbs duplicate deliveries without
  /// double-executing). Bumps invoke_memo_hits on a hit.
  std::optional<InvokeResponse> memo_lookup(Session& session,
                                            const std::string& key);
  /// Records a successful invoke outcome in the memo under `key` (TTL
  /// enabled only). `producer_session` is the session whose invoke
  /// produced the result.
  void memo_store(const std::string& key, const InvokeResponse& response,
                  const std::string& device, std::uint64_t boot_count,
                  std::uint64_t producer_session);

  /// The trace decision for one admission call (a whole batch):
  /// a non-zero wire id joins that trace; otherwise every trace_sample_n'th
  /// decision opens a fresh trace. Returns the trace id, 0 = untraced.
  std::uint64_t maybe_trace(std::uint64_t wire_trace_id);

  /// Folds one completed invocation into the slow-invoke ring when its
  /// gateway residency exceeded GatewayConfig::slow_invoke_threshold_ns.
  void record_slow_invoke(SlowInvoke entry);

  /// The INVOKE work item body. Runs ON the slot's worker thread: attests
  /// the session if needed (control plane, serialised on the
  /// DeviceControl TEE mutex), acquires a cached instance bound to the
  /// slot's monitor, invokes, releases clean exits back to the warm pool,
  /// and stamps the session's slot-affinity hint. Emits stage spans when
  /// the posting dispatcher sampled this invocation into a trace. A
  /// successful result is memoised under `memo_key` when the memo is on.
  Result<InvokeResponse> execute_invoke(Slot& slot, const SessionPtr& session,
                                        const InvokeRequest& request,
                                        const std::string* memo_key,
                                        std::uint64_t queue_delay_ns);

  /// Outcome of one batched protocol run against one device.
  struct BatchHandshake {
    /// RA wire round-trips actually spent (2 when any lane reached msg2 —
    /// independent of the lane count, which is the amortisation).
    std::uint32_t fabric_exchanges = 0;
    std::vector<Result<attestation::Evidence>> lanes;
  };

  /// One device's attestation of `sessions`: per session (lane i), the RA
  /// exchanges spent or the error ("gateway: <host> failed appraisal: ...").
  struct Attested {
    std::uint32_t fabric_exchanges = 0;  ///< as in BatchHandshake
    std::vector<Result<std::uint32_t>> lanes;
  };

  /// The one attestation step (attach, renewal sweep, lazy per-invoke
  /// handshake), synchronous on the calling thread: reads the boot count,
  /// runs one run_handshake_batch covering every session and records each
  /// lane's evidence, stamped `stamp_ns` or, when empty, the time the
  /// handshake finished.
  Attested attest(Backend& backend, std::span<const SessionPtr> sessions,
                  std::optional<std::uint64_t> stamp_ns);

  /// Drives `lanes` attester sessions of the WaTZ protocol in lockstep
  /// inside the device's TEE (its PRIMARY monitor, serialised on the
  /// DeviceControl TEE mutex) against this gateway's RA endpoint — all
  /// msg0s cross in ONE fabric exchange, all msg2s in a second (the
  /// ra/messages.hpp batch frames), so the handshake's two round-trips are
  /// amortised across the whole batch. A lazy per-invoke handshake is one
  /// lane. Returned evidence has already been appraised by verifier_ en
  /// route. Outer error = transport/device failure; per-lane results let a
  /// batch partially succeed (one stale lane fails alone).
  Result<BatchHandshake> run_handshake_batch(Backend& backend, std::size_t lanes);

  struct RegisteredBinary {
    Bytes bytes;
    std::uint64_t last_used = 0;
  };

  /// Copies the registered binary for `measurement` out of the registry
  /// (empty when never uploaded / already evicted). A copy, not a view:
  /// the worker consuming it must not race registry eviction.
  Bytes copy_binary(const crypto::Sha256Digest& measurement);
  /// Inserts under the registry budget, evicting LRU binaries to fit.
  /// Caller holds binaries_mu_.
  void register_binary(const crypto::Sha256Digest& measurement, Bytes binary);

  net::Fabric& fabric_;
  GatewayConfig config_;
  crypto::Fortuna rng_;  // seeds the shard RNG streams
  /// RA-endpoint verifier, sharded by session id: each shard locks
  /// independently, so concurrent handshakes from many backend workers
  /// appraise in parallel (the old single ra_mu_ serialised them all).
  std::unique_ptr<ra::ShardedVerifier> verifier_;
  SessionManager sessions_;

  mutable std::mutex backends_mu_;  // guards backends_ / order vectors' shape
  std::map<std::string, Backend> backends_;  // keyed by device hostname
  std::vector<Backend*> backend_order_;      // enrolment order (stable ptrs)
  /// Every slot of every backend, flattened in enrolment order — THE
  /// placement domain (slot global_id indexes into it). Stable pointers:
  /// slots are never destroyed while the gateway lives.
  std::vector<Slot*> slot_order_;

  std::mutex binaries_mu_;  // guards the LOAD_MODULE registry
  std::map<crypto::Sha256Digest, RegisteredBinary> binaries_;
  std::size_t binaries_bytes_ = 0;
  std::uint64_t binaries_tick_ = 0;

  /// Invoke result memo, keyed by the lane dedup key
  /// (measurement + entry + args + heap). Trust gating and hot-aware
  /// eviction live in InvokeMemo; the gateway applies the trust gate in
  /// memo_lookup before note_hit. Bounded at kInvokeMemoCap.
  static constexpr std::size_t kInvokeMemoCap = 256;
  InvokeMemo memo_{kInvokeMemoCap};

  std::mutex conn_mu_;  // guards conn_sessions_
  std::map<std::uint64_t, std::vector<std::uint64_t>> conn_sessions_;

  /// The typed metrics plane. Declared before the references below: the
  /// named metrics are resolved ONCE here (the registry hands out stable
  /// addresses), so the hot paths touch a plain atomic — never the
  /// registry map or its lock.
  obs::Registry registry_;
  obs::SpanSink span_sink_;
  obs::Counter& invocations_ = registry_.counter("gateway.invocations");
  /// Requests bounced after exhausting every placement candidate (the
  /// per-slot counters record the individual bounces).
  obs::Counter& queue_full_rejections_ =
      registry_.counter("gateway.queue_full_rejections");
  /// Lanes answered by riding a sibling lane's execution.
  obs::Counter& deduped_lanes_ = registry_.counter("gateway.deduped_lanes");
  /// Evidences re-proved ahead of TTL by the renewal sweep.
  obs::Counter& evidence_renewals_ =
      registry_.counter("gateway.evidence_renewals");
  /// Lanes answered from the invoke result memo.
  obs::Counter& invoke_memo_hits_ =
      registry_.counter("gateway.invoke_memo_hits");
  /// Lanes transparently re-placed onto a DIFFERENT device after
  /// their first-choice device failed appraisal (reboot storm, expired
  /// evidence, dead link) — the session-migration counter the chaos suite
  /// asserts on.
  obs::Counter& migrations_ = registry_.counter("gateway.migrations");
  /// Modules freshly prepared by the cross-device prewarm sweep.
  obs::Counter& prewarm_prepares_ =
      registry_.counter("gateway.prewarm_prepares");
  /// Fleet-wide native-tiering instruments. Every enrolled device's module
  /// cache binds its TierSets' metric flushes here (codegen is per
  /// measurement, so these count tier-ups across the whole fleet).
  obs::Counter& tier_up_compiles_ = registry_.counter("wasm.tier_up_compiles");
  obs::Counter& native_entries_ = registry_.counter("wasm.native_entries");
  obs::Counter& jit_fallback_ops_ = registry_.counter("wasm.jit_fallback_ops");
  /// Helper call dispatches, apart from jit_fallback_ops: dispatch is
  /// expected, not missing coverage.
  obs::Counter& jit_fallback_call_ = registry_.counter("wasm.jit_fallback_call");
  obs::Histogram& tier_compile_ns_hist_ =
      registry_.histogram("wasm.tier_compile_ns");
  /// Per-stage latency histograms (log2 buckets; STATS serialises their
  /// percentiles). stage.queue doubles as the fleet-wide queue-delay
  /// percentile source the old hand-rolled bucket array fed.
  obs::Histogram& queue_delay_hist_ = registry_.histogram("stage.queue");
  obs::Histogram& stage_exec_hist_ = registry_.histogram("stage.exec");
  obs::Histogram& stage_tee_entry_hist_ =
      registry_.histogram("stage.tee_entry");
  obs::Histogram& stage_tee_exit_hist_ = registry_.histogram("stage.tee_exit");
  obs::Histogram& stage_ra_hist_ = registry_.histogram("stage.ra");
  /// Sampling clock for maybe_trace (counts trace DECISIONS, not lanes:
  /// one tick per INVOKE or INVOKE_BATCH).
  std::atomic<std::uint64_t> trace_tick_{0};
  /// Slow-invoke ring: the last kSlowInvokeRing invocations that overran
  /// GatewayConfig::slow_invoke_threshold_ns, oldest evicted first.
  static constexpr std::size_t kSlowInvokeRing = 32;
  std::mutex slow_mu_;
  std::deque<SlowInvoke> slow_invokes_;
  /// Renewal sweeper thread state (start()/~Gateway lifecycle).
  std::mutex renew_mu_;
  std::condition_variable renew_cv_;
  bool renew_stop_ = false;
  std::thread renew_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace watz::gateway
