// Wire protocol of the attested execution gateway.
//
// Clients talk to the gateway dispatcher over the fabric with framed,
// tagged requests (one byte of opcode, then opcode-specific fields; strings
// and blobs are ULEB-length-prefixed, scalars little-endian). Every
// response is an envelope: a status byte (0 = ok) followed by either the
// opcode-specific payload or an error string — so application failures
// travel in-band instead of tearing down the connection. Every message
// decoder applies one framing rule: a truncated frame, bytes after the last
// field, and a bool byte other than 0 or 1 are all rejected.
//
//   ATTACH      client attaches; the gateway runs the RA handshake against
//               every enrolled device and caches the verified evidence
//               under the returned session id.
//   LOAD_MODULE registers a Wasm binary; returns its SHA-256 measurement,
//               the key for every later INVOKE and for the module cache.
//   INVOKE      routes one invocation to the least-loaded slot and waits
//               for the result; the response reports where it ran and what
//               the caches saved. The gateway admits it as a one-lane
//               INVOKE_BATCH.
//   STATS       gateway-wide and per-device counters.
//   DETACH      drops the session (evidence cache included); queued work
//               for the session fails rather than executing detached.
//   INVOKE_BATCH
//               N invocations in one wire exchange: the gateway fans the
//               lanes across its per-slot run queues in one admission pass
//               (least-loaded over queue depth x EWMA slot latency) and
//               answers with one result per lane — partial success with
//               per-lane failed-index reporting, mirroring ATTACH_BATCH.
//               Lanes sharing (measurement, entry, args, heap) whose
//               sessions all hold fresh evidence for the chosen device
//               execute ONCE and fan the result (GatewayStats counts the
//               riders in deduped_lanes).
//
// Opcodes 0x06/0x07 are retired (they carried the SUBMIT/POLL ticket pair)
// and must not be reused: old clients may still send them, and the
// dispatcher answers them as unknown opcodes, with an error envelope.
//
// Backpressure travels in the envelope status byte: when every eligible
// slot run queue is at its bound, INVOKE answers with status 0x02
// (QUEUE_FULL) instead of admitting unbounded work; an INVOKE_BATCH lane
// reports the same QUEUE_FULL error at its index.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/leb128.hpp"
#include "common/result.hpp"
#include "crypto/sha256.hpp"
#include "wasm/types.hpp"

namespace watz::gateway {

enum class Op : std::uint8_t {
  Attach = 0x01,
  LoadModule = 0x02,
  Invoke = 0x03,
  Stats = 0x04,
  Detach = 0x05,
  AttachBatch = 0x08,
  InvokeBatch = 0x09,
};

/// Reads the opcode of a raw request frame.
Result<Op> peek_op(ByteView request);

// -- response envelope -------------------------------------------------------

/// Error-string prefix carried by a QUEUE_FULL envelope; clients test it
/// with is_queue_full() and retry/back off instead of treating the
/// rejection as a hard failure.
inline constexpr const char* kQueueFullPrefix = "QUEUE_FULL";

/// Wraps a successful payload: 0x00 || payload.
Bytes ok_envelope(ByteView payload);
/// Wraps an application error: 0x01 || uleb(len) || message.
Bytes err_envelope(const std::string& message);
/// Wraps a backpressure rejection: 0x02 || uleb(len) || message. The
/// request was NOT admitted; the client should retry after draining.
Bytes busy_envelope(const std::string& message);
/// Unwraps an envelope: the payload on success, the error otherwise
/// (QUEUE_FULL rejections surface as errors satisfying is_queue_full()).
Result<Bytes> open_envelope(ByteView response);
/// True when `error` came from a busy_envelope rejection.
bool is_queue_full(const std::string& error);

// -- requests / responses ----------------------------------------------------

struct AttachRequest {
  std::string client;

  Bytes encode() const;
  static Result<AttachRequest> decode(ByteView data);
};

struct AttachResponse {
  std::uint64_t session_id = 0;
  std::uint32_t devices_attested = 0;
  /// RA message exchanges spent attesting (2 per fresh handshake).
  std::uint32_t ra_exchanges = 0;

  Bytes encode() const;
  static Result<AttachResponse> decode(ByteView data);
};

/// Batched attach: N client sessions attached — and the whole fleet
/// attested for each — in one wire exchange. The gateway fans the
/// handshakes out across its backend workers, and each device amortises
/// its two RA round-trips across all N sessions via the batch frames of
/// ra/messages.hpp (N msg0s out, N msg1s back per fabric exchange).
/// Framing is strict: uleb count followed by exactly `count`
/// length-prefixed client names; a count/payload mismatch is a protocol
/// error for the whole request.
struct AttachBatchRequest {
  std::vector<std::string> clients;

  Bytes encode() const;
  static Result<AttachBatchRequest> decode(ByteView data);
};

/// Sessions the batch cannot exceed (bounds decode-side allocation).
inline constexpr std::uint32_t kMaxAttachBatch = 256;

/// Per-session outcome of a batched attach. The batch partially succeeds:
/// a session whose every device failed appraisal reports `error` (and
/// session_id 0) at its index while its siblings attach normally.
struct AttachBatchResult {
  std::uint64_t session_id = 0;
  std::uint32_t devices_attested = 0;
  /// RA protocol exchanges this session's attestations consumed (2 per
  /// fresh handshake — the protocol cost, not the wire cost).
  std::uint32_t ra_exchanges = 0;
  std::string error;  ///< non-empty when the session failed to attach

  bool ok() const noexcept { return error.empty(); }
};

struct AttachBatchResponse {
  /// Actual RA *fabric* round-trips the whole batch spent: 2 per device
  /// when every lane is fresh — independent of the session count, which is
  /// the amortisation ATTACH_BATCH exists for (unbatched attach costs
  /// 2 x devices x sessions).
  std::uint32_t ra_fabric_exchanges = 0;
  std::vector<AttachBatchResult> results;  ///< one per requested client, in order

  Bytes encode() const;
  static Result<AttachBatchResponse> decode(ByteView data);
};

struct LoadModuleRequest {
  std::uint64_t session_id = 0;
  Bytes binary;

  Bytes encode() const;
  static Result<LoadModuleRequest> decode(ByteView data);
};

struct LoadModuleResponse {
  crypto::Sha256Digest measurement{};
  bool already_registered = false;

  Bytes encode() const;
  static Result<LoadModuleResponse> decode(ByteView data);
};

struct InvokeRequest {
  std::uint64_t session_id = 0;
  crypto::Sha256Digest measurement{};
  std::string entry;
  std::vector<wasm::Value> args;
  /// Guest heap for a fresh instantiation; 0 = gateway default.
  std::uint64_t heap_bytes = 0;
  /// Optional trace identity (obs::TraceContext::trace_id). 0 = not traced;
  /// non-zero joins (or forces) a trace — the gateway instruments every
  /// stage of this lane and the response echoes the id. Batch lanes
  /// typically share one id so the fan-out renders as a single flame graph.
  std::uint64_t trace_id = 0;

  Bytes encode() const;
  static Result<InvokeRequest> decode(ByteView data);
  /// Opcode-independent field serialisation, shared with INVOKE_BATCH
  /// lanes.
  void encode_fields(Bytes& out) const;
  static Result<InvokeRequest> decode_fields(ByteReader& r);
};

struct InvokeResponse {
  std::vector<wasm::Value> results;
  std::string device;             ///< hostname the invocation ran on
  bool module_cache_hit = false;  ///< prepared module reused (Loading skipped)
  bool pool_hit = false;          ///< warm instance reused (launch skipped)
  std::uint64_t launch_ns = 0;    ///< instantiation cost paid for this call
  std::uint64_t invoke_ns = 0;    ///< sandbox execution cost
  /// RA message exchanges spent on this request (0 == session evidence was
  /// still fresh; the amortisation the session manager exists for).
  std::uint32_t ra_exchanges = 0;
  /// Time this request sat in the backend run queue between admission and
  /// the worker picking it up (the admission timestamp travels with the
  /// work item; STATS aggregates these into percentiles).
  std::uint64_t queue_delay_ns = 0;
  /// Echo of the trace that instrumented this invocation (0 = untraced).
  /// Clients use it to locate their lane in an exported trace file.
  std::uint64_t trace_id = 0;

  Bytes encode() const;
  static Result<InvokeResponse> decode(ByteView data);
};

/// Batched invoke: N invocations cross the wire in ONE exchange and fan
/// out across the backend run queues in one admission pass — the invoke
/// path's counterpart of ATTACH_BATCH. Framing mirrors the 0xAF RA batch
/// frames and is equally strict: uleb count, then exactly `count` lanes of
/// `uleb(lane) ‖ uleb(len) ‖ len bytes of invoke fields`. A count/payload
/// mismatch, a duplicate lane id, a lane whose payload under- or
/// over-fills its length prefix, or trailing bytes after the last lane
/// reject the WHOLE request as a protocol error before any lane is
/// admitted. Per-lane *application* failures (unknown session, QUEUE_FULL,
/// appraisal, traps) travel in the response items instead: the batch
/// partially succeeds and the client sees each failed index.
struct InvokeBatchRequest {
  struct Lane {
    std::uint32_t lane = 0;
    InvokeRequest invoke;
  };
  std::vector<Lane> lanes;

  Bytes encode() const;
  static Result<InvokeBatchRequest> decode(ByteView data);
};

/// Lanes one INVOKE_BATCH frame can carry (bounds decode-side allocation).
inline constexpr std::uint32_t kMaxInvokeBatch = 256;

/// Per-lane outcome of a batched invoke.
struct InvokeBatchResult {
  std::uint32_t lane = 0;
  std::string error;      ///< non-empty when this lane failed
  InvokeResponse result;  ///< valid iff error.empty()

  bool ok() const noexcept { return error.empty(); }
};

struct InvokeBatchResponse {
  std::vector<InvokeBatchResult> results;  ///< one per requested lane, in order

  Bytes encode() const;
  static Result<InvokeBatchResponse> decode(ByteView data);
};

struct StatsRequest {
  std::uint64_t session_id = 0;
  /// When set, the response additionally carries the slow-invoke log
  /// (GatewayStats::slow_invokes) — bulkier, so off by default.
  bool detail = false;

  Bytes encode() const;
  static Result<StatsRequest> decode(ByteView data);
};

/// Occupancy of one sandbox slot of a device's execution pool.
struct SlotStats {
  std::uint32_t inflight = 0;  ///< queued + executing at sample time
  std::uint32_t queue_depth_peak = 0;
  std::uint64_t invocations = 0;
  std::uint64_t busy_ns = 0;
  /// Admissions bounced off THIS slot's run queue (a single saturated slot
  /// is visible even when its siblings idle; spill-over admission bumps
  /// every slot it bounced off before landing).
  std::uint64_t queue_full_rejections = 0;
};

/// Per-measurement execution-tier snapshot of one device's module cache,
/// carried by STATS detail: which tier the module runs on (interp / AOT /
/// AOT + native entries) and how hot it is.
struct ModuleTierStats {
  crypto::Sha256Digest measurement{};
  std::uint8_t mode = 0;  ///< wasm::ExecMode (0 = Interp, 1 = Aot)
  std::uint32_t functions = 0;         ///< functions in the module
  std::uint32_t native_functions = 0;  ///< with an installed native entry
  std::uint32_t hot_threshold = 0;     ///< calls before tier-up queues
  std::uint64_t calls = 0;             ///< heat: sum of per-function calls
};

struct DeviceStats {
  std::string hostname;
  std::uint64_t boot_count = 0;
  std::uint64_t invocations = 0;  ///< sum over the slot pool
  std::uint64_t busy_ns = 0;      ///< sum over the slot pool
  std::uint32_t queue_depth_peak = 0;  ///< max over the slot pool
  std::uint64_t secure_heap_in_use = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t pool_hits = 0;
  /// Modules pushed into this device's cache by the background prewarm
  /// sweep (prepared ahead of any invoke, so failover lands warm — a
  /// prewarmed module's first invoke is a cache HIT, not a miss).
  std::uint64_t cache_prewarms = 0;
  /// Queueing-delay percentiles for THIS device's run queues (log2-bucket
  /// upper bounds, like the gateway-wide stage_queue), so a slow device is
  /// not averaged away behind its fleet.
  std::uint64_t queue_delay_p50_ns = 0;
  std::uint64_t queue_delay_p90_ns = 0;
  std::uint64_t queue_delay_p99_ns = 0;
  /// Pool depth (GatewayConfig::slots_per_device at enrolment) and the
  /// per-slot occupancy breakdown, in slot order.
  std::uint32_t pool_slots = 0;
  std::vector<SlotStats> slots;
  /// Per-measurement tier state of this device's module cache (interp /
  /// AOT / native + heat). Populated only when the STATS request set its
  /// detail flag; the wire always carries the count.
  std::vector<ModuleTierStats> modules;
};

/// Per-verifier-shard counters (the RA endpoint shards handshake state by
/// session id; see ra/verifier_shard.hpp).
struct RaShardStats {
  std::uint64_t msg0s = 0;       ///< handshakes started on this shard
  std::uint64_t handshakes = 0;  ///< appraisals passed (msg3 issued)
  std::uint64_t rejects = 0;
  std::uint64_t key_rotations = 0;
};

/// Percentile summary of one pipeline stage's latency histogram
/// (obs::Histogram upper bounds; count is the sample count).
struct StageStats {
  std::uint64_t count = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p90_ns = 0;
  std::uint64_t p99_ns = 0;
};

/// One entry of the slow-invoke log: an invocation whose end-to-end
/// latency exceeded GatewayConfig::slow_invoke_threshold_ns, with its
/// per-stage breakdown. Carried by STATS only when StatsRequest::detail.
struct SlowInvoke {
  std::uint64_t trace_id = 0;  ///< 0 when the invocation was unsampled
  std::uint64_t total_ns = 0;  ///< admission -> response
  std::uint64_t queue_ns = 0;
  std::uint64_t prepare_ns = 0;  ///< checkout or cold prepare
  std::uint64_t tee_ns = 0;      ///< world-switch charges (enter + leave)
  std::uint64_t exec_ns = 0;     ///< sandbox execution
  std::uint64_t ra_ns = 0;       ///< lazy handshake on the critical path
  std::string device;
  std::string entry;
};

struct GatewayStats {
  std::uint64_t sessions_active = 0;
  std::uint64_t sessions_total = 0;
  std::uint64_t handshakes_run = 0;
  std::uint64_t handshakes_reused = 0;
  std::uint64_t modules_registered = 0;
  std::uint64_t invocations = 0;
  /// Invoke lanes bounced with QUEUE_FULL backpressure.
  std::uint64_t queue_full_rejections = 0;
  /// INVOKE_BATCH lanes that rode a sibling lane's execution instead of
  /// running (same measurement/entry/args/heap, fresh evidence): answered
  /// without entering a sandbox.
  std::uint64_t deduped_lanes = 0;
  /// Session evidences re-proved by the background renewal sweep BEFORE
  /// their TTL lapsed (the hot path never saw the staleness).
  std::uint64_t evidence_renewals = 0;
  /// Functions tiered up to native code across the fleet (one count per
  /// function per measurement: codegen is paid once fleet-wide).
  std::uint64_t tier_up_compiles = 0;
  /// Guest invocations that entered through an installed native entry
  /// instead of the AOT interpreter stream.
  std::uint64_t native_entries = 0;
  /// Opcodes executed through the JIT's per-opcode fallback thunks
  /// rather than inline native code. Call/call_indirect helper dispatches
  /// are counted separately in jit_fallback_call and are NOT part of
  /// jit_fallback_ops — dispatch is expected, not a coverage hole.
  std::uint64_t jit_fallback_ops = 0;
  std::uint64_t jit_fallback_call = 0;
  /// Invoke lanes answered from the short-TTL result memo without
  /// entering a sandbox: twins riding a
  /// recent execution, and retries whose first attempt executed but lost
  /// its response in flight (the exactly-once replay absorber).
  std::uint64_t invoke_memo_hits = 0;
  /// Invocations that recovered on a DIFFERENT device after their placed
  /// device failed appraisal (reboot mid-flight, expired evidence the
  /// handshake could not refresh): the session was transparently
  /// re-placed and the lane replayed on a live device.
  std::uint64_t migrations = 0;
  /// Module prepares pushed to enrolled devices by the background prewarm
  /// sweep (cross-device ModuleCache::prepare, so failover lands warm).
  std::uint64_t prewarm_prepares = 0;
  /// Per-stage latency histograms of the invoke pipeline, serialised from
  /// the gateway's obs::Registry (stage.queue / stage.exec /
  /// stage.tee_entry / stage.ra). stage_queue is the queueing delay of
  /// every work item admitted to a backend run queue (admission timestamp
  /// -> worker pickup).
  StageStats stage_queue;
  StageStats stage_exec;
  StageStats stage_tee_entry;
  StageStats stage_ra;
  /// Native tier-up compile durations (wasm.tier_compile_ns). Populated
  /// only when the STATS request set its detail flag, like slow_invokes;
  /// the wire always carries the field.
  StageStats stage_jit_compile;
  std::vector<DeviceStats> devices;
  std::vector<RaShardStats> ra_shards;
  /// Most recent slow invocations (newest last); populated only when the
  /// STATS request set its detail flag. The wire always carries the count.
  std::vector<SlowInvoke> slow_invokes;

  Bytes encode() const;
  static Result<GatewayStats> decode(ByteView data);
};

struct DetachRequest {
  std::uint64_t session_id = 0;

  Bytes encode() const;
  static Result<DetachRequest> decode(ByteView data);
};

}  // namespace watz::gateway
