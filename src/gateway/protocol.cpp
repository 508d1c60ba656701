#include "gateway/protocol.hpp"

#include <algorithm>
#include <concepts>
#include <limits>
#include <optional>
#include <type_traits>

namespace watz::gateway {

// Each message's wire layout is written once, as a field list
// `fields(io, m)`. A Writer runs it to encode and a Reader runs the same
// list to decode, so the two sides cannot drift. Both cursors name their
// primitives alike; the Writer's take values, the Reader's fill references.

namespace {

/// Selects T's field list for M = T (read side) and M = const T (write side).
template <class M, class T>
concept Wire = std::same_as<std::remove_const_t<M>, T>;

constexpr std::uint32_t kUnbounded = std::numeric_limits<std::uint32_t>::max();

class Writer {
 public:
  explicit Writer(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void boolean(bool v) { out_.push_back(v ? 1 : 0); }
  void u32(std::uint32_t v) { put_u32le(out_, v); }
  void u64(std::uint64_t v) { put_u64le(out_, v); }
  void uleb(std::uint32_t v) { write_uleb(out_, v); }
  void str(std::string_view s) {
    write_uleb(out_, s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void blob(ByteView b) {
    write_uleb(out_, b.size());
    append(out_, b);
  }
  void digest(const crypto::Sha256Digest& d) { append(out_, d); }
  void values(const std::vector<wasm::Value>& v) {
    list(v, "value", 9, kUnbounded, [this](const wasm::Value& x) {
      u8(static_cast<std::uint8_t>(x.type));
      u64(x.bits);
    });
  }
  /// Optional trace id: a presence flag, then the id. Untraced costs one byte.
  void trace_id(std::uint64_t id) {
    boolean(id != 0);
    if (id != 0) u64(id);
  }
  template <class T, class F>
  void list(const std::vector<T>& v, const char*, std::size_t, std::uint32_t, F&& item) {
    write_uleb(out_, v.size());
    for (const T& x : v) item(x);
  }
  template <class T>
  void list(const std::vector<T>& v, const char* what, std::size_t min_wire_bytes,
            std::uint32_t max_count) {
    list(v, what, min_wire_bytes, max_count, [this](const T& x) { fields(*this, x); });
  }
  /// An INVOKE_BATCH lane payload: M's fields behind a length prefix.
  template <class M>
  void lane_payload(std::uint32_t, const M& m) {
    Bytes inner;
    Writer w(inner);
    fields(w, m);
    blob(inner);
  }

  // Rules that hold for decoded frames only.
  void require(bool, const char*) {}
  template <class T>
  void unique_lanes(const std::vector<T>&) {}

 private:
  Bytes& out_;
};

/// Keeps the first error. After it, reads nothing more and sizes no list,
/// so no loop runs on bad input.
class Reader {
 public:
  explicit Reader(ByteReader& r) : r_(r) {}

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  void fail(std::string message) {
    if (ok()) error_ = std::move(message);
  }
  void require(bool holds, const char* message) {
    if (!holds) fail(message);
  }

  void u8(std::uint8_t& v) {
    if (ok()) take(r_.take_u8(v));
  }
  void boolean(bool& v) {
    std::uint8_t b = 0;
    u8(b);
    if (b > 1) fail("gateway: bool byte above 1");
    v = b == 1;
  }
  void u32(std::uint32_t& v) {
    if (const std::uint8_t* p = raw(4)) v = get_u32le(p);
  }
  void u64(std::uint64_t& v) {
    if (const std::uint8_t* p = raw(8)) v = get_u64le(p);
  }
  void uleb(std::uint32_t& v) {
    if (ok()) take(r_.take_leb(v));
  }
  void str(std::string& s) {
    const ByteView b = sized();
    s.assign(b.begin(), b.end());
  }
  void blob(Bytes& out) {
    const ByteView b = sized();
    out.assign(b.begin(), b.end());
  }
  void digest(crypto::Sha256Digest& d) {
    if (const std::uint8_t* p = raw(d.size())) std::copy_n(p, d.size(), d.begin());
  }
  void values(std::vector<wasm::Value>& v) {
    list(v, "value", 9, kUnbounded, [this](wasm::Value& x) {
      std::uint8_t type = 0;
      u8(type);
      u64(x.bits);
      x.type = static_cast<wasm::ValType>(type);
    });
  }
  void trace_id(std::uint64_t& id) {
    std::uint8_t present = 0;
    u8(present);
    if (present > 1) fail("gateway: bad trace flag");
    if (present != 1) return;
    u64(id);
    if (id == 0) fail("gateway: zero trace id");
  }
  /// A uleb count, then that many items. The count is checked against
  /// `max_count` and against what the rest of the frame can hold
  /// (`min_wire_bytes` per item) before it sizes anything.
  template <class T, class F>
  void list(std::vector<T>& v, const char* what, std::size_t min_wire_bytes,
            std::uint32_t max_count, F&& item) {
    std::uint32_t count = 0;
    uleb(count);
    if (!ok()) return;
    if (count > max_count || count > r_.remaining() / min_wire_bytes)
      return fail(std::string("gateway: ") + what + " count exceeds frame");
    v.resize(count);
    for (T& x : v) {
      item(x);
      if (!ok()) return;
    }
  }
  template <class T>
  void list(std::vector<T>& v, const char* what, std::size_t min_wire_bytes,
            std::uint32_t max_count) {
    list(v, what, min_wire_bytes, max_count, [this](T& x) { fields(*this, x); });
  }
  /// The lane's length prefix and its payload must agree exactly; any
  /// error inside names the lane.
  template <class M>
  void lane_payload(std::uint32_t lane, M& m) {
    if (!ok()) return;
    const ByteView b = sized();
    if (ok()) {
      ByteReader inner_bytes(b);
      Reader inner(inner_bytes);
      fields(inner, m);
      inner.finish("trailing bytes");
      error_ = std::move(inner.error_);
    }
    if (!ok())
      error_ = "gateway: invoke batch lane " + std::to_string(lane) + ": " + error_;
  }
  /// Rejects a frame that names one lane twice: per-lane results would be
  /// ambiguous.
  template <class T>
  void unique_lanes(const std::vector<T>& items) {
    if (!ok() || items.size() < 2) return;
    std::vector<std::uint32_t> lanes;
    lanes.reserve(items.size());
    for (const T& x : items) lanes.push_back(x.lane);
    std::sort(lanes.begin(), lanes.end());
    const auto dup = std::adjacent_find(lanes.begin(), lanes.end());
    if (dup != lanes.end())
      fail("gateway: duplicate invoke batch lane " + std::to_string(*dup));
  }

  void finish(const char* trailing_message) {
    if (ok() && !r_.at_end()) fail(trailing_message);
  }

 private:
  void take(const char* error) {
    if (error) fail(error);
  }
  const std::uint8_t* raw(std::size_t n) {
    const std::uint8_t* p = nullptr;
    if (ok()) take(r_.take_bytes(n, p));
    return ok() ? p : nullptr;
  }
  /// A uleb length, then that many bytes (empty after an error).
  ByteView sized() {
    std::uint32_t len = 0;
    uleb(len);
    const std::uint8_t* p = raw(len);
    return p ? ByteView(p, len) : ByteView();
  }

  ByteReader& r_;
  std::string error_;
};

// -- field lists -------------------------------------------------------------

template <class Io, Wire<AttachRequest> M>
void fields(Io& io, M& m) {
  io.str(m.client);
}

template <class Io, Wire<AttachResponse> M>
void fields(Io& io, M& m) {
  io.u64(m.session_id);
  io.u32(m.devices_attested);
  io.u32(m.ra_exchanges);
}

template <class Io, Wire<AttachBatchRequest> M>
void fields(Io& io, M& m) {
  // Every client name costs at least its 1-byte length prefix.
  io.list(m.clients, "attach", 1, kMaxAttachBatch, [&io](auto& c) { io.str(c); });
  io.require(!m.clients.empty(), "gateway: empty attach batch");
}

template <class Io, Wire<AttachBatchResult> M>
void fields(Io& io, M& m) {
  io.u64(m.session_id);
  io.u32(m.devices_attested);
  io.u32(m.ra_exchanges);
  io.str(m.error);
}

template <class Io, Wire<AttachBatchResponse> M>
void fields(Io& io, M& m) {
  io.u32(m.ra_fabric_exchanges);
  io.list(m.results, "attach", 17, kMaxAttachBatch);
}

template <class Io, Wire<LoadModuleRequest> M>
void fields(Io& io, M& m) {
  io.u64(m.session_id);
  io.blob(m.binary);
}

template <class Io, Wire<LoadModuleResponse> M>
void fields(Io& io, M& m) {
  io.digest(m.measurement);
  io.boolean(m.already_registered);
}

template <class Io, Wire<InvokeRequest> M>
void fields(Io& io, M& m) {
  io.u64(m.session_id);
  io.digest(m.measurement);
  io.str(m.entry);
  io.values(m.args);
  io.u64(m.heap_bytes);
  io.trace_id(m.trace_id);
}

template <class Io, Wire<InvokeResponse> M>
void fields(Io& io, M& m) {
  io.values(m.results);
  io.str(m.device);
  io.boolean(m.module_cache_hit);
  io.boolean(m.pool_hit);
  io.u64(m.launch_ns);
  io.u64(m.invoke_ns);
  io.u32(m.ra_exchanges);
  io.u64(m.queue_delay_ns);
  io.u64(m.trace_id);
}

template <class Io, Wire<InvokeBatchRequest> M>
void fields(Io& io, M& m) {
  // A lane costs at least its id and its length prefix.
  io.list(m.lanes, "invoke", 2, kMaxInvokeBatch, [&io](auto& lane) {
    io.uleb(lane.lane);
    io.lane_payload(lane.lane, lane.invoke);
  });
  io.require(!m.lanes.empty(), "gateway: empty invoke batch");
  io.unique_lanes(m.lanes);
}

template <class Io, Wire<InvokeBatchResponse> M>
void fields(Io& io, M& m) {
  // A result costs at least its lane id and its error's length prefix;
  // only a lane without an error carries a payload.
  io.list(m.results, "invoke", 2, kMaxInvokeBatch, [&io](auto& r) {
    io.uleb(r.lane);
    io.str(r.error);
    if (r.error.empty()) io.lane_payload(r.lane, r.result);
  });
  io.unique_lanes(m.results);
}

template <class Io, Wire<StatsRequest> M>
void fields(Io& io, M& m) {
  io.u64(m.session_id);
  io.boolean(m.detail);
}

template <class Io, Wire<SlotStats> M>
void fields(Io& io, M& m) {
  io.u32(m.inflight);
  io.u32(m.queue_depth_peak);
  io.u64(m.invocations);
  io.u64(m.busy_ns);
  io.u64(m.queue_full_rejections);
}

template <class Io, Wire<ModuleTierStats> M>
void fields(Io& io, M& m) {
  io.digest(m.measurement);
  io.u8(m.mode);
  io.u32(m.functions);
  io.u32(m.native_functions);
  io.u32(m.hot_threshold);
  io.u64(m.calls);
}

template <class Io, Wire<DeviceStats> M>
void fields(Io& io, M& m) {
  io.str(m.hostname);
  for (auto* f : {&m.boot_count, &m.invocations, &m.busy_ns}) io.u64(*f);
  io.u32(m.queue_depth_peak);
  for (auto* f : {&m.secure_heap_in_use, &m.cache_hits, &m.cache_misses,
                  &m.cache_evictions, &m.pool_hits, &m.cache_prewarms,
                  &m.queue_delay_p50_ns, &m.queue_delay_p90_ns, &m.queue_delay_p99_ns})
    io.u64(*f);
  io.u32(m.pool_slots);
  io.list(m.slots, "slot", 32, kUnbounded);
  // A module-tier entry is a digest, the mode byte, 3 u32 and a u64.
  io.list(m.modules, "module", 53, kUnbounded);
}

template <class Io, Wire<RaShardStats> M>
void fields(Io& io, M& m) {
  for (auto* f : {&m.msg0s, &m.handshakes, &m.rejects, &m.key_rotations}) io.u64(*f);
}

template <class Io, Wire<StageStats> M>
void fields(Io& io, M& m) {
  for (auto* f : {&m.count, &m.p50_ns, &m.p90_ns, &m.p99_ns}) io.u64(*f);
}

template <class Io, Wire<SlowInvoke> M>
void fields(Io& io, M& m) {
  for (auto* f : {&m.trace_id, &m.total_ns, &m.queue_ns, &m.prepare_ns, &m.tee_ns,
                  &m.exec_ns, &m.ra_ns})
    io.u64(*f);
  io.str(m.device);
  io.str(m.entry);
}

template <class Io, Wire<GatewayStats> M>
void fields(Io& io, M& m) {
  for (auto* f : {&m.sessions_active, &m.sessions_total, &m.handshakes_run,
                  &m.handshakes_reused, &m.modules_registered, &m.invocations,
                  &m.queue_full_rejections, &m.deduped_lanes, &m.evidence_renewals,
                  &m.tier_up_compiles, &m.native_entries, &m.jit_fallback_ops,
                  &m.jit_fallback_call, &m.invoke_memo_hits, &m.migrations,
                  &m.prewarm_prepares})
    io.u64(*f);
  for (auto* stage : {&m.stage_queue, &m.stage_exec, &m.stage_tee_entry, &m.stage_ra,
                      &m.stage_jit_compile})
    fields(io, *stage);
  // Smallest entries: a device with an empty hostname, slot list and
  // module list (12 u64, 2 u32, 3 length bytes); a slow invoke with two
  // empty strings (7 u64, 2 length bytes).
  io.list(m.devices, "device", 107, kUnbounded);
  io.list(m.ra_shards, "shard", 32, kUnbounded);
  io.list(m.slow_invokes, "slow-invoke", 58, kUnbounded);
}

template <class Io, Wire<DetachRequest> M>
void fields(Io& io, M& m) {
  io.u64(m.session_id);
}

// -- framing ---------------------------------------------------------------

/// Requests lead with their opcode; responses carry none.
template <class M>
Bytes encode_message(const M& m, std::optional<Op> op) {
  Bytes out;
  if (op) out.push_back(static_cast<std::uint8_t>(*op));
  Writer w(out);
  fields(w, m);
  return out;
}

/// The framing rule every decoder shares: the opcode matches, every field
/// is present and well-formed, and nothing trails the last one.
template <class M>
Result<M> decode_message(ByteView data, std::optional<Op> op) {
  ByteReader bytes(data);
  Reader io(bytes);
  if (op) {
    std::uint8_t got = 0;
    io.u8(got);
    io.require(got == static_cast<std::uint8_t>(*op), "gateway: unexpected opcode");
  }
  M m;
  fields(io, m);
  io.finish("gateway: trailing bytes after frame");
  if (!io.ok()) return Result<M>::err(io.error());
  return m;
}

/// Status byte, then the message: 0x01 = error, 0x02 = QUEUE_FULL.
Bytes envelope(std::uint8_t status, const std::string& message) {
  Bytes out{status};
  Writer(out).str(message);
  return out;
}

}  // namespace

Result<Op> peek_op(ByteView request) {
  if (request.empty()) return Result<Op>::err("gateway: empty request");
  const auto op = static_cast<Op>(request[0]);
  switch (op) {
    case Op::Attach:
    case Op::LoadModule:
    case Op::Invoke:
    case Op::Stats:
    case Op::Detach:
    case Op::AttachBatch:
    case Op::InvokeBatch:
      return op;
  }
  return Result<Op>::err("gateway: unknown opcode " + std::to_string(request[0]));
}

// -- envelopes ---------------------------------------------------------------

Bytes ok_envelope(ByteView payload) {
  Bytes out;
  out.reserve(payload.size() + 1);
  out.push_back(0x00);
  append(out, payload);
  return out;
}

Bytes err_envelope(const std::string& message) { return envelope(0x01, message); }

Bytes busy_envelope(const std::string& message) { return envelope(0x02, message); }

bool is_queue_full(const std::string& error) {
  return error.rfind(kQueueFullPrefix, 0) == 0;
}

Result<Bytes> open_envelope(ByteView response) {
  ByteReader bytes(response);
  Reader io(bytes);
  std::uint8_t status = 0;
  io.u8(status);
  if (io.ok() && status == 0x00) return Bytes(response.begin() + 1, response.end());
  std::string message;
  io.str(message);
  if (!io.ok()) return Result<Bytes>::err(io.error());
  // Prefix the busy status for is_queue_full(), unless the producer's
  // message already carries it.
  if (status == 0x02 && !is_queue_full(message))
    return Result<Bytes>::err(std::string(kQueueFullPrefix) + ": " + message);
  return Result<Bytes>::err(message);
}

// -- messages ----------------------------------------------------------------

void InvokeRequest::encode_fields(Bytes& out) const {
  Writer w(out);
  fields(w, *this);
}

Result<InvokeRequest> InvokeRequest::decode_fields(ByteReader& r) {
  Reader io(r);
  InvokeRequest req;
  fields(io, req);
  if (!io.ok()) return Result<InvokeRequest>::err(io.error());
  return req;
}

#define WATZ_GATEWAY_MESSAGE(M, op)                                          \
  Bytes M::encode() const { return encode_message(*this, op); }              \
  Result<M> M::decode(ByteView data) { return decode_message<M>(data, op); }

WATZ_GATEWAY_MESSAGE(AttachRequest, Op::Attach)
WATZ_GATEWAY_MESSAGE(AttachResponse, std::nullopt)
WATZ_GATEWAY_MESSAGE(AttachBatchRequest, Op::AttachBatch)
WATZ_GATEWAY_MESSAGE(AttachBatchResponse, std::nullopt)
WATZ_GATEWAY_MESSAGE(LoadModuleRequest, Op::LoadModule)
WATZ_GATEWAY_MESSAGE(LoadModuleResponse, std::nullopt)
WATZ_GATEWAY_MESSAGE(InvokeRequest, Op::Invoke)
WATZ_GATEWAY_MESSAGE(InvokeResponse, std::nullopt)
WATZ_GATEWAY_MESSAGE(InvokeBatchRequest, Op::InvokeBatch)
WATZ_GATEWAY_MESSAGE(InvokeBatchResponse, std::nullopt)
WATZ_GATEWAY_MESSAGE(StatsRequest, Op::Stats)
WATZ_GATEWAY_MESSAGE(GatewayStats, std::nullopt)
WATZ_GATEWAY_MESSAGE(DetachRequest, Op::Detach)

#undef WATZ_GATEWAY_MESSAGE

}  // namespace watz::gateway
