#include "gateway/protocol.hpp"

#include <set>

namespace watz::gateway {

namespace {

void put_string(Bytes& out, std::string_view s) {
  write_uleb(out, s.size());
  append(out, to_bytes(s));
}

Result<std::string> read_string(ByteReader& r) {
  auto len = r.read_uleb32();
  if (!len.ok()) return Result<std::string>::err(len.error());
  auto raw = r.read_bytes(*len);
  if (!raw.ok()) return Result<std::string>::err(raw.error());
  return std::string(raw->begin(), raw->end());
}

void put_blob(Bytes& out, ByteView blob) {
  write_uleb(out, blob.size());
  append(out, blob);
}

Result<Bytes> read_blob(ByteReader& r) {
  auto len = r.read_uleb32();
  if (!len.ok()) return Result<Bytes>::err(len.error());
  auto raw = r.read_bytes(*len);
  if (!raw.ok()) return Result<Bytes>::err(raw.error());
  return Bytes(raw->begin(), raw->end());
}

Result<std::uint64_t> read_u64(ByteReader& r) {
  auto raw = r.read_bytes(8);
  if (!raw.ok()) return Result<std::uint64_t>::err(raw.error());
  return get_u64le(raw->data());
}

void put_digest(Bytes& out, const crypto::Sha256Digest& d) { append(out, d); }

Result<crypto::Sha256Digest> read_digest(ByteReader& r) {
  auto raw = r.read_bytes(crypto::kSha256DigestSize);
  if (!raw.ok()) return Result<crypto::Sha256Digest>::err(raw.error());
  crypto::Sha256Digest d;
  std::copy(raw->begin(), raw->end(), d.begin());
  return d;
}

void put_values(Bytes& out, const std::vector<wasm::Value>& values) {
  write_uleb(out, values.size());
  for (const wasm::Value& v : values) {
    out.push_back(static_cast<std::uint8_t>(v.type));
    put_u64le(out, v.bits);
  }
}

Result<std::vector<wasm::Value>> read_values(ByteReader& r) {
  using Values = std::vector<wasm::Value>;
  auto count = r.read_uleb32();
  if (!count.ok()) return Result<Values>::err(count.error());
  // Each value occupies 9 bytes on the wire; a count that cannot possibly
  // fit the remaining frame is malformed (and must not drive a reserve).
  if (*count > r.remaining() / 9)
    return Result<Values>::err("gateway: value count exceeds frame");
  Values values;
  values.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto type = r.read_u8();
    if (!type.ok()) return Result<Values>::err(type.error());
    auto bits = read_u64(r);
    if (!bits.ok()) return Result<Values>::err(bits.error());
    values.push_back(wasm::Value{static_cast<wasm::ValType>(*type), *bits});
  }
  return values;
}

Result<ByteReader> open_request(ByteView data, Op expected) {
  ByteReader r(data);
  auto op = r.read_u8();
  if (!op.ok()) return Result<ByteReader>::err(op.error());
  if (*op != static_cast<std::uint8_t>(expected))
    return Result<ByteReader>::err("gateway: unexpected opcode");
  return r;
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

Bytes ok_envelope(ByteView payload) {
  Bytes out;
  out.reserve(payload.size() + 1);
  out.push_back(0x00);
  append(out, payload);
  return out;
}

Bytes err_envelope(const std::string& message) {
  Bytes out;
  out.push_back(0x01);
  put_string(out, message);
  return out;
}

Bytes busy_envelope(const std::string& message) {
  Bytes out;
  out.push_back(0x02);
  put_string(out, message);
  return out;
}

bool is_queue_full(const std::string& error) {
  return error.rfind(kQueueFullPrefix, 0) == 0;
}

Result<Bytes> open_envelope(ByteView response) {
  ByteReader r(response);
  auto status = r.read_u8();
  if (!status.ok()) return Result<Bytes>::err(status.error());
  if (*status == 0x00)
    return Bytes(response.begin() + 1, response.end());
  auto message = read_string(r);
  if (!message.ok()) return Result<Bytes>::err(message.error());
  // Prefix the busy status for is_queue_full(), unless the producer's
  // message already carries it.
  if (*status == 0x02 && !is_queue_full(*message))
    return Result<Bytes>::err(std::string(kQueueFullPrefix) + ": " + *message);
  return Result<Bytes>::err(*message);
}

// -- Attach ------------------------------------------------------------------

Bytes AttachRequest::encode() const {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(Op::Attach));
  put_string(out, client);
  return out;
}

Result<AttachRequest> AttachRequest::decode(ByteView data) {
  auto r = open_request(data, Op::Attach);
  if (!r.ok()) return Result<AttachRequest>::err(r.error());
  auto client = read_string(*r);
  if (!client.ok()) return Result<AttachRequest>::err(client.error());
  return AttachRequest{std::move(*client)};
}

Bytes AttachResponse::encode() const {
  Bytes out;
  put_u64le(out, session_id);
  put_u32le(out, devices_attested);
  put_u32le(out, ra_exchanges);
  return out;
}

Result<AttachResponse> AttachResponse::decode(ByteView data) {
  if (data.size() != 16) return Result<AttachResponse>::err("gateway: bad attach response");
  AttachResponse resp;
  resp.session_id = get_u64le(data.data());
  resp.devices_attested = get_u32le(data.data() + 8);
  resp.ra_exchanges = get_u32le(data.data() + 12);
  return resp;
}

// -- AttachBatch -------------------------------------------------------------

Bytes AttachBatchRequest::encode() const {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(Op::AttachBatch));
  write_uleb(out, clients.size());
  for (const std::string& client : clients) put_string(out, client);
  return out;
}

Result<AttachBatchRequest> AttachBatchRequest::decode(ByteView data) {
  using R = Result<AttachBatchRequest>;
  auto r = open_request(data, Op::AttachBatch);
  if (!r.ok()) return R::err(r.error());
  auto count = r->read_uleb32();
  if (!count.ok()) return R::err(count.error());
  if (*count == 0) return R::err("gateway: empty attach batch");
  if (*count > kMaxAttachBatch) return R::err("gateway: attach batch too large");
  // Every client name costs at least its 1-byte length prefix; a count the
  // remaining frame cannot hold is malformed (and must not drive a reserve).
  if (*count > r->remaining()) return R::err("gateway: attach count exceeds frame");
  AttachBatchRequest req;
  req.clients.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto client = read_string(*r);
    if (!client.ok()) return R::err("gateway: attach batch entry " +
                                    std::to_string(i) + ": " + client.error());
    req.clients.push_back(std::move(*client));
  }
  // Count and payload must agree exactly — trailing bytes are as malformed
  // as a short frame.
  if (!r->at_end()) return R::err("gateway: trailing bytes after attach batch");
  return req;
}

Bytes AttachBatchResponse::encode() const {
  Bytes out;
  put_u32le(out, ra_fabric_exchanges);
  write_uleb(out, results.size());
  for (const AttachBatchResult& result : results) {
    put_u64le(out, result.session_id);
    put_u32le(out, result.devices_attested);
    put_u32le(out, result.ra_exchanges);
    put_string(out, result.error);
  }
  return out;
}

Result<AttachBatchResponse> AttachBatchResponse::decode(ByteView data) {
  using R = Result<AttachBatchResponse>;
  ByteReader r(data);
  AttachBatchResponse resp;
  auto fabric = r.read_u32le();
  if (!fabric.ok()) return R::err(fabric.error());
  resp.ra_fabric_exchanges = *fabric;
  auto count = r.read_uleb32();
  if (!count.ok()) return R::err(count.error());
  if (*count > kMaxAttachBatch) return R::err("gateway: attach batch too large");
  resp.results.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    AttachBatchResult result;
    auto session = read_u64(r);
    if (!session.ok()) return R::err(session.error());
    result.session_id = *session;
    auto attested = r.read_u32le();
    if (!attested.ok()) return R::err(attested.error());
    result.devices_attested = *attested;
    auto ra = r.read_u32le();
    if (!ra.ok()) return R::err(ra.error());
    result.ra_exchanges = *ra;
    auto error = read_string(r);
    if (!error.ok()) return R::err(error.error());
    result.error = std::move(*error);
    resp.results.push_back(std::move(result));
  }
  return resp;
}

// -- LoadModule --------------------------------------------------------------

Bytes LoadModuleRequest::encode() const {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(Op::LoadModule));
  put_u64le(out, session_id);
  put_blob(out, binary);
  return out;
}

Result<LoadModuleRequest> LoadModuleRequest::decode(ByteView data) {
  auto r = open_request(data, Op::LoadModule);
  if (!r.ok()) return Result<LoadModuleRequest>::err(r.error());
  LoadModuleRequest req;
  auto session = read_u64(*r);
  if (!session.ok()) return Result<LoadModuleRequest>::err(session.error());
  req.session_id = *session;
  auto binary = read_blob(*r);
  if (!binary.ok()) return Result<LoadModuleRequest>::err(binary.error());
  req.binary = std::move(*binary);
  return req;
}

Bytes LoadModuleResponse::encode() const {
  Bytes out;
  put_digest(out, measurement);
  out.push_back(already_registered ? 1 : 0);
  return out;
}

Result<LoadModuleResponse> LoadModuleResponse::decode(ByteView data) {
  ByteReader r(data);
  LoadModuleResponse resp;
  auto digest = read_digest(r);
  if (!digest.ok()) return Result<LoadModuleResponse>::err(digest.error());
  resp.measurement = *digest;
  auto flag = r.read_u8();
  if (!flag.ok()) return Result<LoadModuleResponse>::err(flag.error());
  resp.already_registered = *flag != 0;
  return resp;
}

// -- Invoke ------------------------------------------------------------------

void InvokeRequest::encode_fields(Bytes& out) const {
  put_u64le(out, session_id);
  put_digest(out, measurement);
  put_string(out, entry);
  put_values(out, args);
  put_u64le(out, heap_bytes);
  // Optional trace field: presence flag, then the 8-byte id. Untraced
  // requests pay one byte.
  if (trace_id != 0) {
    out.push_back(1);
    put_u64le(out, trace_id);
  } else {
    out.push_back(0);
  }
}

Result<InvokeRequest> InvokeRequest::decode_fields(ByteReader& r) {
  InvokeRequest req;
  auto session = read_u64(r);
  if (!session.ok()) return Result<InvokeRequest>::err(session.error());
  req.session_id = *session;
  auto digest = read_digest(r);
  if (!digest.ok()) return Result<InvokeRequest>::err(digest.error());
  req.measurement = *digest;
  auto entry = read_string(r);
  if (!entry.ok()) return Result<InvokeRequest>::err(entry.error());
  req.entry = std::move(*entry);
  auto args = read_values(r);
  if (!args.ok()) return Result<InvokeRequest>::err(args.error());
  req.args = std::move(*args);
  auto heap = read_u64(r);
  if (!heap.ok()) return Result<InvokeRequest>::err(heap.error());
  req.heap_bytes = *heap;
  auto has_trace = r.read_u8();
  if (!has_trace.ok()) return Result<InvokeRequest>::err(has_trace.error());
  if (*has_trace > 1)
    return Result<InvokeRequest>::err("gateway: bad trace flag");
  if (*has_trace == 1) {
    auto trace = read_u64(r);
    if (!trace.ok()) return Result<InvokeRequest>::err(trace.error());
    if (*trace == 0)
      return Result<InvokeRequest>::err("gateway: zero trace id");
    req.trace_id = *trace;
  }
  return req;
}

Bytes InvokeRequest::encode() const {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(Op::Invoke));
  encode_fields(out);
  return out;
}

Result<InvokeRequest> InvokeRequest::decode(ByteView data) {
  auto r = open_request(data, Op::Invoke);
  if (!r.ok()) return Result<InvokeRequest>::err(r.error());
  return decode_fields(*r);
}

Bytes InvokeResponse::encode() const {
  Bytes out;
  put_values(out, results);
  put_string(out, device);
  out.push_back(module_cache_hit ? 1 : 0);
  out.push_back(pool_hit ? 1 : 0);
  put_u64le(out, launch_ns);
  put_u64le(out, invoke_ns);
  put_u32le(out, ra_exchanges);
  put_u64le(out, queue_delay_ns);
  put_u64le(out, trace_id);
  return out;
}

Result<InvokeResponse> InvokeResponse::decode(ByteView data) {
  ByteReader r(data);
  InvokeResponse resp;
  auto results = read_values(r);
  if (!results.ok()) return Result<InvokeResponse>::err(results.error());
  resp.results = std::move(*results);
  auto device = read_string(r);
  if (!device.ok()) return Result<InvokeResponse>::err(device.error());
  resp.device = std::move(*device);
  auto hit = r.read_u8();
  if (!hit.ok()) return Result<InvokeResponse>::err(hit.error());
  resp.module_cache_hit = *hit != 0;
  auto pool = r.read_u8();
  if (!pool.ok()) return Result<InvokeResponse>::err(pool.error());
  resp.pool_hit = *pool != 0;
  auto launch = read_u64(r);
  if (!launch.ok()) return Result<InvokeResponse>::err(launch.error());
  resp.launch_ns = *launch;
  auto invoke = read_u64(r);
  if (!invoke.ok()) return Result<InvokeResponse>::err(invoke.error());
  resp.invoke_ns = *invoke;
  auto ra = r.read_u32le();
  if (!ra.ok()) return Result<InvokeResponse>::err(ra.error());
  resp.ra_exchanges = *ra;
  auto delay = read_u64(r);
  if (!delay.ok()) return Result<InvokeResponse>::err(delay.error());
  resp.queue_delay_ns = *delay;
  auto trace = read_u64(r);
  if (!trace.ok()) return Result<InvokeResponse>::err(trace.error());
  resp.trace_id = *trace;
  return resp;
}

// -- InvokeBatch -------------------------------------------------------------

Bytes InvokeBatchRequest::encode() const {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(Op::InvokeBatch));
  write_uleb(out, lanes.size());
  for (const Lane& lane : lanes) {
    write_uleb(out, lane.lane);
    Bytes fields;
    lane.invoke.encode_fields(fields);
    put_blob(out, fields);
  }
  return out;
}

Result<InvokeBatchRequest> InvokeBatchRequest::decode(ByteView data) {
  using R = Result<InvokeBatchRequest>;
  auto r = open_request(data, Op::InvokeBatch);
  if (!r.ok()) return R::err(r.error());
  auto count = r->read_uleb32();
  if (!count.ok()) return R::err(count.error());
  if (*count == 0) return R::err("gateway: empty invoke batch");
  if (*count > kMaxInvokeBatch) return R::err("gateway: invoke batch too large");
  // Every lane costs at least its id + length prefix; a count the
  // remaining frame cannot hold is malformed (and must not drive a reserve).
  if (*count > r->remaining()) return R::err("gateway: invoke count exceeds frame");
  InvokeBatchRequest req;
  req.lanes.reserve(*count);
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < *count; ++i) {
    Lane lane;
    auto id = r->read_uleb32();
    if (!id.ok()) return R::err(id.error());
    lane.lane = *id;
    // A duplicate lane would make the per-lane results ambiguous; reject
    // the whole frame, exactly like the RA batch frames do.
    if (!seen.insert(lane.lane).second)
      return R::err("gateway: duplicate invoke batch lane " +
                    std::to_string(lane.lane));
    auto payload = read_blob(*r);
    if (!payload.ok()) return R::err("gateway: invoke batch lane " +
                                     std::to_string(lane.lane) + ": " +
                                     payload.error());
    ByteReader fields(*payload);
    auto invoke = InvokeRequest::decode_fields(fields);
    if (!invoke.ok()) return R::err("gateway: invoke batch lane " +
                                    std::to_string(lane.lane) + ": " +
                                    invoke.error());
    // The lane's length prefix and its payload must agree exactly.
    if (!fields.at_end())
      return R::err("gateway: invoke batch lane " + std::to_string(lane.lane) +
                    ": trailing bytes");
    lane.invoke = std::move(*invoke);
    req.lanes.push_back(std::move(lane));
  }
  // Count and payload must agree exactly — trailing bytes are as malformed
  // as a short frame.
  if (!r->at_end()) return R::err("gateway: trailing bytes after invoke batch");
  return req;
}

Bytes InvokeBatchResponse::encode() const {
  Bytes out;
  write_uleb(out, results.size());
  for (const InvokeBatchResult& result : results) {
    write_uleb(out, result.lane);
    put_string(out, result.error);
    if (result.ok()) put_blob(out, result.result.encode());
  }
  return out;
}

Result<InvokeBatchResponse> InvokeBatchResponse::decode(ByteView data) {
  using R = Result<InvokeBatchResponse>;
  ByteReader r(data);
  auto count = r.read_uleb32();
  if (!count.ok()) return R::err(count.error());
  if (*count > kMaxInvokeBatch) return R::err("gateway: invoke batch too large");
  if (*count > r.remaining())
    return R::err("gateway: invoke count exceeds frame");
  InvokeBatchResponse resp;
  resp.results.reserve(*count);
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < *count; ++i) {
    InvokeBatchResult result;
    auto id = r.read_uleb32();
    if (!id.ok()) return R::err(id.error());
    result.lane = *id;
    if (!seen.insert(result.lane).second)
      return R::err("gateway: duplicate invoke batch lane " +
                    std::to_string(result.lane));
    auto error = read_string(r);
    if (!error.ok()) return R::err(error.error());
    result.error = std::move(*error);
    if (result.error.empty()) {
      auto payload = read_blob(r);
      if (!payload.ok()) return R::err(payload.error());
      auto decoded = InvokeResponse::decode(*payload);
      if (!decoded.ok()) return R::err(decoded.error());
      result.result = std::move(*decoded);
    }
    resp.results.push_back(std::move(result));
  }
  if (!r.at_end()) return R::err("gateway: trailing bytes after invoke batch");
  return resp;
}

// -- Stats -------------------------------------------------------------------

Bytes StatsRequest::encode() const {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(Op::Stats));
  put_u64le(out, session_id);
  out.push_back(detail ? 1 : 0);
  return out;
}

Result<StatsRequest> StatsRequest::decode(ByteView data) {
  auto r = open_request(data, Op::Stats);
  if (!r.ok()) return Result<StatsRequest>::err(r.error());
  auto session = read_u64(*r);
  if (!session.ok()) return Result<StatsRequest>::err(session.error());
  auto detail = r->read_u8();
  if (!detail.ok()) return Result<StatsRequest>::err(detail.error());
  if (*detail > 1) return Result<StatsRequest>::err("gateway: bad detail flag");
  return StatsRequest{*session, *detail != 0};
}

Bytes GatewayStats::encode() const {
  Bytes out;
  put_u64le(out, sessions_active);
  put_u64le(out, sessions_total);
  put_u64le(out, handshakes_run);
  put_u64le(out, handshakes_reused);
  put_u64le(out, modules_registered);
  put_u64le(out, invocations);
  put_u64le(out, queue_full_rejections);
  put_u64le(out, deduped_lanes);
  put_u64le(out, evidence_renewals);
  put_u64le(out, tier_up_compiles);
  put_u64le(out, native_entries);
  put_u64le(out, jit_fallback_ops);
  put_u64le(out, jit_fallback_call);
  put_u64le(out, invoke_memo_hits);
  put_u64le(out, migrations);
  put_u64le(out, prewarm_prepares);
  put_u64le(out, queue_delay_p50_ns);
  put_u64le(out, queue_delay_p90_ns);
  put_u64le(out, queue_delay_p99_ns);
  for (const StageStats* stage : {&stage_queue, &stage_exec, &stage_tee_entry,
                                  &stage_ra, &stage_jit_compile}) {
    put_u64le(out, stage->count);
    put_u64le(out, stage->p50_ns);
    put_u64le(out, stage->p90_ns);
    put_u64le(out, stage->p99_ns);
  }
  write_uleb(out, devices.size());
  for (const DeviceStats& d : devices) {
    put_string(out, d.hostname);
    put_u64le(out, d.boot_count);
    put_u64le(out, d.invocations);
    put_u64le(out, d.busy_ns);
    put_u32le(out, d.queue_depth_peak);
    put_u64le(out, d.secure_heap_in_use);
    put_u64le(out, d.cache_hits);
    put_u64le(out, d.cache_misses);
    put_u64le(out, d.cache_evictions);
    put_u64le(out, d.pool_hits);
    put_u64le(out, d.cache_prewarms);
    put_u64le(out, d.queue_delay_p50_ns);
    put_u64le(out, d.queue_delay_p90_ns);
    put_u64le(out, d.queue_delay_p99_ns);
    put_u32le(out, d.pool_slots);
    write_uleb(out, d.slots.size());
    for (const SlotStats& s : d.slots) {
      put_u32le(out, s.inflight);
      put_u32le(out, s.queue_depth_peak);
      put_u64le(out, s.invocations);
      put_u64le(out, s.busy_ns);
      put_u64le(out, s.queue_full_rejections);
    }
    write_uleb(out, d.modules.size());
    for (const ModuleTierStats& m : d.modules) {
      put_digest(out, m.measurement);
      out.push_back(m.mode);
      put_u32le(out, m.functions);
      put_u32le(out, m.native_functions);
      put_u32le(out, m.hot_threshold);
      put_u64le(out, m.calls);
    }
  }
  write_uleb(out, ra_shards.size());
  for (const RaShardStats& s : ra_shards) {
    put_u64le(out, s.msg0s);
    put_u64le(out, s.handshakes);
    put_u64le(out, s.rejects);
    put_u64le(out, s.key_rotations);
  }
  write_uleb(out, slow_invokes.size());
  for (const SlowInvoke& s : slow_invokes) {
    put_u64le(out, s.trace_id);
    put_u64le(out, s.total_ns);
    put_u64le(out, s.queue_ns);
    put_u64le(out, s.prepare_ns);
    put_u64le(out, s.tee_ns);
    put_u64le(out, s.exec_ns);
    put_u64le(out, s.ra_ns);
    put_string(out, s.device);
    put_string(out, s.entry);
  }
  return out;
}

Result<GatewayStats> GatewayStats::decode(ByteView data) {
  ByteReader r(data);
  GatewayStats stats;
  for (std::uint64_t* field :
       {&stats.sessions_active, &stats.sessions_total, &stats.handshakes_run,
        &stats.handshakes_reused, &stats.modules_registered, &stats.invocations,
        &stats.queue_full_rejections, &stats.deduped_lanes,
        &stats.evidence_renewals, &stats.tier_up_compiles,
        &stats.native_entries, &stats.jit_fallback_ops,
        &stats.jit_fallback_call, &stats.invoke_memo_hits, &stats.migrations, &stats.prewarm_prepares,
        &stats.queue_delay_p50_ns, &stats.queue_delay_p90_ns,
        &stats.queue_delay_p99_ns}) {
    auto v = read_u64(r);
    if (!v.ok()) return Result<GatewayStats>::err(v.error());
    *field = *v;
  }
  for (StageStats* stage :
       {&stats.stage_queue, &stats.stage_exec, &stats.stage_tee_entry,
        &stats.stage_ra, &stats.stage_jit_compile}) {
    for (std::uint64_t* field :
         {&stage->count, &stage->p50_ns, &stage->p90_ns, &stage->p99_ns}) {
      auto v = read_u64(r);
      if (!v.ok()) return Result<GatewayStats>::err(v.error());
      *field = *v;
    }
  }
  auto count = r.read_uleb32();
  if (!count.ok()) return Result<GatewayStats>::err(count.error());
  for (std::uint32_t i = 0; i < *count; ++i) {
    DeviceStats d;
    auto hostname = read_string(r);
    if (!hostname.ok()) return Result<GatewayStats>::err(hostname.error());
    d.hostname = std::move(*hostname);
    auto boot = read_u64(r);
    if (!boot.ok()) return Result<GatewayStats>::err(boot.error());
    d.boot_count = *boot;
    auto inv = read_u64(r);
    if (!inv.ok()) return Result<GatewayStats>::err(inv.error());
    d.invocations = *inv;
    auto busy = read_u64(r);
    if (!busy.ok()) return Result<GatewayStats>::err(busy.error());
    d.busy_ns = *busy;
    auto peak = r.read_u32le();
    if (!peak.ok()) return Result<GatewayStats>::err(peak.error());
    d.queue_depth_peak = *peak;
    for (std::uint64_t* field :
         {&d.secure_heap_in_use, &d.cache_hits, &d.cache_misses,
          &d.cache_evictions, &d.pool_hits, &d.cache_prewarms,
          &d.queue_delay_p50_ns, &d.queue_delay_p90_ns,
          &d.queue_delay_p99_ns}) {
      auto v = read_u64(r);
      if (!v.ok()) return Result<GatewayStats>::err(v.error());
      *field = *v;
    }
    auto pool_slots = r.read_u32le();
    if (!pool_slots.ok()) return Result<GatewayStats>::err(pool_slots.error());
    d.pool_slots = *pool_slots;
    auto slot_count = r.read_uleb32();
    if (!slot_count.ok()) return Result<GatewayStats>::err(slot_count.error());
    // Each slot entry occupies 32 bytes; a count the frame cannot hold is
    // malformed (and must not drive a reserve).
    if (*slot_count > r.remaining() / 32)
      return Result<GatewayStats>::err("gateway: slot count exceeds frame");
    d.slots.reserve(*slot_count);
    for (std::uint32_t s = 0; s < *slot_count; ++s) {
      SlotStats slot;
      auto inflight = r.read_u32le();
      if (!inflight.ok()) return Result<GatewayStats>::err(inflight.error());
      slot.inflight = *inflight;
      auto peak = r.read_u32le();
      if (!peak.ok()) return Result<GatewayStats>::err(peak.error());
      slot.queue_depth_peak = *peak;
      auto inv = read_u64(r);
      if (!inv.ok()) return Result<GatewayStats>::err(inv.error());
      slot.invocations = *inv;
      auto busy = read_u64(r);
      if (!busy.ok()) return Result<GatewayStats>::err(busy.error());
      slot.busy_ns = *busy;
      auto rejects = read_u64(r);
      if (!rejects.ok()) return Result<GatewayStats>::err(rejects.error());
      slot.queue_full_rejections = *rejects;
      d.slots.push_back(slot);
    }
    auto module_count = r.read_uleb32();
    if (!module_count.ok()) return Result<GatewayStats>::err(module_count.error());
    // Each module-tier entry occupies 53 bytes (digest + mode + 3 u32 +
    // u64); a count the frame cannot hold is malformed.
    if (*module_count > r.remaining() / 53)
      return Result<GatewayStats>::err("gateway: module count exceeds frame");
    d.modules.reserve(*module_count);
    for (std::uint32_t m = 0; m < *module_count; ++m) {
      ModuleTierStats mod;
      auto digest = read_digest(r);
      if (!digest.ok()) return Result<GatewayStats>::err(digest.error());
      mod.measurement = *digest;
      auto mode = r.read_u8();
      if (!mode.ok()) return Result<GatewayStats>::err(mode.error());
      mod.mode = *mode;
      for (std::uint32_t* field :
           {&mod.functions, &mod.native_functions, &mod.hot_threshold}) {
        auto v = r.read_u32le();
        if (!v.ok()) return Result<GatewayStats>::err(v.error());
        *field = *v;
      }
      auto calls = read_u64(r);
      if (!calls.ok()) return Result<GatewayStats>::err(calls.error());
      mod.calls = *calls;
      d.modules.push_back(mod);
    }
    stats.devices.push_back(std::move(d));
  }
  auto shard_count = r.read_uleb32();
  if (!shard_count.ok()) return Result<GatewayStats>::err(shard_count.error());
  for (std::uint32_t i = 0; i < *shard_count; ++i) {
    RaShardStats s;
    for (std::uint64_t* field : {&s.msg0s, &s.handshakes, &s.rejects,
                                 &s.key_rotations}) {
      auto v = read_u64(r);
      if (!v.ok()) return Result<GatewayStats>::err(v.error());
      *field = *v;
    }
    stats.ra_shards.push_back(s);
  }
  auto slow_count = r.read_uleb32();
  if (!slow_count.ok()) return Result<GatewayStats>::err(slow_count.error());
  // Each slow-invoke entry occupies at least 58 bytes (7 u64s + two 1-byte
  // length prefixes); a count the frame cannot hold is malformed.
  if (*slow_count > r.remaining() / 58)
    return Result<GatewayStats>::err("gateway: slow-invoke count exceeds frame");
  stats.slow_invokes.reserve(*slow_count);
  for (std::uint32_t i = 0; i < *slow_count; ++i) {
    SlowInvoke s;
    for (std::uint64_t* field : {&s.trace_id, &s.total_ns, &s.queue_ns,
                                 &s.prepare_ns, &s.tee_ns, &s.exec_ns,
                                 &s.ra_ns}) {
      auto v = read_u64(r);
      if (!v.ok()) return Result<GatewayStats>::err(v.error());
      *field = *v;
    }
    auto device = read_string(r);
    if (!device.ok()) return Result<GatewayStats>::err(device.error());
    s.device = std::move(*device);
    auto entry = read_string(r);
    if (!entry.ok()) return Result<GatewayStats>::err(entry.error());
    s.entry = std::move(*entry);
    stats.slow_invokes.push_back(std::move(s));
  }
  return stats;
}

// -- Detach ------------------------------------------------------------------

Bytes DetachRequest::encode() const {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(Op::Detach));
  put_u64le(out, session_id);
  return out;
}

Result<DetachRequest> DetachRequest::decode(ByteView data) {
  auto r = open_request(data, Op::Detach);
  if (!r.ok()) return Result<DetachRequest>::err(r.error());
  auto session = read_u64(*r);
  if (!session.ok()) return Result<DetachRequest>::err(session.error());
  return DetachRequest{*session};
}

}  // namespace watz::gateway
