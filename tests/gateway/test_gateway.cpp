// Gateway subsystem tests: session reuse (no re-attestation), module-cache
// hit/miss startup behaviour, LRU eviction under secure-heap pressure, and
// invoke dispatch across a multi-device fleet.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <thread>

#include "core/device.hpp"
#include "crypto/sha256.hpp"
#include "gateway/gateway.hpp"
#include "wasm/builder.hpp"

namespace watz::gateway {
namespace {

core::DeviceConfig device_config(const std::string& hostname, std::uint8_t id) {
  core::DeviceConfig config;
  config.hostname = hostname;
  config.otpmk.fill(id);
  config.latency.enabled = false;
  return config;
}

/// Guest exporting add(a, b) -> a + b.
Bytes adder_app() {
  wasm::ModuleBuilder b;
  b.add_memory(1);
  const auto f = b.add_function({{wasm::ValType::I32, wasm::ValType::I32},
                                 {wasm::ValType::I32}});
  wasm::CodeEmitter e;
  e.local_get(0).local_get(1).op(wasm::kI32Add);
  b.set_body(f, e.bytes());
  b.export_function("add", f);
  return b.build();
}

/// Guest of ~`code_kb` KiB of unrolled arithmetic, exporting run() -> i64.
/// `salt` differentiates measurements.
Bytes sized_app(int code_kb, std::int64_t salt) {
  wasm::ModuleBuilder b;
  b.add_memory(1);
  wasm::CodeEmitter e;
  e.i64_const(salt);
  for (int i = 0; i < code_kb * 93; ++i)  // ~11 bytes per const+add pair
    e.i64_const(0x0102030405060708LL + i).op(wasm::kI64Add);
  const auto f = b.add_function({{}, {wasm::ValType::I64}});
  b.set_body(f, e.bytes());
  b.export_function("run", f);
  return b.build();
}

class GatewayTest : public ::testing::Test {
 protected:
  void SetUp() override { SetUpFleet(2); }

  void SetUpFleet(int devices, GatewayConfig config = {}) {
    vendor_ = core::Vendor::create(to_bytes("gw-vendor"));
    for (int i = 0; i < devices; ++i) {
      auto device = core::Device::boot(
          fabric_, vendor_, device_config("node-" + std::to_string(i),
                                          static_cast<std::uint8_t>(0x50 + i)));
      ASSERT_TRUE(device.ok()) << device.error();
      devices_.push_back(std::move(*device));
    }
    gateway_ = std::make_unique<Gateway>(fabric_, config, to_bytes("gw-identity"));
    ASSERT_TRUE(gateway_->start().ok());
    for (auto& device : devices_) ASSERT_TRUE(gateway_->add_device(*device).ok());
    client_ = std::make_unique<GatewayClient>(fabric_);
    ASSERT_TRUE(client_->connect(config.hostname, config.port).ok());
  }

  InvokeRequest add_request(std::uint64_t session, const crypto::Sha256Digest& m,
                            std::int32_t a, std::int32_t b) {
    InvokeRequest req;
    req.session_id = session;
    req.measurement = m;
    req.entry = "add";
    req.args = {wasm::Value::from_i32(a), wasm::Value::from_i32(b)};
    req.heap_bytes = 1 << 20;
    return req;
  }

  net::Fabric fabric_;
  core::Vendor vendor_;
  std::vector<std::unique_ptr<core::Device>> devices_;
  std::unique_ptr<Gateway> gateway_;
  std::unique_ptr<GatewayClient> client_;
};

TEST_F(GatewayTest, AttachAttestsFleetOnce) {
  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  EXPECT_EQ(attach->devices_attested, 2u);
  // One fresh handshake per device, two fabric exchanges each.
  EXPECT_EQ(attach->ra_exchanges, 2 * kRaExchangesPerHandshake);
  EXPECT_EQ(gateway_->sessions().handshakes_run(), 2u);
}

TEST_F(GatewayTest, SessionReuseSkipsReattestation) {
  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  const Bytes app = adder_app();
  auto load = client_->load_module(attach->session_id, app);
  ASSERT_TRUE(load.ok()) << load.error();

  const std::uint64_t handshakes_after_attach = gateway_->sessions().handshakes_run();
  const std::uint64_t fabric_messages_before = fabric_.messages();

  // Every invoke on the attached session rides the cached evidence: zero
  // additional RA exchanges, and the only fabric message is the request.
  for (int i = 0; i < 4; ++i) {
    auto r = client_->invoke(add_request(attach->session_id, load->measurement, i, 10));
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r->results.front().i32(), i + 10);
    EXPECT_EQ(r->ra_exchanges, 0u);
  }
  EXPECT_EQ(gateway_->sessions().handshakes_run(), handshakes_after_attach);
  EXPECT_EQ(fabric_.messages() - fabric_messages_before, 4u);
}

TEST_F(GatewayTest, SecondClientAttestsItsOwnSession) {
  auto a = client_->attach("tenant-a");
  ASSERT_TRUE(a.ok());
  GatewayClient other(fabric_);
  ASSERT_TRUE(other.connect("gateway", 7000).ok());
  auto b = other.attach("tenant-b");
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->session_id, b->session_id);
  // Trust is per tenant session, not ambient: the second attach re-proves.
  EXPECT_EQ(gateway_->sessions().handshakes_run(), 4u);
}

TEST_F(GatewayTest, BatchedAttachAmortisesRaRoundTrips) {
  const std::uint64_t fabric_messages_before = fabric_.messages();
  auto batch = client_->attach_all({"bt-0", "bt-1", "bt-2", "bt-3"});
  ASSERT_TRUE(batch.ok()) << batch.error();
  ASSERT_EQ(batch->results.size(), 4u);
  for (const AttachBatchResult& r : batch->results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_NE(r.session_id, 0u);
    EXPECT_EQ(r.devices_attested, 2u);
    // Protocol cost per session is unchanged (2 exchanges per device)…
    EXPECT_EQ(r.ra_exchanges, 2u * kRaExchangesPerHandshake);
  }
  // …but the WIRE cost is per device, not per session: 2 RA round-trips
  // x 2 devices for all 4 sessions (unbatched: 2 x 2 x 4 = 16).
  EXPECT_EQ(batch->ra_fabric_exchanges, 4u);
  // And those 4 RA exchanges (+ 1 ATTACH_BATCH request) are the only
  // fabric traffic the whole batch generated.
  EXPECT_EQ(fabric_.messages() - fabric_messages_before, 5u);

  // Each batched session is a first-class session: invokes ride its
  // cached evidence with zero further RA exchanges.
  const Bytes app = adder_app();
  auto load = client_->load_module(batch->results[0].session_id, app);
  ASSERT_TRUE(load.ok()) << load.error();
  for (const AttachBatchResult& r : batch->results) {
    auto inv = client_->invoke(add_request(r.session_id, load->measurement, 7, 5));
    ASSERT_TRUE(inv.ok()) << inv.error();
    EXPECT_EQ(inv->results.front().i32(), 12);
    EXPECT_EQ(inv->ra_exchanges, 0u);
  }

  auto stats = client_->stats(batch->results[0].session_id);
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats->handshakes_run, 8u);  // 4 sessions x 2 devices
  // Per-shard counters travel the wire and reconcile with the ledger.
  ASSERT_EQ(stats->ra_shards.size(), gateway_->config().ra_shards);
  std::uint64_t shard_handshakes = 0;
  for (const RaShardStats& s : stats->ra_shards) shard_handshakes += s.handshakes;
  EXPECT_EQ(shard_handshakes, stats->handshakes_run);
  // Queueing-delay percentiles are live once work items have run.
  EXPECT_GT(stats->stage_queue.p50_ns, 0u);
  EXPECT_GE(stats->stage_queue.p99_ns, stats->stage_queue.p50_ns);
}

/// Single-device fleet: deterministic placement for staleness tests.
class GatewaySingleDeviceTest : public GatewayTest {
 protected:
  void SetUp() override { SetUpFleet(1); }
};

/// Single device behind a 1 MiB binary registry.
class GatewaySmallRegistryTest : public GatewayTest {
 protected:
  void SetUp() override {
    GatewayConfig config;
    config.binary_registry_budget_bytes = 1 << 20;
    SetUpFleet(1, config);
  }
};

/// A binary larger than the whole registry budget is refused before it is
/// hashed, and the binaries already registered stay.
TEST_F(GatewaySmallRegistryTest, OversizedBinaryIsRefusedWithoutEvicting) {
  const GatewayConfig& config = gateway_->config();
  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();

  const Bytes first = sized_app(512, 1);
  ASSERT_GT(first.size(), 500u * 1024);
  ASSERT_LT(first.size(), config.binary_registry_budget_bytes);
  auto load = client_->load_module(attach->session_id, first);
  ASSERT_TRUE(load.ok()) << load.error();
  EXPECT_EQ(gateway_->stats().modules_registered, 1u);

  const Bytes oversized(2 << 20, 0x5a);
  auto refused = client_->load_module(attach->session_id, oversized);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error().find("exceeds the registry budget"), std::string::npos)
      << refused.error();
  EXPECT_EQ(gateway_->stats().modules_registered, 1u);

  // The first binary is still registered: its cold invoke needs no re-upload.
  InvokeRequest req;
  req.session_id = attach->session_id;
  req.measurement = load->measurement;
  req.entry = "run";
  req.heap_bytes = 1 << 20;
  auto r = client_->invoke(req);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_FALSE(r->module_cache_hit);
  EXPECT_EQ(gateway_->stats().modules_registered, 1u);
}

TEST_F(GatewaySingleDeviceTest, RebootedDeviceIsReattested) {
  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok());
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());

  // Simulate a board swap/reboot: the boot count bumps, so the session's
  // cached evidence is stale and the next invoke re-proves the device.
  ASSERT_TRUE(gateway_->add_device(*devices_[0]).ok());
  auto r = client_->invoke(add_request(attach->session_id, load->measurement, 2, 3));
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r->ra_exchanges, kRaExchangesPerHandshake);
  auto again = client_->invoke(add_request(attach->session_id, load->measurement, 2, 3));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ra_exchanges, 0u);  // fresh evidence cached again
}

TEST_F(GatewaySingleDeviceTest, EvidenceTtlForcesReattestation) {
  // A second gateway on the same fabric, with instant evidence expiry.
  GatewayConfig config;
  config.hostname = "gateway-ttl";
  config.port = 7100;
  config.ra_port = 7101;
  config.session_policy.evidence_ttl_ns = 1;
  Gateway gateway(fabric_, config, to_bytes("gw-ttl-identity"));
  ASSERT_TRUE(gateway.start().ok());
  ASSERT_TRUE(gateway.add_device(*devices_[0]).ok());
  GatewayClient client(fabric_);
  ASSERT_TRUE(client.connect("gateway-ttl", 7100).ok());

  auto attach = client.attach("tenant-a");
  ASSERT_TRUE(attach.ok());
  auto load = client.load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());
  auto r = client.invoke(add_request(attach->session_id, load->measurement, 1, 1));
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r->ra_exchanges, kRaExchangesPerHandshake)
      << "expired evidence must be re-collected";
}

TEST_F(GatewaySingleDeviceTest, TracedLazyHandshakeRecordsAppraisalSpan) {
  // Instant evidence expiry: every invoke pays a lazy handshake on its
  // lane's critical path, and every invoke is traced.
  GatewayConfig config;
  config.hostname = "gateway-traced-ra";
  config.port = 7110;
  config.ra_port = 7111;
  config.session_policy.evidence_ttl_ns = 1;
  config.trace_sample_n = 1;
  Gateway gateway(fabric_, config, to_bytes("gw-traced-ra-identity"));
  ASSERT_TRUE(gateway.start().ok());
  ASSERT_TRUE(gateway.add_device(*devices_[0]).ok());
  GatewayClient client(fabric_);
  ASSERT_TRUE(client.connect(config.hostname, config.port).ok());

  auto attach = client.attach("tenant-a");
  ASSERT_TRUE(attach.ok());
  auto load = client.load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());
  gateway.span_sink().drain();
  auto r = client.invoke(add_request(attach->session_id, load->measurement, 1, 1));
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r->ra_exchanges, kRaExchangesPerHandshake);
  ASSERT_NE(r->trace_id, 0u);
  std::multiset<obs::Stage> stages;
  for (const obs::SpanRecord& span : gateway.span_sink().drain())
    if (span.trace_id == r->trace_id) stages.insert(span.stage);
  // The handshake as a whole, and the verifier shard's appraisal of the
  // lane's evidence inside it.
  EXPECT_EQ(stages.count(obs::Stage::Ra), 1u);
  EXPECT_EQ(stages.count(obs::Stage::RaAppraise), 1u);
}

TEST_F(GatewayTest, InvokeDispatchesAcrossDevices) {
  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok());
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());

  // A concurrent fan (one INVOKE_BATCH admission pass) must spread over
  // the whole fleet: admission bumps inflight, so lane k's cost already
  // sees lanes 0..k-1 and the batch walks down the fleet's cost gradient.
  // (Distinct args per lane — identical lanes would dedup instead.)
  std::vector<InvokeRequest> batch;
  for (int i = 0; i < 8; ++i)
    batch.push_back(add_request(attach->session_id, load->measurement, i, i));
  std::map<std::string, int> placements;
  for (auto& r : client_->invoke_all(batch)) {
    ASSERT_TRUE(r.ok()) << r.error();
    ++placements[r->device];
  }
  EXPECT_EQ(placements.size(), 2u);
  for (const auto& [device, count] : placements) EXPECT_GT(count, 0) << device;

  auto stats = client_->stats(attach->session_id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->invocations, 8u);
  ASSERT_EQ(stats->devices.size(), 2u);
  for (const DeviceStats& d : stats->devices) {
    EXPECT_GT(d.invocations, 0u);
    EXPECT_GE(d.queue_depth_peak, 1u);
    EXPECT_EQ(d.pool_slots, 1u);  // default config: one slot per device
    ASSERT_EQ(d.slots.size(), 1u);
    EXPECT_EQ(d.slots[0].invocations, d.invocations);
  }

  // Sequential invokes of one session, by contrast, follow the session's
  // slot-affinity hint onto their warm slot: same device every time, warm
  // pool hits after the first.
  std::map<std::string, int> sequential;
  for (int i = 0; i < 4; ++i) {
    auto r = client_->invoke(add_request(attach->session_id, load->measurement, i, 1));
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_TRUE(r->pool_hit);
    ++sequential[r->device];
  }
  EXPECT_EQ(sequential.size(), 1u);
}

TEST_F(GatewayTest, UnknownSessionAndModuleAreRejected) {
  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok());
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());

  auto bad_session = client_->invoke(add_request(999, load->measurement, 1, 1));
  EXPECT_FALSE(bad_session.ok());

  crypto::Sha256Digest unknown{};
  auto bad_module = client_->invoke(add_request(attach->session_id, unknown, 1, 1));
  EXPECT_FALSE(bad_module.ok());

  ASSERT_TRUE(client_->detach(attach->session_id).ok());
  auto after_detach =
      client_->invoke(add_request(attach->session_id, load->measurement, 1, 1));
  EXPECT_FALSE(after_detach.ok());
}

TEST_F(GatewayTest, RetiredTicketOpcodesAnswerErrorEnvelope) {
  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok());
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());
  auto conn = fabric_.connect("gateway", 7000);
  ASSERT_TRUE(conn.ok());

  // 0x06/0x07 carried the SUBMIT/POLL ticket pair. Empty, well-formed
  // (the old SUBMIT invoke fields, the old POLL session + ticket) and
  // garbage bodies all get an in-band error envelope — the connection
  // stays up and the next INVOKE on it succeeds.
  const InvokeRequest invoke = add_request(attach->session_id, load->measurement, 4, 5);
  Bytes submit_body;
  invoke.encode_fields(submit_body);
  Bytes poll_body;
  put_u64le(poll_body, attach->session_id);
  put_u64le(poll_body, 1);
  const Bytes garbage = {0xFF, 0x00, 0x7F, 0x80, 0x01, 0xAA, 0x55};
  for (const std::uint8_t op : {0x06, 0x07}) {
    for (const Bytes& body : {Bytes{}, submit_body, poll_body, garbage}) {
      Bytes frame{op};
      append(frame, body);
      auto reply = fabric_.send_recv(*conn, frame);
      ASSERT_TRUE(reply.ok()) << reply.error();
      auto payload = open_envelope(*reply);
      ASSERT_FALSE(payload.ok()) << "opcode " << int{op} << " was served";
      EXPECT_NE(payload.error().find("unknown opcode"), std::string::npos)
          << payload.error();

      auto next = fabric_.send_recv(*conn, invoke.encode());
      ASSERT_TRUE(next.ok()) << next.error();
      auto next_payload = open_envelope(*next);
      ASSERT_TRUE(next_payload.ok()) << next_payload.error();
      auto result = InvokeResponse::decode(*next_payload);
      ASSERT_TRUE(result.ok()) << result.error();
      EXPECT_EQ(result->results.front().i32(), 9);
    }
  }
  fabric_.close(*conn);
}

/// INVOKE is a one-lane INVOKE_BATCH: both frames run through the same
/// admission, so they agree on results, RA cost, memo hits and the traced
/// stage set.
TEST(GatewayInvokePathTest, InvokeAndOneLaneBatchAgree) {
  net::Fabric fabric;
  const core::Vendor vendor = core::Vendor::create(to_bytes("gw-vendor"));
  auto device = core::Device::boot(fabric, vendor, device_config("node-0", 0x50));
  ASSERT_TRUE(device.ok()) << device.error();
  GatewayConfig config;
  config.invoke_memo_ttl_ns = 60'000'000'000ull;
  config.trace_sample_n = 1;
  Gateway gateway(fabric, config, to_bytes("gw-identity"));
  ASSERT_TRUE(gateway.start().ok());
  ASSERT_TRUE(gateway.add_device(**device).ok());
  GatewayClient client(fabric);
  ASSERT_TRUE(client.connect(config.hostname, config.port).ok());
  auto attach = client.attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client.load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok()) << load.error();
  const auto request = [&](std::int32_t a, std::int32_t b) {
    InvokeRequest req;
    req.session_id = attach->session_id;
    req.measurement = load->measurement;
    req.entry = "add";
    req.args = {wasm::Value::from_i32(a), wasm::Value::from_i32(b)};
    req.heap_bytes = 1 << 20;
    return req;
  };
  ASSERT_TRUE(client.invoke(request(100, 0)).ok());  // warm the slot's pool

  auto conn = fabric.connect(config.hostname, config.port);
  ASSERT_TRUE(conn.ok());
  const auto one_lane_batch = [&](const InvokeRequest& req) -> Result<InvokeResponse> {
    InvokeBatchRequest batch;
    batch.lanes.push_back(InvokeBatchRequest::Lane{0, req});
    auto reply = fabric.send_recv(*conn, batch.encode());
    if (!reply.ok()) return Result<InvokeResponse>::err(reply.error());
    auto payload = open_envelope(*reply);
    if (!payload.ok()) return Result<InvokeResponse>::err(payload.error());
    auto resp = InvokeBatchResponse::decode(*payload);
    if (!resp.ok()) return Result<InvokeResponse>::err(resp.error());
    if (resp->results.size() != 1) return Result<InvokeResponse>::err("lane count");
    if (!resp->results[0].ok()) return Result<InvokeResponse>::err(resp->results[0].error);
    return resp->results[0].result;
  };

  struct Outcome {
    std::int32_t sum = 0;
    std::uint32_t ra_exchanges = 0;
    bool pool_hit = false;
    std::uint64_t executed = 0;   ///< sandbox entries across both deliveries
    std::uint64_t memo_hits = 0;  ///< memo answers across both deliveries
    std::multiset<obs::Stage> stages;
  };
  const auto run = [&](bool batched, std::int32_t a) {
    Outcome out;
    const GatewayStats before = gateway.stats();
    gateway.span_sink().drain();
    const InvokeRequest req = request(a, 7);
    auto first = batched ? one_lane_batch(req) : client.invoke(req);
    EXPECT_TRUE(first.ok()) << first.error();
    if (!first.ok()) return out;
    out.sum = first->results.front().i32();
    out.ra_exchanges = first->ra_exchanges;
    out.pool_hit = first->pool_hit;
    EXPECT_NE(first->trace_id, 0u);
    for (const obs::SpanRecord& span : gateway.span_sink().drain())
      if (span.trace_id == first->trace_id) out.stages.insert(span.stage);
    // The same request again: the memo answers it on either path.
    auto again = batched ? one_lane_batch(req) : client.invoke(req);
    EXPECT_TRUE(again.ok()) << again.error();
    if (again.ok()) {
      EXPECT_EQ(again->results.front().i32(), out.sum);
    }
    const GatewayStats after = gateway.stats();
    out.executed = after.invocations - before.invocations;
    out.memo_hits = after.invoke_memo_hits - before.invoke_memo_hits;
    return out;
  };
  const Outcome invoke = run(/*batched=*/false, 1);
  const Outcome batch = run(/*batched=*/true, 2);

  EXPECT_EQ(invoke.sum, 8);
  EXPECT_EQ(batch.sum, 9);
  EXPECT_EQ(invoke.ra_exchanges, 0u);
  EXPECT_EQ(batch.ra_exchanges, invoke.ra_exchanges);
  EXPECT_TRUE(invoke.pool_hit);
  EXPECT_EQ(batch.pool_hit, invoke.pool_hit);
  EXPECT_EQ(invoke.executed, 1u);
  EXPECT_EQ(batch.executed, invoke.executed);
  EXPECT_EQ(invoke.memo_hits, 1u);
  EXPECT_EQ(batch.memo_hits, invoke.memo_hits);
  // A warm, fresh-evidence lane: exactly the 8 stages the bench gates on
  // (trace_spans_per_invoke), once each.
  const std::multiset<obs::Stage> warm_lane = {
      obs::Stage::Admit,  obs::Stage::Queue,   obs::Stage::Checkout,
      obs::Stage::TeeEntry, obs::Stage::Guest, obs::Stage::TeeExit,
      obs::Stage::Exec,   obs::Stage::Respond};
  EXPECT_EQ(invoke.stages, warm_lane);
  EXPECT_EQ(batch.stages, warm_lane);
  fabric.close(*conn);
}

TEST_F(GatewayTest, InvokeBatchFansOutInOneExchange) {
  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok());
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());
  // Warm both devices so the timed batch is pure dispatch.
  for (int i = 0; i < 4; ++i) {
    auto r = client_->invoke(add_request(attach->session_id, load->measurement, i, 0));
    ASSERT_TRUE(r.ok()) << r.error();
  }

  const std::uint64_t fabric_messages_before = fabric_.messages();
  std::vector<InvokeRequest> batch;
  for (int i = 0; i < 12; ++i)
    batch.push_back(add_request(attach->session_id, load->measurement, i, 200));
  auto results = client_->invoke_all(batch);
  // The whole 12-lane batch crossed the wire ONCE — the amortisation
  // INVOKE_BATCH exists for (per-call INVOKE pays one exchange per item).
  EXPECT_EQ(fabric_.messages() - fabric_messages_before, 1u);
  ASSERT_EQ(results.size(), batch.size());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error();
    EXPECT_EQ(results[i]->results.front().i32(), i + 200);  // order preserved
  }
  auto stats = client_->stats(attach->session_id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->invocations, 16u);
}

TEST_F(GatewayTest, InvokeBatchReportsFailedIndexes) {
  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok());
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());

  std::vector<InvokeRequest> batch;
  batch.push_back(add_request(attach->session_id, load->measurement, 1, 1));
  batch.push_back(add_request(999, load->measurement, 2, 2));  // unknown session
  crypto::Sha256Digest unknown{};
  batch.push_back(add_request(attach->session_id, unknown, 3, 3));  // no module
  batch.push_back(add_request(attach->session_id, load->measurement, 4, 4));
  auto results = client_->invoke_all(batch);
  ASSERT_EQ(results.size(), 4u);
  // Partial success: the bad lanes fail at THEIR indexes, the good lanes
  // execute normally.
  EXPECT_TRUE(results[0].ok()) << results[0].error();
  EXPECT_EQ(results[0]->results.front().i32(), 2);
  ASSERT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error().find("unknown session"), std::string::npos);
  EXPECT_FALSE(results[2].ok());
  EXPECT_TRUE(results[3].ok()) << results[3].error();
  EXPECT_EQ(results[3]->results.front().i32(), 8);
}

TEST_F(GatewayTest, AsyncClientFuturesRoundTrip) {
  // The future-returning API end to end: attach, load and a fan of
  // invokes all in flight concurrently, fulfilled by the drain thread.
  auto attach = client_->attach_async("tenant-async").get();
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client_->load_async(attach->session_id, adder_app()).get();
  ASSERT_TRUE(load.ok()) << load.error();

  std::vector<std::future<Result<InvokeResponse>>> inflight;
  for (int i = 0; i < 6; ++i)
    inflight.push_back(client_->invoke_async(
        add_request(attach->session_id, load->measurement, i, 30)));
  for (int i = 0; i < 6; ++i) {
    auto r = inflight[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r->results.front().i32(), i + 30);
  }

  // invoke_batch_async: every index completes exactly once, with its own
  // result, via the completion callback on the drain thread.
  std::vector<InvokeRequest> batch;
  for (int i = 0; i < 40; ++i)  // > kInvokeBatchChunk: exercises chunking
    batch.push_back(add_request(attach->session_id, load->measurement, i, 500));
  std::mutex mu;
  std::condition_variable cv;
  std::size_t completed = 0;
  std::vector<int> values(batch.size(), -1);
  Status issued = client_->invoke_batch_async(
      batch, [&](std::size_t index, Result<InvokeResponse> result) {
        std::lock_guard<std::mutex> lock(mu);
        ASSERT_LT(index, values.size());
        EXPECT_EQ(values[index], -1) << "index completed twice";
        values[index] = result.ok() ? result->results.front().i32() : -2;
        ++completed;
        cv.notify_one();
      });
  ASSERT_TRUE(issued.ok()) << issued.error();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return completed == batch.size(); }));
  }
  for (int i = 0; i < 40; ++i) EXPECT_EQ(values[static_cast<std::size_t>(i)], i + 500);
}

TEST_F(GatewayTest, CloseHookDetachesConnectionSessions) {
  auto keeper = client_->attach("tenant-keeper");
  ASSERT_TRUE(keeper.ok());

  std::uint64_t dropped_session = 0;
  {
    GatewayClient doomed(fabric_);
    ASSERT_TRUE(doomed.connect("gateway", 7000).ok());
    auto attach = doomed.attach("tenant-doomed");
    ASSERT_TRUE(attach.ok());
    dropped_session = attach->session_id;
    EXPECT_EQ(gateway_->sessions().active(), 2u);
  }  // destructor closes the connection -> fabric CloseHook fires

  // The dropped connection took its session with it; the other survives.
  EXPECT_EQ(gateway_->sessions().active(), 1u);
  auto load = client_->load_module(keeper->session_id, adder_app());
  ASSERT_TRUE(load.ok());
  auto orphaned =
      client_->invoke(add_request(dropped_session, load->measurement, 1, 1));
  EXPECT_FALSE(orphaned.ok());
  auto kept = client_->invoke(add_request(keeper->session_id, load->measurement, 1, 1));
  EXPECT_TRUE(kept.ok()) << kept.error();
}

/// One device whose world-switch latency is 25 ms and device-side (the
/// worker sleeps through it): the run queue drains at a bounded, known
/// pace, and an executing item outlasts a STATS + DETACH round trip many
/// times over, giving admission-bound and detach races a deterministic
/// window.
class GatewaySlowDeviceTest : public GatewayTest {
 protected:
  void SetUp() override {
    GatewayConfig config;
    config.worker_queue_capacity = 2;
    vendor_ = core::Vendor::create(to_bytes("gw-vendor"));
    core::DeviceConfig cfg = device_config("slow-0", 0x70);
    cfg.latency.enabled = true;
    cfg.latency.device_side = true;
    cfg.latency.smc_enter_ns = 25'000'000;
    cfg.latency.smc_leave_ns = 0;
    cfg.latency.supplicant_rpc_ns = 0;
    cfg.latency.time_rpc_ns = 0;
    auto device = core::Device::boot(fabric_, vendor_, cfg);
    ASSERT_TRUE(device.ok()) << device.error();
    devices_.push_back(std::move(*device));
    gateway_ = std::make_unique<Gateway>(fabric_, config, to_bytes("gw-identity"));
    ASSERT_TRUE(gateway_->start().ok());
    ASSERT_TRUE(gateway_->add_device(*devices_[0]).ok());
    client_ = std::make_unique<GatewayClient>(fabric_);
    ASSERT_TRUE(client_->connect(config.hostname, config.port).ok());
  }

  /// Waits until the slot holds `n` items RIGHT NOW (queued + executing),
  /// read from the gateway's live counter — not the sticky depth peak,
  /// which stays at n after the executing item retires.
  void WaitInflight(std::uint32_t n) {
    for (int spin = 0; spin < 20000; ++spin) {
      if (gateway_->stats().devices[0].slots[0].inflight == n) return;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    FAIL() << "slot never reached " << n << " in-flight items";
  }
};

TEST_F(GatewaySlowDeviceTest, QueueFullBackpressure) {
  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());

  // Capacity 2 == queued + executing: the third admission must bounce.
  // The worker needs >= 25 ms per item while an admission takes
  // microseconds, so the queue cannot drain under us.
  auto first =
      client_->invoke_async(add_request(attach->session_id, load->measurement, 1, 1));
  auto second =
      client_->invoke_async(add_request(attach->session_id, load->measurement, 2, 2));
  WaitInflight(2);

  // The async path does not absorb QUEUE_FULL: it surfaces in the future
  // (read below — futures resolve in issue order, after first and second).
  auto bounced =
      client_->invoke_async(add_request(attach->session_id, load->measurement, 3, 3));
  // invoke() absorbs QUEUE_FULL with jittered backoff by default; retries
  // disabled exposes the raw rejection the envelope carries.
  client_->set_backoff(GatewayClient::BackoffConfig{.max_retries = 0});
  auto bounced_sync =
      client_->invoke(add_request(attach->session_id, load->measurement, 4, 4));
  ASSERT_FALSE(bounced_sync.ok());
  EXPECT_TRUE(is_queue_full(bounced_sync.error())) << bounced_sync.error();

  // With the backoff curve restored, the same invoke rides out the full
  // queue: the retries outlive the worker's 25 ms/item drain. (Bounded
  // outer loop: full jitter makes a single invoke's total sleep random,
  // and this test must not flake on an unlucky run of tiny draws.)
  client_->set_backoff(GatewayClient::BackoffConfig{});
  auto absorbed =
      client_->invoke(add_request(attach->session_id, load->measurement, 6, 6));
  for (int attempt = 0; attempt < 20 && !absorbed.ok(); ++attempt) {
    if (!is_queue_full(absorbed.error())) break;
    absorbed =
        client_->invoke(add_request(attach->session_id, load->measurement, 6, 6));
  }
  EXPECT_TRUE(absorbed.ok()) << absorbed.error();

  // Draining the queue reopens admission.
  auto first_result = first.get();
  EXPECT_TRUE(first_result.ok()) << first_result.error();
  auto second_result = second.get();
  EXPECT_TRUE(second_result.ok()) << second_result.error();
  auto bounced_result = bounced.get();
  ASSERT_FALSE(bounced_result.ok());
  EXPECT_TRUE(is_queue_full(bounced_result.error())) << bounced_result.error();
  auto admitted =
      client_->invoke(add_request(attach->session_id, load->measurement, 5, 5));
  EXPECT_TRUE(admitted.ok()) << admitted.error();

  auto stats = client_->stats(attach->session_id);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->queue_full_rejections, 2u);
}

TEST_F(GatewaySlowDeviceTest, AsyncFuturesResolveOnDetach) {
  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());
  // A second session keeps a STATS window open after the detach.
  GatewayClient watcher(fabric_);
  ASSERT_TRUE(watcher.connect("gateway", 7000).ok());
  auto keeper = watcher.attach("tenant-watcher");
  ASSERT_TRUE(keeper.ok());

  // Fill the slow device's queue (capacity 2: one executing, one queued)
  // through the async API, then detach with both in flight. Each async
  // exchange runs on its own thread, so the second is only issued once
  // the first is admitted — that pins which one executes. Waiting on the
  // CURRENT in-flight count (not the sticky depth peak) then means both
  // are admitted and the first is still executing; its 25 ms+ world
  // switch outlasts the STATS and DETACH round trips many times over, so
  // the detach deterministically catches the second one queued.
  auto first =
      client_->invoke_async(add_request(attach->session_id, load->measurement, 1, 1));
  WaitInflight(1);
  auto second =
      client_->invoke_async(add_request(attach->session_id, load->measurement, 2, 2));
  WaitInflight(2);
  auto stats = watcher.stats(keeper->session_id);
  ASSERT_TRUE(stats.ok()) << stats.error();
  ASSERT_EQ(stats->devices[0].slots[0].inflight, 2u);
  ASSERT_TRUE(client_->detach(attach->session_id).ok());

  // The session is gone for new work immediately — synchronous INVOKE
  // included — even though its queued item has not been retired yet.
  auto rejected =
      client_->invoke(add_request(attach->session_id, load->measurement, 3, 3));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(gateway_->sessions().active(), 1u);  // only the watcher's

  // Every issued future resolves — nothing hangs, nothing is abandoned.
  // The queued item observes the closed session and fails; the executing
  // one may legitimately finish first.
  auto first_result = first.get();
  auto second_result = second.get();
  ASSERT_FALSE(second_result.ok());
  EXPECT_NE(second_result.error().find("session detached"), std::string::npos)
      << second_result.error();
  if (!first_result.ok()) {
    EXPECT_NE(first_result.error().find("session detached"), std::string::npos)
        << first_result.error();
  }

  // New async work on the dead session fails fast through the future too.
  auto after = client_->invoke_async(
      add_request(attach->session_id, load->measurement, 3, 3));
  auto after_result = after.get();
  ASSERT_FALSE(after_result.ok());
  EXPECT_NE(after_result.error().find("unknown session"), std::string::npos);

  // And close() retires the drain thread with every completion fulfilled
  // (would deadlock or leak a thread otherwise — TSan/ASan would flag it).
  client_->close();
}

/// Heterogeneous fleet: one fast board and one deliberately slowed board
/// (3 ms device-side world switch). After warm-up the EWMA placement
/// model must route batch lanes around the slow device.
class GatewayHeterogeneousFleetTest : public GatewayTest {
 protected:
  void SetUp() override {
    vendor_ = core::Vendor::create(to_bytes("gw-vendor"));
    auto fast = core::Device::boot(fabric_, vendor_, device_config("fast-0", 0x80));
    ASSERT_TRUE(fast.ok()) << fast.error();
    devices_.push_back(std::move(*fast));
    core::DeviceConfig slow_cfg = device_config("slow-1", 0x81);
    slow_cfg.latency.enabled = true;
    slow_cfg.latency.device_side = true;
    slow_cfg.latency.smc_enter_ns = 3'000'000;
    slow_cfg.latency.smc_leave_ns = 0;
    slow_cfg.latency.supplicant_rpc_ns = 0;
    slow_cfg.latency.time_rpc_ns = 0;
    auto slow = core::Device::boot(fabric_, vendor_, slow_cfg);
    ASSERT_TRUE(slow.ok()) << slow.error();
    devices_.push_back(std::move(*slow));
    gateway_ = std::make_unique<Gateway>(fabric_, GatewayConfig{},
                                         to_bytes("gw-identity"));
    ASSERT_TRUE(gateway_->start().ok());
    for (auto& device : devices_) ASSERT_TRUE(gateway_->add_device(*device).ok());
    client_ = std::make_unique<GatewayClient>(fabric_);
    ASSERT_TRUE(client_->connect("gateway", 7000).ok());
  }
};

TEST_F(GatewayHeterogeneousFleetTest, EwmaPlacementRoutesAroundSlowDevice) {
  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());

  // Warm-up: an unsampled device scores optimistically, so a first small
  // batch probes both boards and seeds their EWMAs (the slow board's
  // first sample is >= its 3 ms world switch).
  std::vector<InvokeRequest> warm;
  for (int i = 0; i < 6; ++i)
    warm.push_back(add_request(attach->session_id, load->measurement, i, 0));
  for (auto& r : client_->invoke_all(warm)) ASSERT_TRUE(r.ok()) << r.error();

  // The measured batch: placement_cost = (depth + 1) x EWMA must steer
  // the fan towards the fast board — the slow one receives fewer lanes.
  std::vector<InvokeRequest> batch;
  for (int i = 0; i < 24; ++i)
    batch.push_back(add_request(attach->session_id, load->measurement, i, 50));
  std::map<std::string, int> placements;
  for (auto& r : client_->invoke_all(batch)) {
    ASSERT_TRUE(r.ok()) << r.error();
    ++placements[r->device];
  }
  EXPECT_GT(placements["fast-0"], placements["slow-1"])
      << "fast=" << placements["fast-0"] << " slow=" << placements["slow-1"];
}

/// Module cache unit coverage against a real device runtime.
class ModuleCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vendor_ = core::Vendor::create(to_bytes("cache-vendor"));
    auto device = core::Device::boot(fabric_, vendor_, device_config("cache", 0x61));
    ASSERT_TRUE(device.ok()) << device.error();
    device_ = std::move(*device);
  }

  core::AppConfig small_heap() {
    core::AppConfig config;
    config.heap_bytes = 64 * 1024;
    return config;
  }

  net::Fabric fabric_;
  core::Vendor vendor_;
  std::unique_ptr<core::Device> device_;
};

TEST_F(ModuleCacheTest, HitSkipsLoadingPhase) {
  ModuleCache cache(device_->runtime());
  const Bytes app = adder_app();
  const crypto::Sha256Digest m = crypto::sha256(app);

  auto cold = cache.acquire(m, app, small_heap());
  ASSERT_TRUE(cold.ok()) << cold.error();
  EXPECT_FALSE(cold->module_cache_hit);
  // Cold startup paid the full pipeline, Loading included.
  const core::StartupBreakdown& prepared_cost = cold->app->prepared()->load_cost();
  EXPECT_GT(prepared_cost.loading_ns, 0u);
  EXPECT_GT(prepared_cost.hashing_ns, 0u);

  auto warm = cache.acquire(m, {}, small_heap());
  ASSERT_TRUE(warm.ok()) << warm.error();
  EXPECT_TRUE(warm->module_cache_hit);
  EXPECT_FALSE(warm->pool_hit);
  // Warm startup never re-entered the Loading/Hashing phases.
  EXPECT_EQ(warm->app->startup().loading_ns, 0u);
  EXPECT_EQ(warm->app->startup().hashing_ns, 0u);
  EXPECT_GT(warm->app->startup().instantiate_ns, 0u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Both instances are live and isolated; invoking works on each.
  auto args = std::vector<wasm::Value>{wasm::Value::from_i32(20),
                                       wasm::Value::from_i32(3)};
  auto r = warm->app->invoke("add", args);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->front().i32(), 23);
}

TEST_F(ModuleCacheTest, ReleaseWarmsThePool) {
  ModuleCache cache(device_->runtime());
  const Bytes app = adder_app();
  const crypto::Sha256Digest m = crypto::sha256(app);

  auto first = cache.acquire(m, app, small_heap());
  ASSERT_TRUE(first.ok());
  cache.release(std::move(first->app));

  auto pooled = cache.acquire(m, {}, small_heap());
  ASSERT_TRUE(pooled.ok());
  EXPECT_TRUE(pooled->pool_hit);
  EXPECT_EQ(pooled->launch_ns, 0u);  // nothing was launched at all
  EXPECT_EQ(cache.pool_hits(), 1u);
}

TEST_F(ModuleCacheTest, LruEvictionUnderHeapPressure) {
  ModuleCacheConfig config;
  config.budget_bytes = 150 * 1024;  // fits one ~100 KiB module, not two
  ModuleCache cache(device_->runtime(), config);

  const Bytes app_a = sized_app(96, 1);
  const Bytes app_b = sized_app(96, 2);
  const crypto::Sha256Digest ma = crypto::sha256(app_a);
  const crypto::Sha256Digest mb = crypto::sha256(app_b);
  ASSERT_GT(app_a.size(), 90u * 1024);

  ASSERT_TRUE(cache.acquire(ma, app_a, small_heap()).ok());
  EXPECT_TRUE(cache.contains(ma));

  // B does not fit next to A: the LRU entry (A) is evicted.
  ASSERT_TRUE(cache.acquire(mb, app_b, small_heap()).ok());
  EXPECT_TRUE(cache.contains(mb));
  EXPECT_FALSE(cache.contains(ma));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.charged_bytes(), config.budget_bytes);

  // A comes back on demand -- a cold miss again, evicting B in turn.
  ASSERT_TRUE(cache.acquire(ma, app_a, small_heap()).ok());
  EXPECT_FALSE(cache.contains(mb));
  EXPECT_EQ(cache.evictions(), 2u);

  // Touch order decides the victim: with a budget for two small modules,
  // the least recently used one goes.
  ModuleCacheConfig roomy;
  roomy.budget_bytes = 210 * 1024;  // fits two ~100 KiB modules, not three
  ModuleCache lru(device_->runtime(), roomy);
  const Bytes small_a = sized_app(96, 3);
  const Bytes small_b = sized_app(96, 4);
  const Bytes small_c = sized_app(96, 5);
  ASSERT_TRUE(lru.acquire(crypto::sha256(small_a), small_a, small_heap()).ok());
  ASSERT_TRUE(lru.acquire(crypto::sha256(small_b), small_b, small_heap()).ok());
  ASSERT_TRUE(lru.acquire(crypto::sha256(small_a), {}, small_heap()).ok());  // touch A
  ASSERT_TRUE(lru.acquire(crypto::sha256(small_c), small_c, small_heap()).ok());
  EXPECT_TRUE(lru.contains(crypto::sha256(small_a)));
  EXPECT_FALSE(lru.contains(crypto::sha256(small_b)));  // LRU victim
}

TEST_F(ModuleCacheTest, PooledInstancesAreScrubbedBetweenTenants) {
  // poke(v) writes v to mem[0]; peek() reads mem[0]. A pooled instance
  // must not carry one tenant's writes to the next.
  wasm::ModuleBuilder b;
  b.add_memory(1);
  const auto poke = b.add_function({{wasm::ValType::I32}, {}});
  {
    wasm::CodeEmitter e;
    e.i32_const(0).local_get(0).store(wasm::kI32Store, 0);
    b.set_body(poke, e.bytes());
  }
  b.export_function("poke", poke);
  const auto peek = b.add_function({{}, {wasm::ValType::I32}});
  {
    wasm::CodeEmitter e;
    e.i32_const(0).load(wasm::kI32Load, 0);
    b.set_body(peek, e.bytes());
  }
  b.export_function("peek", peek);
  const Bytes app = b.build();
  const crypto::Sha256Digest m = crypto::sha256(app);

  ModuleCache cache(device_->runtime());
  auto first = cache.acquire(m, app, small_heap());
  ASSERT_TRUE(first.ok()) << first.error();
  const wasm::Value v = wasm::Value::from_i32(1234);
  ASSERT_TRUE(first->app->invoke("poke", std::span<const wasm::Value>(&v, 1)).ok());
  cache.release(std::move(first->app));

  auto second = cache.acquire(m, {}, small_heap());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->pool_hit);
  auto r = second->app->invoke("peek", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->front().i32(), 0) << "guest state leaked through the warm pool";
}

TEST_F(ModuleCacheTest, PoolHitRequiresMatchingHeap) {
  ModuleCache cache(device_->runtime());
  const Bytes app = adder_app();
  const crypto::Sha256Digest m = crypto::sha256(app);

  auto first = cache.acquire(m, app, small_heap());
  ASSERT_TRUE(first.ok());
  cache.release(std::move(first->app));

  core::AppConfig bigger;
  bigger.heap_bytes = 256 * 1024;  // differs from the pooled 64 KiB instance
  auto mismatch = cache.acquire(m, {}, bigger);
  ASSERT_TRUE(mismatch.ok());
  EXPECT_FALSE(mismatch->pool_hit) << "pooled instance has the wrong heap size";
  EXPECT_TRUE(mismatch->module_cache_hit);
  EXPECT_EQ(mismatch->app->heap_bytes(), bigger.heap_bytes);

  auto match = cache.acquire(m, {}, small_heap());
  ASSERT_TRUE(match.ok());
  EXPECT_TRUE(match->pool_hit);
}

TEST_F(ModuleCacheTest, ColdMissWithoutBinaryFails) {
  ModuleCache cache(device_->runtime());
  crypto::Sha256Digest unknown{};
  auto r = cache.acquire(unknown, {}, small_heap());
  EXPECT_FALSE(r.ok());
}

/// Wire protocol round-trips.
TEST(GatewayProtocolTest, RoundTrips) {
  InvokeRequest req;
  req.session_id = 42;
  req.measurement.fill(0xAB);
  req.entry = "add";
  req.args = {wasm::Value::from_i32(-7), wasm::Value::from_i64(1LL << 40)};
  req.heap_bytes = 123456;
  auto req2 = InvokeRequest::decode(req.encode());
  ASSERT_TRUE(req2.ok()) << req2.error();
  EXPECT_EQ(req2->session_id, 42u);
  EXPECT_EQ(req2->measurement, req.measurement);
  EXPECT_EQ(req2->entry, "add");
  ASSERT_EQ(req2->args.size(), 2u);
  EXPECT_EQ(req2->args[0].i32(), -7);
  EXPECT_EQ(req2->args[1].i64(), 1LL << 40);
  EXPECT_EQ(req2->heap_bytes, 123456u);

  InvokeResponse resp;
  resp.results = {wasm::Value::from_i32(9)};
  resp.device = "node-1";
  resp.module_cache_hit = true;
  resp.launch_ns = 777;
  resp.invoke_ns = 888;
  resp.ra_exchanges = 2;
  auto resp2 = InvokeResponse::decode(resp.encode());
  ASSERT_TRUE(resp2.ok()) << resp2.error();
  EXPECT_EQ(resp2->results.front().i32(), 9);
  EXPECT_EQ(resp2->device, "node-1");
  EXPECT_TRUE(resp2->module_cache_hit);
  EXPECT_FALSE(resp2->pool_hit);
  EXPECT_EQ(resp2->launch_ns, 777u);
  EXPECT_EQ(resp2->ra_exchanges, 2u);

  GatewayStats stats;
  stats.sessions_active = 1;
  stats.handshakes_run = 4;
  DeviceStats node0;
  node0.hostname = "node-0";
  node0.boot_count = 1;
  node0.invocations = 10;
  node0.busy_ns = 999;
  node0.queue_depth_peak = 3;
  node0.secure_heap_in_use = 4096;
  node0.cache_hits = 5;
  node0.cache_misses = 6;
  node0.cache_evictions = 7;
  node0.pool_hits = 8;
  stats.devices.push_back(std::move(node0));
  auto stats2 = GatewayStats::decode(stats.encode());
  ASSERT_TRUE(stats2.ok()) << stats2.error();
  EXPECT_EQ(stats2->sessions_active, 1u);
  EXPECT_EQ(stats2->handshakes_run, 4u);
  ASSERT_EQ(stats2->devices.size(), 1u);
  EXPECT_EQ(stats2->devices[0].hostname, "node-0");
  EXPECT_EQ(stats2->devices[0].queue_depth_peak, 3u);
  EXPECT_EQ(stats2->devices[0].pool_hits, 8u);

  // Error envelopes surface the message.
  auto err = open_envelope(err_envelope("boom"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), "boom");

  // Backpressure rides its own status byte and is client-detectable.
  auto busy = open_envelope(busy_envelope("node-0 run queue at capacity"));
  ASSERT_FALSE(busy.ok());
  EXPECT_TRUE(is_queue_full(busy.error())) << busy.error();
  EXPECT_FALSE(is_queue_full(err.error()));

  // The stats wire format carries the backpressure counter.
  GatewayStats busy_stats;
  busy_stats.queue_full_rejections = 5;
  auto busy_stats2 = GatewayStats::decode(busy_stats.encode());
  ASSERT_TRUE(busy_stats2.ok());
  EXPECT_EQ(busy_stats2->queue_full_rejections, 5u);
}

TEST(GatewayProtocolTest, MigrationPrewarmAndTierStatsFraming) {
  // The chaos-era stats surfaces round-trip too: the gateway-wide
  // migration / prewarm / memo counters, the per-device prewarm counter,
  // and the per-measurement tier-state vector STATS detail carries.
  GatewayStats stats;
  stats.migrations = 3;
  stats.prewarm_prepares = 7;
  stats.invoke_memo_hits = 11;
  DeviceStats node;
  node.hostname = "node-0";
  node.cache_prewarms = 9;
  ModuleTierStats tier;
  tier.measurement.fill(0xAB);
  tier.mode = 1;  // Aot
  tier.functions = 12;
  tier.native_functions = 5;
  tier.hot_threshold = 64;
  tier.calls = 4096;
  node.modules.push_back(tier);
  stats.devices.push_back(std::move(node));

  const Bytes frame = stats.encode();
  auto stats2 = GatewayStats::decode(frame);
  ASSERT_TRUE(stats2.ok()) << stats2.error();
  EXPECT_EQ(stats2->migrations, 3u);
  EXPECT_EQ(stats2->prewarm_prepares, 7u);
  EXPECT_EQ(stats2->invoke_memo_hits, 11u);
  ASSERT_EQ(stats2->devices.size(), 1u);
  EXPECT_EQ(stats2->devices[0].cache_prewarms, 9u);
  ASSERT_EQ(stats2->devices[0].modules.size(), 1u);
  const ModuleTierStats& tier2 = stats2->devices[0].modules[0];
  EXPECT_EQ(tier2.measurement, tier.measurement);
  EXPECT_EQ(tier2.mode, 1);
  EXPECT_EQ(tier2.functions, 12u);
  EXPECT_EQ(tier2.native_functions, 5u);
  EXPECT_EQ(tier2.hot_threshold, 64u);
  EXPECT_EQ(tier2.calls, 4096u);

  // Framing strictness. A truncated frame (cut mid-module or cutting the
  // trailing section counts) must fail decode, never mis-read.
  EXPECT_FALSE(GatewayStats::decode(Bytes(frame.begin(), frame.end() - 2)).ok());
  EXPECT_FALSE(GatewayStats::decode(Bytes(frame.begin(), frame.end() - 10)).ok());

  // The per-entry bounds guard: each tier record occupies exactly 53 bytes
  // (digest + mode + 3 u32 + u64), so a module count the frame cannot hold
  // is rejected up front. With one device, one module and empty trailing
  // sections the frame ends [count=1][53-byte record][0x00][0x00] — the
  // count byte sits 56 bytes from the end; inflate it.
  Bytes overcount = frame;
  ASSERT_EQ(overcount[overcount.size() - 56], 0x01);
  overcount[overcount.size() - 56] = 0x7F;
  auto bad = GatewayStats::decode(overcount);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("module count"), std::string::npos) << bad.error();
}

TEST(GatewayProtocolTest, AttachBatchFraming) {
  AttachBatchRequest req;
  req.clients = {"alpha", "beta", ""};
  auto req2 = AttachBatchRequest::decode(req.encode());
  ASSERT_TRUE(req2.ok()) << req2.error();
  EXPECT_EQ(req2->clients, req.clients);

  // Strictness: the uleb count and the payload must agree exactly.
  Bytes frame = req.encode();
  Bytes overcount = frame;
  overcount[1] = 4;  // claims one more name than the payload holds
  EXPECT_FALSE(AttachBatchRequest::decode(overcount).ok());
  Bytes undercount = frame;
  undercount[1] = 2;  // the leftover name is trailing garbage
  EXPECT_FALSE(AttachBatchRequest::decode(undercount).ok());
  Bytes trailing = frame;
  trailing.push_back(0x00);
  EXPECT_FALSE(AttachBatchRequest::decode(trailing).ok());
  EXPECT_FALSE(
      AttachBatchRequest::decode(Bytes(frame.begin(), frame.end() - 2)).ok());
  EXPECT_FALSE(AttachBatchRequest::decode(
                   Bytes{static_cast<std::uint8_t>(Op::AttachBatch), 0x00})
                   .ok());  // empty batch

  AttachBatchResponse resp;
  resp.ra_fabric_exchanges = 6;
  resp.results.push_back(AttachBatchResult{11, 3, 6, ""});
  resp.results.push_back(AttachBatchResult{0, 0, 0, "gateway: no device passed appraisal"});
  auto resp2 = AttachBatchResponse::decode(resp.encode());
  ASSERT_TRUE(resp2.ok()) << resp2.error();
  EXPECT_EQ(resp2->ra_fabric_exchanges, 6u);
  ASSERT_EQ(resp2->results.size(), 2u);
  EXPECT_TRUE(resp2->results[0].ok());
  EXPECT_EQ(resp2->results[0].session_id, 11u);
  EXPECT_EQ(resp2->results[0].devices_attested, 3u);
  EXPECT_FALSE(resp2->results[1].ok());
  EXPECT_EQ(resp2->results[1].error, "gateway: no device passed appraisal");

  // The new stats surfaces round-trip too.
  GatewayStats stats;
  stats.ra_shards.push_back(RaShardStats{10, 9, 1, 9});
  stats.ra_shards.push_back(RaShardStats{4, 4, 0, 2});
  auto stats2 = GatewayStats::decode(stats.encode());
  ASSERT_TRUE(stats2.ok()) << stats2.error();
  ASSERT_EQ(stats2->ra_shards.size(), 2u);
  EXPECT_EQ(stats2->ra_shards[0].msg0s, 10u);
  EXPECT_EQ(stats2->ra_shards[0].handshakes, 9u);
  EXPECT_EQ(stats2->ra_shards[0].rejects, 1u);
  EXPECT_EQ(stats2->ra_shards[1].key_rotations, 2u);

  InvokeResponse inv;
  inv.queue_delay_ns = 4242;
  auto inv2 = InvokeResponse::decode(inv.encode());
  ASSERT_TRUE(inv2.ok()) << inv2.error();
  EXPECT_EQ(inv2->queue_delay_ns, 4242u);
}

TEST(GatewayProtocolTest, InvokeBatchFraming) {
  InvokeRequest invoke;
  invoke.session_id = 7;
  invoke.measurement.fill(0xCD);
  invoke.entry = "add";
  invoke.args = {wasm::Value::from_i32(1), wasm::Value::from_i32(2)};
  invoke.heap_bytes = 4096;

  InvokeBatchRequest req;
  req.lanes.push_back(InvokeBatchRequest::Lane{0, invoke});
  req.lanes.push_back(InvokeBatchRequest::Lane{1, invoke});
  const Bytes frame = req.encode();
  auto req2 = InvokeBatchRequest::decode(frame);
  ASSERT_TRUE(req2.ok()) << req2.error();
  ASSERT_EQ(req2->lanes.size(), 2u);
  EXPECT_EQ(req2->lanes[0].lane, 0u);
  EXPECT_EQ(req2->lanes[1].lane, 1u);
  EXPECT_EQ(req2->lanes[1].invoke.session_id, 7u);
  EXPECT_EQ(req2->lanes[1].invoke.entry, "add");
  ASSERT_EQ(req2->lanes[1].invoke.args.size(), 2u);

  // Strictness, mirroring the 0xAF RA batch frames:
  // a duplicate lane id rejects the whole frame...
  InvokeBatchRequest dup;
  dup.lanes.push_back(InvokeBatchRequest::Lane{3, invoke});
  dup.lanes.push_back(InvokeBatchRequest::Lane{3, invoke});
  auto dup2 = InvokeBatchRequest::decode(dup.encode());
  ASSERT_FALSE(dup2.ok());
  EXPECT_NE(dup2.error().find("duplicate"), std::string::npos);

  // ...the uleb count and the payload must agree exactly...
  Bytes overcount = frame;
  overcount[1] = 3;  // claims one more lane than the payload holds
  EXPECT_FALSE(InvokeBatchRequest::decode(overcount).ok());
  Bytes undercount = frame;
  undercount[1] = 1;  // the leftover lane is trailing garbage
  EXPECT_FALSE(InvokeBatchRequest::decode(undercount).ok());

  // ...trailing bytes after the last lane are malformed...
  Bytes trailing = frame;
  trailing.push_back(0x00);
  EXPECT_FALSE(InvokeBatchRequest::decode(trailing).ok());
  // ...as is truncation...
  EXPECT_FALSE(
      InvokeBatchRequest::decode(Bytes(frame.begin(), frame.end() - 2)).ok());
  // ...and a lane whose payload over-fills its own length prefix.
  Bytes lane_trailing;
  lane_trailing.push_back(static_cast<std::uint8_t>(Op::InvokeBatch));
  write_uleb(lane_trailing, 1);  // one lane
  write_uleb(lane_trailing, 0);  // lane id
  Bytes fields;
  invoke.encode_fields(fields);
  fields.push_back(0x00);  // a stray byte inside the lane payload
  write_uleb(lane_trailing, fields.size());
  append(lane_trailing, fields);
  auto lane2 = InvokeBatchRequest::decode(lane_trailing);
  ASSERT_FALSE(lane2.ok());
  EXPECT_NE(lane2.error().find("trailing"), std::string::npos);

  // Empty and oversized batches never touch the dispatcher.
  EXPECT_FALSE(InvokeBatchRequest::decode(
                   Bytes{static_cast<std::uint8_t>(Op::InvokeBatch), 0x00})
                   .ok());
  Bytes oversize;
  oversize.push_back(static_cast<std::uint8_t>(Op::InvokeBatch));
  write_uleb(oversize, kMaxInvokeBatch + 1);
  EXPECT_FALSE(InvokeBatchRequest::decode(oversize).ok());

  // Response round-trip: mixed success and failed-index lanes.
  InvokeBatchResponse resp;
  InvokeBatchResult ok_lane;
  ok_lane.lane = 0;
  ok_lane.result.results = {wasm::Value::from_i32(42)};
  ok_lane.result.device = "node-1";
  ok_lane.result.queue_delay_ns = 99;
  resp.results.push_back(std::move(ok_lane));
  InvokeBatchResult failed_lane;
  failed_lane.lane = 1;
  failed_lane.error = "gateway: unknown session";
  resp.results.push_back(std::move(failed_lane));
  auto resp2 = InvokeBatchResponse::decode(resp.encode());
  ASSERT_TRUE(resp2.ok()) << resp2.error();
  ASSERT_EQ(resp2->results.size(), 2u);
  EXPECT_TRUE(resp2->results[0].ok());
  EXPECT_EQ(resp2->results[0].result.results.front().i32(), 42);
  EXPECT_EQ(resp2->results[0].result.device, "node-1");
  EXPECT_EQ(resp2->results[0].result.queue_delay_ns, 99u);
  ASSERT_FALSE(resp2->results[1].ok());
  EXPECT_EQ(resp2->results[1].error, "gateway: unknown session");

  // Response strictness matches the request side (the client decodes
  // whatever the wire hands it).
  Bytes resp_frame = resp.encode();
  Bytes resp_trailing = resp_frame;
  resp_trailing.push_back(0x01);
  EXPECT_FALSE(InvokeBatchResponse::decode(resp_trailing).ok());
  EXPECT_FALSE(InvokeBatchResponse::decode(
                   Bytes(resp_frame.begin(), resp_frame.end() - 1))
                   .ok());
}

/// The observability surfaces on the wire: trace propagation, the STATS
/// detail flag, the per-stage/per-slot/per-device breakdowns and the
/// slow-invoke log.
TEST(GatewayProtocolTest, ObservabilityFraming) {
  // Trace ids ride INVOKE both ways. Untraced stays a single flag byte.
  InvokeRequest req;
  req.session_id = 9;
  req.entry = "add";
  auto untraced = InvokeRequest::decode(req.encode());
  ASSERT_TRUE(untraced.ok()) << untraced.error();
  EXPECT_EQ(untraced->trace_id, 0u);
  req.trace_id = 0xDEAD'BEEF'CAFE'F00DULL;
  auto traced = InvokeRequest::decode(req.encode());
  ASSERT_TRUE(traced.ok()) << traced.error();
  EXPECT_EQ(traced->trace_id, 0xDEAD'BEEF'CAFE'F00DULL);

  // A present-flag with a zero id is a malformed frame, not "untraced".
  Bytes frame = req.encode();
  const std::size_t id_at = frame.size() - 8;
  std::fill(frame.begin() + static_cast<std::ptrdiff_t>(id_at), frame.end(), 0);
  EXPECT_FALSE(InvokeRequest::decode(frame).ok());
  // So is a trace flag that is neither 0 nor 1.
  Bytes bad_flag = req.encode();
  bad_flag[id_at - 1] = 2;
  EXPECT_FALSE(InvokeRequest::decode(bad_flag).ok());

  InvokeResponse resp;
  resp.trace_id = 0x1234;
  auto resp2 = InvokeResponse::decode(resp.encode());
  ASSERT_TRUE(resp2.ok()) << resp2.error();
  EXPECT_EQ(resp2->trace_id, 0x1234u);

  // STATS request: the detail flag round-trips; a flag outside {0,1} is
  // rejected rather than coerced.
  StatsRequest stats_req;
  stats_req.session_id = 7;
  stats_req.detail = true;
  auto stats_req2 = StatsRequest::decode(stats_req.encode());
  ASSERT_TRUE(stats_req2.ok()) << stats_req2.error();
  EXPECT_EQ(stats_req2->session_id, 7u);
  EXPECT_TRUE(stats_req2->detail);
  Bytes req_frame = stats_req.encode();
  req_frame.back() = 2;
  EXPECT_FALSE(StatsRequest::decode(req_frame).ok());

  // Full GatewayStats round-trip with every observability field populated.
  GatewayStats stats;
  stats.invocations = 1000;
  stats.queue_full_rejections = 3;
  stats.deduped_lanes = 24;
  stats.evidence_renewals = 5;
  stats.stage_queue = StageStats{1000, 1 << 12, 1 << 16, 1 << 21};
  stats.stage_exec = StageStats{1000, 1 << 15, 1 << 17, 1 << 18};
  stats.stage_tee_entry = StageStats{2000, 1 << 17, 1 << 17, 1 << 17};
  stats.stage_ra = StageStats{4, 1 << 22, 1 << 23, 1 << 23};
  DeviceStats dev;
  dev.hostname = "node-0";
  dev.queue_delay_p50_ns = 1 << 11;
  dev.queue_delay_p90_ns = 1 << 15;
  dev.queue_delay_p99_ns = 1 << 19;
  dev.pool_slots = 2;
  dev.slots.push_back(SlotStats{1, 4, 600, 123456, 2});
  dev.slots.push_back(SlotStats{0, 3, 400, 98765, 1});
  stats.devices.push_back(std::move(dev));
  SlowInvoke slow;
  slow.trace_id = 0xF00D;
  slow.total_ns = 5'000'000;
  slow.queue_ns = 1'000'000;
  slow.prepare_ns = 500'000;
  slow.tee_ns = 212'000;
  slow.exec_ns = 3'000'000;
  slow.ra_ns = 0;
  slow.device = "node-0";
  slow.entry = "add";
  stats.slow_invokes.push_back(std::move(slow));

  auto stats2 = GatewayStats::decode(stats.encode());
  ASSERT_TRUE(stats2.ok()) << stats2.error();
  EXPECT_EQ(stats2->invocations, 1000u);
  EXPECT_EQ(stats2->deduped_lanes, 24u);
  EXPECT_EQ(stats2->evidence_renewals, 5u);
  EXPECT_EQ(stats2->stage_queue.count, 1000u);
  EXPECT_EQ(stats2->stage_queue.p99_ns, 1u << 21);
  EXPECT_EQ(stats2->stage_exec.p50_ns, 1u << 15);
  EXPECT_EQ(stats2->stage_tee_entry.count, 2000u);
  EXPECT_EQ(stats2->stage_ra.p90_ns, 1u << 23);
  ASSERT_EQ(stats2->devices.size(), 1u);
  EXPECT_EQ(stats2->devices[0].queue_delay_p99_ns, 1u << 19);
  EXPECT_EQ(stats2->devices[0].pool_slots, 2u);
  ASSERT_EQ(stats2->devices[0].slots.size(), 2u);
  EXPECT_EQ(stats2->devices[0].slots[0].queue_full_rejections, 2u);
  EXPECT_EQ(stats2->devices[0].slots[1].invocations, 400u);
  ASSERT_EQ(stats2->slow_invokes.size(), 1u);
  EXPECT_EQ(stats2->slow_invokes[0].trace_id, 0xF00Du);
  EXPECT_EQ(stats2->slow_invokes[0].tee_ns, 212'000u);
  EXPECT_EQ(stats2->slow_invokes[0].entry, "add");

  // Truncation at EVERY length is malformed — no partial stats, no
  // out-of-bounds reads on the way to the error.
  const Bytes full = stats.encode();
  for (std::size_t cut = 0; cut < full.size(); ++cut)
    EXPECT_FALSE(GatewayStats::decode(
                     ByteView(full.data(), cut))
                     .ok())
        << "prefix of length " << cut << " decoded";

  // A slow-invoke count the frame cannot hold is rejected before any
  // reserve (the count rides the wire even when the log is empty).
  GatewayStats empty;
  Bytes bloated = empty.encode();
  ASSERT_EQ(bloated.back(), 0u);  // trailing uleb: zero slow invokes
  bloated.back() = 0x7F;          // claims 127 entries with 0 bytes left
  auto bloated2 = GatewayStats::decode(bloated);
  ASSERT_FALSE(bloated2.ok());
  EXPECT_NE(bloated2.error().find("slow-invoke"), std::string::npos);
}

// -- every message type, generated from a seed --------------------------------
//
// wire_cases() builds kWireInstances instances of each of the 13 gateway
// messages. Each type draws from its own stream of the seed, so a layout
// change to one type moves only that type's frames. FramesArePinned always
// uses kWireSeed, the seed its digests were recorded with.

constexpr std::uint64_t kWireSeed = 0x5741545A57495245ull;
constexpr int kWireInstances = 6;

struct WireGen {
  std::mt19937_64 rng;

  std::uint64_t u64() { return rng(); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(rng()); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(rng() % n); }
  bool coin() { return (rng() & 1) != 0; }
  std::string str(std::size_t max_len) {
    std::string s(below(max_len + 1), '\0');
    for (char& c : s) c = static_cast<char>('a' + below(26));
    return s;
  }
  Bytes blob(std::size_t max_len) {
    Bytes b(below(max_len + 1));
    for (std::uint8_t& x : b) x = static_cast<std::uint8_t>(rng());
    return b;
  }
  crypto::Sha256Digest digest() {
    crypto::Sha256Digest d;
    for (std::uint8_t& x : d) x = static_cast<std::uint8_t>(rng());
    return d;
  }
  std::vector<wasm::Value> values(std::size_t max) {
    static constexpr wasm::ValType kTypes[] = {wasm::ValType::I32, wasm::ValType::I64,
                                               wasm::ValType::F32, wasm::ValType::F64};
    std::vector<wasm::Value> v(below(max + 1));
    for (wasm::Value& x : v) x = wasm::Value{kTypes[below(4)], u64()};
    return v;
  }
  /// Strictly increasing lane ids, some past one uleb byte.
  std::vector<std::uint32_t> lanes(std::size_t n) {
    std::vector<std::uint32_t> ids(n);
    std::uint32_t next = static_cast<std::uint32_t>(below(4));
    for (std::uint32_t& id : ids) {
      id = next;
      next += 1 + static_cast<std::uint32_t>(below(100));
    }
    return ids;
  }
};

InvokeRequest gen_invoke(WireGen& g, int i) {
  InvokeRequest m;
  m.session_id = g.u64();
  m.measurement = g.digest();
  m.entry = g.str(12);
  m.args = g.values(4);
  m.heap_bytes = g.u64();
  m.trace_id = i % 2 ? g.u64() | 1 : 0;  // traced and untraced
  return m;
}

InvokeResponse gen_invoke_response(WireGen& g, int i) {
  InvokeResponse m;
  m.results = g.values(3);
  m.device = "node-" + g.str(6);
  m.module_cache_hit = g.coin();
  m.pool_hit = g.coin();
  m.launch_ns = g.u64();
  m.invoke_ns = g.u64();
  m.ra_exchanges = g.u32();
  m.queue_delay_ns = g.u64();
  m.trace_id = i % 2 ? g.u64() : 0;
  return m;
}

/// i == 0 is the empty snapshot; every later one populates every section.
GatewayStats gen_stats(WireGen& g, int i) {
  GatewayStats s;
  if (i == 0) return s;
  for (std::uint64_t* f :
       {&s.sessions_active, &s.sessions_total, &s.handshakes_run, &s.handshakes_reused,
        &s.modules_registered, &s.invocations, &s.queue_full_rejections, &s.deduped_lanes,
        &s.evidence_renewals, &s.tier_up_compiles, &s.native_entries, &s.jit_fallback_ops,
        &s.jit_fallback_call, &s.invoke_memo_hits, &s.migrations, &s.prewarm_prepares})
    *f = g.u64();
  for (StageStats* st :
       {&s.stage_queue, &s.stage_exec, &s.stage_tee_entry, &s.stage_ra, &s.stage_jit_compile})
    *st = StageStats{g.u64(), g.u64(), g.u64(), g.u64()};
  s.devices.resize(1 + g.below(3));
  for (DeviceStats& d : s.devices) {
    d.hostname = "node-" + g.str(4);
    for (std::uint64_t* f :
         {&d.boot_count, &d.invocations, &d.busy_ns, &d.secure_heap_in_use, &d.cache_hits,
          &d.cache_misses, &d.cache_evictions, &d.pool_hits, &d.cache_prewarms,
          &d.queue_delay_p50_ns, &d.queue_delay_p90_ns, &d.queue_delay_p99_ns})
      *f = g.u64();
    d.queue_depth_peak = g.u32();
    d.pool_slots = g.u32();
    d.slots.resize(1 + g.below(4));
    for (SlotStats& slot : d.slots)
      slot = SlotStats{g.u32(), g.u32(), g.u64(), g.u64(), g.u64()};
    d.modules.resize(1 + g.below(3));
    for (ModuleTierStats& m : d.modules)
      m = ModuleTierStats{g.digest(), static_cast<std::uint8_t>(g.below(2)),
                          g.u32(), g.u32(), g.u32(), g.u64()};
  }
  s.ra_shards.resize(1 + g.below(4));
  for (RaShardStats& shard : s.ra_shards)
    shard = RaShardStats{g.u64(), g.u64(), g.u64(), g.u64()};
  s.slow_invokes.resize(1 + g.below(3));
  for (SlowInvoke& slow : s.slow_invokes) {
    for (std::uint64_t* f : {&slow.trace_id, &slow.total_ns, &slow.queue_ns,
                             &slow.prepare_ns, &slow.tee_ns, &slow.exec_ns, &slow.ra_ns})
      *f = g.u64();
    slow.device = "node-" + g.str(4);
    slow.entry = g.str(10);
  }
  return s;
}

/// The valid frames of one message type, the byte offsets of their bool
/// fields, and the type's decoder.
struct WireCase {
  std::string name;
  std::vector<Bytes> frames;
  std::vector<std::vector<std::size_t>> bool_at;  ///< per frame
  std::size_t bool_fields = 0;
  bool (*decodes)(ByteView) = nullptr;
  Bytes (*reencode)(ByteView) = nullptr;  ///< decode, then encode again
};

/// Each toggle flips one bool field of a message; the one byte it changes
/// in the frame is that field's offset.
template <class M>
WireCase wire_case(const char* name, std::uint64_t seed, std::uint64_t stream,
                   M (*gen)(WireGen&, int), std::vector<void (*)(M&)> toggles = {}) {
  WireGen g{std::mt19937_64(seed ^ (stream * 0x9E3779B97F4A7C15ull))};
  WireCase c;
  c.name = name;
  c.bool_fields = toggles.size();
  c.decodes = [](ByteView f) { return M::decode(f).ok(); };
  c.reencode = [](ByteView f) { return M::decode(f).value().encode(); };
  for (int i = 0; i < kWireInstances; ++i) {
    const M m = gen(g, i);
    Bytes frame = m.encode();
    std::vector<std::size_t> bools;
    for (auto toggle : toggles) {
      M flipped = m;
      toggle(flipped);
      const Bytes other = flipped.encode();
      EXPECT_EQ(other.size(), frame.size()) << name;
      if (other.size() != frame.size()) continue;
      for (std::size_t at = 0; at < frame.size(); ++at)
        if (frame[at] != other[at]) bools.push_back(at);
    }
    c.frames.push_back(std::move(frame));
    c.bool_at.push_back(std::move(bools));
  }
  return c;
}

std::vector<WireCase> wire_cases(std::uint64_t seed) {
  std::vector<WireCase> cases;
  cases.push_back(wire_case<AttachRequest>("AttachRequest", seed, 1, [](WireGen& g, int) {
    return AttachRequest{g.str(20)};
  }));
  cases.push_back(wire_case<AttachResponse>("AttachResponse", seed, 2, [](WireGen& g, int) {
    return AttachResponse{g.u64(), g.u32(), g.u32()};
  }));
  cases.push_back(wire_case<AttachBatchRequest>(
      "AttachBatchRequest", seed, 3, [](WireGen& g, int) {
        AttachBatchRequest m;
        m.clients.resize(1 + g.below(5));
        for (std::string& client : m.clients) client = g.str(200);
        return m;
      }));
  cases.push_back(wire_case<AttachBatchResponse>(
      "AttachBatchResponse", seed, 4, [](WireGen& g, int i) {
        AttachBatchResponse m;
        m.ra_fabric_exchanges = g.u32();
        m.results.resize(i == 0 ? 0 : 1 + g.below(4));
        for (AttachBatchResult& r : m.results) {
          if (g.coin()) r.error = "gateway: " + g.str(30);
          else r = AttachBatchResult{g.u64(), g.u32(), g.u32(), ""};
        }
        return m;
      }));
  cases.push_back(wire_case<LoadModuleRequest>(
      "LoadModuleRequest", seed, 5, [](WireGen& g, int) {
        return LoadModuleRequest{g.u64(), g.blob(300)};
      }));
  cases.push_back(wire_case<LoadModuleResponse>(
      "LoadModuleResponse", seed, 6,
      [](WireGen& g, int) { return LoadModuleResponse{g.digest(), g.coin()}; },
      {[](LoadModuleResponse& m) { m.already_registered = !m.already_registered; }}));
  cases.push_back(wire_case<InvokeRequest>("InvokeRequest", seed, 7, gen_invoke));
  cases.push_back(wire_case<InvokeResponse>(
      "InvokeResponse", seed, 8, gen_invoke_response,
      {[](InvokeResponse& m) { m.module_cache_hit = !m.module_cache_hit; },
       [](InvokeResponse& m) { m.pool_hit = !m.pool_hit; }}));
  cases.push_back(wire_case<InvokeBatchRequest>(
      "InvokeBatchRequest", seed, 9, [](WireGen& g, int i) {
        InvokeBatchRequest m;
        for (std::uint32_t lane : g.lanes(1 + g.below(4)))
          m.lanes.push_back({lane, gen_invoke(g, i + static_cast<int>(lane))});
        return m;
      }));
  cases.push_back(wire_case<InvokeBatchResponse>(
      "InvokeBatchResponse", seed, 10,
      [](WireGen& g, int i) {
        // Lane 0 succeeds and lane 1 fails; the rest flip a coin.
        InvokeBatchResponse m;
        const std::vector<std::uint32_t> lanes = g.lanes(i == 0 ? 0 : 2 + g.below(3));
        for (std::size_t k = 0; k < lanes.size(); ++k) {
          InvokeBatchResult r;
          r.lane = lanes[k];
          if (k == 1 || (k > 1 && g.coin())) r.error = "gateway: " + g.str(30);
          else r.result = gen_invoke_response(g, i);
          m.results.push_back(std::move(r));
        }
        return m;
      },
      {[](InvokeBatchResponse& m) {
         if (!m.results.empty()) m.results[0].result.pool_hit ^= true;
       }}));
  cases.push_back(wire_case<StatsRequest>(
      "StatsRequest", seed, 11,
      [](WireGen& g, int) { return StatsRequest{g.u64(), g.coin()}; },
      {[](StatsRequest& m) { m.detail = !m.detail; }}));
  cases.push_back(wire_case<GatewayStats>("GatewayStats", seed, 12, gen_stats));
  cases.push_back(wire_case<DetachRequest>("DetachRequest", seed, 13, [](WireGen& g, int) {
    return DetachRequest{g.u64()};
  }));
  return cases;
}

/// The wire layout of every message is pinned: SHA-256 over each type's
/// generated frames, recorded when the layouts were last changed on
/// purpose. Every frame also decodes and re-encodes to itself.
TEST(GatewayProtocolTest, FramesArePinned) {
  std::printf("wire frame seed: WATZ_WIRE_SEED=0x%llx\n",
              static_cast<unsigned long long>(kWireSeed));
  static const std::map<std::string, std::string> kPinned = {
      {"AttachRequest", "43ab2d4b4865b19bac1c9f0ba7e9a905acb3cfd2ccab6e778f410c4b70e87ccf"},
      {"AttachResponse", "a4fdf47d1352942b828b0ca229d744e3ec3233904e349314010170018a7733de"},
      {"AttachBatchRequest", "da3e80a67725771328a124a60e9296ec106313527a269d7f2ec57268812e60b1"},
      {"AttachBatchResponse", "6338a4362fa57d8f72cba3246d09157574670a5869470cb39a23e654078a451a"},
      {"LoadModuleRequest", "a31f7aeb68b39ca51a16559e27853ea45b2ec35c8f31705af6f9526dafee2323"},
      {"LoadModuleResponse", "6ca04695dbc22e087f00c5b170d4b1f23660221ea7b5b25a2514fda7781a51e1"},
      {"InvokeRequest", "8c04b872a84a164dff9bfe41cb153b36008c70c5c6fb57302c8b8074842d1865"},
      {"InvokeResponse", "afbfb714a2fb29e7138b340b8fee6abde45e132642091a2c90be0cd12a1f8013"},
      {"InvokeBatchRequest", "25ddc4341b8d0c19d082dad117a7fdae43a6272e26357072d195382774ed3d01"},
      {"InvokeBatchResponse", "f3f95485c484c1e54c9d12f514b5bee6e008f6f2a3ead7f328ee17f576fc2590"},
      {"StatsRequest", "3d11c52fed16378a6e88b755fb43c2cbe19842d2e9fce2383bbcf877101f1090"},
      {"GatewayStats", "056ae3638fca7fa378a4694d9f126595610e1dd12ccbbb49a2d70c562194307f"},
      {"DetachRequest", "853c174cad010cebb9add003eeeef6b38e146ddf2aee0f2dc1cc83d288fdcd74"},
  };
  const std::vector<WireCase> cases = wire_cases(kWireSeed);
  ASSERT_EQ(cases.size(), kPinned.size());
  for (const WireCase& c : cases) {
    Bytes all;
    for (const Bytes& frame : c.frames) {
      ASSERT_TRUE(c.decodes(frame)) << c.name;
      EXPECT_EQ(c.reencode(frame), frame) << c.name;
      write_uleb(all, frame.size());
      append(all, frame);
    }
    EXPECT_EQ(to_hex(crypto::sha256(all)), kPinned.at(c.name)) << c.name;
  }
}

std::uint64_t wire_seed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("WATZ_WIRE_SEED");
    return env ? std::strtoull(env, nullptr, 0) : kWireSeed;
  }();
  return seed;
}

/// One framing rule for every message: a strict prefix of a valid frame, a
/// valid frame plus one byte, and a bool byte of 2 all fail to decode.
/// WATZ_WIRE_SEED=0x<s> replays the run on other frames.
TEST(GatewayProtocolTest, FramingRuleHoldsForEveryMessage) {
  std::printf("framing rule seed: WATZ_WIRE_SEED=0x%llx\n",
              static_cast<unsigned long long>(wire_seed()));
  SCOPED_TRACE(::testing::Message() << "WATZ_WIRE_SEED=0x" << std::hex << wire_seed());
  for (const WireCase& c : wire_cases(wire_seed())) {
    SCOPED_TRACE(c.name);
    std::size_t bools_seen = 0;
    for (std::size_t k = 0; k < c.frames.size(); ++k) {
      const Bytes& frame = c.frames[k];
      ASSERT_TRUE(c.decodes(frame));
      for (std::size_t cut = 0; cut < frame.size(); ++cut)
        EXPECT_FALSE(c.decodes(ByteView(frame.data(), cut))) << "prefix of length " << cut;
      Bytes longer = frame;
      longer.push_back(0x00);
      EXPECT_FALSE(c.decodes(longer)) << "frame " << k << " plus one byte decoded";
      for (const std::size_t at : c.bool_at[k]) {
        Bytes bad = frame;
        bad[at] = 2;
        EXPECT_FALSE(c.decodes(bad)) << "frame " << k << ": bool byte 2 at " << at;
      }
      bools_seen += c.bool_at[k].size();
    }
    // Every bool field is at some offset of some frame.
    EXPECT_GE(bools_seen, c.bool_fields);
  }
}

}  // namespace
}  // namespace watz::gateway
