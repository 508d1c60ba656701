// Gateway-level native tiering + invoke memo tests: heat counters trip
// background compilation through Gateway::sweep_tier_compiles, native
// entries are inherited by warm pool checkouts, the tiering counters ride
// the STATS wire frame and outlive the modules the cache evicts, and the
// invoke result memo answers a twin async invoke without entering a
// sandbox.
//
// Every native-specific assertion is gated on wasm::jit::jit_available():
// under WATZ_DISABLE_JIT (the CI fallback leg) or on non-x86-64 hosts the
// suite still runs end to end and asserts the degraded-to-AOT behaviour
// (zero compiles, correct results).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/device.hpp"
#include "gateway/gateway.hpp"
#include "wasm/builder.hpp"
#include "wasm/jit/jit.hpp"

namespace watz::gateway {
namespace {

core::DeviceConfig device_config(const std::string& hostname, std::uint8_t id) {
  core::DeviceConfig config;
  config.hostname = hostname;
  config.otpmk.fill(id);
  config.latency.enabled = false;
  return config;
}

/// Guest exporting work(n) -> sum(1..n): an integer loop the baseline JIT
/// lowers entirely to native code (no fallback thunks). A non-zero `salt`
/// adds an export returning it, for a second measurement of the same loop.
Bytes compute_app(std::int32_t salt = 0) {
  wasm::ModuleBuilder b;
  b.add_memory(1);
  const auto f = b.add_function(
      {{wasm::ValType::I32}, {wasm::ValType::I32}},
      {wasm::ValType::I32, wasm::ValType::I32});  // locals: 1 = i, 2 = acc
  wasm::CodeEmitter e;
  e.block(0x40);
  e.loop(0x40);
  e.local_get(1).local_get(0).op(wasm::kI32GeS).br_if(1);
  e.local_get(1).i32_const(1).op(wasm::kI32Add).local_tee(1);
  e.local_get(2).op(wasm::kI32Add).local_set(2);
  e.br(0);
  e.end();
  e.end();
  e.local_get(2);
  b.set_body(f, e.bytes());
  b.export_function("work", f);
  if (salt != 0) {
    const auto g = b.add_function({{}, {wasm::ValType::I32}});
    wasm::CodeEmitter s;
    s.i32_const(salt);
    b.set_body(g, s.bytes());
    b.export_function("salt", g);
  }
  return b.build();
}

class GatewayTieringTest : public ::testing::Test {
 protected:
  void SetUpFleet(GatewayConfig config) {
    vendor_ = core::Vendor::create(to_bytes("gw-tier-vendor"));
    auto device =
        core::Device::boot(fabric_, vendor_, device_config("tier-node", 0x61));
    ASSERT_TRUE(device.ok()) << device.error();
    devices_.push_back(std::move(*device));
    gateway_ = std::make_unique<Gateway>(fabric_, config, to_bytes("gw-tier-id"));
    ASSERT_TRUE(gateway_->start().ok());
    for (auto& d : devices_) ASSERT_TRUE(gateway_->add_device(*d).ok());
    client_ = std::make_unique<GatewayClient>(fabric_);
    ASSERT_TRUE(client_->connect(config.hostname, config.port).ok());
  }

  /// Attach + upload compute_app; fills session_ and measurement_.
  void AttachAndLoad() {
    auto attach = client_->attach("tier-tenant");
    ASSERT_TRUE(attach.ok()) << attach.error();
    session_ = attach->session_id;
    auto load = client_->load_module(session_, compute_app());
    ASSERT_TRUE(load.ok()) << load.error();
    measurement_ = load->measurement;
  }

  InvokeRequest work_request(std::int32_t n) {
    return work_request(measurement_, n);
  }
  InvokeRequest work_request(const crypto::Sha256Digest& measurement,
                             std::int32_t n) {
    InvokeRequest req;
    req.session_id = session_;
    req.measurement = measurement;
    req.entry = "work";
    req.args = {wasm::Value::from_i32(n)};
    req.heap_bytes = 1 << 20;
    return req;
  }

  net::Fabric fabric_;
  core::Vendor vendor_;
  std::vector<std::unique_ptr<core::Device>> devices_;
  std::unique_ptr<Gateway> gateway_;
  std::unique_ptr<GatewayClient> client_;
  std::uint64_t session_ = 0;
  crypto::Sha256Digest measurement_{};
};

TEST_F(GatewayTieringTest, HotInvokesTierUpViaControlPlaneSweep) {
  GatewayConfig config;
  config.jit_hot_calls = 1;  // first touch marks the function hot
  // The background pump would race the explicit sweep below for the
  // pending compile; park it for far longer than the test runs.
  config.renewal_interval_ns = 3'600'000'000'000ull;
  SetUpFleet(config);
  AttachAndLoad();

  // First invoke runs on the AOT stream and trips the heat counter.
  auto first = client_->invoke(work_request(1000));
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->results.front().i32(), 500500);

  // The explicit sweep is what the background sweeper does every interval;
  // driving it here makes the tier-up deterministic.
  const std::size_t compiled = gateway_->sweep_tier_compiles();
  auto second = client_->invoke(work_request(2000));
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(second->results.front().i32(), 2001000);

  GatewayStats stats = gateway_->stats();
  if (wasm::jit::jit_available()) {
    EXPECT_GT(compiled, 0u);
    EXPECT_GT(stats.tier_up_compiles, 0u);
    EXPECT_GT(stats.native_entries, 0u);
    // Pure-integer module: nothing should have gone through the thunks.
    EXPECT_EQ(stats.jit_fallback_ops, 0u);
    // Idempotent: nothing left pending after the sweep.
    EXPECT_EQ(gateway_->sweep_tier_compiles(), 0u);
  } else {
    // Fallback leg (WATZ_DISABLE_JIT / non-x86-64): wholesale AOT stream,
    // results identical, tiering plane quiescent.
    EXPECT_EQ(compiled, 0u);
    EXPECT_EQ(stats.tier_up_compiles, 0u);
    EXPECT_EQ(stats.native_entries, 0u);
  }
}

TEST_F(GatewayTieringTest, TieringCountersRideTheStatsWire) {
  GatewayConfig config;
  config.jit_hot_calls = 1;
  SetUpFleet(config);
  AttachAndLoad();

  ASSERT_TRUE(client_->invoke(work_request(10)).ok());
  gateway_->sweep_tier_compiles();
  ASSERT_TRUE(client_->invoke(work_request(10)).ok());

  // Round-trip through the wire encoding: the client-side decode must see
  // what the gateway serialised, including the detail-gated compile stage.
  auto wire = client_->stats(session_, /*detail=*/true);
  ASSERT_TRUE(wire.ok()) << wire.error();
  GatewayStats local = gateway_->stats(true);
  EXPECT_EQ(wire->tier_up_compiles, local.tier_up_compiles);
  EXPECT_EQ(wire->native_entries, local.native_entries);
  EXPECT_EQ(wire->jit_fallback_ops, local.jit_fallback_ops);
  EXPECT_EQ(wire->jit_fallback_call, local.jit_fallback_call);
  EXPECT_EQ(wire->invoke_memo_hits, local.invoke_memo_hits);
  EXPECT_EQ(wire->stage_jit_compile.count, local.stage_jit_compile.count);
  if (wasm::jit::jit_available()) {
    EXPECT_GT(wire->tier_up_compiles, 0u);
    EXPECT_GT(wire->stage_jit_compile.count, 0u);
    // Without detail the compile histogram stays unserialised.
    auto plain = client_->stats(session_, /*detail=*/false);
    ASSERT_TRUE(plain.ok()) << plain.error();
    EXPECT_EQ(plain->stage_jit_compile.count, 0u);
    EXPECT_EQ(plain->tier_up_compiles, wire->tier_up_compiles);
  }
}

TEST_F(GatewayTieringTest, TierCountersSurviveEviction) {
  GatewayConfig config;
  config.jit_hot_calls = 1;
  config.renewal_interval_ns = 3'600'000'000'000ull;  // sweeps driven below
  // Room for one parked 1 MiB guest heap plus code, not two: parking B's
  // instance must evict A whole.
  config.cache.budget_bytes = 3 << 19;
  SetUpFleet(config);
  AttachAndLoad();

  // Tier A up and run it on its native entry.
  ASSERT_TRUE(client_->invoke(work_request(100)).ok());
  gateway_->sweep_tier_compiles();
  auto hot = client_->invoke(work_request(100));
  ASSERT_TRUE(hot.ok()) << hot.error();
  EXPECT_EQ(hot->results.front().i32(), 5050);
  const GatewayStats before = gateway_->stats(true);
  ASSERT_EQ(before.devices.size(), 1u);
  ASSERT_EQ(before.devices[0].modules.size(), 1u);
  if (wasm::jit::jit_available()) {
    EXPECT_GT(before.tier_up_compiles, 0u);
    EXPECT_GT(before.native_entries, 0u);
  }

  auto load_b = client_->load_module(session_, compute_app(/*salt=*/7));
  ASSERT_TRUE(load_b.ok()) << load_b.error();
  ASSERT_NE(load_b->measurement, measurement_);
  auto b = client_->invoke(work_request(load_b->measurement, 10));
  ASSERT_TRUE(b.ok()) << b.error();
  EXPECT_EQ(b->results.front().i32(), 55);

  // A is gone from the cache, its TierSet with it...
  const GatewayStats after = gateway_->stats(true);
  ASSERT_EQ(after.devices.size(), 1u);
  EXPECT_GT(after.devices[0].cache_evictions, before.devices[0].cache_evictions);
  for (const ModuleTierStats& m : after.devices[0].modules)
    EXPECT_NE(m.measurement, measurement_) << "A should have been evicted";
  // ...but the fleet counters it flushed into are registry-owned.
  EXPECT_GE(after.tier_up_compiles, before.tier_up_compiles);
  EXPECT_GE(after.native_entries, before.native_entries);
}

TEST_F(GatewayTieringTest, AsyncMemoServesTwinWithoutExecuting) {
  GatewayConfig config;
  config.invoke_memo_ttl_ns = 60ull * 1'000'000'000;  // generous: no expiry here
  SetUpFleet(config);
  AttachAndLoad();

  auto first = client_->invoke_async(work_request(100)).get();
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->results.front().i32(), 5050);
  const std::uint64_t executed = gateway_->stats().invocations;

  // The twin rides the memo: same results, no new sandbox execution.
  auto twin = client_->invoke_async(work_request(100)).get();
  ASSERT_TRUE(twin.ok()) << twin.error();
  EXPECT_EQ(twin->results.front().i32(), 5050);
  EXPECT_EQ(twin->ra_exchanges, 0u);

  GatewayStats stats = gateway_->stats();
  EXPECT_EQ(stats.invoke_memo_hits, 1u);
  EXPECT_EQ(stats.invocations, executed);  // nothing executed for the twin

  // Different arguments are a different semantic identity: full execution.
  auto other = client_->invoke_async(work_request(101)).get();
  ASSERT_TRUE(other.ok()) << other.error();
  EXPECT_EQ(other->results.front().i32(), 5151);
  EXPECT_EQ(gateway_->stats().invocations, executed + 1);
}

}  // namespace
}  // namespace watz::gateway
