// InvokeMemo unit tests — pinning the hot-aware eviction order (fewest
// hits first, stalest last-touch breaking ties), TTL expiry, and the
// overwrite-resets-heat rule — plus gateway-level coverage of the memo on
// the plain INVOKE path: a duplicate delivery within the TTL redeems the
// memoised result instead of entering a sandbox a second time (the replay
// absorber the chaos suite leans on), and a disabled memo (ttl = 0)
// executes every delivery.
#include <gtest/gtest.h>

#include "core/device.hpp"
#include "gateway/gateway.hpp"
#include "gateway/invoke_memo.hpp"
#include "wasm/builder.hpp"
#include "wasm/jit/jit.hpp"

namespace watz::gateway {
namespace {

InvokeMemo::Entry entry_for(const std::string& device, std::uint64_t session) {
  InvokeMemo::Entry entry;
  entry.device = device;
  entry.boot_count = 1;
  entry.producer_session = session;
  return entry;
}

TEST(InvokeMemoTest, HotEntrySurvivesEvictionColdOneGoes) {
  InvokeMemo memo(2);
  memo.store("hot", entry_for("dev-a", 1), /*now_ns=*/100);
  memo.store("cold", entry_for("dev-a", 2), /*now_ns=*/200);

  // "hot" is older but repeatedly redeemed; "cold" is fresher but never
  // hit. Purely stalest-first eviction would evict "hot" — the hot-aware
  // order must evict "cold" (fewest hits first).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(memo.lookup("hot", 300, /*ttl_ns=*/10'000).has_value());
    memo.note_hit("hot", 300 + static_cast<std::uint64_t>(i));
  }
  memo.store("newcomer", entry_for("dev-a", 3), /*now_ns=*/400);

  EXPECT_EQ(memo.size(), 2u);
  EXPECT_TRUE(memo.contains("hot"));
  EXPECT_TRUE(memo.contains("newcomer"));
  EXPECT_FALSE(memo.contains("cold"));
}

TEST(InvokeMemoTest, HitTiesBreakStalestFirst) {
  InvokeMemo memo(2);
  memo.store("older", entry_for("dev-a", 1), /*now_ns=*/100);
  memo.store("fresher", entry_for("dev-a", 2), /*now_ns=*/200);
  // Equal heat on both (one hit each, different touch times): the tie
  // breaks on last_touch, so the stalest-touched entry is the victim.
  memo.note_hit("older", 150);
  memo.note_hit("fresher", 250);

  memo.store("newcomer", entry_for("dev-a", 3), /*now_ns=*/300);
  EXPECT_FALSE(memo.contains("older"));
  EXPECT_TRUE(memo.contains("fresher"));
  EXPECT_TRUE(memo.contains("newcomer"));
}

TEST(InvokeMemoTest, OverwriteResetsHeat) {
  InvokeMemo memo(2);
  memo.store("a", entry_for("dev-a", 1), 100);
  for (int i = 0; i < 5; ++i) memo.note_hit("a", 200);
  // Overwriting "a" replaces the result: the old heat belonged to the old
  // result and must not shield the new one.
  memo.store("a", entry_for("dev-b", 9), 300);
  memo.store("b", entry_for("dev-a", 2), 400);
  memo.note_hit("b", 450);

  memo.store("newcomer", entry_for("dev-a", 3), 500);
  // "a" (0 hits since overwrite) loses to "b" (1 hit).
  EXPECT_FALSE(memo.contains("a"));
  EXPECT_TRUE(memo.contains("b"));
  EXPECT_TRUE(memo.contains("newcomer"));
}

TEST(InvokeMemoTest, TtlExpiresEnPassant) {
  InvokeMemo memo(4);
  memo.store("a", entry_for("dev-a", 1), /*now_ns=*/1'000);
  EXPECT_TRUE(memo.lookup("a", 1'500, /*ttl_ns=*/1'000).has_value());
  // Past the TTL the entry is gone, and the expired lookup erased it.
  EXPECT_FALSE(memo.lookup("a", 2'500, /*ttl_ns=*/1'000).has_value());
  EXPECT_FALSE(memo.contains("a"));
}

TEST(InvokeMemoTest, EntryRoundTripsPayload) {
  InvokeMemo memo(4);
  InvokeMemo::Entry entry = entry_for("dev-a", 7);
  entry.boot_count = 3;
  entry.response.device = "dev-a";
  entry.response.results = {wasm::Value::from_i32(42)};
  memo.store("k", std::move(entry), 100);

  auto hit = memo.lookup("k", 150, 10'000);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->device, "dev-a");
  EXPECT_EQ(hit->boot_count, 3u);
  EXPECT_EQ(hit->producer_session, 7u);
  ASSERT_EQ(hit->response.results.size(), 1u);
  EXPECT_EQ(hit->response.results.front().i32(), 42);
}

// -- gateway-level: the memo on the plain INVOKE path ------------------------

core::DeviceConfig device_config(const std::string& hostname, std::uint8_t id) {
  core::DeviceConfig config;
  config.hostname = hostname;
  config.otpmk.fill(id);
  config.latency.enabled = false;
  return config;
}

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

class GatewayMemoTest : public ::testing::Test {
 protected:
  void SetUpFleet(GatewayConfig config) {
    vendor_ = core::Vendor::create(to_bytes("gw-memo-vendor"));
    auto device =
        core::Device::boot(fabric_, vendor_, device_config("memo-node-0", 0x41));
    ASSERT_TRUE(device.ok()) << device.error();
    device_ = std::move(*device);
    gateway_ = std::make_unique<Gateway>(fabric_, config, to_bytes("gw-memo-id"));
    ASSERT_TRUE(gateway_->start().ok());
    ASSERT_TRUE(gateway_->add_device(*device_).ok());
    client_ = std::make_unique<GatewayClient>(fabric_);
    ASSERT_TRUE(client_->connect(config.hostname, config.port).ok());
  }

  net::Fabric fabric_;
  core::Vendor vendor_;
  std::unique_ptr<core::Device> device_;
  std::unique_ptr<Gateway> gateway_;
  std::unique_ptr<GatewayClient> client_;
};

TEST_F(GatewayMemoTest, DuplicateInvokeDeliveryRedeemsMemoNotSandbox) {
  GatewayConfig config;
  config.invoke_memo_ttl_ns = 60'000'000'000ull;  // 60 s — storms finish within
  SetUpFleet(config);

  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());

  const InvokeRequest req = add_request(attach->session_id, load->measurement, 7, 3);
  auto first = client_->invoke(req);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->results.front().i32(), 10);

  // Same request again — a client retry after a lost response. One sandbox
  // execution total; the second delivery redeems the memo.
  auto second = client_->invoke(req);
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(second->results.front().i32(), 10);

  auto stats = client_->stats(attach->session_id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->invocations, 1u);
  EXPECT_EQ(stats->invoke_memo_hits, 1u);
}

TEST_F(GatewayMemoTest, MemoOffExecutesEveryDelivery) {
  GatewayConfig config;
  config.invoke_memo_ttl_ns = 0;  // disabled
  SetUpFleet(config);

  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());

  const InvokeRequest req = add_request(attach->session_id, load->measurement, 7, 3);
  ASSERT_TRUE(client_->invoke(req).ok());
  ASSERT_TRUE(client_->invoke(req).ok());

  auto stats = client_->stats(attach->session_id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->invocations, 2u);
  EXPECT_EQ(stats->invoke_memo_hits, 0u);
}

TEST_F(GatewayMemoTest, ProducerRedeemsOwnResultAcrossReboot) {
  GatewayConfig config;
  config.invoke_memo_ttl_ns = 60'000'000'000ull;
  SetUpFleet(config);

  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());

  const InvokeRequest req = add_request(attach->session_id, load->measurement, 5, 5);
  ASSERT_TRUE(client_->invoke(req).ok());

  // Reboot the device: the boot count bumps and the session's evidence for
  // it goes stale, so the has_fresh trust gate would now REJECT the memo
  // entry. The producer-session bypass must still serve the retry — the
  // result was produced under evidence fresh at execution time, and
  // re-executing it here is exactly the double-execution the ledger
  // forbids.
  ASSERT_TRUE(gateway_->add_device(*device_).ok());
  auto retry = client_->invoke(req);
  ASSERT_TRUE(retry.ok()) << retry.error();
  EXPECT_EQ(retry->results.front().i32(), 10);

  auto stats = client_->stats(attach->session_id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->invocations, 1u);
  EXPECT_EQ(stats->invoke_memo_hits, 1u);

  // A DIFFERENT session replaying the same key is still gated: its
  // evidence for the rebooted device is stale, so it executes for itself.
  auto other = client_->attach("tenant-b");
  ASSERT_TRUE(other.ok()) << other.error();
  InvokeRequest foreign = req;
  foreign.session_id = other->session_id;
  auto theirs = client_->invoke(foreign);
  ASSERT_TRUE(theirs.ok()) << theirs.error();
  auto after = client_->stats(attach->session_id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->invocations, 2u);
}

TEST_F(GatewayMemoTest, StatsDetailCarriesPerMeasurementTierState) {
  SetUpFleet(GatewayConfig{});

  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());
  auto r = client_->invoke(
      add_request(attach->session_id, load->measurement, 2, 2));
  ASSERT_TRUE(r.ok()) << r.error();

  // Plain STATS stays lean: the tier-state vector rides only on detail.
  auto lean = client_->stats(attach->session_id);
  ASSERT_TRUE(lean.ok());
  ASSERT_EQ(lean->devices.size(), 1u);
  EXPECT_TRUE(lean->devices[0].modules.empty());

  auto detail = client_->stats(attach->session_id, /*detail=*/true);
  ASSERT_TRUE(detail.ok());
  ASSERT_EQ(detail->devices.size(), 1u);
  ASSERT_EQ(detail->devices[0].modules.size(), 1u);
  const ModuleTierStats& tier = detail->devices[0].modules[0];
  EXPECT_EQ(tier.measurement, load->measurement);
  EXPECT_EQ(tier.mode, 1);  // wasm::ExecMode::Aot — the fleet default
  EXPECT_GT(tier.functions, 0u);
  if (wasm::jit::jit_available()) {
    EXPECT_GT(tier.hot_threshold, 0u);
    EXPECT_GT(tier.calls, 0u);  // the invoke above heated the module
  } else {
    // Fallback leg (WATZ_DISABLE_JIT / non-x86-64): no tier set, so the
    // module reports the wholesale AOT stream with no heat.
    EXPECT_EQ(tier.native_functions, 0u);
    EXPECT_EQ(tier.hot_threshold, 0u);
    EXPECT_EQ(tier.calls, 0u);
  }
}

}  // namespace
}  // namespace watz::gateway
