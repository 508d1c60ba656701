// Per-device sandbox-pool tests: slot-affinity reuse, concurrent fan-out
// across one device's slots, cross-lane INVOKE_BATCH dedup, the
// detach-vs-pooled-invoke race, evidence renewal ahead of the TTL, one
// handshake ledger across every attestation path, and a 4-thread stress
// drive of a 2-device x 4-slot fleet (the TSan payload for
// the pooled execution plane).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/device.hpp"
#include "gateway/gateway.hpp"
#include "tests/support/lane_ledger.hpp"
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

class GatewayPoolTest : public ::testing::Test {
 protected:
  void SetUpFleet(int devices, GatewayConfig config) {
    config_ = config;
    vendor_ = core::Vendor::create(to_bytes("gw-pool-vendor"));
    for (int i = 0; i < devices; ++i) {
      auto device = core::Device::boot(
          fabric_, vendor_, device_config("pool-node-" + std::to_string(i),
                                          static_cast<std::uint8_t>(0x60 + i)));
      ASSERT_TRUE(device.ok()) << device.error();
      devices_.push_back(std::move(*device));
    }
    gateway_ = std::make_unique<Gateway>(fabric_, config, to_bytes("gw-pool-id"));
    ASSERT_TRUE(gateway_->start().ok());
    for (auto& device : devices_) ASSERT_TRUE(gateway_->add_device(*device).ok());
    client_ = std::make_unique<GatewayClient>(fabric_);
    ASSERT_TRUE(client_->connect(config.hostname, config.port).ok());
  }

  net::Fabric fabric_;
  core::Vendor vendor_;
  GatewayConfig config_;
  std::vector<std::unique_ptr<core::Device>> devices_;
  std::unique_ptr<Gateway> gateway_;
  std::unique_ptr<GatewayClient> client_;
};

TEST_F(GatewayPoolTest, SlotAffinityReusesWarmInstance) {
  GatewayConfig config;
  config.slots_per_device = 2;
  SetUpFleet(1, config);

  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());

  // Sequential invokes of one session follow the affinity hint onto the
  // slot whose warm pool holds their instance: every call after the first
  // is a pool hit, and every call lands on the same slot.
  for (int i = 0; i < 5; ++i) {
    auto r = client_->invoke(add_request(attach->session_id, load->measurement, i, 1));
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r->results.front().i32(), i + 1);
    if (i > 0) {
      EXPECT_TRUE(r->pool_hit) << "invoke " << i;
    }
  }

  auto stats = client_->stats(attach->session_id);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->devices.size(), 1u);
  const DeviceStats& d = stats->devices[0];
  EXPECT_EQ(d.pool_slots, 2u);
  ASSERT_EQ(d.slots.size(), 2u);
  EXPECT_EQ(d.invocations, 5u);
  // Affinity keeps the idle-path session on ONE slot; the sibling stays
  // cold.
  EXPECT_TRUE((d.slots[0].invocations == 5 && d.slots[1].invocations == 0) ||
              (d.slots[0].invocations == 0 && d.slots[1].invocations == 5));
}

TEST_F(GatewayPoolTest, BatchFansOutAcrossOneDevicesSlots) {
  GatewayConfig config;
  config.slots_per_device = 4;
  SetUpFleet(1, config);

  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());

  // 8 distinct lanes in one admission pass: the fan must spread over the
  // pool of ONE device, not serialise on its first slot (admission bumps
  // inflight, so lane k's cost snapshot already sees lanes 0..k-1). The
  // spread is NOT deterministically even: a fast slot can retire a lane
  // mid-admission and win later lanes back through affinity — so pin
  // "multiple slots ran the batch", not an exact 2/2/2/2 split.
  std::vector<InvokeRequest> batch;
  for (int i = 0; i < 8; ++i)
    batch.push_back(add_request(attach->session_id, load->measurement, i, 100));
  for (auto& r : client_->invoke_all(batch)) ASSERT_TRUE(r.ok()) << r.error();

  auto stats = client_->stats(attach->session_id);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->devices.size(), 1u);
  const DeviceStats& d = stats->devices[0];
  EXPECT_EQ(d.invocations, 8u);
  ASSERT_EQ(d.slots.size(), 4u);
  int busy_slots = 0;
  for (const SlotStats& s : d.slots) {
    if (s.invocations > 0) ++busy_slots;
  }
  EXPECT_GE(busy_slots, 2) << "the batch serialised on one slot";
}

TEST_F(GatewayPoolTest, DedupedLanesShareOneExecution) {
  GatewayConfig config;
  config.slots_per_device = 2;
  SetUpFleet(2, config);

  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());

  // Lanes 0..4 are identical (same measurement, entry, args, heap) and the
  // session holds fresh evidence fleet-wide after attach: the first is the
  // leader, the other four ride its result. Lanes 5..7 are distinct and
  // execute normally.
  std::vector<InvokeRequest> batch;
  for (int i = 0; i < 5; ++i)
    batch.push_back(add_request(attach->session_id, load->measurement, 7, 3));
  for (int i = 0; i < 3; ++i)
    batch.push_back(add_request(attach->session_id, load->measurement, i, 50));
  auto results = client_->invoke_all(batch);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error();
    EXPECT_EQ(results[i]->results.front().i32(), 10);
  }
  for (std::size_t i = 5; i < 8; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error();
    EXPECT_EQ(results[i]->results.front().i32(),
              static_cast<std::int32_t>(i - 5) + 50);
  }

  auto stats = client_->stats(attach->session_id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->deduped_lanes, 4u);
  // Only 4 executions entered a sandbox: 1 leader + 3 distinct lanes.
  EXPECT_EQ(stats->invocations, 4u);
}

TEST_F(GatewayPoolTest, EvidenceRenewalAheadOfTtlKeepsHotPathFree) {
  GatewayConfig config;
  config.session_policy.evidence_ttl_ns = 300'000'000;  // 300 ms
  config.evidence_renewal = false;  // drive the sweep by hand, deterministically
  config.slots_per_device = 2;
  SetUpFleet(2, config);

  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());
  const std::uint64_t handshakes_after_attach = gateway_->sessions().handshakes_run();

  // Young evidence: a sweep renews nothing.
  EXPECT_EQ(gateway_->sweep_evidence_renewals(), 0u);

  // Age the evidence past ~80% of the TTL (but not past the TTL itself),
  // then sweep: both devices re-prove this session through the batched
  // handshake machinery, on the control lane.
  std::this_thread::sleep_for(std::chrono::milliseconds(260));
  EXPECT_EQ(gateway_->sweep_evidence_renewals(), 2u);
  EXPECT_EQ(gateway_->sessions().handshakes_run(), handshakes_after_attach + 2);

  // The hot path rides the RENEWED evidence: zero RA exchanges even though
  // the original attach-time evidence would have been near expiry.
  auto r = client_->invoke(add_request(attach->session_id, load->measurement, 2, 2));
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r->ra_exchanges, 0u);

  auto stats = client_->stats(attach->session_id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->evidence_renewals, 2u);

  // Renewal reset the clock: an immediate second sweep is a no-op.
  EXPECT_EQ(gateway_->sweep_evidence_renewals(), 0u);
}

TEST_F(GatewayPoolTest, BackgroundRenewalSweeperRuns) {
  GatewayConfig config;
  config.session_policy.evidence_ttl_ns = 150'000'000;  // 150 ms
  config.renewal_interval_ns = 20'000'000;              // sweep every 20 ms
  SetUpFleet(1, config);

  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // The sweeper has renewed this session at least twice by now (every
  // ~120 ms of evidence age), without any invoke driving it.
  auto stats = gateway_->stats();
  EXPECT_GE(stats.evidence_renewals, 2u);

  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());
  auto r = client_->invoke(add_request(attach->session_id, load->measurement, 1, 1));
  EXPECT_TRUE(r.ok()) << r.error();
}

TEST_F(GatewayPoolTest, EveryAttestPathReconcilesInOneLedger) {
  GatewayConfig config;
  config.session_policy.evidence_ttl_ns = 300'000'000;  // 300 ms
  config.evidence_renewal = false;  // renew by hand, deterministically
  SetUpFleet(2, config);

  // Every RA exchange the gateway reported, on the wire or by the sweep.
  std::uint64_t reported_ra = 0;

  // Batched attach: 3 sessions x 2 devices, one 2-round-trip batch each.
  auto attach = client_->attach_all({"tenant-a", "tenant-b", "tenant-c"});
  ASSERT_TRUE(attach.ok()) << attach.error();
  ASSERT_EQ(attach->results.size(), 3u);
  EXPECT_EQ(attach->ra_fabric_exchanges, 2 * kRaExchangesPerHandshake);
  std::vector<std::uint64_t> ids;
  for (const AttachBatchResult& r : attach->results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.devices_attested, 2u);
    EXPECT_EQ(r.ra_exchanges, 2 * kRaExchangesPerHandshake);
    reported_ra += r.ra_exchanges;
    ids.push_back(r.session_id);
  }
  auto load = client_->load_module(ids[0], adder_app());
  ASSERT_TRUE(load.ok()) << load.error();

  // Renewal past ~80% of the TTL re-proves all 6 (session, device) pairs.
  std::this_thread::sleep_for(std::chrono::milliseconds(260));
  ASSERT_EQ(gateway_->sweep_evidence_renewals(), 6u);
  reported_ra += 6 * kRaExchangesPerHandshake;

  // The TTL lapses: each session's next invoke pays a lazy handshake on
  // the device it lands on.
  std::this_thread::sleep_for(std::chrono::milliseconds(320));
  std::string landed;
  for (std::size_t s = 0; s < ids.size(); ++s) {
    auto r = client_->invoke(add_request(ids[s], load->measurement, 1, 1));
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r->ra_exchanges, kRaExchangesPerHandshake);
    reported_ra += r->ra_exchanges;
    if (s == 0) landed = r->device;
  }

  // Rebooting the device session 0 ran on makes its evidence stale; the
  // next invoke returns to that idle affinity slot and re-proves lazily.
  for (auto& device : devices_) {
    if (device->hostname() == landed) {
      ASSERT_TRUE(gateway_->add_device(*device).ok());
    }
  }
  auto again = client_->invoke(add_request(ids[0], load->measurement, 2, 2));
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_EQ(again->device, landed);
  EXPECT_EQ(again->ra_exchanges, kRaExchangesPerHandshake);
  reported_ra += again->ra_exchanges;

  // One ledger: the session manager recorded exactly the handshakes the
  // verifier completed, and each one cost 2 RA exchanges.
  const std::uint64_t run = gateway_->sessions().handshakes_run();
  EXPECT_EQ(run, 6u + 6u + 3u + 1u);
  EXPECT_EQ(run, gateway_->verifier().handshakes_completed());
  EXPECT_EQ(reported_ra, run * kRaExchangesPerHandshake);

  // An appraisal failure reads the same on attach and on the lazy path:
  // "gateway: <host> failed appraisal: <the verifier's reason>".
  ra::VerifierPolicy outdated;
  outdated.min_watz_version = ~0u;
  gateway_->verifier().set_policy(outdated);
  const auto reason = [](const std::string& error) {
    const std::string host = "gateway: pool-node-";
    const std::string marker = " failed appraisal: ";
    const std::size_t at = error.find(marker);
    EXPECT_NE(at, std::string::npos) << error;
    EXPECT_NE(error.rfind(host, at), std::string::npos) << error;
    EXPECT_EQ(error.rfind(host, at) + host.size() + 1, at) << error;
    return at == std::string::npos ? error : error.substr(at + marker.size());
  };
  auto refused = client_->attach("tenant-d");
  ASSERT_FALSE(refused.ok());
  for (auto& device : devices_) ASSERT_TRUE(gateway_->add_device(*device).ok());
  auto lazy = client_->invoke(add_request(ids[1], load->measurement, 3, 3));
  ASSERT_FALSE(lazy.ok());
  EXPECT_EQ(lazy.error().rfind("gateway: pool-node-", 0), 0u) << lazy.error();
  EXPECT_EQ(reason(refused.error()), reason(lazy.error()));
}

/// One slow device (25 ms device-side world switch) with a 2-slot pool and
/// tiny queues: the detach-vs-pooled-invoke race has a deterministic
/// window while both slots hold queued work.
class GatewaySlowPoolTest : public GatewayPoolTest {
 protected:
  void SetUp() override {
    GatewayConfig config;
    config.worker_queue_capacity = 2;
    config.slots_per_device = 2;
    config_ = config;
    vendor_ = core::Vendor::create(to_bytes("gw-pool-vendor"));
    core::DeviceConfig cfg = device_config("slow-pool-0", 0x71);
    cfg.latency.enabled = true;
    cfg.latency.device_side = true;
    cfg.latency.smc_enter_ns = 25'000'000;
    cfg.latency.smc_leave_ns = 0;
    cfg.latency.supplicant_rpc_ns = 0;
    cfg.latency.time_rpc_ns = 0;
    auto device = core::Device::boot(fabric_, vendor_, cfg);
    ASSERT_TRUE(device.ok()) << device.error();
    devices_.push_back(std::move(*device));
    gateway_ = std::make_unique<Gateway>(fabric_, config, to_bytes("gw-pool-id"));
    ASSERT_TRUE(gateway_->start().ok());
    ASSERT_TRUE(gateway_->add_device(*devices_[0]).ok());
    client_ = std::make_unique<GatewayClient>(fabric_);
    ASSERT_TRUE(client_->connect(config.hostname, config.port).ok());
  }

  /// Waits until the pool holds `n` items RIGHT NOW (queued + executing,
  /// summed over its slots).
  void WaitInflight(std::uint32_t n) {
    for (int spin = 0; spin < 20000; ++spin) {
      const GatewayStats stats = gateway_->stats();
      std::uint32_t inflight = 0;
      for (const SlotStats& slot : stats.devices[0].slots) inflight += slot.inflight;
      if (inflight == n) return;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    FAIL() << "pool never reached " << n << " in-flight items";
  }
};

TEST_F(GatewaySlowPoolTest, DetachFailsQueuedPooledWorkOnEverySlot) {
  auto attach = client_->attach("tenant-a");
  ASSERT_TRUE(attach.ok()) << attach.error();
  auto load = client_->load_module(attach->session_id, adder_app());
  ASSERT_TRUE(load.ok());

  // Fill BOTH slots (one executing + one queued each), then detach while
  // all four are in flight: queued items on every slot must observe the
  // closed session and fail instead of executing against dropped state.
  std::vector<std::future<Result<InvokeResponse>>> inflight;
  for (int i = 0; i < 4; ++i)
    inflight.push_back(
        client_->invoke_async(add_request(attach->session_id, load->measurement, i, i)));
  WaitInflight(4);
  ASSERT_TRUE(client_->detach(attach->session_id).ok());
  EXPECT_EQ(gateway_->sessions().active(), 0u);

  // Every future resolves — completed (was already executing) or failed
  // with the detach — and nothing crashes or hangs.
  int detached = 0;
  for (auto& future : inflight) {
    auto done = future.get();
    if (!done.ok()) {
      EXPECT_NE(done.error().find("session detached"), std::string::npos)
          << done.error();
      ++detached;
    }
  }
  // The two QUEUED items (one per slot) cannot have started before the
  // detach landed: at least those two must report the detach.
  EXPECT_GE(detached, 2);
}

TEST_F(GatewayPoolTest, FourThreadStressOverPooledFleet) {
  GatewayConfig config;
  config.slots_per_device = 4;
  SetUpFleet(2, config);

  const Bytes app = adder_app();
  auto seed_attach = client_->attach("stress-seed");
  ASSERT_TRUE(seed_attach.ok());
  auto load = client_->load_module(seed_attach->session_id, app);
  ASSERT_TRUE(load.ok());
  const crypto::Sha256Digest measurement = load->measurement;

  // 4 client threads x (plain invokes + 4-lane batches) into a 2-device x
  // 4-slot fleet, while the main thread re-enrols device 0 mid-storm (a
  // reboot: boot count bumps, evidence goes stale, invokes re-attest
  // lazily) and samples STATS. Everything must succeed; this suite is the
  // TSan payload for the pooled execution plane.
  constexpr int kThreads = 4;
  constexpr int kRounds = 12;
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> completed{0};
  // Every lane (plain invoke and batch lane alike) is registered with the
  // exactly-once ledger before dispatch and completed by whichever path
  // answered it; the storm must end with zero lost and zero doubled.
  testing::LaneLedger ledger;
  const auto lane_key = [](int t, int round, const char* lane) {
    return std::to_string(t) + "/" + std::to_string(round) + "/" + lane;
  };
  std::vector<std::thread> drivers;
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      GatewayClient client(fabric_);
      if (!client.connect(config_.hostname, config_.port).ok()) {
        failures.fetch_add(1);
        return;
      }
      auto attach = client.attach("stress-" + std::to_string(t));
      if (!attach.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        ledger.issue(lane_key(t, round, "sync"));
        auto r = client.invoke(add_request(attach->session_id, measurement,
                                           t * 1000 + round, 1));
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
        ledger.complete(lane_key(t, round, "sync"), true);
        completed.fetch_add(1);
        std::vector<InvokeRequest> batch;
        for (int lane = 0; lane < 4; ++lane) {
          batch.push_back(add_request(attach->session_id, measurement,
                                      t * 1000 + round, 10 + lane));
          ledger.issue(lane_key(t, round, std::to_string(lane).c_str()));
        }
        auto lane_results = client.invoke_all(batch);
        for (std::size_t lane = 0; lane < lane_results.size(); ++lane) {
          if (!lane_results[lane].ok()) {
            failures.fetch_add(1);
            return;
          }
          ledger.complete(
              lane_key(t, round, std::to_string(lane).c_str()), true);
          completed.fetch_add(1);
        }
      }
      if (!client.detach(attach->session_id).ok()) failures.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(gateway_->add_device(*devices_[0]).ok());  // mid-storm reboot
  for (int i = 0; i < 5; ++i) {
    auto stats = client_->stats(seed_attach->session_id);
    ASSERT_TRUE(stats.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& driver : drivers) driver.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(completed.load(),
            static_cast<std::uint64_t>(kThreads) * kRounds * 5);
  EXPECT_EQ(ledger.issued(), static_cast<std::uint64_t>(kThreads) * kRounds * 5);
  EXPECT_EQ(ledger.double_issued(), 0u);
  EXPECT_EQ(ledger.lost(), 0u) << "a lane vanished mid-storm";
  EXPECT_EQ(ledger.double_completed(), 0u) << "a lane was answered twice";
  auto stats = client_->stats(seed_attach->session_id);
  ASSERT_TRUE(stats.ok());
  // Dedup never fires (every batch's lanes are distinct), so each
  // completed lane entered a sandbox exactly once.
  EXPECT_EQ(stats->deduped_lanes, 0u);
  EXPECT_GE(stats->invocations, completed.load());
  ASSERT_EQ(stats->devices.size(), 2u);
  for (const DeviceStats& d : stats->devices) EXPECT_EQ(d.pool_slots, 4u);
}

}  // namespace
}  // namespace watz::gateway
