// Gateway throughput: what the service layer amortises.
//
// Phase 1 (launch latency, warm pool disabled so every launch is honest):
//   cold  = first invoke of a ~1 MB module on a device (full pipeline:
//           staging, secure copy, hashing, decode+validate+AOT, link);
//   warm  = same module again (module-cache hit: Transition + heap
//           allocation + Instantiate only).
// The paper's Fig 4 says Loading is ~73% of startup, so warm should be
// several times cheaper -- the acceptance bar is >= 2x.
//
// Phase 2 (session amortisation): every invoke after attach must ride the
// cached evidence -- zero RA message exchanges on the wire.
//
// Phase 3 (sustained throughput, pooling on, 2 devices): invocations/sec
// of a small module dispatched least-loaded across the fleet.
//
// Phase 4 (worker scaling): each enrolled device contributes one gateway
// worker thread, and the fleet's boards charge their world-switch latency
// device-side (sleeping, not busy-waiting a gateway core). Sustained
// invokes/sec is measured at 1, 2, 4 and 8 workers with 2 client threads
// per worker driving the admission layer — the curve shows device count
// converting into real parallelism instead of queueing delay.
//
//   $ ./bench_gateway_throughput [--json]
#include <algorithm>
#include <atomic>
#include <thread>

#include "ann/dataset.hpp"
#include "ann/guest.hpp"
#include "bench/harness.hpp"
#include "db/kv_guest.hpp"
#include "gateway/gateway.hpp"
#include "net/chaos_fabric.hpp"
#include "polybench/suite.hpp"
#include "wasm/builder.hpp"
#include "wasm/jit/jit.hpp"
#include "wasm/jit/tier.hpp"
#include "wcc/compiler.hpp"

namespace {

using namespace watz;

/// ~`target_kb` KiB of unrolled arithmetic, exporting entry() -> i64.
Bytes sized_module(int target_kb) {
  wasm::ModuleBuilder b;
  b.add_memory(1);
  const int kAddsPerFunc = 6000;
  std::uint32_t first = 0;
  std::size_t emitted = 0;
  int index = 0;
  while (emitted < static_cast<std::size_t>(target_kb) * 1024) {
    wasm::CodeEmitter e;
    e.i64_const(index + 1);
    for (int i = 0; i < kAddsPerFunc; ++i)
      e.i64_const(0x0102030405060708LL + i).op(wasm::kI64Add);
    const auto f = b.add_function({{}, {wasm::ValType::I64}});
    if (index == 0) first = f;
    b.set_body(f, e.bytes());
    emitted += kAddsPerFunc * 11;
    ++index;
  }
  const auto entry = b.add_function({{}, {wasm::ValType::I64}});
  wasm::CodeEmitter e;
  e.call(first);
  b.set_body(entry, e.bytes());
  b.export_function("entry", entry);
  return b.build();
}

/// Small guest for the sustained-throughput phase: add(a, b) -> a + b.
Bytes adder_module() {
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

gateway::InvokeRequest invoke_request(std::uint64_t session,
                                      const crypto::Sha256Digest& measurement,
                                      std::string entry,
                                      std::vector<wasm::Value> args = {}) {
  gateway::InvokeRequest req;
  req.session_id = session;
  req.measurement = measurement;
  req.entry = std::move(entry);
  req.args = std::move(args);
  req.heap_bytes = 1 << 20;
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("gateway_throughput", argc, argv);
  const bool tables = !report.json();

  net::Fabric fabric;
  const core::Vendor vendor = core::Vendor::create(to_bytes("gw-bench-vendor"));
  auto node0 = bench::boot_device(fabric, vendor, "node-0", 0x70);
  auto node1 = bench::boot_device(fabric, vendor, "node-1", 0x71);

  // ---- phase 1: cold vs warm launch latency ------------------------------
  gateway::GatewayConfig latency_config;
  latency_config.hostname = "gw-latency";
  latency_config.port = 7000;
  latency_config.ra_port = 7001;
  latency_config.cache.max_pool_per_module = 0;  // every launch instantiates
  gateway::Gateway latency_gw(fabric, latency_config, to_bytes("gw-bench-id-1"));
  latency_gw.start().check();
  latency_gw.add_device(*node0).check();

  gateway::GatewayClient client(fabric);
  client.connect("gw-latency", 7000).check();
  auto attach = client.attach("bench-tenant");
  attach.ok() ? void() : throw Error("bench: " + attach.error());

  const Bytes big = sized_module(1024);
  auto load = client.load_module(attach->session_id, big);
  load.ok() ? void() : throw Error("bench: " + load.error());

  if (tables)
    std::printf("=== Gateway: cold vs warm launch (%.2f MB module) ===\n",
                static_cast<double>(big.size()) / (1024.0 * 1024.0));

  auto cold = client.invoke(invoke_request(attach->session_id, load->measurement, "entry"));
  cold.ok() ? void() : throw Error("bench: " + cold.error());
  if (cold->module_cache_hit) throw Error("bench: first launch unexpectedly warm");

  // Median warm launch over a few repetitions.
  std::vector<std::uint64_t> warm_samples;
  std::uint32_t warm_ra_exchanges = 0;
  for (int i = 0; i < 5; ++i) {
    auto warm = client.invoke(
        invoke_request(attach->session_id, load->measurement, "entry"));
    warm.ok() ? void() : throw Error("bench: " + warm.error());
    if (!warm->module_cache_hit || warm->pool_hit)
      throw Error("bench: expected a pure module-cache hit");
    warm_samples.push_back(warm->launch_ns);
    warm_ra_exchanges += warm->ra_exchanges;
  }
  std::sort(warm_samples.begin(), warm_samples.end());
  const std::uint64_t warm_ns = warm_samples[warm_samples.size() / 2];
  const double speedup =
      static_cast<double>(cold->launch_ns) / static_cast<double>(warm_ns);

  if (tables) {
    std::printf("  cold launch (miss: full pipeline) : %9.2f ms\n",
                bench::ms(cold->launch_ns));
    std::printf("  warm launch (hit: no Loading)     : %9.2f ms  (%.1fx faster)\n",
                bench::ms(warm_ns), speedup);
    std::printf("  RA exchanges after attach         : %u (session evidence cached)\n",
                warm_ra_exchanges);
  }
  report.metric("cold_launch_ns", static_cast<double>(cold->launch_ns), "ns");
  report.metric("warm_launch_ns", static_cast<double>(warm_ns), "ns");
  report.metric("warm_speedup", speedup, "x");
  report.metric("post_attach_ra_exchanges", warm_ra_exchanges, "msgs");

  // ---- phase 2: sustained invocations/sec across the fleet ---------------
  gateway::GatewayConfig fleet_config;
  fleet_config.hostname = "gw-fleet";
  fleet_config.port = 7010;
  fleet_config.ra_port = 7011;
  gateway::Gateway fleet_gw(fabric, fleet_config, to_bytes("gw-bench-id-2"));
  fleet_gw.start().check();
  fleet_gw.add_device(*node0).check();
  fleet_gw.add_device(*node1).check();

  gateway::GatewayClient fleet_client(fabric);
  fleet_client.connect("gw-fleet", 7010).check();
  auto fleet_attach = fleet_client.attach("bench-tenant");
  fleet_attach.ok() ? void() : throw Error("bench: " + fleet_attach.error());
  const Bytes small = adder_module();
  auto small_load = fleet_client.load_module(fleet_attach->session_id, small);
  small_load.ok() ? void() : throw Error("bench: " + small_load.error());

  const auto add_args = [](int i) {
    return std::vector<wasm::Value>{wasm::Value::from_i32(i),
                                    wasm::Value::from_i32(1)};
  };
  // Warm both devices (cold miss once per device), then time.
  for (int i = 0; i < 4; ++i) {
    auto r = fleet_client.invoke(invoke_request(
        fleet_attach->session_id, small_load->measurement, "add", add_args(i)));
    r.ok() ? void() : throw Error("bench: " + r.error());
  }
  const int kInvocations = 2000;
  const std::uint64_t elapsed = bench::time_ns([&] {
    for (int i = 0; i < kInvocations; ++i) {
      auto r = fleet_client.invoke(invoke_request(
          fleet_attach->session_id, small_load->measurement, "add", add_args(i)));
      r.ok() ? void() : throw Error("bench: " + r.error());
    }
  });
  const double per_sec =
      kInvocations / (static_cast<double>(elapsed) / 1e9);

  auto stats = fleet_client.stats(fleet_attach->session_id);
  stats.ok() ? void() : throw Error("bench: " + stats.error());
  const double pool_rate =
      stats->invocations
          ? static_cast<double>(stats->devices[0].pool_hits +
                                stats->devices[1].pool_hits) /
                static_cast<double>(stats->invocations)
          : 0.0;

  if (tables) {
    std::printf("\n=== Gateway: sustained dispatch over %zu devices ===\n",
                stats->devices.size());
    std::printf("  %d invocations in %.1f ms -> %.0f invokes/sec\n", kInvocations,
                bench::ms(elapsed), per_sec);
    std::printf("  warm-pool hit rate: %.1f%%\n", 100.0 * pool_rate);
    for (const gateway::DeviceStats& d : stats->devices)
      std::printf("  %-8s invocations=%-6llu busy=%.1f ms  queue-depth peak=%u\n",
                  d.hostname.c_str(),
                  static_cast<unsigned long long>(d.invocations),
                  bench::ms(d.busy_ns), d.queue_depth_peak);
    if (speedup >= 2.0)
      std::printf("\nwarm launch is %.1fx cheaper than cold (>= 2x bar met)\n",
                  speedup);
    else
      std::printf("\nWARNING: warm launch only %.1fx cheaper than cold\n", speedup);
  }
  report.metric("sustained_invokes_per_sec", per_sec, "1/s");
  report.metric("pool_hit_rate", pool_rate, "ratio");
  report.metric("fleet_devices", static_cast<double>(stats->devices.size()), "");

  // ---- phase 3: worker-count scaling curve -------------------------------
  if (tables) std::printf("\n=== Gateway: worker-count scaling ===\n");
  const Bytes scale_module = adder_module();
  double per_sec_at_1 = 0.0;
  double per_sec_at_8 = 0.0;
  std::uint8_t next_otpmk = 0x90;
  int tier = 0;
  std::vector<std::unique_ptr<core::Device>> scale_fleet;  // outlives gateways
  for (const int workers : {1, 2, 4, 8}) {
    gateway::GatewayConfig config;
    config.hostname = "gw-scale-" + std::to_string(workers);
    config.port = static_cast<std::uint16_t>(7100 + 2 * tier);
    config.ra_port = static_cast<std::uint16_t>(7101 + 2 * tier);
    ++tier;
    gateway::Gateway gw(fabric, config, to_bytes("gw-bench-scale-" +
                                                 std::to_string(workers)));
    gw.start().check();
    const std::size_t fleet_base = scale_fleet.size();
    for (int i = 0; i < workers; ++i) {
      scale_fleet.push_back(bench::boot_device(
          fabric, vendor, config.hostname + "-node-" + std::to_string(i),
          next_otpmk++, /*charge_latency=*/true, /*device_side_latency=*/true));
      gw.add_device(*scale_fleet[fleet_base + i]).check();
    }

    gateway::GatewayClient admin(fabric);
    admin.connect(config.hostname, config.port).check();
    auto session = admin.attach("bench-scale-tenant");
    session.ok() ? void() : throw Error("bench: " + session.error());
    auto module = admin.load_module(session->session_id, scale_module);
    module.ok() ? void() : throw Error("bench: " + module.error());
    // Warm every device's module cache before timing (cold misses steer
    // the two-choice placement to untouched devices via the busy tie-break).
    for (int i = 0; i < 4 * workers; ++i) {
      auto r = admin.invoke(invoke_request(session->session_id,
                                           module->measurement, "add", add_args(i)));
      r.ok() ? void() : throw Error("bench: " + r.error());
    }

    const int client_threads = 2 * workers;  // keep every worker fed
    const int invokes_per_thread = 200;
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(client_threads);
    const std::uint64_t elapsed_scale = bench::time_ns([&] {
      for (int t = 0; t < client_threads; ++t) {
        clients.emplace_back([&, t] {
          gateway::GatewayClient client(fabric);
          if (!client.connect(config.hostname, config.port).ok()) {
            failures.fetch_add(1);
            return;
          }
          for (int i = 0; i < invokes_per_thread; ++i) {
            auto r = client.invoke(invoke_request(
                session->session_id, module->measurement, "add", add_args(t * 1000 + i)));
            if (!r.ok()) {
              failures.fetch_add(1);
              return;
            }
          }
        });
      }
      for (std::thread& thread : clients) thread.join();
    });
    if (failures.load() != 0) throw Error("bench: scaling client failures");
    const double scale_per_sec = (static_cast<double>(client_threads) *
                                  invokes_per_thread) /
                                 (static_cast<double>(elapsed_scale) / 1e9);
    if (workers == 1) per_sec_at_1 = scale_per_sec;
    if (workers == 8) per_sec_at_8 = scale_per_sec;
    if (tables)
      std::printf("  %d worker%s / %2d client threads : %8.0f invokes/sec\n",
                  workers, workers == 1 ? " " : "s", client_threads,
                  scale_per_sec);
    report.metric("threads_at_" + std::to_string(workers),
                  static_cast<double>(client_threads), "");
    report.metric("invokes_per_sec_at_" + std::to_string(workers), scale_per_sec,
                  "1/s");
  }
  const double scaling = per_sec_at_1 > 0 ? per_sec_at_8 / per_sec_at_1 : 0.0;
  if (tables)
    std::printf("  8-worker speedup over 1 worker : %.1fx %s\n", scaling,
                scaling >= 3.0 ? "(>= 3x bar met)" : "(below the 3x bar)");
  report.metric("worker_scaling_8x_over_1x", scaling, "x");

  // ---- phase 4: attach-storm shard scaling -------------------------------
  // A fleet-wide attach storm is verifier-bound: every handshake's
  // appraisal runs on the gateway's RA endpoint. The verifier charges its
  // per-appraisal cost (policy engine / HSM signing in a production
  // deployment) as wall-clock latency under the owning SHARD lock
  // (GatewayConfig::ra_appraisal_latency_ns — the same convention as the
  // device-side world-switch sleeps of phase 3), so with one shard the
  // whole fleet's appraisals serialise and with N shards they overlap.
  // Four client threads batch-attach sessions (ATTACH_BATCH) against 8
  // devices at 1/2/4/8 shards; the metric is attached sessions per second.
  if (tables) std::printf("\n=== Gateway: attach-storm shard scaling ===\n");
  constexpr int kStormDevices = 8;
  constexpr int kStormThreads = 4;
  constexpr int kStormBatch = 4;  // sessions per ATTACH_BATCH
  constexpr std::uint64_t kAppraisalNs = 20'000'000;  // ~6x one handshake's crypto
  double storm_at_1 = 0.0;
  double storm_at_8 = 0.0;
  std::uint8_t storm_otpmk = 0xB0;
  int storm_tier = 0;
  double fabric_exchanges_per_attach = 0.0;
  std::vector<std::unique_ptr<core::Device>> storm_fleet;  // outlives gateways
  for (const int shards : {1, 2, 4, 8}) {
    gateway::GatewayConfig config;
    config.hostname = "gw-storm-" + std::to_string(shards);
    config.port = static_cast<std::uint16_t>(7200 + 2 * storm_tier);
    config.ra_port = static_cast<std::uint16_t>(7201 + 2 * storm_tier);
    config.ra_shards = static_cast<std::size_t>(shards);
    config.ra_appraisal_latency_ns = kAppraisalNs;
    ++storm_tier;
    gateway::Gateway gw(fabric, config,
                        to_bytes("gw-bench-storm-" + std::to_string(shards)));
    gw.start().check();
    const std::size_t fleet_base = storm_fleet.size();
    for (int i = 0; i < kStormDevices; ++i) {
      storm_fleet.push_back(bench::boot_device(
          fabric, vendor, config.hostname + "-node-" + std::to_string(i),
          storm_otpmk++, /*charge_latency=*/false));
      gw.add_device(*storm_fleet[fleet_base + i]).check();
    }

    // Long-lived connections (dropping one detaches its sessions).
    std::vector<std::unique_ptr<gateway::GatewayClient>> connections;
    for (int t = 0; t < kStormThreads; ++t) {
      connections.push_back(std::make_unique<gateway::GatewayClient>(fabric));
      connections.back()->connect(config.hostname, config.port).check();
    }
    std::atomic<int> failures{0};
    std::atomic<std::uint64_t> wire_exchanges{0};
    std::vector<std::thread> stormers;
    const std::uint64_t elapsed_storm = bench::time_ns([&] {
      for (int t = 0; t < kStormThreads; ++t) {
        stormers.emplace_back([&, t] {
          std::vector<std::string> names;
          for (int n = 0; n < kStormBatch; ++n)
            names.push_back("storm-" + std::to_string(shards) + "-" +
                            std::to_string(t) + "-" + std::to_string(n));
          auto batch = connections[t]->attach_all(names);
          if (!batch.ok()) {
            failures.fetch_add(1);
            return;
          }
          wire_exchanges.fetch_add(batch->ra_fabric_exchanges);
          for (const gateway::AttachBatchResult& result : batch->results)
            if (!result.ok()) failures.fetch_add(1);
        });
      }
      for (std::thread& thread : stormers) thread.join();
    });
    if (failures.load() != 0) throw Error("bench: attach-storm failures");
    const int attaches = kStormThreads * kStormBatch;
    const double per_sec_storm =
        attaches / (static_cast<double>(elapsed_storm) / 1e9);
    fabric_exchanges_per_attach = static_cast<double>(wire_exchanges.load()) /
                                  static_cast<double>(kStormThreads);
    if (shards == 1) storm_at_1 = per_sec_storm;
    if (shards == 8) storm_at_8 = per_sec_storm;
    if (tables)
      std::printf("  %d shard%s : %2d sessions x %d devices in %7.1f ms -> %6.1f attaches/sec\n",
                  shards, shards == 1 ? " " : "s", attaches, kStormDevices,
                  bench::ms(elapsed_storm), per_sec_storm);
    report.metric("attaches_per_sec_at_" + std::to_string(shards),
                  per_sec_storm, "1/s");
  }
  const double storm_scaling = storm_at_1 > 0 ? storm_at_8 / storm_at_1 : 0.0;
  if (tables) {
    std::printf("  8-shard speedup over 1 shard : %.1fx %s\n", storm_scaling,
                storm_scaling >= 3.0 ? "(>= 3x bar met)" : "(below the 3x bar)");
    std::printf("  RA wire round-trips per ATTACH_BATCH : %.0f (2 x %d devices, "
                "independent of the %d sessions)\n",
                fabric_exchanges_per_attach, kStormDevices, kStormBatch);
  }
  report.metric("attach_scaling_8x_over_1x", storm_scaling, "x");
  report.metric("storm_ra_fabric_exchanges_per_batch", fabric_exchanges_per_attach,
                "msgs");

  // ---- phase 5: batched-invoke fan-out -----------------------------------
  // What INVOKE_BATCH amortises: the per-call path pays one blocking
  // INVOKE wire exchange per item, so a single tenant thread keeps at
  // most ONE item in flight and the fleet's workers idle.
  // invoke_all ships a whole chunk in ONE wire exchange; the gateway fans
  // the lanes across the run queues in one admission pass, so the same
  // single thread keeps every worker busy. Both paths run on the same
  // device-side-latency fleet; the batched/per-call ratio at 8 workers is
  // the acceptance bar (>= 1.5x), and the wire-exchange count per 32-item
  // batch is measured off the fabric's message counter (1, not 32+).
  if (tables) std::printf("\n=== Gateway: batched-invoke fan-out ===\n");
  const Bytes batch_module = adder_module();
  // One chunk exactly: wire exchanges per batch must be 1, so the batch
  // size tracks the client's chunking constant.
  constexpr int kBatchLanes =
      static_cast<int>(gateway::GatewayClient::kInvokeBatchChunk);
  constexpr int kBatchRounds = 4;
  double per_call_at_8 = 0.0;
  double batched_at_8 = 0.0;
  double batch_wire_exchanges = 0.0;
  std::uint8_t batch_otpmk = 0xD0;
  int batch_tier = 0;
  std::vector<std::unique_ptr<core::Device>> batch_fleet;  // outlives gateways
  for (const int workers : {1, 2, 4, 8}) {
    gateway::GatewayConfig config;
    config.hostname = "gw-batch-" + std::to_string(workers);
    config.port = static_cast<std::uint16_t>(7300 + 2 * batch_tier);
    config.ra_port = static_cast<std::uint16_t>(7301 + 2 * batch_tier);
    ++batch_tier;
    gateway::Gateway gw(fabric, config,
                        to_bytes("gw-bench-batch-" + std::to_string(workers)));
    gw.start().check();
    const std::size_t fleet_base = batch_fleet.size();
    for (int i = 0; i < workers; ++i) {
      batch_fleet.push_back(bench::boot_device(
          fabric, vendor, config.hostname + "-node-" + std::to_string(i),
          batch_otpmk++, /*charge_latency=*/true, /*device_side_latency=*/true));
      gw.add_device(*batch_fleet[fleet_base + i]).check();
    }

    // Control plane through the async client API: attach and module load
    // in flight together, futures joined when both are needed.
    gateway::GatewayClient admin(fabric);
    admin.connect(config.hostname, config.port).check();
    auto session_future = admin.attach_async("bench-batch-tenant");
    auto session = session_future.get();
    session.ok() ? void() : throw Error("bench: " + session.error());
    auto module =
        admin.load_async(session->session_id, batch_module).get();
    module.ok() ? void() : throw Error("bench: " + module.error());

    const auto request_at = [&](int i) {
      return invoke_request(session->session_id, module->measurement, "add",
                            add_args(i));
    };
    // Warm every device (cold launches must not pollute the timed runs)
    // and seed the EWMA placement with real service-time samples.
    {
      std::vector<gateway::InvokeRequest> warm;
      for (int i = 0; i < 4 * workers; ++i) warm.push_back(request_at(i));
      for (auto& r : admin.invoke_all(warm))
        r.ok() ? void() : throw Error("bench: " + r.error());
    }

    // Per-call baseline: one blocking wire exchange per item, one item in
    // flight — the pre-INVOKE_BATCH client.
    const std::uint64_t per_call_elapsed = bench::time_ns([&] {
      for (int i = 0; i < kBatchLanes; ++i) {
        auto r = admin.invoke(request_at(i));
        r.ok() ? void() : throw Error("bench: " + r.error());
      }
    });
    const double per_call_per_sec =
        kBatchLanes / (static_cast<double>(per_call_elapsed) / 1e9);

    // Batched: the same lanes as INVOKE_BATCH frames, kBatchRounds times.
    const std::uint64_t wire_before = fabric.messages();
    const std::uint64_t batched_elapsed = bench::time_ns([&] {
      for (int round = 0; round < kBatchRounds; ++round) {
        std::vector<gateway::InvokeRequest> batch;
        batch.reserve(kBatchLanes);
        for (int i = 0; i < kBatchLanes; ++i) batch.push_back(request_at(i));
        for (auto& r : admin.invoke_all(batch))
          r.ok() ? void() : throw Error("bench: " + r.error());
      }
    });
    const double wire_per_batch =
        static_cast<double>(fabric.messages() - wire_before) / kBatchRounds;
    const double batched_per_sec = (static_cast<double>(kBatchRounds) * kBatchLanes) /
                                   (static_cast<double>(batched_elapsed) / 1e9);
    if (workers == 8) {
      per_call_at_8 = per_call_per_sec;
      batched_at_8 = batched_per_sec;
      batch_wire_exchanges = wire_per_batch;
    }
    if (tables)
      std::printf("  %d worker%s : per-call %7.0f /s | batched %7.0f /s "
                  "(%.0f wire exchange%s per %d-lane batch)\n",
                  workers, workers == 1 ? " " : "s", per_call_per_sec,
                  batched_per_sec, wire_per_batch,
                  wire_per_batch == 1.0 ? "" : "s", kBatchLanes);
    report.metric("per_call_invokes_per_sec_at_" + std::to_string(workers),
                  per_call_per_sec, "1/s");
    report.metric("batched_invokes_per_sec_at_" + std::to_string(workers),
                  batched_per_sec, "1/s");
  }
  const double amortisation =
      per_call_at_8 > 0 ? batched_at_8 / per_call_at_8 : 0.0;
  if (tables) {
    std::printf("  batched speedup over per-call at 8 workers : %.1fx %s\n",
                amortisation,
                amortisation >= 1.5 ? "(>= 1.5x bar met)" : "(below the 1.5x bar)");
    std::printf("  wire exchanges per %d-lane batch : %.0f (O(1) in the lane "
                "count; per-call pays %d)\n",
                kBatchLanes, batch_wire_exchanges, kBatchLanes);
  }
  report.metric("invoke_batch_amortisation_8x", amortisation, "x");
  report.metric("invoke_batch_wire_exchanges_per_batch", batch_wire_exchanges,
                "msgs");

  // ---- phase 6: per-device sandbox-pool scaling --------------------------
  // ONE device, growing its slot pool: each slot is a sandbox instance
  // with its own secure monitor and worker thread, so N slots sleep their
  // world-switch latency concurrently where the old 1-worker-per-device
  // plane serialised every invoke behind a single monitor. Same
  // device-side-latency convention as the worker-scaling phase; the
  // metric is per-DEVICE invokes/sec at 1, 2 and 4 slots, and the
  // acceptance bar is >= 2x at 4 slots over 1.
  if (tables) std::printf("\n=== Gateway: per-device sandbox-pool scaling ===\n");
  const Bytes pool_module = adder_module();
  std::uint8_t pool_otpmk = 0xE0;
  std::vector<std::unique_ptr<core::Device>> pool_fleet;  // outlives gateways
  // One pool plane: a gateway fronting one latency-charged device with
  // `slots` sandbox slots, a tenant session with the adder module loaded,
  // and every SLOT's warm pool primed by one concurrent fan (a sequential
  // warm-up would follow the affinity hint onto one slot and leave its
  // siblings cold).
  struct PoolPlane {
    std::unique_ptr<gateway::Gateway> gw;
    std::unique_ptr<gateway::GatewayClient> admin;  // torn down before gw
    std::uint64_t session = 0;
    crypto::Sha256Digest measurement{};
  };
  const auto open_plane = [&](const std::string& hostname, std::uint16_t port,
                              std::size_t slots, std::uint64_t trace_sample_n,
                              int warm_base) {
    gateway::GatewayConfig config;
    config.hostname = hostname;
    config.port = port;
    config.ra_port = static_cast<std::uint16_t>(port + 1);
    config.slots_per_device = slots;
    config.trace_sample_n = trace_sample_n;
    auto plane = std::make_unique<PoolPlane>();
    plane->gw = std::make_unique<gateway::Gateway>(fabric, config,
                                                   to_bytes("gw-bench-" + hostname));
    plane->gw->start().check();
    pool_fleet.push_back(bench::boot_device(fabric, vendor, hostname + "-node",
                                            pool_otpmk++, /*charge_latency=*/true,
                                            /*device_side_latency=*/true));
    plane->gw->add_device(*pool_fleet.back()).check();
    plane->admin = std::make_unique<gateway::GatewayClient>(fabric);
    plane->admin->connect(hostname, port).check();
    auto session = plane->admin->attach("bench-" + hostname + "-tenant");
    session.ok() ? void() : throw Error("bench: " + session.error());
    auto module = plane->admin->load_module(session->session_id, pool_module);
    module.ok() ? void() : throw Error("bench: " + module.error());
    plane->session = session->session_id;
    plane->measurement = module->measurement;
    std::vector<gateway::InvokeRequest> warm;
    for (std::size_t i = 0; i < 4 * slots; ++i)
      warm.push_back(invoke_request(plane->session, plane->measurement, "add",
                                    add_args(warm_base + static_cast<int>(i))));
    for (auto& r : plane->admin->invoke_all(warm))
      r.ok() ? void() : throw Error("bench: " + r.error());
    return plane;
  };
  // Closed-loop invokes/sec of a plane: `client_threads` tenants, each
  // with its own connection, 150 unique-args invokes apiece.
  const auto plane_throughput = [&](PoolPlane& plane, int client_threads) {
    const gateway::GatewayConfig& config = plane.gw->config();
    const int invokes_per_thread = 150;
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(client_threads);
    const std::uint64_t elapsed = bench::time_ns([&] {
      for (int t = 0; t < client_threads; ++t) {
        clients.emplace_back([&, t] {
          gateway::GatewayClient client(fabric);
          if (!client.connect(config.hostname, config.port).ok()) {
            failures.fetch_add(1);
            return;
          }
          for (int i = 0; i < invokes_per_thread; ++i) {
            auto r = client.invoke(invoke_request(plane.session, plane.measurement,
                                                  "add", add_args(t * 1000 + i)));
            if (!r.ok()) {
              failures.fetch_add(1);
              return;
            }
          }
        });
      }
      for (std::thread& thread : clients) thread.join();
    });
    if (failures.load() != 0) throw Error("bench: pool-plane client failures");
    return (static_cast<double>(client_threads) * invokes_per_thread) /
           (static_cast<double>(elapsed) / 1e9);
  };

  double pool_at_1 = 0.0;
  double pool_at_4 = 0.0;
  double deduped_lanes_measured = 0.0;
  std::unique_ptr<PoolPlane> pool_plane_4;  // phase 7 re-measures it
  int pool_tier = 0;
  for (const int slots : {1, 2, 4}) {
    auto plane = open_plane("gw-pool-" + std::to_string(slots),
                            static_cast<std::uint16_t>(7400 + 2 * pool_tier++),
                            static_cast<std::size_t>(slots), /*trace_sample_n=*/0,
                            /*warm_base=*/0);
    const int client_threads = 2 * slots;  // keep every slot fed
    const double pool_per_sec = plane_throughput(*plane, client_threads);
    if (slots == 1) pool_at_1 = pool_per_sec;
    if (tables)
      std::printf("  %d slot%s / %d client threads : %8.0f invokes/sec (one device)\n",
                  slots, slots == 1 ? " " : "s", client_threads, pool_per_sec);
    report.metric("invokes_per_sec_at_slots_" + std::to_string(slots),
                  pool_per_sec, "1/s");

    if (slots == 4) {
      pool_at_4 = pool_per_sec;
      // Cross-lane dedup on the same fleet: a 32-lane batch carrying only
      // 8 distinct (measurement, entry, args) tuples executes 8 sandboxes
      // and fans the results to the other 24 lanes.
      std::vector<gateway::InvokeRequest> dup_batch;
      for (int i = 0; i < 32; ++i)
        dup_batch.push_back(invoke_request(plane->session, plane->measurement,
                                           "add", add_args(i % 8)));
      for (auto& r : plane->admin->invoke_all(dup_batch))
        r.ok() ? void() : throw Error("bench: " + r.error());
      auto pool_stats = plane->admin->stats(plane->session);
      pool_stats.ok() ? void() : throw Error("bench: " + pool_stats.error());
      deduped_lanes_measured = static_cast<double>(pool_stats->deduped_lanes);
      pool_plane_4 = std::move(plane);
    }
  }
  const double pool_scaling = pool_at_1 > 0 ? pool_at_4 / pool_at_1 : 0.0;
  if (tables) {
    std::printf("  4-slot speedup over 1 slot (one device) : %.1fx %s\n",
                pool_scaling,
                pool_scaling >= 2.0 ? "(>= 2x bar met)" : "(below the 2x bar)");
    std::printf("  deduped lanes in a 32-lane/8-unique batch : %.0f (24 rode a "
                "leader's execution)\n",
                deduped_lanes_measured);
  }
  report.metric("pool_scaling_4x_over_1x", pool_scaling, "x");
  report.metric("deduped_lanes", deduped_lanes_measured, "lanes");

  // ---- phase 7: invocation tracing ---------------------------------------
  // Two more 4-slot planes. The TRACED one (trace_sample_n = 1) runs one
  // 32-lane INVOKE_BATCH of unique args against a warm pool: every lane
  // must share the batch trace_id and emit its fixed stage-span set
  // (admit, queue, checkout, tee-entry, guest, tee-exit, exec, respond —
  // no RA, evidence is fresh; no riders, args are unique), exported as
  // Chrome trace_event JSON. The UNTRACED one (trace_sample_n = 0, the
  // default every other phase ran with) runs the phase-6 4-slot
  // throughput workload in interleaved pairs with the phase-6 plane
  // itself; the median of the per-pair deviations below the phase-6
  // number is the cost of carrying the tracing plane unused — the CI gate
  // holds it at <= 2%. Pairing cancels host-speed drift between the two
  // sides, and the median keeps one noisy pair from deciding the gate.
  if (tables) std::printf("\n=== Gateway: invocation tracing ===\n");
  double spans_per_invoke = 0.0;
  {
    auto traced = open_plane("gw-traced", 7410, 4, /*trace_sample_n=*/1,
                             /*warm_base=*/100);
    gateway::Gateway& gw = *traced->gw;
    gw.span_sink().drain();  // discard warm-up spans

    constexpr int kTraceLanes = 32;  // one INVOKE_BATCH frame exactly
    std::vector<gateway::InvokeRequest> batch;
    for (int i = 0; i < kTraceLanes; ++i)
      batch.push_back(invoke_request(traced->session, traced->measurement, "add",
                                     add_args(i)));
    std::uint64_t batch_trace = 0;
    for (auto& r : traced->admin->invoke_all(batch)) {
      r.ok() ? void() : throw Error("bench: " + r.error());
      if (r->trace_id == 0) throw Error("bench: traced lane lost its trace id");
      if (batch_trace == 0) batch_trace = r->trace_id;
      if (r->trace_id != batch_trace)
        throw Error("bench: batch lanes split across trace ids");
    }

    std::vector<obs::SpanRecord> spans = gw.span_sink().drain();
    std::erase_if(spans, [&](const obs::SpanRecord& span) {
      return span.trace_id != batch_trace;
    });
    spans_per_invoke = static_cast<double>(spans.size()) / kTraceLanes;
    if (gw.span_sink().dropped() != 0)
      throw Error("bench: span sink dropped records under a 32-lane batch");

    const std::string chrome = obs::SpanSink::to_chrome_trace(spans);
    const char* trace_path = "trace_invoke_batch.json";
    if (std::FILE* out = std::fopen(trace_path, "w")) {
      std::fwrite(chrome.data(), 1, chrome.size(), out);
      std::fclose(out);
    } else {
      throw Error("bench: cannot write trace export");
    }
    if (tables)
      std::printf("  32-lane batch, trace %016llx : %zu spans (%.1f per lane) "
                  "-> %s\n",
                  static_cast<unsigned long long>(batch_trace), spans.size(),
                  spans_per_invoke, trace_path);
  }

  double disabled_overhead_pct = 0.0;
  {
    auto untraced = open_plane("gw-untraced", 7412, 4, /*trace_sample_n=*/0,
                               /*warm_base=*/200);
    constexpr int kPairs = 7;
    std::vector<double> overhead_pct;
    double phase6_sum = 0.0;
    double untraced_sum = 0.0;
    for (int pair = 0; pair < kPairs; ++pair) {
      const double phase6_per_sec = plane_throughput(*pool_plane_4, 8);
      const double untraced_per_sec = plane_throughput(*untraced, 8);
      phase6_sum += phase6_per_sec;
      untraced_sum += untraced_per_sec;
      overhead_pct.push_back((phase6_per_sec - untraced_per_sec) / phase6_per_sec * 100.0);
    }
    std::sort(overhead_pct.begin(), overhead_pct.end());
    disabled_overhead_pct = std::max(0.0, overhead_pct[kPairs / 2]);
    if (tables)
      std::printf("  tracing disabled : %8.0f invokes/sec (phase-6 plane ran "
                  "%8.0f; means of %d interleaved pairs) -> %.2f%% median "
                  "overhead\n",
                  untraced_sum / kPairs, phase6_sum / kPairs, kPairs,
                  disabled_overhead_pct);
  }
  report.metric("trace_spans_per_invoke", spans_per_invoke, "spans");
  report.metric("tracing_disabled_overhead_pct", disabled_overhead_pct, "%");

  // ---- phase 8: native tier-up -------------------------------------------
  // Pairs of single-board gateways with latency charging off (the phase
  // isolates guest compute, not world-switch accounting), each pair running
  // one PolyBench kernel: gem — the fig5 double-precision mul-add triple
  // loop, the phase-2 float surface — and flo — the integer floyd-warshall
  // core the phase-1 JIT already lowered. Per pair the BASELINE gateway pins
  // jit_tiering off, so every invoke rides the AOT stream; the TIERED one
  // marks the function hot on first touch, lets the control-plane sweep
  // compile it (the background sweeper may already have — the explicit call
  // just bounds the race), and times the same invoke on the native entry.
  // The ratios are CI gates: the double kernel must buy >= 4x (floats lower
  // inline now, not through thunks) with ZERO jit_fallback_ops traffic in
  // steady state, the int kernel >= 2x, and the tiered gateway's
  // tier_up_compiles counter must be > 0 for the ratios to mean anything.
  // On hosts where the JIT cannot run (non-x86-64 or WATZ_DISABLE_JIT) the
  // phase still executes — wholesale AOT fallback — and reports speedup ~1 /
  // compiles 0; the gating leg of CI never sees that because it pins the
  // JIT on.
  if (tables)
    std::printf("\n=== Gateway: native tier-up (PolyBench gem + flo) ===\n");
  double native_speedup = 1.0;   // gem, the double-precision headline gate
  double int_speedup = 1.0;      // flo, the phase-1 integer floor
  double tier_compiles = 0.0;
  double thunk_ops = 0.0;  // steady-state jit_fallback_ops on gem
  {
    const int reps = 3;
    std::uint8_t tier_otpmk = 0xF8;
    int tier_port = 7420;

    // Boots a gateway + board pair, loads `binary`, and returns the median
    // gateway-invoke latency after `pre_measure` ran once. The fallback
    // delta is taken across the measured reps only: the warm-up invoke may
    // legally ride the AOT stream, steady state must not thunk.
    auto measure = [&](gateway::GatewayConfig config, const Bytes& binary,
                       int kernel_n,
                       const std::function<void(gateway::Gateway&)>& pre,
                       double* compiles_out, double* thunk_ops_out) {
      gateway::Gateway gw(fabric, config, to_bytes("gw-bench-" + config.hostname));
      gw.start().check();
      auto board = bench::boot_device(fabric, vendor, config.hostname + "-node",
                                      tier_otpmk++, /*charge_latency=*/false);
      gw.add_device(*board).check();

      gateway::GatewayClient admin(fabric);
      admin.connect(config.hostname, config.port).check();
      auto session = admin.attach("bench-tier-tenant");
      session.ok() ? void() : throw Error("bench: " + session.error());
      auto module = admin.load_module(session->session_id, binary);
      module.ok() ? void() : throw Error("bench: " + module.error());

      auto run_once = [&] {
        gateway::InvokeRequest req =
            invoke_request(session->session_id, module->measurement, "run",
                           {wasm::Value::from_i32(kernel_n)});
        req.heap_bytes = 2 << 20;  // comfortably holds the 16-page memory
        auto r = admin.invoke(req);
        r.ok() ? void() : throw Error("bench: " + r.error());
      };
      run_once();  // warms the pool slot (and, tiered, trips the heat counter)
      pre(gw);
      const std::uint64_t thunks_before = gw.stats().jit_fallback_ops;
      const std::uint64_t ns = bench::median_ns(reps, run_once);
      if (compiles_out != nullptr)
        *compiles_out = static_cast<double>(gw.stats().tier_up_compiles);
      if (thunk_ops_out != nullptr)
        *thunk_ops_out =
            static_cast<double>(gw.stats().jit_fallback_ops - thunks_before);
      return ns;
    };

    auto kernel_pair = [&](const char* name, double* speedup_out,
                           double* compiles_out, double* thunk_ops_out) {
      const polybench::KernelDef* kernel = polybench::find_kernel(name);
      if (kernel == nullptr)
        throw Error("bench: kernel missing: " + std::string(name));
      wcc::CompileOptions options;
      options.memory_pages = 16;  // both kernels touch well under 16 pages;
                                  // keeps per-invoke instantiation cost out
                                  // of the compute ratio
      auto binary = wcc::compile(kernel->source, options);
      binary.ok() ? void() : throw Error("bench: " + binary.error());

      gateway::GatewayConfig baseline;
      baseline.hostname = std::string("gw-aot-") + name;
      baseline.port = tier_port++;
      baseline.ra_port = tier_port++;
      baseline.jit_tiering = false;  // the pure AOT-stream yardstick
      const std::uint64_t aot_ns =
          measure(baseline, *binary, kernel->n, [](gateway::Gateway&) {},
                  nullptr, nullptr);

      gateway::GatewayConfig tiered;
      tiered.hostname = std::string("gw-tier-") + name;
      tiered.port = tier_port++;
      tiered.ra_port = tier_port++;
      tiered.jit_hot_calls = 1;  // first touch marks the function hot
      const std::uint64_t native_ns = measure(
          tiered, *binary, kernel->n,
          [](gateway::Gateway& gw) { gw.sweep_tier_compiles(); }, compiles_out,
          thunk_ops_out);

      if (native_ns > 0)
        *speedup_out =
            static_cast<double>(aot_ns) / static_cast<double>(native_ns);
      if (tables)
        std::printf("  %s n=%d : AOT stream %8.2f ms | native %8.2f ms -> "
                    "%.2fx%s\n",
                    name, kernel->n, aot_ns / 1e6, native_ns / 1e6,
                    *speedup_out,
                    wasm::jit::jit_available() ? "" : " (JIT unavailable)");
    };

    kernel_pair("gem", &native_speedup, &tier_compiles, &thunk_ops);
    kernel_pair("flo", &int_speedup, nullptr, nullptr);
    if (tables)
      std::printf("  gem steady state: %.0f thunk op(s), %.0f "
                  "function(s) compiled\n",
                  thunk_ops, tier_compiles);
  }
  report.metric("native_speedup_over_aot_stream", native_speedup, "x");
  report.metric("native_speedup_int_kernel", int_speedup, "x");
  report.metric("tier_up_compiles", tier_compiles, "functions");
  report.metric("jit_fallback_ops", thunk_ops, "ops");

  // ---- phase 8b: fig8 genann training step, AOT-pinned vs tiered ---------
  // The paper's genann workload is double-heavy guest compute (sigmoid
  // forward passes and backprop deltas, plus (int)<->(double) conversions in
  // the dataset walk) — exactly the phase-2 surface. Run one training step
  // on a REE instance pinned to the AOT stream and one with a
  // force-compiled tier, and gate the ratio: if float lowering regresses,
  // this collapses toward 1 long before the differential suite notices
  // anything functionally wrong.
  if (tables)
    std::printf("\n=== Gateway: genann training step, AOT vs tiered ===\n");
  double genann_speedup = 1.0;
  double genann_fallback_calls = 0.0;  // helper call dispatches, tiered reps
  {
    static const wasm::ImportResolver kNoImports;
    const Bytes module = ann::training_module();
    const Bytes wire = ann::encode_dataset(ann::make_iris_like(150));
    const int kIters = 3;

    auto train_median_ns = [&](bool tiered) {
      auto inst = bench::instantiate_ree(module, kNoImports);
      inst->memory()->copy_in(ann::GuestLayout::kDatasetPtr, wire).check();
      std::shared_ptr<wasm::jit::TierSet> tier;
      if (tiered && wasm::jit::jit_available()) {
        wasm::jit::TierConfig config;
        config.hot_threshold = 1;
        tier = std::make_shared<wasm::jit::TierSet>(
            &inst->module(), inst->compiled, std::move(config));
        tier->compile_all();
        inst->tier = tier;
      }
      auto run_once = [&] {
        const int correct = bench::invoke_i32(
            *inst, "train_at",
            {wasm::Value::from_i32(ann::GuestLayout::kDatasetPtr),
             wasm::Value::from_i32(kIters)});
        if (correct <= 0) throw Error("bench: genann training went sideways");
      };
      run_once();  // warm (weights move, but per-step cost is stable)
      const std::uint64_t calls_before = tier ? tier->fallback_call() : 0;
      const std::uint64_t ns = bench::median_ns(3, run_once);
      if (tier)
        genann_fallback_calls =
            static_cast<double>(tier->fallback_call() - calls_before);
      return ns;
    };

    const std::uint64_t aot_ns = train_median_ns(false);
    const std::uint64_t native_ns = train_median_ns(true);
    if (native_ns > 0)
      genann_speedup =
          static_cast<double>(aot_ns) / static_cast<double>(native_ns);
    if (tables)
      std::printf("  train_at x%d : AOT stream %8.2f ms | tiered %8.2f ms -> "
                  "%.2fx%s\n  tiered steady state: %.0f helper call dispatch(es)\n",
                  kIters, aot_ns / 1e6, native_ns / 1e6, genann_speedup,
                  wasm::jit::jit_available() ? "" : " (JIT unavailable)",
                  genann_fallback_calls);
  }
  report.metric("genann_native_speedup", genann_speedup, "x");
  report.metric("genann_fallback_calls", genann_fallback_calls, "calls");

  // ---- phase 8c: fig6 kv guest op mix, AOT-pinned vs tiered ---------------
  // The Fig 6 Wasm workload (minikv: hash index + append log, integer and
  // call heavy) gets the same treatment as genann above: one op mix on an
  // AOT-pinned instance and on a force-compiled one, gated on the ratio and
  // on zero helper call dispatches in the tiered steady state. The two
  // instances must also end in the same store state.
  if (tables)
    std::printf("\n=== Gateway: kv guest (fig6) op mix, AOT vs tiered ===\n");
  double kv_speedup = 1.0;
  double kv_fallback_calls = 0.0;  // helper call dispatches, tiered reps
  {
    static const wasm::ImportResolver kNoImports;
    const Bytes module = db::kv_guest_module();
    std::int32_t checksums[2] = {0, 0};

    auto mix_median_ns = [&](bool tiered) {
      auto inst = bench::instantiate_ree(module, kNoImports);
      std::shared_ptr<wasm::jit::TierSet> tier;
      if (tiered && wasm::jit::jit_available()) {
        wasm::jit::TierConfig config;
        config.hot_threshold = 1;
        tier = std::make_shared<wasm::jit::TierSet>(
            &inst->module(), inst->compiled, std::move(config));
        tier->compile_all();
        inst->tier = tier;
      }
      auto op = [&](const char* fn, std::int32_t arg) {
        return bench::invoke_i32(*inst, fn, {wasm::Value::from_i32(arg)});
      };
      op("kv_setup", 2000);
      auto run_once = [&] {
        op("kv_inserts", 400);
        if (op("kv_lookups", 800) <= 0) throw Error("bench: kv lookups found nothing");
        op("kv_updates", 300);
        op("kv_deletes", 100);
        op("kv_range", 1);
      };
      run_once();  // warm
      const std::uint64_t calls_before = tier ? tier->fallback_call() : 0;
      const std::uint64_t ns = bench::median_ns(3, run_once);
      if (tier)
        kv_fallback_calls = static_cast<double>(tier->fallback_call() - calls_before);
      checksums[tiered ? 1 : 0] = bench::invoke_i32(*inst, "kv_checksum", {});
      return ns;
    };

    const std::uint64_t aot_ns = mix_median_ns(false);
    const std::uint64_t native_ns = mix_median_ns(true);
    if (checksums[0] != checksums[1])
      throw Error("bench: kv store state differs between the AOT stream and the native tier");
    if (native_ns > 0)
      kv_speedup = static_cast<double>(aot_ns) / static_cast<double>(native_ns);
    if (tables)
      std::printf("  op mix : AOT stream %8.2f ms | tiered %8.2f ms -> %.2fx%s\n"
                  "  tiered steady state: %.0f helper call dispatch(es)\n",
                  aot_ns / 1e6, native_ns / 1e6, kv_speedup,
                  wasm::jit::jit_available() ? "" : " (JIT unavailable)",
                  kv_fallback_calls);
  }
  report.metric("kv_native_speedup", kv_speedup, "x");
  report.metric("kv_fallback_calls", kv_fallback_calls, "calls");

  // ---- phase 9: chaos failover on the prewarmed path ----------------------
  // A 2-device fleet behind a ChaosFabric with cross-device module prewarm
  // on. Device 0 is rebooted and its RA link hard-dropped, so every
  // placement onto it fails appraisal and the session migrates to device 1
  // — which the prewarm sweep already warmed. The gate: migrations > 0
  // (recovery actually re-placed the session) and fleet-wide cold cache
  // misses == 0 (failover landed on the prewarmed module, never paying a
  // cold Loading phase).
  if (tables) std::printf("\n=== Gateway: chaos failover on prewarmed fleet ===\n");
  double failover_migrations = 0.0;
  double prewarm_cold_misses = 0.0;
  double failover_per_sec = 0.0;
  {
    net::ChaosFabric chaos;
    gateway::GatewayConfig config;
    config.hostname = "gw-chaos";
    config.port = 7430;
    config.ra_port = 7431;
    config.slots_per_device = 2;
    config.module_prewarm = true;
    config.invoke_memo_ttl_ns = 60'000'000'000ull;
    gateway::Gateway gw(chaos, config, to_bytes("gw-bench-chaos"));
    gw.start().check();
    auto live = bench::boot_device(chaos, vendor, "gw-chaos-node-1", 0x31);
    auto doomed = bench::boot_device(chaos, vendor, "gw-chaos-node-0", 0x30);
    gw.add_device(*doomed).check();
    gw.add_device(*live).check();

    gateway::GatewayClient admin(chaos);
    admin.connect(config.hostname, config.port).check();
    auto session = admin.attach("bench-chaos-tenant");
    session.ok() ? void() : throw Error("bench: " + session.error());
    const Bytes chaos_module = adder_module();
    auto module = admin.load_module(session->session_id, chaos_module);
    module.ok() ? void() : throw Error("bench: " + module.error());
    // module_prewarm also runs the background sweeper, which may prewarm
    // first and leave this manual sweep less to do; prepares are
    // idempotent per device, so the cumulative count is exactly 2.
    gw.sweep_module_prewarms();
    if (gw.stats().prewarm_prepares != 2)
      throw Error("bench: prewarm sweep missed a device");

    // Kill device 0's trust path: stale evidence + an RA link that drops
    // every re-handshake frame.
    gw.add_device(*doomed).check();  // reboot: boot count bumps
    gw.sweep_module_prewarms();      // its rebuilt cache re-warmed
    net::ChaosPolicy ra_down;
    ra_down.drop_permille = 1000;
    chaos.set_policy(config.hostname, config.ra_port, ra_down);

    constexpr int kFailoverInvokes = 200;
    const std::uint64_t elapsed_chaos = bench::time_ns([&] {
      for (int i = 0; i < kFailoverInvokes; ++i) {
        auto r = admin.invoke(invoke_request(session->session_id,
                                             module->measurement, "add",
                                             add_args(i)));
        r.ok() ? void() : throw Error("bench: " + r.error());
      }
    });
    chaos.clear_policies();
    failover_per_sec =
        kFailoverInvokes / (static_cast<double>(elapsed_chaos) / 1e9);

    auto chaos_stats = admin.stats(session->session_id);
    chaos_stats.ok() ? void() : throw Error("bench: " + chaos_stats.error());
    failover_migrations = static_cast<double>(chaos_stats->migrations);
    for (const gateway::DeviceStats& d : chaos_stats->devices)
      prewarm_cold_misses += static_cast<double>(d.cache_misses);
    if (tables)
      std::printf("  %d invokes through a dead device's shadow : %8.0f "
                  "invokes/sec (migrations=%.0f, cold misses=%.0f)\n",
                  kFailoverInvokes, failover_per_sec, failover_migrations,
                  prewarm_cold_misses);
  }
  report.metric("failover_invokes_per_sec", failover_per_sec, "1/s");
  report.metric("failover_migrations", failover_migrations, "count");
  report.metric("prewarm_cold_misses", prewarm_cold_misses, "count");
  return 0;
}
