// Per-layer reporting: what a traced pass yields from the workload's own
// operations, and the microbenchmarks that call one layer directly.
#include <algorithm>
#include <optional>

#include "crypto/ecdsa.hpp"
#include "crypto/fortuna.hpp"
#include "crypto/gcm.hpp"
#include "crypto/sha256.hpp"
#include "ra/attester.hpp"
#include "ra/verifier.hpp"
#include "wasm/compile.hpp"
#include "wasm/decoder.hpp"
#include "wasm/jit/tier.hpp"
#include "wasm/validator.hpp"
#include "workloads.hpp"

namespace perfbench {

gateway::InvokeRequest invoke_request(std::uint64_t session,
                                      const crypto::Sha256Digest& measurement,
                                      const std::string& entry, std::vector<wasm::Value> args) {
  gateway::InvokeRequest req;
  req.session_id = session;
  req.measurement = measurement;
  req.entry = entry;
  req.args = std::move(args);
  req.heap_bytes = kGuestHeapBytes;
  return req;
}

void InvokeTally::record(const gateway::InvokeResponse& response, std::uint64_t self) {
  self_ns.push_back(static_cast<double>(self));
  record_lane(response);
}

void InvokeTally::record_lane(const gateway::InvokeResponse& response) {
  queue_ns.push_back(static_cast<double>(response.queue_delay_ns));
  launch_ns.push_back(static_cast<double>(response.launch_ns));
  ++invokes;
  if (response.pool_hit) ++pool_hits;
  ra_exchanges += response.ra_exchanges;
}

void InvokeTally::merge(const InvokeTally& other) {
  self_ns.insert(self_ns.end(), other.self_ns.begin(), other.self_ns.end());
  queue_ns.insert(queue_ns.end(), other.queue_ns.begin(), other.queue_ns.end());
  launch_ns.insert(launch_ns.end(), other.launch_ns.begin(), other.launch_ns.end());
  invokes += other.invokes;
  pool_hits += other.pool_hits;
  ra_exchanges += other.ra_exchanges;
}

void warm_until_native(Fleet& fleet, const std::vector<crypto::Sha256Digest>& measurements,
                       const std::function<void()>& burst, double limit_s) {
  const std::uint64_t t0 = now_ns();
  while (true) {
    burst();
    const gateway::GatewayStats stats = fleet.gateway().stats(/*detail=*/true);
    bool all_native = true;
    for (const gateway::DeviceStats& device : stats.devices)
      for (const crypto::Sha256Digest& m : measurements) {
        const auto it = std::find_if(device.modules.begin(), device.modules.end(),
                                     [&](const gateway::ModuleTierStats& s) {
                                       return s.measurement == m;
                                     });
        if (it == device.modules.end() || it->native_functions != it->functions)
          all_native = false;
      }
    if (all_native) return;
    if (static_cast<double>(now_ns() - t0) / 1e9 > limit_s)
      throw PreconditionError("warm-up: modules did not reach the native tier in time");
  }
}

namespace {
std::uint64_t delta(std::uint64_t after, std::uint64_t before) {
  return after > before ? after - before : 0;
}
double per(std::uint64_t n, std::uint64_t ops) {
  return ops ? static_cast<double>(n) / static_cast<double>(ops) : 0.0;
}
}  // namespace

void report_pass_layers(Report& report, const InvokeTally& tally, const Counters& before,
                        const Counters& after, std::uint64_t ops, std::uint64_t batches) {
  report.metric("net.msgs_per_op", per(delta(after.fabric_messages, before.fabric_messages), ops),
                "count");
  report.metric("net.bytes_per_op", per(delta(after.fabric_bytes, before.fabric_bytes), ops), "B");
  report.metric("gateway.self_ms", ns_to_ms(median(tally.self_ns)), "ms");
  report.metric("gateway.queue_wait_ms", ns_to_ms(median(tally.queue_ns)), "ms");
  report.metric("gateway.deduped_lanes_per_batch",
                per(delta(after.deduped_lanes, before.deduped_lanes), batches), "count");
  std::uint64_t busy_max = 0;
  std::uint64_t busy_min = ~0ull;
  for (std::size_t i = 0; i < after.slot_busy_ns.size() && i < before.slot_busy_ns.size(); ++i) {
    const std::uint64_t busy = delta(after.slot_busy_ns[i], before.slot_busy_ns[i]);
    busy_max = std::max(busy_max, busy);
    busy_min = std::min(busy_min, busy);
  }
  report.metric("gateway.slot_busy_imbalance",
                busy_max ? static_cast<double>(busy_max) /
                               static_cast<double>(std::max<std::uint64_t>(busy_min, 1))
                         : 0.0,
                "ratio");
  report.metric("session.ra_exchanges_per_op", per(tally.ra_exchanges, ops), "count");
  report.metric("cache.pool_hit_ratio", per(tally.pool_hits, tally.invokes), "ratio");
  report.metric("cache.launch_ms", ns_to_ms(median(tally.launch_ns)), "ms");
  report.metric("cache.misses_per_op", per(delta(after.cache_misses, before.cache_misses), ops),
                "count");
  report.metric("cache.evictions_per_op",
                per(delta(after.cache_evictions, before.cache_evictions), ops), "count");
  report.metric("tz.world_switches_per_op",
                per(delta(after.tee_entries, before.tee_entries), ops), "count");
  const std::uint64_t native = delta(after.native_entries, before.native_entries);
  const std::uint64_t aot = delta(after.aot_calls, before.aot_calls);
  report.metric("jit.native_entry_share", per(native, native + aot), "ratio");
  report.metric("jit.fallback_calls_per_invoke",
                per(delta(after.fallback_calls, before.fallback_calls),
                    delta(after.invocations, before.invocations)),
                "count");
}

std::uint64_t median_trace(const std::vector<Span>& spans) {
  std::vector<const Span*> roots;
  for (const Span& s : spans)
    if (s.parent_id == 0) roots.push_back(&s);
  if (roots.empty()) return 0;
  std::sort(roots.begin(), roots.end(),
            [](const Span* a, const Span* b) { return a->dur_ns < b->dur_ns; });
  return roots[roots.size() / 2]->trace_id;
}

namespace {

/// Median wall time of `reps` calls of `fn`, in ns.
template <typename Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    samples.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(samples);
}

double mb_per_s(std::size_t bytes, double ns) {
  return ns > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) / (ns / 1e9) : 0.0;
}

constexpr int kReps = 5;

void core_and_wasm_layers(Report& report, const OnboardModule& onboard) {
  // core: the launch pipeline on a spare board outside any gateway.
  net::Fabric fabric;
  const core::Vendor vendor = core::Vendor::create(to_bytes("perfbench-spare-vendor"));
  auto board = boot_board(fabric, vendor, "spare-board", 0x7e);
  std::uint64_t nonce = 1;
  std::shared_ptr<const core::PreparedModule> prepared;
  const double prepare_ns = median_ns(kReps, [&] {
    const Bytes binary = onboard.with_nonce(nonce++);
    auto p = board->runtime().prepare(binary);
    if (!p.ok()) throw Error("core prepare: " + p.error());
    prepared = *p;
  });
  core::AppConfig app;
  app.heap_bytes = kGuestHeapBytes;
  const double instantiate_ns = median_ns(kReps, [&] {
    auto a = board->runtime().instantiate(prepared, app);
    if (!a.ok()) throw Error("core instantiate: " + a.error());
  });
  report.metric("core.prepare_ms", ns_to_ms(prepare_ns), "ms");
  report.metric("core.instantiate_ms", ns_to_ms(instantiate_ns), "ms");

  // wasm: decode, validate and AOT-translate the onboarding module.
  const Bytes binary = onboard.with_nonce(0);
  std::optional<wasm::Module> module;
  const double decode_ns = median_ns(kReps, [&] {
    auto m = wasm::decode_module(binary);
    if (!m.ok()) throw Error("decode: " + m.error());
    module = std::move(*m);
  });
  const double validate_ns = median_ns(kReps, [&] {
    if (!wasm::validate_module(*module).ok()) throw Error("validate failed");
  });
  const double translate_ns = median_ns(kReps, [&] {
    for (std::uint32_t i = 0; i < module->code.size(); ++i)
      if (!wasm::compile_function(*module, i).ok()) throw Error("translate failed");
  });
  report.metric("wasm.decode_mb_s", mb_per_s(binary.size(), decode_ns), "MB/s");
  report.metric("wasm.validate_mb_s", mb_per_s(binary.size(), validate_ns), "MB/s");
  report.metric("wasm.translate_mb_s", mb_per_s(binary.size(), translate_ns), "MB/s");
}

/// Per kernel, on REE instances outside any TEE: the AOT stream, the
/// force-compiled native tier, and the native build. speedup_over_aot
/// isolates the JIT; wasm.slowdown isolates guest execution from the
/// gateway path guest-kernels also pays.
void jit_layers(Report& report, const std::vector<Kernel>& kernels) {
  static const wasm::ImportResolver kNoImports;
  double compile_us = 0.0;
  double binary_kb = 0.0;
  std::size_t code_bytes = 0;
  for (const Kernel& k : kernels) {
    auto module = wasm::decode_module(k.binary);
    if (!module.ok()) throw Error(k.name + ": " + module.error());
    auto inst = wasm::Instance::instantiate(std::move(*module), kNoImports, wasm::ExecMode::Aot);
    if (!inst.ok()) throw Error(k.name + ": " + inst.error());
    wasm::Instance& instance = **inst;
    const std::uint64_t want = k.native();
    auto run = [&] {
      if (!instance.reinitialize().ok()) throw Error(k.name + ": reinitialize failed");
      const std::uint64_t t0 = now_ns();
      auto r = instance.invoke(k.entry, k.args);
      const std::uint64_t t1 = now_ns();
      if (!r.ok()) throw Error(k.name + ": " + r.error());
      report.check(k.guest_result(*r) == want, k.name + ": REE result differs from native");
      return static_cast<double>(t1 - t0);
    };
    std::vector<double> aot;
    for (int i = 0; i < 3; ++i) aot.push_back(run());

    double tiered_ns = median(aot);
    if (wasm::jit::jit_available()) {
      wasm::jit::TierConfig config;
      auto tier = std::make_shared<wasm::jit::TierSet>(&instance.module(), instance.compiled,
                                                       std::move(config));
      const std::uint64_t t0 = now_ns();
      tier->compile_all();
      compile_us += static_cast<double>(now_ns() - t0) / 1e3;
      binary_kb += static_cast<double>(k.binary.size()) / 1024.0;
      code_bytes += tier->native_code_bytes();
      instance.tier = tier;
      std::vector<double> tiered;
      for (int i = 0; i < 3; ++i) tiered.push_back(run());
      tiered_ns = median(tiered);
    }
    const double native_ns = median_ns(3, [&] { (void)k.native(); });
    report.metric("jit.speedup_over_aot." + k.name, median(aot) / tiered_ns, "x");
    report.metric("wasm.slowdown." + k.name, tiered_ns / native_ns, "x");
  }
  report.metric("jit.compile_us_per_kb", binary_kb > 0 ? compile_us / binary_kb : 0.0, "us/KB");
  report.metric("jit.code_bytes", static_cast<double>(code_bytes), "B");
}

void ra_and_crypto_layers(Report& report, std::size_t bulk_bytes) {
  crypto::Fortuna rng(to_bytes("perfbench-ra"));
  const crypto::KeyPair verifier_identity = crypto::ecdsa_keygen(rng);
  const crypto::KeyPair device_key = crypto::ecdsa_keygen(rng);
  const auto claim = crypto::sha256(to_bytes("perfbench-claim"));
  ra::Verifier verifier(verifier_identity, rng);
  verifier.endorse_device(device_key.pub);
  verifier.add_reference_measurement(claim);
  verifier.set_secret_provider([](const crypto::Sha256Digest&) { return to_bytes("secret"); });
  const ra::QuoteFn quote = [&](const std::array<std::uint8_t, 32>& anchor) {
    attestation::Evidence ev;
    ev.anchor = anchor;
    ev.claim = claim;
    ev.attestation_key = device_key.pub;
    ev.signature =
        crypto::ecdsa_sign(device_key.priv, crypto::sha256(ev.signed_payload())).encode();
    return ev;
  };
  // One full handshake per repetition, each message timed on its own.
  std::vector<double> msg[4];
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t conn = static_cast<std::uint64_t>(rep) + 1;
    // msg0 includes the session object: its ephemeral key pair is
    // generated at construction.
    std::uint64_t t0 = now_ns();
    ra::AttesterSession attester(rng, verifier_identity.pub);
    const Bytes msg0 = attester.make_msg0();
    std::uint64_t t1 = now_ns();
    msg[0].push_back(static_cast<double>(t1 - t0));
    auto msg1 = verifier.handle(conn, msg0);
    t0 = now_ns();
    msg[1].push_back(static_cast<double>(t0 - t1));
    if (!msg1.ok()) throw Error("ra msg1: " + msg1.error());
    auto msg2 = attester.handle_msg1(*msg1, quote);
    t1 = now_ns();
    msg[2].push_back(static_cast<double>(t1 - t0));
    if (!msg2.ok()) throw Error("ra msg2: " + msg2.error());
    auto msg3 = verifier.handle(conn, *msg2);
    t0 = now_ns();
    msg[3].push_back(static_cast<double>(t0 - t1));
    if (!msg3.ok()) throw Error("ra msg3: " + msg3.error());
    auto secret = attester.handle_msg3(*msg3);
    report.check(secret.ok() && *secret == to_bytes("secret"), "ra: secret did not round-trip");
  }
  for (int i = 0; i < 4; ++i)
    report.metric("ra.msg" + std::to_string(i) + "_us", median(msg[i]) / 1e3, "us");

  Bytes bulk(bulk_bytes);
  for (std::size_t i = 0; i < bulk.size(); ++i) bulk[i] = static_cast<std::uint8_t>(i * 131);
  report.metric("crypto.sha256_mb_s",
                mb_per_s(bulk.size(), median_ns(kReps, [&] { (void)crypto::sha256(bulk); })),
                "MB/s");
  const crypto::Aes aes(Bytes(16, 0x42));
  const crypto::GcmIv iv{};
  report.metric("crypto.gcm_mb_s",
                mb_per_s(bulk.size(),
                         median_ns(kReps, [&] { (void)crypto::gcm_seal(aes, iv, {}, bulk); })),
                "MB/s");
  const auto digest = crypto::sha256(bulk);
  const auto sig = crypto::ecdsa_sign(device_key.priv, digest);
  report.metric("crypto.ecdsa_sign_us",
                median_ns(kReps, [&] { (void)crypto::ecdsa_sign(device_key.priv, digest); }) / 1e3,
                "us");
  report.metric("crypto.ecdsa_verify_us", median_ns(kReps, [&] {
                  if (!crypto::ecdsa_verify(device_key.pub, digest, sig))
                    throw Error("ecdsa verify rejected a valid signature");
                }) / 1e3,
                "us");
  report.metric("crypto.ecdh_us", median_ns(kReps, [&] {
                  (void)crypto::ecdh_shared_x(device_key.priv, verifier_identity.pub);
                }) / 1e3,
                "us");
}

}  // namespace

void report_layer_benchmarks(Report& report, std::uint64_t seed,
                             const std::function<void()>& codec_once, double ref_ms) {
  Rng rng(seed ^ 0x1A7E45ull);
  const OnboardModule onboard(rng, kOnboardModuleBytes);
  core_and_wasm_layers(report, onboard);
  jit_layers(report, make_kernels(rng));
  ra_and_crypto_layers(report, onboard.size());
  report.metric("protocol.codec_us", median_ns(200, codec_once) / 1e3, "us");
  if (ref_ms < 0) ref_ms = ns_to_ms(time_reference(report, kReps));
  report.metric("ref.native_ms", ref_ms, "ms");
}

}  // namespace perfbench
