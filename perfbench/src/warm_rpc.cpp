// warm-rpc: the gateway's single-invoke path with nothing else in the way.
//
// Four tenants, each with its own client thread, connection and session,
// invoke a one-page add(a, b) guest in a closed loop with unique
// arguments on two single-slot boards. After set-up there is no RA, no
// Loading and next to no guest compute: the time is admission, protocol,
// fabric, slot queue, pool checkout and the world switches. Two tenants per
// slot keep both slots saturated, which is what makes the numbers repeat:
// with one tenant per slot, throughput depends on which sessions happen to
// share a slot.
#include <mutex>

#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kTenants = 4;
constexpr FleetShape kShape{2, 1};
/// Invokes per tenant between two checks of the warm-up condition: small,
/// so set-up time is not quantised by the burst length.
constexpr int kWarmBurst = 8;

struct Env {
  std::unique_ptr<Fleet> fleet;
  // Declared after the fleet: clients disconnect before it tears down.
  std::vector<std::unique_ptr<gateway::GatewayClient>> clients;
  std::vector<std::uint64_t> sessions;
  crypto::Sha256Digest measurement{};
  std::vector<std::int32_t> arg_base;  ///< per tenant, from the seed
};

gateway::InvokeRequest add_request(const Env& env, std::size_t tenant, std::uint64_t i,
                                   std::int32_t* expected) {
  const std::int32_t a = env.arg_base[tenant] + static_cast<std::int32_t>(i);
  const std::int32_t b = static_cast<std::int32_t>(tenant * 7919 + (i % 1000));
  *expected = static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                        static_cast<std::uint32_t>(b));
  return invoke_request(env.sessions[tenant], env.measurement, "add",
                        {wasm::Value::from_i32(a), wasm::Value::from_i32(b)});
}

std::unique_ptr<Env> setup(const Options& options, const Bytes& module) {
  auto env = std::make_unique<Env>();
  env->fleet = std::make_unique<Fleet>(kShape, options.seed);
  Rng rng(options.seed);
  for (std::size_t t = 0; t < kTenants; ++t) {
    env->clients.push_back(env->fleet->client());
    auto attach = env->clients[t]->attach("tenant-" + std::to_string(t));
    if (!attach.ok() || attach->devices_attested != kShape.devices)
      throw PreconditionError("warm-rpc: tenant did not attest every board");
    env->sessions.push_back(attach->session_id);
    // Arguments are unique per tenant and per call: a base from the seed
    // plus the call index (2^26 calls apart, far more than a run makes).
    env->arg_base.push_back(static_cast<std::int32_t>(t << 26) +
                            static_cast<std::int32_t>(rng.below(1 << 20)));
  }
  auto load = env->clients[0]->load_module(env->sessions[0], module);
  if (!load.ok()) throw Error("warm-rpc load: " + load.error());
  env->measurement = load->measurement;

  std::uint64_t warm_calls = 0;
  warm_until_native(*env->fleet, {env->measurement}, [&] {
    run_clients(kTenants, 0.0, [&](std::size_t t, std::uint64_t) {
      for (int i = 0; i < kWarmBurst; ++i) {
        std::int32_t expected = 0;
        auto r = env->clients[t]->invoke(
            add_request(*env, t, (1u << 25) + warm_calls * kWarmBurst + i, &expected));
        if (!r.ok()) throw Error("warm-rpc warm-up: " + r.error());
      }
    });
    ++warm_calls;
  });
  return env;
}

struct Pass {
  std::vector<double> latency_ns;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t ra_exchanges = 0;
  double elapsed_s = 0.0;
  InvokeTally tally;
  std::vector<Span> spans;
};

/// One closed-loop pass of `seconds`. Call indices start at `first_call`
/// so every pass of a run sends fresh arguments.
Pass measure(Env& env, double seconds, bool traced, std::uint64_t first_call, HeapPeak& heap) {
  Pass pass;
  std::mutex mu;
  const std::uint64_t elapsed = run_clients(kTenants, seconds, [&](std::size_t t,
                                                                   std::uint64_t deadline) {
    Pass mine;
    mine.latency_ns.reserve(1 << 16);
    SpanLog log(static_cast<std::uint32_t>(t + 1));
    gateway::GatewayClient& client = *env.clients[t];
    for (std::uint64_t i = first_call; now_ns() < deadline; ++i) {
      std::int32_t expected = 0;
      const gateway::InvokeRequest req = add_request(env, t, i, &expected);
      const std::uint64_t t0 = now_ns();
      auto r = client.invoke(req);
      const std::uint64_t e2e = now_ns() - t0;
      ++mine.ops;
      if (!r.ok()) {
        ++mine.failed;
        continue;
      }
      mine.latency_ns.push_back(static_cast<double>(e2e));
      if (r->results.size() != 1 || r->results[0].i32() != expected) ++mine.wrong;
      mine.ra_exchanges += r->ra_exchanges;
      heap.sample(*env.fleet);
      if (traced) {
        const std::uint64_t trace = log.begin_trace();
        const std::uint64_t root = log.add("client.invoke", trace, 0, t0, e2e);
        mine.tally.record(*r, log.add_invoke_children(trace, root, t0, e2e, *r));
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    pass.latency_ns.insert(pass.latency_ns.end(), mine.latency_ns.begin(), mine.latency_ns.end());
    pass.ops += mine.ops;
    pass.failed += mine.failed;
    pass.wrong += mine.wrong;
    pass.ra_exchanges += mine.ra_exchanges;
    pass.tally.merge(mine.tally);
    pass.spans.insert(pass.spans.end(), log.spans().begin(), log.spans().end());
  });
  pass.elapsed_s = static_cast<double>(elapsed) / 1e9;
  if (pass.ra_exchanges != 0)
    throw PreconditionError("warm-rpc: a timed invoke ran an RA handshake");
  return pass;
}

void account(Report& report, const Pass& pass) {
  report.attempt(pass.ops);
  report.fail(pass.failed);
  report.check(pass.wrong == 0, "warm-rpc: add returned a wrong sum");
}

}  // namespace

void run_warm_rpc(const Options& options, Report& report) {
  const Bytes module = adder_module();
  double setup_s = 0.0;
  auto env = repeated_setup<Env>(report, &setup_s,
                                 [&] { return setup(options, module); });
  HeapPeak heap;
  heap.sample(*env->fleet);

  if (!options.trace) {
    const Pass pass = measure(*env, options.seconds, false, 0, heap);
    account(report, pass);
    report.metric("ops_per_s", static_cast<double>(pass.ops) / pass.elapsed_s, "1/s");
    report.metric("p50_ms", ns_to_ms(quantile(pass.latency_ns, 0.5)), "ms");
    report.metric("p90_ms", ns_to_ms(quantile(pass.latency_ns, 0.9)), "ms");
    // Sleep-bound: the latency does not follow host speed, so it converts
    // to native units at the nominal reference time directly.
    report.metric("p50_xnative", ns_to_ms(quantile(pass.latency_ns, 0.5)) / kNominalReferenceMs,
                  "x");
    report.metric("p90_xnative", ns_to_ms(quantile(pass.latency_ns, 0.9)) / kNominalReferenceMs,
                  "x");
    report.metric("setup_s", setup_s, "s");
    report.metric("secure_heap_peak_mb", heap.mb(), "MB");
    return;
  }

  const double pass_s = options.seconds * kTracedPassShare;
  const Pass plain = measure(*env, pass_s, false, 0, heap);
  const Counters before = Counters::take(*env->fleet);
  const Pass traced = measure(*env, pass_s, true, 1u << 24, heap);
  const Counters after = Counters::take(*env->fleet);
  account(report, plain);
  account(report, traced);
  report_pass_layers(report, traced.tally, before, after, traced.ops, 0);
  const double plain_p50 = quantile(plain.latency_ns, 0.5);
  report.metric("trace.overhead_pct",
                100.0 * (quantile(traced.latency_ns, 0.5) - plain_p50) / plain_p50, "%");
  report.metric("abs.p50_ms", ns_to_ms(plain_p50), "ms");
  write_chrome_trace(options, traced.spans, median_trace(traced.spans));

  std::int32_t expected = 0;
  const gateway::InvokeRequest frame = add_request(*env, 0, 0, &expected);
  gateway::InvokeResponse response;
  response.results = {wasm::Value::from_i32(expected)};
  response.device = "board-0";
  report_layer_benchmarks(report, options.seed, [&] {
    (void)gateway::InvokeRequest::decode(frame.encode());
    (void)gateway::InvokeResponse::decode(response.encode());
  });
}

}  // namespace perfbench
