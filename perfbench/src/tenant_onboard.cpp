// tenant-onboard: remote attestation and the cold launch pipeline.
//
// One client, one board with one slot, closed loop. An operation is a new
// tenant's whole first contact: ATTACH (an RA handshake with the board),
// LOAD_MODULE of a ~256 KiB module with unique bytes, one cold invoke
// (secure copy, hash, decode, validate, translate, instantiate) and
// DETACH. Every module is new, so the board's module cache keeps evicting.
// The operation is CPU-bound, and host speed drifts, so each one is
// divided by a benchmark-owned native reference run right after it.
#include "crypto/sha256.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr FleetShape kShape{1, 1};
constexpr std::size_t kModuleShapes = 8;
/// Onboardings run during set-up: enough to fill the module cache, so the
/// timed operations all see the eviction steady state.
constexpr int kWarmOnboardings = 8;

struct Env {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<gateway::GatewayClient> client;
  std::uint64_t tenants = 0;
};

/// What one onboarding saw, for the checks and the traced pass. `ok` is
/// false when a call failed; `error` set while `ok` holds is a wrong output.
struct Onboarding {
  bool ok = false;
  std::string error;
  gateway::AttachResponse attach;
  gateway::InvokeResponse invoke;
  std::uint64_t t_attach = 0, t_load = 0, t_invoke = 0, t_detach = 0, t_end = 0;
};

Onboarding onboard(Env& env, const Bytes& binary, std::int64_t expected) {
  Onboarding o;
  gateway::GatewayClient& client = *env.client;
  o.t_attach = now_ns();
  auto attach = client.attach("tenant-" + std::to_string(env.tenants++));
  o.t_load = now_ns();
  if (!attach.ok()) {
    o.error = "attach: " + attach.error();
    return o;
  }
  o.attach = *attach;
  auto load = client.load_module(attach->session_id, binary);
  o.t_invoke = now_ns();
  if (!load.ok()) {
    o.error = "load: " + load.error();
    return o;
  }
  auto r = client.invoke(invoke_request(attach->session_id, load->measurement, "entry", {}));
  o.t_detach = now_ns();
  const Status detach = client.detach(attach->session_id);
  o.t_end = now_ns();
  if (!r.ok()) {
    o.error = "invoke: " + r.error();
    return o;
  }
  if (!detach.ok()) {
    o.error = "detach: " + detach.error();
    return o;
  }
  o.invoke = *r;
  o.ok = true;
  // Correctness: the module really was new, its result is right, and
  // attaching cost one full handshake (2 RA exchanges) per board.
  if (load->already_registered || load->measurement != crypto::sha256(binary))
    o.error = "load: measurement is not the binary's SHA-256, or not new";
  else if (r->module_cache_hit)
    o.error = "invoke: the onboarding invoke was not a cold miss";
  else if (r->results.size() != 1 || r->results[0].i64() != expected)
    o.error = "invoke: wrong result";
  else if (attach->devices_attested != kShape.devices ||
           attach->ra_exchanges != 2 * attach->devices_attested)
    o.error = "attach: expected 2 RA exchanges per attested board";
  return o;
}

struct Inputs {
  std::vector<OnboardModule> shapes;
  Rng nonces;
  explicit Inputs(std::uint64_t seed) : nonces(seed ^ 0x0B0A4Dull) {
    Rng rng(seed);
    for (std::size_t i = 0; i < kModuleShapes; ++i)
      shapes.emplace_back(rng, kOnboardModuleBytes);
  }
  /// The next operation's unique module and its expected result.
  std::pair<Bytes, std::int64_t> next(std::uint64_t op) {
    const OnboardModule& shape = shapes[op % shapes.size()];
    const std::uint64_t nonce = nonces.next();
    return {shape.with_nonce(nonce), shape.expected(nonce)};
  }
};

std::unique_ptr<Env> setup(const Options& options, Inputs& inputs) {
  auto env = std::make_unique<Env>();
  env->fleet = std::make_unique<Fleet>(kShape, options.seed);
  env->client = env->fleet->client();
  for (int i = 0; i < kWarmOnboardings; ++i) {
    auto [binary, expected] = inputs.next(static_cast<std::uint64_t>(i));
    const Onboarding o = onboard(*env, binary, expected);
    if (!o.ok || !o.error.empty()) throw Error("tenant-onboard warm-up: " + o.error);
  }
  return env;
}

struct Pass {
  std::vector<double> op_ns;
  std::vector<double> ratio;  ///< op / native reference
  std::vector<double> ref_ns;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  InvokeTally tally;
  std::vector<Span> spans;
};

Pass measure(Env& env, Inputs& inputs, double seconds, bool traced, HeapPeak& heap,
             Report& report) {
  Pass pass;
  SpanLog log(1);
  const std::uint64_t checksum = reference_checksum();
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint64_t op = 0; now_ns() < deadline; ++op) {
    auto [binary, expected] = inputs.next(op);
    const Onboarding o = onboard(env, binary, expected);
    const std::uint64_t r0 = now_ns();
    const std::uint64_t ref = reference_work();
    const std::uint64_t r1 = now_ns();
    ++pass.ops;
    if (!o.ok) {
      ++pass.failed;
      std::fprintf(stderr, "perfbench: tenant-onboard failed: %s\n", o.error.c_str());
      continue;
    }
    if (!o.error.empty() || ref != checksum) {
      ++pass.wrong;
      report.check(false, "tenant-onboard: " + (o.error.empty() ? "reference checksum" : o.error));
    }
    heap.sample(*env.fleet);
    const double op_ns = static_cast<double>(o.t_end - o.t_attach);
    pass.op_ns.push_back(op_ns);
    pass.ref_ns.push_back(static_cast<double>(r1 - r0));
    pass.ratio.push_back(op_ns / static_cast<double>(r1 - r0));
    if (traced) {
      const std::uint64_t trace = log.begin_trace();
      const std::uint64_t root = log.add("onboard", trace, 0, o.t_attach, o.t_end - o.t_attach);
      log.add("client.attach", trace, root, o.t_attach, o.t_load - o.t_attach);
      log.add("client.load_module", trace, root, o.t_load, o.t_invoke - o.t_load);
      const std::uint64_t inv =
          log.add("client.invoke", trace, root, o.t_invoke, o.t_detach - o.t_invoke);
      pass.tally.record(o.invoke, log.add_invoke_children(trace, inv, o.t_invoke,
                                                          o.t_detach - o.t_invoke, o.invoke));
      pass.tally.ra_exchanges += o.attach.ra_exchanges;
      log.add("client.detach", trace, root, o.t_detach, o.t_end - o.t_detach);
      log.add("native.reference", trace, 0, r0, r1 - r0);
    }
  }
  pass.spans = log.spans();
  return pass;
}

void account(Report& report, const Pass& pass) {
  report.attempt(pass.ops);
  report.fail(pass.failed);
}

}  // namespace

void run_tenant_onboard(const Options& options, Report& report) {
  Inputs inputs(options.seed);
  (void)reference_checksum();  // builds the reference buffer before timing
  double setup_s = 0.0;
  auto env = repeated_setup<Env>(report, &setup_s,
                                 [&] { return setup(options, inputs); });
  HeapPeak heap;
  heap.sample(*env->fleet);

  if (!options.trace) {
    const Pass pass = measure(*env, inputs, options.seconds, false, heap, report);
    account(report, pass);
    // At nominal host speed: each operation's ratio x the nominal
    // reference time (as measured, the times drift with the host).
    double nominal_s = 0.0;
    for (double x : pass.ratio) nominal_s += x * kNominalReferenceMs / 1e3;
    report.metric("ops_per_s", static_cast<double>(pass.ratio.size()) / nominal_s, "1/s");
    report.metric("p50_ms", quantile(pass.ratio, 0.5) * kNominalReferenceMs, "ms");
    report.metric("p90_ms", quantile(pass.ratio, 0.9) * kNominalReferenceMs, "ms");
    report.metric("p50_xnative", quantile(pass.ratio, 0.5), "x");
    report.metric("p90_xnative", quantile(pass.ratio, 0.9), "x");
    report.metric("setup_s", setup_s, "s");
    report.metric("secure_heap_peak_mb", heap.mb(), "MB");
    return;
  }

  const double pass_s = options.seconds * kTracedPassShare;
  const Pass plain = measure(*env, inputs, pass_s, false, heap, report);
  const Counters before = Counters::take(*env->fleet);
  const Pass traced = measure(*env, inputs, pass_s, true, heap, report);
  const Counters after = Counters::take(*env->fleet);
  account(report, plain);
  account(report, traced);
  report_pass_layers(report, traced.tally, before, after, traced.ops, 0);
  const double plain_x = quantile(plain.ratio, 0.5);
  report.metric("trace.overhead_pct", 100.0 * (quantile(traced.ratio, 0.5) - plain_x) / plain_x,
                "%");
  report.metric("abs.p50_ms", ns_to_ms(quantile(plain.op_ns, 0.5)), "ms");
  write_chrome_trace(options, traced.spans, median_trace(traced.spans));

  auto [binary, expected] = inputs.next(0);
  // The frames of one onboarding, as the client and the gateway encode them.
  gateway::AttachRequest attach;
  attach.client = "tenant-0";
  gateway::AttachResponse attached;
  attached.session_id = 1;
  attached.devices_attested = 1;
  attached.ra_exchanges = 2;
  gateway::LoadModuleRequest load;
  load.session_id = 1;
  load.binary = binary;
  gateway::LoadModuleResponse loaded;
  loaded.measurement = crypto::sha256(binary);
  const gateway::InvokeRequest invoke = invoke_request(1, loaded.measurement, "entry", {});
  gateway::InvokeResponse invoked;
  invoked.results = {wasm::Value::from_i64(expected)};
  invoked.device = "board-0";
  gateway::DetachRequest detach;
  detach.session_id = 1;
  const auto codec_once = [&] {
    (void)gateway::AttachRequest::decode(attach.encode());
    (void)gateway::AttachResponse::decode(attached.encode());
    (void)gateway::LoadModuleRequest::decode(load.encode());
    (void)gateway::LoadModuleResponse::decode(loaded.encode());
    (void)gateway::InvokeRequest::decode(invoke.encode());
    (void)gateway::InvokeResponse::decode(invoked.encode());
    (void)gateway::DetachRequest::decode(detach.encode());
  };
  report_layer_benchmarks(report, options.seed, codec_once, ns_to_ms(median(plain.ref_ns)));
}

}  // namespace perfbench
