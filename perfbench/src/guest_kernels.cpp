// guest-kernels: guest execution on the native tier, behind an idle gateway.
//
// One client, one board with one slot. A round invokes PolyBench gem (f64
// mul-add), PolyBench flo (integer Floyd-Warshall) and the fig8 genann
// training step (f64, wasm->wasm calls) in that order, and after each
// gateway invoke runs the same algorithm compiled natively. Host speed on
// a shared machine drifts by tens of percent within minutes, so absolute
// times are not comparable across runs; the ratio of an invoke to the
// native run right after it is (the paper's Fig 5/8 normalisation).
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr FleetShape kShape{1, 1};

struct Env {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<gateway::GatewayClient> client;
  std::uint64_t session = 0;
  std::vector<crypto::Sha256Digest> measurements;  ///< per kernel
};

std::unique_ptr<Env> setup(const Options& options, const std::vector<Kernel>& kernels) {
  auto env = std::make_unique<Env>();
  env->fleet = std::make_unique<Fleet>(kShape, options.seed);
  env->client = env->fleet->client();
  auto attach = env->client->attach("tenant-kernels");
  if (!attach.ok() || attach->devices_attested != 1)
    throw PreconditionError("guest-kernels: tenant did not attest the board");
  env->session = attach->session_id;
  for (const Kernel& k : kernels) {
    auto load = env->client->load_module(env->session, k.binary);
    if (!load.ok()) throw Error("guest-kernels load " + k.name + ": " + load.error());
    env->measurements.push_back(load->measurement);
  }
  // Heat every kernel with its cheap arguments until the default threshold
  // has queued each function and the sweeper has compiled it.
  warm_until_native(*env->fleet, env->measurements, [&] {
    for (int i = 0; i < 4; ++i)
      for (std::size_t k = 0; k < kernels.size(); ++k) {
        auto r = env->client->invoke(invoke_request(env->session, env->measurements[k],
                                                    kernels[k].entry, kernels[k].warm_args));
        if (!r.ok()) throw Error("guest-kernels warm-up " + kernels[k].name + ": " + r.error());
      }
  });
  return env;
}

struct Pass {
  std::vector<std::vector<double>> ratio;  ///< per kernel: invoke / native
  std::vector<double> nominal_ms;          ///< every invoke at nominal host speed
  std::vector<double> round_nominal_ms;    ///< per round of the three kernels
  std::vector<double> round_ns;            ///< the same, as measured
  std::uint64_t invokes = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t not_pooled = 0;
  InvokeTally tally;
  std::vector<Span> spans;
  std::vector<double> native_round_ns;
};

Pass measure(Env& env, const std::vector<Kernel>& kernels, double seconds, bool traced,
             HeapPeak& heap) {
  Pass pass;
  pass.ratio.resize(kernels.size());
  SpanLog log(1);
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    const std::uint64_t trace = traced ? log.begin_trace() : 0;
    const std::uint64_t round_start = now_ns();
    double round_native = 0.0;
    double round_nominal = 0.0;
    double round_invoke = 0.0;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const Kernel& kernel = kernels[k];
      const gateway::InvokeRequest req =
          invoke_request(env.session, env.measurements[k], kernel.entry, kernel.args);
      const std::uint64_t t0 = now_ns();
      auto r = env.client->invoke(req);
      const std::uint64_t t1 = now_ns();
      const std::uint64_t native_result = kernel.native();
      const std::uint64_t t2 = now_ns();
      ++pass.invokes;
      if (!r.ok()) {
        ++pass.failed;
        continue;
      }
      heap.sample(*env.fleet);
      if (kernel.guest_result(r->results) != native_result) ++pass.wrong;
      if (!r->pool_hit || !r->module_cache_hit) ++pass.not_pooled;
      const double invoke = static_cast<double>(t1 - t0);
      const double native = static_cast<double>(t2 - t1);
      pass.ratio[k].push_back(invoke / native);
      pass.nominal_ms.push_back(invoke / native * kernel.nominal_native_ms);
      round_nominal += pass.nominal_ms.back();
      round_invoke += invoke;
      round_native += native;
      if (traced) {
        const std::uint64_t root = log.add("client.invoke." + kernel.name, trace, 0, t0, t1 - t0);
        pass.tally.record(*r, log.add_invoke_children(trace, root, t0, t1 - t0, *r));
        log.add("native." + kernel.name, trace, 0, t1, t2 - t1);
      }
    }
    pass.native_round_ns.push_back(round_native);
    pass.round_nominal_ms.push_back(round_nominal);
    pass.round_ns.push_back(round_invoke);
    if (traced) log.add("round", trace, 0, round_start, now_ns() - round_start);
  }
  pass.spans = log.spans();
  if (pass.not_pooled != 0)
    throw PreconditionError("guest-kernels: a timed invoke missed the warm pool");
  return pass;
}

/// Every timed invoke must have run on the native entry with nothing
/// evicted or re-prepared: otherwise the run measured the AOT stream.
void check_native_only(const Counters& before, const Counters& after) {
  if (after.cache_evictions != before.cache_evictions ||
      after.cache_misses != before.cache_misses)
    throw PreconditionError("guest-kernels: the kernels no longer fit the module cache");
  if (after.aot_calls != before.aot_calls)
    throw PreconditionError("guest-kernels: a timed invoke fell back to the AOT stream");
}

double geomean_quantile(const Pass& pass, double q) {
  std::vector<double> per_kernel;
  for (const auto& ratios : pass.ratio) per_kernel.push_back(quantile(ratios, q));
  return geomean(per_kernel);
}

void account(Report& report, const Pass& pass) {
  report.attempt(pass.invokes);
  report.fail(pass.failed);
  report.check(pass.wrong == 0, "guest-kernels: a guest result differs from the native build");
}

}  // namespace

void run_guest_kernels(const Options& options, Report& report) {
  Rng rng(options.seed);
  const std::vector<Kernel> kernels = make_kernels(rng);
  double setup_s = 0.0;
  auto env = repeated_setup<Env>(report, &setup_s,
                                 [&] { return setup(options, kernels); });
  HeapPeak heap;
  heap.sample(*env->fleet);

  if (!options.trace) {
    const Counters before = Counters::take(*env->fleet);
    const Pass pass = measure(*env, kernels, options.seconds, false, heap);
    check_native_only(before, Counters::take(*env->fleet));
    account(report, pass);
    double nominal_s = 0.0;
    for (double ms : pass.nominal_ms) nominal_s += ms / 1e3;
    report.metric("ops_per_s", static_cast<double>(pass.nominal_ms.size()) / nominal_s, "1/s");
    // Latency per round: the three kernels' times form three clusters, so a
    // quantile over single invokes would jump between them.
    report.metric("p50_ms", quantile(pass.round_nominal_ms, 0.5), "ms");
    report.metric("p90_ms", quantile(pass.round_nominal_ms, 0.9), "ms");
    for (std::size_t k = 0; k < kernels.size(); ++k)
      std::fprintf(stderr, "perfbench: %s invoke/native median %.3f\n", kernels[k].name.c_str(),
                   quantile(pass.ratio[k], 0.5));
    report.metric("p50_xnative", geomean_quantile(pass, 0.5), "x");
    report.metric("p90_xnative", geomean_quantile(pass, 0.9), "x");
    report.metric("setup_s", setup_s, "s");
    report.metric("secure_heap_peak_mb", heap.mb(), "MB");
    return;
  }

  const double pass_s = options.seconds * kTracedPassShare;
  const Pass plain = measure(*env, kernels, pass_s, false, heap);
  const Counters before = Counters::take(*env->fleet);
  const Pass traced = measure(*env, kernels, pass_s, true, heap);
  const Counters after = Counters::take(*env->fleet);
  check_native_only(before, after);
  account(report, plain);
  account(report, traced);
  report_pass_layers(report, traced.tally, before, after, traced.invokes, 0);
  const double plain_x = geomean_quantile(plain, 0.5);
  report.metric("trace.overhead_pct", 100.0 * (geomean_quantile(traced, 0.5) - plain_x) / plain_x,
                "%");
  report.metric("abs.p50_ms", ns_to_ms(quantile(plain.round_ns, 0.5)), "ms");
  write_chrome_trace(options, traced.spans, median_trace(traced.spans));

  const gateway::InvokeRequest frame =
      invoke_request(env->session, env->measurements[0], kernels[0].entry, kernels[0].args);
  gateway::InvokeResponse response;
  response.results = {wasm::Value::from_f64(1.0)};
  response.device = "board-0";
  report_layer_benchmarks(
      report, options.seed,
      [&] {
        (void)gateway::InvokeRequest::decode(frame.encode());
        (void)gateway::InvokeResponse::decode(response.encode());
      },
      ns_to_ms(median(plain.native_round_ns)));
}

}  // namespace perfbench
