// batch-fanout: the same gateway as warm-rpc, driven through INVOKE_BATCH.
//
// Two client threads, closed loop, each send invoke_all batches of 32
// lanes that carry 16 distinct (a, b) tuples twice over, to one board with
// four sandbox slots. The work is batch admission, cross-lane dedup (half
// the lanes ride a leader's execution) and fan-out across the slots. Two
// clients keep every slot busy; with one, throughput depended on where the
// lanes happened to land.
#include <mutex>

#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kClients = 2;
constexpr FleetShape kShape{1, 4};
constexpr std::size_t kLanes = gateway::GatewayClient::kInvokeBatchChunk;  // one frame
constexpr std::size_t kDistinct = kLanes / 2;

struct Env {
  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<gateway::GatewayClient>> clients;
  std::vector<std::uint64_t> sessions;
  crypto::Sha256Digest measurement{};
  std::vector<std::int32_t> arg_base;
};

/// Batch `index` of client `c`: lane l carries tuple l % 16, whose `a`
/// is unique across every batch of the run.
std::vector<gateway::InvokeRequest> make_batch(const Env& env, std::size_t c,
                                               std::uint64_t index,
                                               std::vector<std::int32_t>* expected) {
  std::vector<gateway::InvokeRequest> batch;
  batch.reserve(kLanes);
  expected->clear();
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    const std::size_t tuple = lane % kDistinct;
    const std::int32_t a =
        env.arg_base[c] + static_cast<std::int32_t>(index * kDistinct + tuple);
    const std::int32_t b = static_cast<std::int32_t>(c * 104729 + tuple);
    expected->push_back(static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                                  static_cast<std::uint32_t>(b)));
    batch.push_back(invoke_request(env.sessions[c], env.measurement, "add",
                                   {wasm::Value::from_i32(a), wasm::Value::from_i32(b)}));
  }
  return batch;
}

std::unique_ptr<Env> setup(const Options& options, const Bytes& module) {
  auto env = std::make_unique<Env>();
  env->fleet = std::make_unique<Fleet>(kShape, options.seed);
  Rng rng(options.seed);
  for (std::size_t c = 0; c < kClients; ++c) {
    env->clients.push_back(env->fleet->client());
    auto attach = env->clients[c]->attach("tenant-" + std::to_string(c));
    if (!attach.ok() || attach->devices_attested != kShape.devices)
      throw PreconditionError("batch-fanout: tenant did not attest the board");
    env->sessions.push_back(attach->session_id);
    env->arg_base.push_back(static_cast<std::int32_t>(c << 28) +
                            static_cast<std::int32_t>(rng.below(1 << 20)));
  }
  auto load = env->clients[0]->load_module(env->sessions[0], module);
  if (!load.ok()) throw Error("batch-fanout load: " + load.error());
  env->measurement = load->measurement;

  // Warm every slot's pool and the native tier with concurrent batches
  // (sequential invokes would follow the affinity hint onto one slot).
  std::uint64_t warm_batches = 0;
  warm_until_native(*env->fleet, {env->measurement}, [&] {
    run_clients(kClients, 0.0, [&](std::size_t c, std::uint64_t) {
      std::vector<std::int32_t> expected;
      for (auto& r : env->clients[c]->invoke_all(
               make_batch(*env, c, (1u << 22) + warm_batches, &expected)))
        if (!r.ok()) throw Error("batch-fanout warm-up: " + r.error());
    });
    ++warm_batches;
  });
  for (const gateway::SlotStats& slot : env->fleet->gateway().stats().devices[0].slots)
    if (slot.invocations == 0) throw PreconditionError("batch-fanout: a slot never ran");
  return env;
}

struct Pass {
  std::vector<double> latency_ns;  ///< per batch
  std::uint64_t lanes = 0;
  std::uint64_t batches = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t ra_exchanges = 0;
  double elapsed_s = 0.0;
  InvokeTally tally;
  std::vector<Span> spans;
};

Pass measure(Env& env, double seconds, bool traced, std::uint64_t first_batch, HeapPeak& heap) {
  Pass pass;
  std::mutex mu;
  const std::uint64_t elapsed = run_clients(kClients, seconds, [&](std::size_t c,
                                                                   std::uint64_t deadline) {
    Pass mine;
    SpanLog log(static_cast<std::uint32_t>(c + 1));
    std::vector<std::int32_t> expected;
    for (std::uint64_t i = first_batch; now_ns() < deadline; ++i) {
      const auto batch = make_batch(env, c, i, &expected);
      const std::uint64_t t0 = now_ns();
      const auto results = env.clients[c]->invoke_all(batch);
      const std::uint64_t e2e = now_ns() - t0;
      ++mine.batches;
      mine.lanes += kLanes;
      mine.latency_ns.push_back(static_cast<double>(e2e));
      heap.sample(*env.fleet);
      const std::uint64_t trace = traced ? log.begin_trace() : 0;
      const std::uint64_t root = traced ? log.add("client.invoke_all", trace, 0, t0, e2e) : 0;
      std::uint64_t critical = 0;  // the slowest lane's attributed time
      for (std::size_t lane = 0; lane < results.size(); ++lane) {
        const auto& r = results[lane];
        if (!r.ok()) {
          ++mine.failed;
          continue;
        }
        if (r->results.size() != 1 || r->results[0].i32() != expected[lane]) ++mine.wrong;
        mine.ra_exchanges += r->ra_exchanges;
        if (traced) {
          const std::uint64_t lane_ns = r->queue_delay_ns + r->launch_ns + r->invoke_ns;
          critical = std::max(critical, lane_ns);
          const std::uint64_t lane_span = log.add("gateway.lane", trace, root, t0, lane_ns);
          log.add_invoke_children(trace, lane_span, t0, lane_ns, *r);
          mine.tally.record_lane(*r);
        }
      }
      if (results.size() != kLanes) mine.failed += kLanes - results.size();
      if (traced) {
        // A batch's gateway self time: what its slowest lane leaves over.
        const std::uint64_t self = e2e > critical ? e2e - critical : 0;
        mine.tally.self_ns.push_back(static_cast<double>(self));
        log.add("gateway.self", trace, root, t0 + critical, self);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    pass.latency_ns.insert(pass.latency_ns.end(), mine.latency_ns.begin(), mine.latency_ns.end());
    pass.lanes += mine.lanes;
    pass.batches += mine.batches;
    pass.failed += mine.failed;
    pass.wrong += mine.wrong;
    pass.ra_exchanges += mine.ra_exchanges;
    pass.tally.merge(mine.tally);
    pass.spans.insert(pass.spans.end(), log.spans().begin(), log.spans().end());
  });
  pass.elapsed_s = static_cast<double>(elapsed) / 1e9;
  if (pass.ra_exchanges != 0)
    throw PreconditionError("batch-fanout: a timed lane ran an RA handshake");
  return pass;
}

void account(Report& report, const Pass& pass) {
  report.attempt(pass.lanes);
  report.fail(pass.failed);
  report.check(pass.wrong == 0, "batch-fanout: a lane returned a wrong sum");
}

}  // namespace

void run_batch_fanout(const Options& options, Report& report) {
  const Bytes module = adder_module();
  double setup_s = 0.0;
  auto env = repeated_setup<Env>(report, &setup_s,
                                 [&] { return setup(options, module); });
  HeapPeak heap;
  heap.sample(*env->fleet);

  if (!options.trace) {
    const Pass pass = measure(*env, options.seconds, false, 0, heap);
    account(report, pass);
    report.metric("ops_per_s", static_cast<double>(pass.lanes) / pass.elapsed_s, "1/s");
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
  const Pass traced = measure(*env, pass_s, true, 1u << 20, heap);
  const Counters after = Counters::take(*env->fleet);
  account(report, plain);
  account(report, traced);
  report_pass_layers(report, traced.tally, before, after, traced.lanes, traced.batches);
  const double plain_p50 = quantile(plain.latency_ns, 0.5);
  report.metric("trace.overhead_pct",
                100.0 * (quantile(traced.latency_ns, 0.5) - plain_p50) / plain_p50, "%");
  report.metric("abs.p50_ms", ns_to_ms(plain_p50), "ms");
  write_chrome_trace(options, traced.spans, median_trace(traced.spans));

  std::vector<std::int32_t> expected;
  gateway::InvokeBatchRequest request;
  gateway::InvokeBatchResponse response;
  const auto batch = make_batch(*env, 0, 0, &expected);
  for (std::size_t lane = 0; lane < batch.size(); ++lane) {
    request.lanes.push_back({static_cast<std::uint32_t>(lane), batch[lane]});
    gateway::InvokeBatchResult result;
    result.lane = static_cast<std::uint32_t>(lane);
    result.result.results = {wasm::Value::from_i32(expected[lane])};
    result.result.device = "board-0";
    response.results.push_back(result);
  }
  report_layer_benchmarks(report, options.seed, [&] {
    (void)gateway::InvokeBatchRequest::decode(request.encode());
    (void)gateway::InvokeBatchResponse::decode(response.encode());
  });
}

}  // namespace perfbench
