// The four workloads and the per-layer reporting they share.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "guests.hpp"
#include "harness.hpp"

namespace perfbench {

void run_warm_rpc(const Options& options, Report& report);
void run_batch_fanout(const Options& options, Report& report);
void run_guest_kernels(const Options& options, Report& report);
void run_tenant_onboard(const Options& options, Report& report);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Repeats `setup` kSetupRepeats times, keeps the last result and reports
/// the median set-up time in seconds through `setup_s`, at nominal host
/// speed: each set-up is scaled by kNominalReferenceMs over a reference run
/// right after it. Set-up is mostly CPU work (board boot crypto, RA,
/// AOT-stream warm-up, JIT compiles, onboardings). In a phase when the host
/// was contended, set-ups took 1.2-2.4x as long as in a quiet phase as
/// measured, and 0.65-1.3x as long once scaled.
template <typename T, typename Fn>
std::unique_ptr<T> repeated_setup(Report& report, double* setup_s, Fn&& setup) {
  std::vector<double> seconds;
  std::unique_ptr<T> kept;
  for (int i = 0; i < kSetupRepeats; ++i) {
    kept.reset();  // the previous fleet is torn down outside the timer
    const std::uint64_t t0 = now_ns();
    kept = setup();
    const double measured = static_cast<double>(now_ns() - t0) / 1e9;
    seconds.push_back(measured * kNominalReferenceMs / ns_to_ms(time_reference(report, 3)));
  }
  *setup_s = median(seconds);
  return kept;
}
/// A traced run splits its time: an untraced pass, then a traced pass of
/// the same workload (their difference is trace.overhead_pct), then the
/// fixed-size layer microbenchmarks.
inline constexpr double kTracedPassShare = 0.35;

/// Per-invoke observations of a traced pass.
struct InvokeTally {
  std::vector<double> self_ns;
  std::vector<double> queue_ns;
  std::vector<double> launch_ns;
  std::uint64_t invokes = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t ra_exchanges = 0;

  /// Records one response and the gateway self time of the call that
  /// carried it (its wall time minus what its child spans cover).
  void record(const gateway::InvokeResponse& response, std::uint64_t self);
  /// Records one batch lane; the batch's self time is recorded once.
  void record_lane(const gateway::InvokeResponse& response);
  void merge(const InvokeTally& other);
};

/// Invokes `burst` until every device of `fleet` runs every function of
/// each module in `measurements` on its native entry, the default heat
/// threshold having queued them and the gateway's sweeper compiled them.
/// Throws PreconditionError when that takes longer than `limit_s`.
void warm_until_native(Fleet& fleet, const std::vector<crypto::Sha256Digest>& measurements,
                       const std::function<void()>& burst, double limit_s = 20.0);

/// The per-layer metrics a traced pass yields from its own operations:
/// net, gateway, session, cache, tz and jit counters differenced across
/// the pass, plus the span-derived gateway times.
void report_pass_layers(Report& report, const InvokeTally& tally, const Counters& before,
                        const Counters& after, std::uint64_t ops, std::uint64_t batches);

/// core, wasm, jit, ra, crypto and protocol microbenchmarks, plus
/// ref.native_ms. Each calls the layer's public API directly, on an
/// onboarding module and the guest-kernels kernels drawn from `seed`.
/// `codec_once` encodes and decodes the frames of one of the workload's
/// operations; `ref_ms` is the workload's own median native reference
/// time, or < 0 to time reference_work() here.
void report_layer_benchmarks(Report& report, std::uint64_t seed,
                             const std::function<void()>& codec_once, double ref_ms = -1.0);

/// The root span closest to the median root duration: the operation a
/// traced run writes out as its Chrome trace.
std::uint64_t median_trace(const std::vector<Span>& spans);

/// Guest call of the workload's module: one INVOKE request.
gateway::InvokeRequest invoke_request(std::uint64_t session,
                                      const crypto::Sha256Digest& measurement,
                                      const std::string& entry, std::vector<wasm::Value> args);

}  // namespace perfbench
