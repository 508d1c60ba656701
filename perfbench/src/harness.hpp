// Shared machinery of the benchmark driver: options, seeded inputs,
// statistics, the result report, the device fleet every workload drives,
// and the span log of traced runs.
//
// The driver talks to the system only through its public entry points
// (gateway::GatewayClient, one gateway::Gateway + core::Device fleet per
// workload, and the layer APIs the per-layer microbenchmarks call). All
// timing and span recording lives in these files, never under src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "gateway/gateway.hpp"
#include "net/fabric.hpp"

namespace perfbench {

using namespace watz;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its Chrome trace_event file into.
  std::string out_dir = "perfbench-out";
};

/// A set-up precondition that does not hold: the run would measure
/// something other than what the workload claims, so it aborts without a
/// result instead.
struct PreconditionError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double ns_to_ms(double ns) { return ns / 1e6; }

/// splitmix64: every input a workload feeds the system derives from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t bound) {
    return static_cast<std::uint32_t>(next() % bound);
  }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double geomean(const std::vector<double>& values);

/// The one JSON line the driver prints last, plus the correctness ledger.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a broken output check; the run then reports correct=false.
  void check(bool ok, const std::string& what);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }

  bool correct() const noexcept { return correct_; }
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t check_failures_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct FleetShape {
  std::size_t devices = 1;
  std::size_t slots = 1;
};

/// One gateway in front of `devices` boards on a private fabric. Boards
/// charge the paper's Fig 3 world-switch costs as device-side sleeps: a
/// sleep times the same on a busy host, a busy-wait does not. Apart from
/// the fleet shape the gateway runs its default GatewayConfig, so the
/// benchmark never depends on a tuning knob.
class Fleet {
 public:
  Fleet(FleetShape shape, std::uint64_t seed);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  net::Fabric& fabric() noexcept { return fabric_; }
  gateway::Gateway& gateway() noexcept { return *gateway_; }
  /// A connected client of this fleet's gateway.
  std::unique_ptr<gateway::GatewayClient> client();
  /// Largest TrustedOs secure-heap use over the fleet's boards right now.
  std::size_t heap_in_use() const;

 private:
  // Declaration order is teardown order in reverse: the gateway stops
  // before the boards it drives, and both before the fabric.
  net::Fabric fabric_;
  core::Vendor vendor_;
  std::vector<std::unique_ptr<core::Device>> devices_;
  std::unique_ptr<gateway::Gateway> gateway_;
};

/// Boots one board with the fleet's latency model (device-side charges).
std::unique_ptr<core::Device> boot_board(net::Fabric& fabric, const core::Vendor& vendor,
                                         const std::string& hostname, std::uint8_t id);

/// Tracks the peak of Fleet::heap_in_use() over samples taken after
/// operations, from any thread.
class HeapPeak {
 public:
  void sample(const Fleet& fleet);
  double mb() const noexcept {
    return static_cast<double>(peak_.load()) / (1024.0 * 1024.0);
  }

 private:
  std::atomic<std::size_t> peak_{0};
};

/// One span recorded by the benchmark around (or derived from) a public
/// call. Spans of one operation share trace_id; children name their
/// parent's span_id.
struct Span {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
};

/// In-memory span log of one client thread; merged and written out when
/// the run ends.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t tid) : tid_(tid) {}
  std::uint64_t begin_trace() { return ++next_trace_ | (std::uint64_t{tid_} << 48); }
  /// Records a span and returns its id.
  std::uint64_t add(std::string name, std::uint64_t trace_id, std::uint64_t parent_id,
                    std::uint64_t start_ns, std::uint64_t dur_ns);
  /// Child spans of one gateway invoke, from its InvokeResponse timings:
  /// queue, launch and invoke laid back to back from `start_ns` (only
  /// their durations are measured), plus the unattributed remainder as
  /// gateway self time. Returns that self time.
  std::uint64_t add_invoke_children(std::uint64_t trace_id, std::uint64_t parent_id,
                                    std::uint64_t start_ns, std::uint64_t e2e_ns,
                                    const gateway::InvokeResponse& response);
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::uint32_t tid_;
  std::uint64_t next_trace_ = 0;
  std::uint64_t next_span_ = 0;
  std::vector<Span> spans_;
};

/// Writes the spans of `trace_id` as Chrome trace_event JSON ("X" events,
/// microseconds) to `<out_dir>/<workload>.trace.json`.
void write_chrome_trace(const Options& options, const std::vector<Span>& spans,
                        std::uint64_t trace_id);

/// Runs `body(thread_index, deadline_ns)` on `threads` client threads,
/// joins them, and returns the wall time in ns from the call to the last
/// thread's return (operations in flight at the deadline finish and
/// count). An exception escaping a thread is rethrown here after every
/// thread has been joined.
std::uint64_t run_clients(std::size_t threads, double seconds,
                          const std::function<void(std::size_t, std::uint64_t)>& body);

/// Gateway-wide counters the per-layer metrics difference across a phase.
struct Counters {
  std::uint64_t fabric_messages = 0;
  std::uint64_t fabric_bytes = 0;
  std::uint64_t tee_entries = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t native_entries = 0;
  std::uint64_t aot_calls = 0;  ///< heat: calls that ran the AOT stream
  std::uint64_t fallback_calls = 0;
  std::uint64_t deduped_lanes = 0;
  std::uint64_t invocations = 0;
  std::vector<std::uint64_t> slot_busy_ns;

  static Counters take(Fleet& fleet);
};

}  // namespace perfbench
