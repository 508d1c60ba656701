#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  // Report the first few broken checks; a systematic fault repeats.
  if (++check_failures_ <= 5) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string Report::json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::unique_ptr<core::Device> boot_board(net::Fabric& fabric, const core::Vendor& vendor,
                                         const std::string& hostname, std::uint8_t id) {
  core::DeviceConfig config;
  config.hostname = hostname;
  config.otpmk.fill(id);
  config.latency.enabled = true;
  config.latency.device_side = true;
  auto device = core::Device::boot(fabric, vendor, std::move(config));
  if (!device.ok()) throw Error("boot " + hostname + ": " + device.error());
  return std::move(*device);
}

Fleet::Fleet(FleetShape shape, std::uint64_t seed)
    : vendor_(core::Vendor::create(to_bytes("perfbench-vendor-" + std::to_string(seed)))) {
  gateway::GatewayConfig config;
  config.slots_per_device = shape.slots;
  gateway_ = std::make_unique<gateway::Gateway>(
      fabric_, config, to_bytes("perfbench-gateway-" + std::to_string(seed)));
  gateway_->start().check();
  for (std::size_t i = 0; i < shape.devices; ++i) {
    devices_.push_back(boot_board(fabric_, vendor_, "board-" + std::to_string(i),
                                  static_cast<std::uint8_t>(0x40 + i)));
    gateway_->add_device(*devices_.back()).check();
  }
}

std::unique_ptr<gateway::GatewayClient> Fleet::client() {
  auto client = std::make_unique<gateway::GatewayClient>(fabric_);
  const gateway::GatewayConfig& config = gateway_->config();
  client->connect(config.hostname, config.port).check();
  return client;
}

std::size_t Fleet::heap_in_use() const {
  std::size_t peak = 0;
  for (const auto& device : devices_) peak = std::max(peak, device->os().heap_in_use());
  return peak;
}

void HeapPeak::sample(const Fleet& fleet) {
  const std::size_t now = fleet.heap_in_use();
  std::size_t seen = peak_.load();
  while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
  }
}

std::uint64_t SpanLog::add(std::string name, std::uint64_t trace_id, std::uint64_t parent_id,
                           std::uint64_t start_ns, std::uint64_t dur_ns) {
  const std::uint64_t id = ++next_span_ | (std::uint64_t{tid_} << 48);
  spans_.push_back(Span{std::move(name), trace_id, id, parent_id, start_ns, dur_ns, tid_});
  return id;
}

std::uint64_t SpanLog::add_invoke_children(std::uint64_t trace_id, std::uint64_t parent_id,
                                           std::uint64_t start_ns, std::uint64_t e2e_ns,
                                           const gateway::InvokeResponse& response) {
  std::uint64_t at = start_ns;
  const std::pair<const char*, std::uint64_t> children[] = {
      {"gateway.queue", response.queue_delay_ns},
      {"cache.launch", response.launch_ns},
      {"tee.invoke", response.invoke_ns},
  };
  std::uint64_t attributed = 0;
  for (const auto& [name, dur] : children) {
    add(name, trace_id, parent_id, at, dur);
    at += dur;
    attributed += dur;
  }
  const std::uint64_t self = e2e_ns > attributed ? e2e_ns - attributed : 0;
  add("gateway.self", trace_id, parent_id, at, self);
  return self;
}

void write_chrome_trace(const Options& options, const std::vector<Span>& spans,
                        std::uint64_t trace_id) {
  std::filesystem::create_directories(options.out_dir);
  const std::string path = options.out_dir + "/" + options.workload + ".trace.json";
  std::ofstream out(path);
  if (!out) throw Error("cannot write " + path);
  std::uint64_t origin = ~0ull;
  for (const Span& s : spans)
    if (s.trace_id == trace_id) origin = std::min(origin, s.start_ns);
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const Span& s : spans) {
    if (s.trace_id != trace_id) continue;
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace_id\":\"%016llx\","
                  "\"span_id\":\"%016llx\",\"parent_id\":\"%016llx\"}}",
                  first ? "" : ",", s.name.c_str(), s.tid,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3,
                  static_cast<unsigned long long>(s.trace_id),
                  static_cast<unsigned long long>(s.span_id),
                  static_cast<unsigned long long>(s.parent_id));
    out << buf;
    first = false;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

std::uint64_t run_clients(std::size_t threads, double seconds,
                          const std::function<void(std::size_t, std::uint64_t)>& body) {
  std::mutex mu;
  std::exception_ptr first_error;
  std::vector<std::uint64_t> finished(threads, 0);
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        body(t, deadline);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
      }
      finished[t] = now_ns();
    });
  }
  for (std::thread& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
  return *std::max_element(finished.begin(), finished.end()) - start;
}

Counters Counters::take(Fleet& fleet) {
  Counters c;
  c.fabric_messages = fleet.fabric().messages();
  c.fabric_bytes = fleet.fabric().bytes_sent() + fleet.fabric().bytes_received();
  const gateway::GatewayStats stats = fleet.gateway().stats(/*detail=*/true);
  c.tee_entries = stats.stage_tee_entry.count;
  c.native_entries = stats.native_entries;
  c.fallback_calls = stats.jit_fallback_call;
  c.deduped_lanes = stats.deduped_lanes;
  c.invocations = stats.invocations;
  for (const gateway::DeviceStats& d : stats.devices) {
    c.cache_misses += d.cache_misses;
    c.cache_evictions += d.cache_evictions;
    for (const gateway::ModuleTierStats& m : d.modules) c.aot_calls += m.calls;
    for (const gateway::SlotStats& s : d.slots) c.slot_busy_ns.push_back(s.busy_ns);
  }
  return c;
}

}  // namespace perfbench
