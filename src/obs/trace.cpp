#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>

#include "hw/clock.hpp"

namespace watz::obs {

const char* stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::Admit: return "admit";
    case Stage::Queue: return "queue";
    case Stage::Checkout: return "checkout";
    case Stage::Prepare: return "prepare";
    case Stage::TeeEntry: return "tee-entry";
    case Stage::TeeExit: return "tee-exit";
    case Stage::Guest: return "guest";
    case Stage::Exec: return "exec";
    case Stage::Ra: return "ra";
    case Stage::RaAppraise: return "ra-appraise";
    case Stage::Respond: return "respond";
    case Stage::Migrate: return "migrate";
  }
  return "unknown";
}

std::uint64_t next_span_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t next_trace_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  // splitmix64 finaliser: spreads sequential counters across the id space
  // so ids stay visually distinct in merged traces. Never returns 0.
  std::uint64_t z = counter.fetch_add(1, std::memory_order_relaxed) +
                    0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

namespace {

std::atomic<std::uint64_t> g_sink_ids{0};

void pack(const SpanRecord& record, std::array<std::uint64_t, 6>& words) noexcept {
  words[0] = record.trace_id;
  words[1] = record.span_id;
  words[2] = record.parent_id;
  words[3] = record.start_ns;
  words[4] = record.dur_ns;
  words[5] = static_cast<std::uint64_t>(record.stage) |
             (static_cast<std::uint64_t>(record.detail) << 8);
}

SpanRecord unpack(const std::array<std::uint64_t, 6>& words) noexcept {
  SpanRecord record;
  record.trace_id = words[0];
  record.span_id = words[1];
  record.parent_id = words[2];
  record.start_ns = words[3];
  record.dur_ns = words[4];
  record.stage = static_cast<Stage>(words[5] & 0xff);
  record.detail = static_cast<std::uint32_t>(words[5] >> 8);
  return record;
}

}  // namespace

SpanSink::SpanSink(std::size_t capacity_per_thread)
    : capacity_(capacity_per_thread == 0 ? 1 : capacity_per_thread),
      sink_id_(g_sink_ids.fetch_add(1, std::memory_order_relaxed) + 1) {}

SpanSink::~SpanSink() = default;

SpanSink::Ring* SpanSink::ring_for_this_thread() noexcept {
  // Per-thread cache keyed by the sink's process-unique id. Entries for
  // destroyed sinks go stale but can never match a live sink (ids are
  // never reused), so dangling Ring pointers are never dereferenced.
  struct Entry {
    std::uint64_t sink_id;
    Ring* ring;
  };
  thread_local std::vector<Entry> cache;
  for (const Entry& entry : cache)
    if (entry.sink_id == sink_id_) return entry.ring;
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<Ring>(capacity_));
  Ring* ring = rings_.back().get();
  cache.push_back(Entry{sink_id_, ring});
  return ring;
}

void SpanSink::record(const SpanRecord& record) noexcept {
  Ring* ring = ring_for_this_thread();
  std::array<std::uint64_t, 6> words;
  pack(record, words);
  const std::uint64_t index = ring->cursor++;
  Cell& cell = ring->cells[index % capacity_];
  // Per-cell seqlock: odd marks in-progress so a concurrent drain skips
  // the cell instead of returning a torn record. Each word store is a
  // release, so a drain that reads any new word also sees the odd mark
  // when it re-checks seq (no standalone fence, which TSan cannot model).
  cell.seq.store(2 * index + 1, std::memory_order_relaxed);
  for (std::size_t w = 0; w < words.size(); ++w)
    cell.words[w].store(words[w], std::memory_order_release);
  cell.seq.store(2 * index + 2, std::memory_order_release);
  ring->head.store(index + 1, std::memory_order_release);
}

std::vector<SpanRecord> SpanSink::drain() {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Ring>& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    std::uint64_t lo = head > capacity_ ? head - capacity_ : 0;
    if (lo > ring->watermark)
      dropped_.fetch_add(lo - ring->watermark, std::memory_order_relaxed);
    else
      lo = ring->watermark;
    for (std::uint64_t index = lo; index < head; ++index) {
      Cell& cell = ring->cells[index % capacity_];
      const std::uint64_t want = 2 * index + 2;
      if (cell.seq.load(std::memory_order_acquire) != want) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::array<std::uint64_t, 6> words;
      // Acquire word loads pair with the writer's release word stores and
      // keep the re-check below after them.
      for (std::size_t w = 0; w < words.size(); ++w)
        words[w] = cell.words[w].load(std::memory_order_acquire);
      if (cell.seq.load(std::memory_order_relaxed) != want) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      out.push_back(unpack(words));
    }
    ring->watermark = head;
  }
  return out;
}

std::size_t SpanSink::ring_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rings_.size();
}

std::string SpanSink::to_chrome_trace(const std::vector<SpanRecord>& spans) {
  std::string json = "{\"traceEvents\":[";
  char buf[320];
  bool first = true;
  for (const SpanRecord& span : spans) {
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"cat\":\"watz\",\"ph\":\"X\","
        "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%" PRIu64 ","
        "\"args\":{\"trace_id\":\"%" PRIx64 "\",\"span_id\":\"%" PRIx64
        "\",\"parent_id\":\"%" PRIx64 "\",\"detail\":%u}}",
        first ? "" : ",", stage_name(span.stage),
        static_cast<double>(span.start_ns) / 1000.0,
        static_cast<double>(span.dur_ns) / 1000.0,
        // One Chrome "thread" per lane root keeps a batch's lanes on
        // separate rows of the flame graph.
        span.parent_id != 0 ? span.parent_id : span.span_id, span.trace_id,
        span.span_id, span.parent_id, span.detail);
    json += buf;
    first = false;
  }
  json += "]}";
  return json;
}

ThreadTrace& thread_trace() noexcept {
  thread_local ThreadTrace trace;
  return trace;
}

void emit_span(Stage stage, std::uint64_t start_ns, std::uint64_t end_ns,
               std::uint32_t detail) noexcept {
  const ThreadTrace& trace = thread_trace();
  if (trace.sink == nullptr) return;
  SpanRecord record;
  record.trace_id = trace.trace_id;
  record.span_id = next_span_id();
  record.parent_id = trace.parent_span;
  record.start_ns = start_ns;
  record.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  record.stage = stage;
  record.detail = detail;
  trace.sink->record(record);
}

ScopedSpan::ScopedSpan(Stage stage, std::uint32_t detail) noexcept
    : stage_(stage), detail_(detail), active_(tracing_active()) {
  if (active_) start_ns_ = hw::monotonic_ns();
}

ScopedSpan::~ScopedSpan() {
  if (active_) emit_span(stage_, start_ns_, hw::monotonic_ns(), detail_);
}

}  // namespace watz::obs
