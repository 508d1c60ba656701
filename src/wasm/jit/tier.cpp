#include "wasm/jit/tier.hpp"

#include "hw/clock.hpp"

namespace watz::wasm::jit {

TierSet::TierSet(const Module* module, std::span<const CompiledFunc> compiled,
                 TierConfig config)
    : module_(module),
      compiled_(compiled),
      config_(std::move(config)),
      funcs_(std::make_unique<TierFunc[]>(compiled.size())),
      entries_(std::make_unique<std::atomic<const void*>[]>(compiled.size())),
      func_count_(static_cast<std::uint32_t>(compiled.size())) {}

TierSet::~TierSet() {
  const std::size_t bytes = code_bytes_.load(std::memory_order_relaxed);
  if (bytes != 0 && config_.release_code) config_.release_code(bytes);
}

void TierSet::note_call(std::uint32_t index) noexcept {
  if (!config_.enabled || index >= compiled_.size()) return;
  TierFunc& f = funcs_[index];
  if (f.requested.load(std::memory_order_relaxed)) return;
  if (f.calls.fetch_add(1, std::memory_order_relaxed) + 1 < config_.hot_threshold)
    return;
  if (f.requested.exchange(true, std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(pending_mu_);
  pending_.push_back(index);
}

std::size_t TierSet::compile_pending() {
  std::lock_guard<std::mutex> compile_lock(compile_mu_);
  std::vector<std::uint32_t> batch;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    batch.swap(pending_);
  }
  std::size_t done = 0;
  for (std::uint32_t index : batch) {
    if (compile_one(index)) ++done;
  }
  return done;
}

std::size_t TierSet::compile_all() {
  if (!config_.enabled) return 0;
  std::lock_guard<std::mutex> lock(compile_mu_);
  std::size_t done = 0;
  for (std::uint32_t index = 0; index < compiled_.size(); ++index) {
    funcs_[index].requested.store(true, std::memory_order_relaxed);
    if (compile_one(index)) ++done;
  }
  return done;
}

bool TierSet::compile_one(std::uint32_t index) {
  TierFunc& f = funcs_[index];
  if (entries_[index].load(std::memory_order_relaxed) != nullptr ||
      f.failed.load(std::memory_order_relaxed)) {
    return false;
  }
  const std::uint64_t start_ns = hw::monotonic_ns();
  std::uint16_t refused_op = 0xffff;
  std::vector<std::uint8_t> code =
      compile_function(*module_, index, compiled_[index], &refused_op);
  if (code.empty()) {  // shape the baseline refuses: stays on the AOT stream
    f.failed.store(true, std::memory_order_relaxed);
    refused_functions_.fetch_add(1, std::memory_order_relaxed);
    last_refused_op_.store(refused_op, std::memory_order_relaxed);
    return false;
  }
  auto image = ExecutableImage::create(code.data(), code.size());
  if (!image) {  // W^X mapping failed: wholesale AOT fallback for this func
    f.failed.store(true, std::memory_order_relaxed);
    return false;
  }
  if (config_.charge_code && !config_.charge_code(image->bytes())) {
    f.failed.store(true, std::memory_order_relaxed);
    return false;
  }
  code_bytes_.fetch_add(image->bytes(), std::memory_order_relaxed);
  const std::uint64_t elapsed_ns = hw::monotonic_ns() - start_ns;
  compiles_total_.fetch_add(1, std::memory_order_relaxed);
  if (auto* c = sink_compiles_.load(std::memory_order_relaxed)) c->add(1);
  if (auto* h = sink_compile_ns_.load(std::memory_order_relaxed))
    h->record(elapsed_ns);
  const void* entry = image->entry();
  images_.push_back(std::move(image));
  entries_[index].store(entry, std::memory_order_release);
  return true;
}

void TierSet::bind_metrics(obs::Counter* compiles, obs::Counter* native_entries,
                           obs::Counter* fallback_ops,
                           obs::Histogram* compile_ns,
                           ClassSinks classes) noexcept {
  sink_compiles_.store(compiles, std::memory_order_relaxed);
  sink_entries_.store(native_entries, std::memory_order_relaxed);
  sink_fallback_.store(fallback_ops, std::memory_order_relaxed);
  sink_fallback_float_.store(classes.float_ops, std::memory_order_relaxed);
  sink_fallback_conv_.store(classes.conv_ops, std::memory_order_relaxed);
  sink_fallback_call_.store(classes.call_ops, std::memory_order_relaxed);
  sink_fallback_other_.store(classes.other_ops, std::memory_order_relaxed);
  sink_compile_ns_.store(compile_ns, std::memory_order_relaxed);
}

void TierSet::count_native_entries(std::uint64_t n) noexcept {
  entries_total_.fetch_add(n, std::memory_order_relaxed);
  if (auto* c = sink_entries_.load(std::memory_order_relaxed)) c->add(n);
}

void TierSet::add_fallback_ops(std::uint64_t n) noexcept {
  if (n == 0) return;
  fallback_total_.fetch_add(n, std::memory_order_relaxed);
  if (auto* c = sink_fallback_.load(std::memory_order_relaxed)) c->add(n);
}

void TierSet::add_fallback_classes(std::uint64_t float_ops,
                                   std::uint64_t conv_ops,
                                   std::uint64_t call_ops,
                                   std::uint64_t other_ops) noexcept {
  if (float_ops != 0) {
    fallback_float_.fetch_add(float_ops, std::memory_order_relaxed);
    if (auto* c = sink_fallback_float_.load(std::memory_order_relaxed))
      c->add(float_ops);
  }
  if (conv_ops != 0) {
    fallback_conv_.fetch_add(conv_ops, std::memory_order_relaxed);
    if (auto* c = sink_fallback_conv_.load(std::memory_order_relaxed))
      c->add(conv_ops);
  }
  if (call_ops != 0) {
    fallback_call_.fetch_add(call_ops, std::memory_order_relaxed);
    if (auto* c = sink_fallback_call_.load(std::memory_order_relaxed))
      c->add(call_ops);
  }
  if (other_ops != 0) {
    fallback_other_.fetch_add(other_ops, std::memory_order_relaxed);
    if (auto* c = sink_fallback_other_.load(std::memory_order_relaxed))
      c->add(other_ops);
  }
}

}  // namespace watz::wasm::jit
