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
  if (index >= compiled_.size()) return;
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
  if (const TierSinks* sinks = sinks_.load(std::memory_order_acquire)) {
    if (sinks->compiles) sinks->compiles->add(1);
    if (sinks->compile_ns) sinks->compile_ns->record(elapsed_ns);
  }
  const void* entry = image->entry();
  images_.push_back(std::move(image));
  entries_[index].store(entry, std::memory_order_release);
  return true;
}

void TierSet::record_exit(const JitContext& ctx) noexcept {
  const std::uint64_t entries = 1 + ctx.native_calls;
  entries_total_.fetch_add(entries, std::memory_order_relaxed);
  if (ctx.fallback_ops != 0)
    fallback_total_.fetch_add(ctx.fallback_ops, std::memory_order_relaxed);
  if (ctx.fallback_call != 0)
    fallback_call_.fetch_add(ctx.fallback_call, std::memory_order_relaxed);
  const TierSinks* sinks = sinks_.load(std::memory_order_acquire);
  if (sinks == nullptr) return;
  if (sinks->native_entries) sinks->native_entries->add(entries);
  if (ctx.fallback_ops != 0 && sinks->fallback_ops)
    sinks->fallback_ops->add(ctx.fallback_ops);
  if (ctx.fallback_call != 0 && sinks->fallback_call)
    sinks->fallback_call->add(ctx.fallback_call);
}

}  // namespace watz::wasm::jit
