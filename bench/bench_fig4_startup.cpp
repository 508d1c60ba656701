// Fig 4 — startup breakdown of Wasm applications in WaTZ, for AOT binaries
// of 1..9 MB (9 MB == the OP-TEE shared-memory cap). Paper: loading ~73%,
// initialisation ~16%, memory allocation ~5%, hashing ~4%, the rest <1%.
#include "bench/harness.hpp"
#include "wasm/builder.hpp"

namespace {

using namespace watz;

/// Builds a module of roughly `target_mb` megabytes by replicating unrolled
/// arithmetic functions (the paper unrolls loop iterations to reach 1 MB,
/// then replicates that output).
Bytes sized_module(int target_mb) {
  wasm::ModuleBuilder b;
  b.add_memory(1);
  // Aim slightly below the nominal size so the 9 MB binary fits the 9 MB
  // shared-memory cap exactly, as in the paper.
  const std::size_t target = static_cast<std::size_t>(target_mb) * 1024 * 1024 - 160 * 1024;

  // One unrolled function is ~64 KiB of code.
  const int kAddsPerFunc = 9000;
  std::uint32_t first = 0;
  std::size_t emitted = 0;
  int index = 0;
  while (emitted < target) {
    wasm::CodeEmitter e;
    e.i64_const(index + 1);
    for (int i = 0; i < kAddsPerFunc; ++i) {
      e.i64_const(0x0102030405060708LL + i).op(wasm::kI64Add);
    }
    const auto f = b.add_function({{}, {wasm::ValType::I64}});
    if (index == 0) first = f;
    b.set_body(f, e.bytes());
    emitted += kAddsPerFunc * 11;  // ~11 bytes per const+add pair
    ++index;
  }

  // Entry point: run the first unrolled function once ("the Wasm program
  // stops after the first Wasm instruction" -- we time until entry).
  const auto entry = b.add_function({{}, {wasm::ValType::I64}});
  wasm::CodeEmitter e;
  e.call(first);
  b.set_body(entry, e.bytes());
  b.export_function("entry", entry);
  return b.build();
}

}  // namespace

int main() {
  std::printf("=== Fig 4: startup breakdown vs application size ===\n");
  std::printf("%5s %9s | %10s %10s %8s %8s %10s %11s | %s\n", "size", "binMB",
              "transit%", "alloc%", "hash%", "init%", "loading%", "instantiate%",
              "total ms");

  net::Fabric fabric;
  const core::Vendor vendor = core::Vendor::create(to_bytes("fig4-vendor"));
  // Latency enabled: the transition slice is part of the breakdown.
  auto device = bench::boot_device(fabric, vendor, "board", 0x41);

  double loading_sum = 0;
  double hashing_sum = 0;
  int rows = 0;
  for (int mb = 1; mb <= 9; ++mb) {
    const Bytes binary = sized_module(mb);
    core::AppConfig config;
    config.heap_bytes = 1 << 20;
    auto app = device->runtime().launch(binary, config);
    if (!app.ok()) {
      std::printf("%4dMB: launch failed: %s\n", mb, app.error().c_str());
      continue;
    }
    // "Execution" slice: first instruction only.
    core::StartupBreakdown s = (*app)->startup();
    s.execution_ns = bench::time_ns([&] { (void)(*app)->instance().invoke("entry", {}); });
    const double total = static_cast<double>(s.total_ns());
    auto pct = [&](std::uint64_t ns) { return 100.0 * static_cast<double>(ns) / total; };
    std::printf("%4dMB %9.2f | %9.1f%% %9.1f%% %7.1f%% %7.1f%% %9.1f%% %10.1f%% | %8.1f\n",
                mb, static_cast<double>(binary.size()) / (1024.0 * 1024.0),
                pct(s.transition_ns), pct(s.memory_allocation_ns), pct(s.hashing_ns),
                pct(s.initialisation_ns), pct(s.loading_ns), pct(s.instantiate_ns),
                bench::ms(s.total_ns()));
    loading_sum += pct(s.loading_ns);
    hashing_sum += pct(s.hashing_ns);
    ++rows;
  }
  if (rows > 0) {
    std::printf("\nloading phase average: %.1f%% of startup (paper: ~73%%; "
                "allocation ~5%%)\n",
                loading_sum / rows);
    std::printf("hashing phase average: %.1f%% of startup (paper: ~4%%)\n",
                hashing_sum / rows);
  }

  // The 9 MB shared-memory cap: a 10 MB binary must be refused.
  const Bytes too_big = sized_module(10);
  auto refused = device->runtime().launch(too_big, core::AppConfig{});
  std::printf("10MB binary refused by the shared-memory cap: %s\n",
              refused.ok() ? "NO (unexpected)" : "yes");
  return 0;
}
