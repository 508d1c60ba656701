// Ablation — AOT (pre-translated register IR) vs in-place interpretation.
// The paper reports AOT ~28x faster than interpretation (SS III), which
// motivated extending the OP-TEE kernel with executable-page support.
// Each kernel runs under both modes (median of 3 invokes each); the
// summary is the AOT/interpreter ratio per kernel and on average.
#include "bench/harness.hpp"
#include "polybench/suite.hpp"
#include "wcc/compiler.hpp"

namespace {

using namespace watz;

std::unique_ptr<wasm::Instance> kernel_instance(const char* name, wasm::ExecMode mode) {
  const polybench::KernelDef* kernel = polybench::find_kernel(name);
  kernel != nullptr ? void() : throw Error("no such kernel");
  static const wasm::ImportResolver kNoImports;
  wcc::CompileOptions options;
  options.memory_pages = 512;
  auto binary = wcc::compile(kernel->source, options);
  return bench::instantiate_ree(*binary, kNoImports, mode);
}

}  // namespace

int main() {
  using namespace watz;
  std::printf("%6s | %12s %12s\n", "kernel", "aot_us", "interp_us");
  double ratio_sum = 0;
  int count = 0;
  struct Probe {
    const char* name;
    int n;
  };
  for (const Probe probe : {Probe{"gem", 24}, Probe{"j1d", 400}, Probe{"flo", 24}}) {
    auto aot = kernel_instance(probe.name, wasm::ExecMode::Aot);
    auto interp = kernel_instance(probe.name, wasm::ExecMode::Interp);
    const std::vector<wasm::Value> arg = {wasm::Value::from_i32(probe.n)};
    const std::uint64_t t_aot =
        bench::median_ns(3, [&] { (void)aot->invoke("run", arg); });
    const std::uint64_t t_interp =
        bench::median_ns(3, [&] { (void)interp->invoke("run", arg); });
    std::printf("%6s | %12.1f %12.1f\n", probe.name, bench::us(t_aot), bench::us(t_interp));
    const double ratio = static_cast<double>(t_interp) / static_cast<double>(t_aot);
    std::printf("AOT speedup over interpreter, %s: %.1fx\n", probe.name, ratio);
    ratio_sum += ratio;
    ++count;
  }
  std::printf("average AOT speedup: %.1fx (paper: ~28x with WAMR/LLVM)\n",
              ratio_sum / count);
  return 0;
}
