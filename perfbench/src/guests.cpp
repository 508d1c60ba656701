#include "guests.hpp"

#include <bit>
#include <cstring>

#include "ann/dataset.hpp"
#include "ann/guest.hpp"
#include "polybench/suite.hpp"
#include "wasm/builder.hpp"
#include "wcc/compiler.hpp"

namespace perfbench {

Bytes adder_module() {
  wasm::ModuleBuilder b;
  b.add_memory(1);
  const auto f = b.add_function({{wasm::ValType::I32, wasm::ValType::I32}, {wasm::ValType::I32}});
  wasm::CodeEmitter e;
  e.local_get(0).local_get(1).op(wasm::kI32Add);
  b.set_body(f, e.bytes());
  b.export_function("add", f);
  return b.build();
}

namespace {
// Written where the nonce goes; the built binary is searched for it, and
// it must occur exactly once.
constexpr std::uint64_t kNonceMarker = 0xC0FFEE5EEDFACADEull;
}  // namespace

OnboardModule::OnboardModule(Rng& rng, std::size_t target_bytes) {
  wasm::ModuleBuilder b;
  b.add_memory(1);
  constexpr int kAddsPerFunc = 6000;
  std::vector<std::uint32_t> funcs;
  std::size_t emitted = 0;
  while (emitted < target_bytes) {
    wasm::CodeEmitter e;
    const std::int64_t first = static_cast<std::int64_t>(rng.next() >> 1);
    e.i64_const(first);
    sum_ += static_cast<std::uint64_t>(first);
    for (int i = 0; i < kAddsPerFunc; ++i) {
      const std::int64_t v = static_cast<std::int64_t>(rng.next() >> 1);
      e.i64_const(v).op(wasm::kI64Add);
      sum_ += static_cast<std::uint64_t>(v);
    }
    emitted += e.bytes().size();
    const auto f = b.add_function({{}, {wasm::ValType::I64}});
    b.set_body(f, e.bytes());
    funcs.push_back(f);
  }
  const auto entry = b.add_function({{}, {wasm::ValType::I64}});
  wasm::CodeEmitter e;
  e.i32_const(0).load(wasm::kI64Load, 0, 3);
  for (std::uint32_t f : funcs) e.call(f).op(wasm::kI64Add);
  b.set_body(entry, e.bytes());
  b.export_function("entry", entry);
  Bytes marker(8);
  std::memcpy(marker.data(), &kNonceMarker, 8);
  b.add_data(0, marker);
  binary_ = b.build();

  std::size_t hits = 0;
  for (std::size_t i = 0; i + 8 <= binary_.size(); ++i)
    if (std::memcmp(binary_.data() + i, marker.data(), 8) == 0) {
      nonce_offset_ = i;
      ++hits;
    }
  if (hits != 1) throw Error("onboarding module: nonce marker not unique");
}

Bytes OnboardModule::with_nonce(std::uint64_t nonce) const {
  Bytes out = binary_;
  std::memcpy(out.data() + nonce_offset_, &nonce, 8);
  return out;
}

namespace {

// Kernel sizes: the native run of each must take milliseconds, not
// microseconds, so the fixed per-invoke cost of the gateway path (world
// switches, pool checkout, sandbox reset) stays a minor share of the
// ratio and the metric follows guest execution speed. Sized so one round
// of the three kernels is a few tens of milliseconds under the native tier.
constexpr int kGemN = 120;       // 3 x 120^2 f64 = 338 KiB of the 1 MiB memory
constexpr int kFloN = 150;       // 150^2 i32 = 88 KiB
constexpr int kGenannRecords = 150;
constexpr int kGenannIters = 30;
constexpr std::uint32_t kKernelPages = 16;
constexpr double kGemNominalMs = 0.83;
constexpr double kFloNominalMs = 2.0;
constexpr double kGenannNominalMs = 1.0;

std::uint64_t f64_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

Kernel polybench_kernel(const char* name, int n, double nominal_ms) {
  const polybench::KernelDef* def = polybench::find_kernel(name);
  if (def == nullptr) throw Error(std::string("polybench kernel missing: ") + name);
  wcc::CompileOptions options;
  options.memory_pages = kKernelPages;
  auto binary = wcc::compile(def->source, options);
  if (!binary.ok()) throw Error(std::string(name) + ": " + binary.error());
  Kernel k;
  k.name = name;
  k.binary = std::move(*binary);
  k.entry = "run";
  k.args = {wasm::Value::from_i32(n)};
  k.warm_args = {wasm::Value::from_i32(2)};
  k.nominal_native_ms = nominal_ms;
  k.native = [def, n] {
    polybench::arena_reset();
    return f64_bits(def->native(n));
  };
  k.guest_result = [](const std::vector<wasm::Value>& r) {
    return r.size() == 1 ? f64_bits(r[0].f64()) : ~0ull;
  };
  return k;
}

// The guest's train_at (ann::training_source) compiled natively: the same
// operations in the same order, so the correct-count matches exactly.
// ann::Genann is not used as the yardstick because its weight LCG shifts
// logically where the guest's shifts arithmetically: its weights differ,
// and so can its correct-count.
double expd(double x) {
  if (x < -30.0) return 0.0;
  if (x > 30.0) return 10686474581524.463;
  int k = static_cast<int>(x);
  if (x < 0.0) {
    if (static_cast<double>(k) != x) k = k - 1;
  }
  const double f = x - k;
  double term = 1.0;
  double sum = 1.0;
  for (int i = 1; i <= 12; i++) {
    term = term * f / i;
    sum += term;
  }
  double scale = 1.0;
  int reps = k;
  if (reps < 0) reps = -reps;
  for (int i = 0; i < reps; i++) scale *= 2.718281828459045;
  if (k < 0) return sum / scale;
  return sum * scale;
}

double sigmoid(double x) { return 1.0 / (1.0 + expd(0.0 - x)); }

int native_train(const std::vector<ann::IrisRecord>& records, int iters) {
  std::int64_t lcg_state = 24301;
  auto lcg_uniform = [&lcg_state] {
    lcg_state = static_cast<std::int64_t>(static_cast<std::uint64_t>(lcg_state) *
                                              6364136223846793005ull +
                                          1442695040888963407ull);
    const std::int64_t shifted = lcg_state >> 11;
    std::int64_t mod = shifted % 1000000;
    if (mod < 0) mod += 1000000;
    return static_cast<double>(static_cast<int>(mod)) / 1000000.0 - 0.5;
  };
  double w[35], hid[4], out[3], dout[3], dhid[4], want[3];
  for (double& v : w) v = lcg_uniform();
  const double rate = 0.3;
  const int count = static_cast<int>(records.size());
  for (int it = 0; it < iters; it++) {
    for (int r = 0; r < count; r++) {
      const double* feat = records[r].features;
      const int lab = records[r].label;
      for (int o = 0; o < 3; o++) want[o] = 0.0;
      want[lab] = 1.0;
      for (int h = 0; h < 4; h++) {
        double sum = w[h * 5];
        for (int i = 0; i < 4; i++) sum += w[h * 5 + 1 + i] * feat[i];
        hid[h] = sigmoid(sum);
      }
      for (int o = 0; o < 3; o++) {
        double sum = w[20 + o * 5];
        for (int h = 0; h < 4; h++) sum += w[20 + o * 5 + 1 + h] * hid[h];
        out[o] = sigmoid(sum);
      }
      for (int o = 0; o < 3; o++) dout[o] = (want[o] - out[o]) * out[o] * (1.0 - out[o]);
      for (int h = 0; h < 4; h++) {
        double sum = 0.0;
        for (int o = 0; o < 3; o++) sum += dout[o] * w[20 + o * 5 + 1 + h];
        dhid[h] = hid[h] * (1.0 - hid[h]) * sum;
      }
      for (int h = 0; h < 4; h++) {
        w[h * 5] += rate * dhid[h];
        for (int i = 0; i < 4; i++) w[h * 5 + 1 + i] += rate * dhid[h] * feat[i];
      }
      for (int o = 0; o < 3; o++) {
        w[20 + o * 5] += rate * dout[o];
        for (int h = 0; h < 4; h++) w[20 + o * 5 + 1 + h] += rate * dout[o] * hid[h];
      }
    }
  }
  int correct = 0;
  for (int r = 0; r < count; r++) {
    const double* feat = records[r].features;
    const int lab = records[r].label;
    for (int h = 0; h < 4; h++) {
      double sum = w[h * 5];
      for (int i = 0; i < 4; i++) sum += w[h * 5 + 1 + i] * feat[i];
      hid[h] = sigmoid(sum);
    }
    int best = 0;
    double best_v = -1.0;
    for (int o = 0; o < 3; o++) {
      double sum = w[20 + o * 5];
      for (int h = 0; h < 4; h++) sum += w[20 + o * 5 + 1 + h] * hid[h];
      const double v = sigmoid(sum);
      if (v > best_v) {
        best_v = v;
        best = o;
      }
    }
    if (best == lab) correct++;
  }
  return correct;
}

Kernel genann_kernel(Rng& rng) {
  auto records = std::make_shared<std::vector<ann::IrisRecord>>(
      ann::make_iris_like(kGenannRecords, rng.next()));
  wcc::CompileOptions options;
  options.memory_pages = kKernelPages;
  options.heap_base = 64 * 1024;  // above the baked-in dataset
  options.data.push_back({ann::GuestLayout::kDatasetPtr, ann::encode_dataset(*records)});
  auto binary = wcc::compile(ann::training_source(), options);
  if (!binary.ok()) throw Error("genann: " + binary.error());
  Kernel k;
  k.name = "genann";
  k.binary = std::move(*binary);
  k.entry = "train_at";
  const auto data = wasm::Value::from_i32(ann::GuestLayout::kDatasetPtr);
  k.args = {data, wasm::Value::from_i32(kGenannIters)};
  k.warm_args = {data, wasm::Value::from_i32(0)};
  k.nominal_native_ms = kGenannNominalMs;
  k.native = [records] {
    return static_cast<std::uint64_t>(native_train(*records, kGenannIters));
  };
  k.guest_result = [](const std::vector<wasm::Value>& r) {
    return r.size() == 1 ? static_cast<std::uint64_t>(r[0].i32()) : ~0ull;
  };
  return k;
}

}  // namespace

std::vector<Kernel> make_kernels(Rng& rng) {
  // The PolyBench sizes stay fixed: the seed only draws genann's dataset.
  // Drawing them moved the kernels' geomean ratio to native from 8.2 to
  // 6.1 for a size step of two (row strides meet the caches differently in
  // the guest and in the native build).
  std::vector<Kernel> kernels;
  kernels.push_back(polybench_kernel("gem", kGemN, kGemNominalMs));
  kernels.push_back(polybench_kernel("flo", kFloN, kFloNominalMs));
  kernels.push_back(genann_kernel(rng));
  return kernels;
}

namespace {

constexpr std::size_t kRefBufferBytes = 256 * 1024;
constexpr int kRefLimbRounds = 6000;
constexpr int kRefArxPasses = 4;
constexpr int kRefScanPasses = 6;

const std::vector<std::uint8_t>& ref_buffer() {
  static const std::vector<std::uint8_t> buffer = [] {
    std::vector<std::uint8_t> b;
    b.reserve(kRefBufferBytes + 16);
    Rng rng(0x5EEDull);
    while (b.size() < kRefBufferBytes) {
      std::uint64_t v = rng.next() >> rng.below(60);
      do {
        std::uint8_t byte = v & 0x7f;
        v >>= 7;
        if (v != 0) byte |= 0x80;
        b.push_back(byte);
      } while (v != 0);
    }
    b.resize(kRefBufferBytes);
    b.back() = 0;  // the scan ends on a terminated varint
    return b;
  }();
  return buffer;
}

std::uint64_t rotr(std::uint64_t x, int r) { return (x >> r) | (x << (64 - r)); }

}  // namespace

std::uint64_t reference_work() {
  const std::vector<std::uint8_t>& buf = ref_buffer();
  // 1. 4x4-limb schoolbook multiplies, folded back to four limbs.
  std::uint64_t a[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                        0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  const std::uint64_t m[4] = {0x452821E638D01377ull, 0xBE5466CF34E90C6Cull,
                              0xC0AC29B7C97C50DDull, 0x3F84D5B5B5470917ull};
  for (int round = 0; round < kRefLimbRounds; ++round) {
    unsigned __int128 acc[8] = {};
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j) {
        const unsigned __int128 p = static_cast<unsigned __int128>(a[i]) * m[j];
        acc[i + j] += static_cast<std::uint64_t>(p);
        acc[i + j + 1] += static_cast<std::uint64_t>(p >> 64);
      }
    for (int i = 0; i < 4; ++i)
      a[i] = static_cast<std::uint64_t>(acc[i]) ^ static_cast<std::uint64_t>(acc[i + 4]) ^
             static_cast<std::uint64_t>(acc[i] >> 64);
  }
  // 2. ARX compression over the buffer, eight bytes at a time.
  std::uint64_t h[4] = {a[0], a[1], a[2], a[3]};
  for (int pass = 0; pass < kRefArxPasses; ++pass)
    for (std::size_t i = 0; i + 8 <= buf.size(); i += 8) {
      std::uint64_t word;
      std::memcpy(&word, buf.data() + i, 8);
      h[0] += word ^ rotr(h[3], 17);
      h[1] ^= rotr(h[0], 31) + h[2];
      h[2] += rotr(h[1], 7) ^ h[3];
      h[3] ^= rotr(h[2], 41) + word;
    }
  // 3. LEB128 scan.
  std::uint64_t sum = h[0] ^ h[1] ^ h[2] ^ h[3];
  for (int pass = 0; pass < kRefScanPasses; ++pass) {
    std::uint64_t v = 0;
    int shift = 0;
    for (std::uint8_t byte : buf) {
      if (shift < 64) v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      shift += 7;
      if ((byte & 0x80) == 0) {
        sum = sum * 31 + v;
        v = 0;
        shift = 0;
      }
    }
  }
  return sum;
}

std::uint64_t reference_checksum() {
  static const std::uint64_t checksum = reference_work();
  return checksum;
}

double time_reference(Report& report, int reps) {
  const std::uint64_t checksum = reference_checksum();
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t sum = reference_work();
    samples.push_back(static_cast<double>(now_ns() - t0));
    report.check(sum == checksum, "native reference checksum changed");
  }
  return median(samples);
}

}  // namespace perfbench
