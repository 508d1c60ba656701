#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "crypto/sha256_compress.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace watz::crypto {

namespace sha256_detail {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
}

#if defined(__x86_64__)

// SHA-NI after Intel's SHA Extensions white paper: the state lives in two
// registers as (A,B,E,F) and (C,D,G,H); sha256rnds2 runs two rounds,
// sha256msg1/msg2 extend the message schedule four words at a time.
#define WATZ_SHA_NI_TARGET __attribute__((target("sha,ssse3,sse4.1")))

/// Four rounds over schedule words w = W[4g..4g+3].
WATZ_SHA_NI_TARGET inline void rounds4(__m128i& abef, __m128i& cdgh, __m128i w,
                                       int g) noexcept {
  const __m128i wk =
      _mm_add_epi32(w, _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// W[4g..4g+3] from the four groups before it, oldest first.
WATZ_SHA_NI_TARGET inline __m128i schedule(__m128i w0, __m128i w1, __m128i w2,
                                           __m128i w3) noexcept {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

/// Message words W[4i..4i+3] of the block at `block`, byte-swapped: the
/// message is big-endian.
WATZ_SHA_NI_TARGET inline __m128i load_words(const std::uint8_t* block, int i) noexcept {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
                          bswap);
}

WATZ_SHA_NI_TARGET void compress_sha_ni(State& state, const std::uint8_t* data,
                                        std::size_t nblocks) noexcept {
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load_words(data, 0), w1 = load_words(data, 1);
    __m128i w2 = load_words(data, 2), w3 = load_words(data, 3);
    rounds4(abef, cdgh, w0, 0);
    rounds4(abef, cdgh, w1, 1);
    rounds4(abef, cdgh, w2, 2);
    rounds4(abef, cdgh, w3, 3);
    for (int g = 4; g < 16; g += 4) {
      w0 = schedule(w0, w1, w2, w3);
      rounds4(abef, cdgh, w0, g);
      w1 = schedule(w1, w2, w3, w0);
      rounds4(abef, cdgh, w1, g + 1);
      w2 = schedule(w2, w3, w0, w1);
      rounds4(abef, cdgh, w2, g + 2);
      w3 = schedule(w3, w0, w1, w2);
      rounds4(abef, cdgh, w3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), _mm_alignr_epi8(dchg, feba, 8));
}

#undef WATZ_SHA_NI_TARGET

bool cpu_has_sha_ni() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ssse3 && sse41 && (ebx & bit_SHA) != 0;
}

#endif  // __x86_64__

}  // namespace

void compress_portable(State& state, const std::uint8_t* data, std::size_t nblocks) noexcept {
  for (; nblocks > 0; --nblocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{data[4 * i]} << 24) | (std::uint32_t{data[4 * i + 1]} << 16) |
             (std::uint32_t{data[4 * i + 2]} << 8) | std::uint32_t{data[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn sha_ni_compress() noexcept {
#if defined(__x86_64__)
  if (cpu_has_sha_ni()) return &compress_sha_ni;
#endif
  return nullptr;
}

namespace {

/// The compression Sha256 uses: SHA-NI when sha_ni_compress() has it, the
/// portable rounds otherwise. Chosen once per process, thread-safely.
void compress(State& state, const std::uint8_t* data, std::size_t nblocks) noexcept {
  static const CompressFn chosen = [] {
    const CompressFn sha_ni = sha_ni_compress();
    return sha_ni != nullptr ? sha_ni : &compress_portable;
  }();
  chosen(state, data, nblocks);
}

}  // namespace
}  // namespace sha256_detail

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(ByteView data) noexcept {
  if (data.empty()) return;
  total_bytes_ += data.size();
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(left, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, in, take);
    buffered_ += take;
    in += take;
    left -= take;
    if (buffered_ < buffer_.size()) return;
    sha256_detail::compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  // Every whole block in one call; only the tail is copied.
  if (const std::size_t nblocks = left / 64; nblocks > 0) {
    sha256_detail::compress(state_, in, nblocks);
    in += 64 * nblocks;
    left -= 64 * nblocks;
  }
  if (left > 0) std::memcpy(buffer_.data(), in, left);
  buffered_ = left;
}

Sha256Digest Sha256::finish() noexcept {
  // Padding: 0x80, zeros up to 56 mod 64, then the bit length big-endian.
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    sha256_detail::compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  sha256_detail::compress(state_, buffer_.data(), 1);
  buffered_ = 0;

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest sha256(ByteView data) noexcept {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

}  // namespace watz::crypto
