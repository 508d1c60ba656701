#include "crypto/gcm.hpp"

#include <cstring>

namespace watz::crypto {

namespace {

struct U128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

U128 load_be(const std::uint8_t b[16]) noexcept {
  U128 v;
  for (int i = 0; i < 8; ++i) v.hi = (v.hi << 8) | b[i];
  for (int i = 8; i < 16; ++i) v.lo = (v.lo << 8) | b[i];
  return v;
}

void store_be(const U128& v, std::uint8_t b[16]) noexcept {
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v.hi >> (56 - 8 * i));
  for (int i = 0; i < 8; ++i) b[8 + i] = static_cast<std::uint8_t>(v.lo >> (56 - 8 * i));
}

/// GF(2^128) multiplication per SP 800-38D (right-shift variant). Bits of
/// x and y select by mask, never by branch: both carry the key H or data.
U128 gf_mul(const U128& x, const U128& y) noexcept {
  U128 z{};
  U128 v = y;
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t bit =
        i < 64 ? (x.hi >> (63 - i)) & 1 : (x.lo >> (127 - i)) & 1;
    const std::uint64_t take = 0 - bit;
    z.hi ^= v.hi & take;
    z.lo ^= v.lo & take;
    const std::uint64_t lsb = 0 - (v.lo & 1);
    v.lo = (v.lo >> 1) | (v.hi << 63);
    v.hi = (v.hi >> 1) ^ (0xe100000000000000ULL & lsb);  // R = 11100001 || 0^120
  }
  return z;
}

class Ghash {
 public:
  explicit Ghash(const U128& h) noexcept : h_(h) {}

  void update(ByteView data) noexcept {
    std::size_t off = 0;
    while (off < data.size()) {
      std::uint8_t block[16] = {};
      const std::size_t take = std::min<std::size_t>(16, data.size() - off);
      std::memcpy(block, data.data() + off, take);
      const U128 x = load_be(block);
      y_.hi ^= x.hi;
      y_.lo ^= x.lo;
      y_ = gf_mul(y_, h_);
      off += take;
    }
  }

  void update_lengths(std::uint64_t aad_bits, std::uint64_t ct_bits) noexcept {
    std::uint8_t block[16];
    for (int i = 0; i < 8; ++i) block[i] = static_cast<std::uint8_t>(aad_bits >> (56 - 8 * i));
    for (int i = 0; i < 8; ++i) block[8 + i] = static_cast<std::uint8_t>(ct_bits >> (56 - 8 * i));
    update(ByteView(block, 16));
  }

  U128 digest() const noexcept { return y_; }

 private:
  U128 h_;
  U128 y_{};
};

void inc32(std::uint8_t counter[16]) noexcept {
  for (int i = 15; i >= 12; --i) {
    if (++counter[i] != 0) break;
  }
}

/// CTR-mode keystream application starting from counter block `j`.
void ctr_xor(const Aes& cipher, std::uint8_t counter[16], ByteView in, std::uint8_t* out) {
  std::size_t off = 0;
  while (off < in.size()) {
    inc32(counter);
    std::uint8_t keystream[16];
    cipher.encrypt_block(counter, keystream);
    const std::size_t take = std::min<std::size_t>(16, in.size() - off);
    for (std::size_t i = 0; i < take; ++i) out[off + i] = in[off + i] ^ keystream[i];
    off += take;
  }
}

struct GcmState {
  U128 h;
  std::uint8_t j0[16];
};

GcmState gcm_init(const Aes& cipher, const GcmIv& iv) {
  GcmState st;
  std::uint8_t zero[16] = {};
  std::uint8_t hblk[16];
  cipher.encrypt_block(zero, hblk);
  st.h = load_be(hblk);
  std::memcpy(st.j0, iv.data(), kGcmIvSize);
  st.j0[12] = st.j0[13] = st.j0[14] = 0;
  st.j0[15] = 1;
  return st;
}

void gcm_tag(const Aes& cipher, const GcmState& st, ByteView aad, ByteView ct,
             std::uint8_t tag[16]) {
  Ghash ghash(st.h);
  ghash.update(aad);
  ghash.update(ct);
  ghash.update_lengths(aad.size() * 8, ct.size() * 8);
  std::uint8_t s[16];
  store_be(ghash.digest(), s);
  std::uint8_t ek_j0[16];
  cipher.encrypt_block(st.j0, ek_j0);
  for (int i = 0; i < 16; ++i) tag[i] = s[i] ^ ek_j0[i];
}

}  // namespace

Bytes gcm_seal(const Aes& cipher, const GcmIv& iv, ByteView aad, ByteView plaintext) {
  const GcmState st = gcm_init(cipher, iv);

  Bytes out(plaintext.size() + kGcmTagSize);
  std::uint8_t counter[16];
  std::memcpy(counter, st.j0, 16);
  ctr_xor(cipher, counter, plaintext, out.data());

  gcm_tag(cipher, st, aad, ByteView(out.data(), plaintext.size()),
          out.data() + plaintext.size());
  return out;
}

Result<Bytes> gcm_open(const Aes& cipher, const GcmIv& iv, ByteView aad,
                       ByteView ciphertext_and_tag) {
  if (ciphertext_and_tag.size() < kGcmTagSize)
    return Result<Bytes>::err("gcm_open: input shorter than tag");
  const ByteView ct = ciphertext_and_tag.first(ciphertext_and_tag.size() - kGcmTagSize);
  const ByteView tag = ciphertext_and_tag.last(kGcmTagSize);

  const GcmState st = gcm_init(cipher, iv);
  std::uint8_t expected_tag[16];
  gcm_tag(cipher, st, aad, ct, expected_tag);
  if (!ct_equal(ByteView(expected_tag, 16), tag))
    return Result<Bytes>::err("gcm_open: authentication tag mismatch");

  Bytes out(ct.size());
  std::uint8_t counter[16];
  std::memcpy(counter, st.j0, 16);
  ctr_xor(cipher, counter, ct, out.data());
  return out;
}

}  // namespace watz::crypto
