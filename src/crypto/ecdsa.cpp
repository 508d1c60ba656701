#include "crypto/ecdsa.hpp"

#include <cstring>

#include "crypto/hmac.hpp"

namespace watz::crypto {

namespace {

constexpr std::uint8_t kZeroByte[1] = {0x00};
constexpr std::uint8_t kOneByte[1] = {0x01};

/// Sha256Digest and Scalar32 are the same 32-byte array type.
Scalar32 digest_mod_n(const Sha256Digest& digest) { return scalar_mod_n(digest); }

/// RFC 6979 nonce derivation for P-256 / SHA-256: an HMAC_DRBG seeded with
/// the private key `x` and the message digest reduced mod n (section 3.2,
/// steps b-g). qlen == hlen == 256 bits, so bits2int is the identity and
/// bits2octets is reduction mod n.
class NonceGenerator {
 public:
  NonceGenerator(const Scalar32& x, const Scalar32& h_mod_n) {
    v_.fill(0x01);
    k_.fill(0x00);
    k_ = hmac_sha256(k_, concat({v_, kZeroByte, x, h_mod_n}));
    v_ = hmac_sha256(k_, v_);
    k_ = hmac_sha256(k_, concat({v_, kOneByte, x, h_mod_n}));
    v_ = hmac_sha256(k_, v_);
  }

  /// The next candidate in 1..n-1 (step h). Every call after the first
  /// starts with step h.3's update, so a nonce whose signature was rejected
  /// (r = 0 or s = 0) is never returned twice.
  Scalar32 next() {
    for (;;) {
      if (started_) {
        k_ = hmac_sha256(k_, concat({v_, kZeroByte}));
        v_ = hmac_sha256(k_, v_);
      }
      started_ = true;
      v_ = hmac_sha256(k_, v_);
      if (p256_scalar_valid(v_)) return v_;
    }
  }

 private:
  Sha256Digest k_{};
  Sha256Digest v_{};
  bool started_ = false;
};

}  // namespace

Bytes EcdsaSignature::encode() const { return concat({r, s}); }

Result<EcdsaSignature> EcdsaSignature::decode(ByteView data) {
  if (data.size() != 64)
    return Result<EcdsaSignature>::err("EcdsaSignature: expected 64 bytes");
  EcdsaSignature sig;
  std::memcpy(sig.r.data(), data.data(), 32);
  std::memcpy(sig.s.data(), data.data() + 32, 32);
  return sig;
}

KeyPair ecdsa_keygen(Rng& rng) {
  for (;;) {
    Scalar32 priv;
    rng.fill(priv);
    if (!p256_scalar_valid(priv)) continue;
    return KeyPair{priv, p256_base_mul(priv)};
  }
}

Result<KeyPair> keypair_from_private(const Scalar32& priv) {
  if (!p256_scalar_valid(priv))
    return Result<KeyPair>::err("keypair_from_private: scalar out of range");
  return KeyPair{priv, p256_base_mul(priv)};
}

EcdsaSignature ecdsa_sign(const Scalar32& priv, const Sha256Digest& digest) {
  const Scalar32 e = digest_mod_n(digest);
  NonceGenerator nonces(priv, e);
  for (;;) {
    const Scalar32 k = nonces.next();
    const EcPoint kg = p256_base_mul(k);
    const Scalar32 r = scalar_mod_n(kg.x);
    // r = 0 or s = 0 has probability ~2^-256; next() then moves on.
    if (scalar_is_zero(r)) continue;
    const Scalar32 kinv = scalar_inv_mod_n(k);
    const Scalar32 rd = scalar_mul_mod_n(r, priv);
    const Scalar32 s = scalar_mul_mod_n(kinv, scalar_add_mod_n(e, rd));
    if (scalar_is_zero(s)) continue;
    return EcdsaSignature{r, s};
  }
}

bool ecdsa_verify(const EcPoint& pub, const Sha256Digest& digest,
                  const EcdsaSignature& sig) {
  if (pub.infinity || !p256_on_curve(pub)) return false;
  if (!p256_scalar_valid(sig.r) || !p256_scalar_valid(sig.s)) return false;
  const Scalar32 e = digest_mod_n(digest);
  const Scalar32 sinv = scalar_inv_mod_n(sig.s);
  const Scalar32 u1 = scalar_mul_mod_n(e, sinv);
  const Scalar32 u2 = scalar_mul_mod_n(sig.r, sinv);
  const EcPoint point = p256_base_mul_add(u1, pub, u2);
  if (point.infinity) return false;
  const Scalar32 v = scalar_mod_n(point.x);
  return ct_equal(v, sig.r);
}

Result<Scalar32> ecdh_shared_x(const Scalar32& priv, const EcPoint& peer_pub) {
  if (peer_pub.infinity || !p256_on_curve(peer_pub))
    return Result<Scalar32>::err("ecdh: invalid peer public key");
  if (!p256_scalar_valid(priv)) return Result<Scalar32>::err("ecdh: invalid private key");
  const EcPoint shared = p256_mul(peer_pub, priv);
  if (shared.infinity) return Result<Scalar32>::err("ecdh: degenerate shared point");
  return shared.x;
}

}  // namespace watz::crypto
