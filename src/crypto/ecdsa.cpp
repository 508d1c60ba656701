#include "crypto/ecdsa.hpp"

#include <cstring>

#include "crypto/hmac.hpp"

namespace watz::crypto {

namespace {

/// RFC 6979 nonce derivation for P-256 / SHA-256. `x` is the private key,
/// `h1` the message digest. qlen == hlen == 256 bits, so bits2int is the
/// identity and bits2octets is reduction mod n.
Scalar32 rfc6979_nonce(const Scalar32& x, const Sha256Digest& h1) {
  const Scalar32 h_mod_n = scalar_mod_n([&] {
    Scalar32 tmp;
    std::copy(h1.begin(), h1.end(), tmp.begin());
    return tmp;
  }());

  std::array<std::uint8_t, 32> v;
  v.fill(0x01);
  std::array<std::uint8_t, 32> k;
  k.fill(0x00);

  const Bytes seed0 = concat({v, ByteView((const std::uint8_t*)"\x00", 1), x, h_mod_n});
  k = hmac_sha256(k, seed0);
  v = hmac_sha256(k, v);
  const Bytes seed1 = concat({v, ByteView((const std::uint8_t*)"\x01", 1), x, h_mod_n});
  k = hmac_sha256(k, seed1);
  v = hmac_sha256(k, v);

  for (;;) {
    v = hmac_sha256(k, v);
    Scalar32 candidate;
    std::copy(v.begin(), v.end(), candidate.begin());
    if (p256_scalar_valid(candidate)) return candidate;
    const Bytes retry = concat({v, ByteView((const std::uint8_t*)"\x00", 1)});
    k = hmac_sha256(k, retry);
    v = hmac_sha256(k, v);
  }
}

Scalar32 digest_mod_n(const Sha256Digest& digest) {
  Scalar32 e;
  std::copy(digest.begin(), digest.end(), e.begin());
  return scalar_mod_n(e);
}

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
  for (;;) {
    const Scalar32 k = rfc6979_nonce(priv, digest);
    const EcPoint kg = p256_base_mul(k);
    const Scalar32 r = scalar_mod_n(kg.x);
    if (scalar_is_zero(r)) continue;  // astronomically unlikely
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
