#include "crypto/ecdsa.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "crypto/fortuna.hpp"

namespace watz::crypto {
namespace {

Scalar32 scalar_from_hex(std::string_view hex) {
  const Bytes raw = from_hex(hex);
  Scalar32 s{};
  std::copy(raw.begin(), raw.end(), s.begin());
  return s;
}

// RFC 6979 A.2.5: P-256 / SHA-256 reference key.
const Scalar32 kPriv = scalar_from_hex(
    "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721");

TEST(Ecdsa, Rfc6979PublicKey) {
  auto kp = keypair_from_private(kPriv);
  ASSERT_TRUE(kp.ok());
  EXPECT_EQ(to_hex(kp->pub.x),
            "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6");
  EXPECT_EQ(to_hex(kp->pub.y),
            "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299");
}

TEST(Ecdsa, Rfc6979SampleSignature) {
  const auto sig = ecdsa_sign(kPriv, sha256(to_bytes("sample")));
  EXPECT_EQ(to_hex(sig.r),
            "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716");
  EXPECT_EQ(to_hex(sig.s),
            "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8");
}

TEST(Ecdsa, Rfc6979TestSignature) {
  const auto sig = ecdsa_sign(kPriv, sha256(to_bytes("test")));
  EXPECT_EQ(to_hex(sig.r),
            "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367");
  EXPECT_EQ(to_hex(sig.s),
            "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083");
}

TEST(Ecdsa, SignVerifyRoundTrip) {
  auto kp = keypair_from_private(kPriv);
  ASSERT_TRUE(kp.ok());
  const auto digest = sha256(to_bytes("evidence payload"));
  const auto sig = ecdsa_sign(kPriv, digest);
  EXPECT_TRUE(ecdsa_verify(kp->pub, digest, sig));
}

TEST(Ecdsa, VerifyRejectsWrongDigest) {
  auto kp = keypair_from_private(kPriv);
  ASSERT_TRUE(kp.ok());
  const auto sig = ecdsa_sign(kPriv, sha256(to_bytes("original")));
  EXPECT_FALSE(ecdsa_verify(kp->pub, sha256(to_bytes("tampered")), sig));
}

TEST(Ecdsa, VerifyRejectsCorruptedSignature) {
  auto kp = keypair_from_private(kPriv);
  ASSERT_TRUE(kp.ok());
  const auto digest = sha256(to_bytes("message"));
  auto sig = ecdsa_sign(kPriv, digest);
  sig.r[0] ^= 1;
  EXPECT_FALSE(ecdsa_verify(kp->pub, digest, sig));
  sig.r[0] ^= 1;
  sig.s[31] ^= 1;
  EXPECT_FALSE(ecdsa_verify(kp->pub, digest, sig));
}

TEST(Ecdsa, VerifyRejectsWrongKey) {
  Fortuna rng(to_bytes("another-key-seed"));
  const KeyPair other = ecdsa_keygen(rng);
  const auto digest = sha256(to_bytes("message"));
  const auto sig = ecdsa_sign(kPriv, digest);
  EXPECT_FALSE(ecdsa_verify(other.pub, digest, sig));
}

TEST(Ecdsa, VerifyRejectsZeroSignatureComponents) {
  auto kp = keypair_from_private(kPriv);
  ASSERT_TRUE(kp.ok());
  const auto digest = sha256(to_bytes("message"));
  EcdsaSignature zero_sig{};
  EXPECT_FALSE(ecdsa_verify(kp->pub, digest, zero_sig));
}

TEST(Ecdsa, VerifyRejectsInfinityOrOffCurveKey) {
  const auto digest = sha256(to_bytes("message"));
  const auto sig = ecdsa_sign(kPriv, digest);
  EXPECT_FALSE(ecdsa_verify(EcPoint{}, digest, sig));
  auto kp = keypair_from_private(kPriv);
  EcPoint off = kp->pub;
  off.y[31] ^= 1;
  EXPECT_FALSE(ecdsa_verify(off, digest, sig));
}

TEST(Ecdsa, KeygenProducesValidDistinctKeys) {
  Fortuna rng(to_bytes("keygen-seed"));
  const KeyPair a = ecdsa_keygen(rng);
  const KeyPair b = ecdsa_keygen(rng);
  EXPECT_TRUE(p256_scalar_valid(a.priv));
  EXPECT_TRUE(p256_on_curve(a.pub));
  EXPECT_NE(a.priv, b.priv);
  EXPECT_NE(a.pub, b.pub);
}

TEST(Ecdsa, KeygenDeterministicFromSeed) {
  Fortuna rng1(to_bytes("boot-seed"));
  Fortuna rng2(to_bytes("boot-seed"));
  EXPECT_EQ(ecdsa_keygen(rng1).priv, ecdsa_keygen(rng2).priv);
}

TEST(Ecdsa, SignatureEncodeDecode) {
  const auto sig = ecdsa_sign(kPriv, sha256(to_bytes("x")));
  const Bytes enc = sig.encode();
  ASSERT_EQ(enc.size(), 64u);
  auto dec = EcdsaSignature::decode(enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec->r, sig.r);
  EXPECT_EQ(dec->s, sig.s);
  EXPECT_FALSE(EcdsaSignature::decode(Bytes(63)).ok());
}

TEST(Ecdsa, KeypairFromPrivateRejectsInvalid) {
  EXPECT_FALSE(keypair_from_private(Scalar32{}).ok());
  Scalar32 all_ff;
  all_ff.fill(0xff);
  EXPECT_FALSE(keypair_from_private(all_ff).ok());
}

// -- verify edge cases for the combined u1*G + u2*Q path --------------------

const Scalar32 kOrderN = scalar_from_hex(
    "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");

Sha256Digest digest_from(const Scalar32& s) {
  Sha256Digest d;
  std::copy(s.begin(), s.end(), d.begin());
  return d;
}

TEST(Ecdsa, VerifyDigestZeroModN) {
  // e == 0 makes u1 == 0: the G half of the combined multiply contributes
  // the identity.
  auto kp = keypair_from_private(kPriv);
  ASSERT_TRUE(kp.ok());
  const Sha256Digest zero{};
  const auto sig = ecdsa_sign(kPriv, zero);
  EXPECT_TRUE(ecdsa_verify(kp->pub, zero, sig));
  EXPECT_FALSE(ecdsa_verify(kp->pub, sha256(to_bytes("other")), sig));
}

TEST(Ecdsa, VerifyDigestEqualToOrder) {
  // A digest equal to n's bytes reduces to e == 0, the same as a zero digest.
  auto kp = keypair_from_private(kPriv);
  ASSERT_TRUE(kp.ok());
  const Sha256Digest n_digest = digest_from(kOrderN);
  const auto sig = ecdsa_sign(kPriv, n_digest);
  EXPECT_TRUE(ecdsa_verify(kp->pub, n_digest, sig));
  EXPECT_TRUE(ecdsa_verify(kp->pub, Sha256Digest{}, sig));
}

TEST(Ecdsa, VerifyAcceptsMalleatedSignature) {
  // (r, n - s) is the other valid signature for the same nonce.
  auto kp = keypair_from_private(kPriv);
  ASSERT_TRUE(kp.ok());
  const auto digest = sha256(to_bytes("malleable"));
  const auto sig = ecdsa_sign(kPriv, digest);
  Scalar32 n_minus_1 = kOrderN;
  n_minus_1[31] -= 1;
  const EcdsaSignature flipped{sig.r, scalar_mul_mod_n(sig.s, n_minus_1)};
  EXPECT_NE(flipped.s, sig.s);
  EXPECT_TRUE(ecdsa_verify(kp->pub, digest, flipped));
}

TEST(Ecdsa, VerifyRejectsComponentEqualToOrder) {
  auto kp = keypair_from_private(kPriv);
  ASSERT_TRUE(kp.ok());
  const auto digest = sha256(to_bytes("range"));
  const auto sig = ecdsa_sign(kPriv, digest);
  EXPECT_FALSE(ecdsa_verify(kp->pub, digest, EcdsaSignature{kOrderN, sig.s}));
  EXPECT_FALSE(ecdsa_verify(kp->pub, digest, EcdsaSignature{sig.r, kOrderN}));
}

TEST(Ecdh, NistCavsVector) {
  // NIST CAVS KAS ECC CDH P-256, count = 0.
  const Scalar32 d = scalar_from_hex(
      "7d7dc5f71eb29ddaf80d6214632eeae03d9058af1fb6d22ed80badb62bc1a534");
  EcPoint peer;
  peer.infinity = false;
  peer.x = scalar_from_hex("700c48f77f56584c5cc632ca65640db91b6bacce3a4df6b42ce7cc838833d287");
  peer.y = scalar_from_hex("db71e509e3fd9b060ddb20ba5c51dcc5948d46fbf640dfe0441782cab85fa4ac");
  auto z = ecdh_shared_x(d, peer);
  ASSERT_TRUE(z.ok()) << z.error();
  EXPECT_EQ(to_hex(*z),
            "46fc62106420ff012e54a434fbdd2d25ccc5852060561e68040dd7778997bd7b");
}

TEST(Ecdh, SharedSecretAgreement) {
  Fortuna rng(to_bytes("ecdh-seed"));
  const KeyPair alice = ecdsa_keygen(rng);
  const KeyPair bob = ecdsa_keygen(rng);
  auto za = ecdh_shared_x(alice.priv, bob.pub);
  auto zb = ecdh_shared_x(bob.priv, alice.pub);
  ASSERT_TRUE(za.ok());
  ASSERT_TRUE(zb.ok());
  EXPECT_EQ(*za, *zb);
}

TEST(Ecdh, RejectsInvalidPeer) {
  Fortuna rng(to_bytes("ecdh-seed-2"));
  const KeyPair alice = ecdsa_keygen(rng);
  EXPECT_FALSE(ecdh_shared_x(alice.priv, EcPoint{}).ok());
  EcPoint off = alice.pub;
  off.x[0] ^= 0xff;
  EXPECT_FALSE(ecdh_shared_x(alice.priv, off).ok());
}

}  // namespace
}  // namespace watz::crypto
