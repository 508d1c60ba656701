#include "crypto/p256.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "common/bytes.hpp"

namespace watz::crypto {
namespace {

Scalar32 scalar_from_hex(std::string_view hex) {
  const Bytes raw = from_hex(hex);
  Scalar32 s{};
  std::copy(raw.begin(), raw.end(), s.begin() + (32 - raw.size()));
  return s;
}

Scalar32 small_scalar(std::uint64_t v) {
  Scalar32 s{};
  for (int i = 0; i < 8; ++i) s[31 - i] = static_cast<std::uint8_t>(v >> (8 * i));
  return s;
}

const Scalar32 kGx = scalar_from_hex(
    "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
const Scalar32 kGy = scalar_from_hex(
    "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");
const Scalar32 kOrderN = scalar_from_hex(
    "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");

EcPoint generator() { return EcPoint{kGx, kGy, false}; }

TEST(P256, GeneratorOnCurve) { EXPECT_TRUE(p256_on_curve(generator())); }

TEST(P256, MulByOneIsGenerator) {
  const EcPoint g1 = p256_base_mul(small_scalar(1));
  EXPECT_EQ(g1, generator());
}

TEST(P256, KnownMultiples) {
  // Vectors from the standard P-256 point multiplication tables.
  const EcPoint g2 = p256_base_mul(small_scalar(2));
  EXPECT_EQ(to_hex(g2.x), "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
  EXPECT_EQ(to_hex(g2.y), "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");

  const EcPoint g3 = p256_base_mul(small_scalar(3));
  EXPECT_EQ(to_hex(g3.x), "5ecbe4d1a6330a44c8f7ef951d4bf165e6c6b721efada985fb41661bc6e7fd6c");
  EXPECT_EQ(to_hex(g3.y), "8734640c4998ff7e374b06ce1a64a2ecd82ab036384fb83d9a79b127a27d5032");

  const EcPoint g20 = p256_base_mul(small_scalar(20));
  EXPECT_EQ(to_hex(g20.x), "83a01a9378395bab9bcd6a0ad03cc56d56e6b19250465a94a234dc4c6b28da9a");
}

TEST(P256, AdditionMatchesMultiplication) {
  const EcPoint g2 = p256_add(generator(), generator());
  EXPECT_EQ(g2, p256_base_mul(small_scalar(2)));
  const EcPoint g5 = p256_add(p256_base_mul(small_scalar(2)), p256_base_mul(small_scalar(3)));
  EXPECT_EQ(g5, p256_base_mul(small_scalar(5)));
}

TEST(P256, AdditiveIdentity) {
  const EcPoint inf;  // default = infinity
  EXPECT_TRUE(inf.infinity);
  EXPECT_EQ(p256_add(generator(), inf), generator());
  EXPECT_EQ(p256_add(inf, generator()), generator());
  EXPECT_TRUE(p256_add(inf, inf).infinity);
}

TEST(P256, InverseSumsToInfinity) {
  // (n-1)G = -G, so G + (n-1)G = infinity.
  Scalar32 n_minus_1 = kOrderN;
  n_minus_1[31] -= 1;
  const EcPoint neg_g = p256_base_mul(n_minus_1);
  EXPECT_EQ(neg_g.x, kGx);
  EXPECT_NE(neg_g.y, kGy);
  EXPECT_TRUE(p256_add(generator(), neg_g).infinity);
}

TEST(P256, ScalarMulDistributes) {
  // (a+b)G == aG + bG for a few scalar pairs.
  for (std::uint64_t a : {5ull, 1234567ull}) {
    for (std::uint64_t b : {7ull, 987654321ull}) {
      const EcPoint lhs = p256_base_mul(small_scalar(a + b));
      const EcPoint rhs = p256_add(p256_base_mul(small_scalar(a)), p256_base_mul(small_scalar(b)));
      EXPECT_EQ(lhs, rhs) << a << "+" << b;
    }
  }
}

TEST(P256, MulAssociatesThroughPoint) {
  // (ab)G == a(bG).
  const Scalar32 a = small_scalar(0xdeadbeef);
  const Scalar32 b = small_scalar(0x1234567);
  const Scalar32 ab = scalar_mul_mod_n(a, b);
  EXPECT_EQ(p256_base_mul(ab), p256_mul(p256_base_mul(b), a));
}

TEST(P256, BaseMulAddMatchesSeparateProducts) {
  // u1*G + u2*Q, including a zero scalar on either side.
  const Scalar32 u1 = scalar_from_hex(
      "a6e3c57dd01abe90086538398355dd4c3b17aa873382b0f24d6129493d8aad60");
  const Scalar32 u2 = small_scalar(0x1234567);
  const EcPoint q = p256_base_mul(small_scalar(0xdeadbeef));
  EXPECT_EQ(p256_base_mul_add(u1, q, u2), p256_add(p256_base_mul(u1), p256_mul(q, u2)));
  EXPECT_EQ(p256_base_mul_add(Scalar32{}, q, u2), p256_mul(q, u2));
  EXPECT_EQ(p256_base_mul_add(u1, q, Scalar32{}), p256_base_mul(u1));
  EXPECT_TRUE(p256_base_mul_add(Scalar32{}, q, Scalar32{}).infinity);
  // Q = G with u1 + u2 = n: the two halves cancel to the identity.
  Scalar32 n_minus_1 = kOrderN;
  n_minus_1[31] -= 1;
  EXPECT_TRUE(p256_base_mul_add(small_scalar(1), generator(), n_minus_1).infinity);
}

TEST(P256, OffCurvePointRejected) {
  EcPoint bogus = generator();
  bogus.y[31] ^= 1;
  EXPECT_FALSE(p256_on_curve(bogus));
}

TEST(P256, EncodeDecodeRoundTrip) {
  const EcPoint g5 = p256_base_mul(small_scalar(5));
  const Bytes enc = g5.encode_uncompressed();
  ASSERT_EQ(enc.size(), 65u);
  EXPECT_EQ(enc[0], 0x04);
  auto back = EcPoint::decode_uncompressed(enc);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(*back, g5);
}

TEST(P256, DecodeRejectsGarbage) {
  EXPECT_FALSE(EcPoint::decode_uncompressed(Bytes(64)).ok());
  Bytes wrong_prefix(65, 0);
  wrong_prefix[0] = 0x02;
  EXPECT_FALSE(EcPoint::decode_uncompressed(wrong_prefix).ok());
  Bytes off_curve = generator().encode_uncompressed();
  off_curve[64] ^= 1;
  EXPECT_FALSE(EcPoint::decode_uncompressed(off_curve).ok());
}

TEST(P256, ScalarValidity) {
  EXPECT_FALSE(p256_scalar_valid(Scalar32{}));  // zero
  EXPECT_TRUE(p256_scalar_valid(small_scalar(1)));
  EXPECT_FALSE(p256_scalar_valid(kOrderN));  // == n
  Scalar32 n_minus_1 = kOrderN;
  n_minus_1[31] -= 1;
  EXPECT_TRUE(p256_scalar_valid(n_minus_1));
  Scalar32 all_ff;
  all_ff.fill(0xff);
  EXPECT_FALSE(p256_scalar_valid(all_ff));
}

TEST(P256, ScalarFieldArithmetic) {
  const Scalar32 a = small_scalar(10);
  const Scalar32 b = small_scalar(250);
  EXPECT_EQ(scalar_add_mod_n(a, b), small_scalar(260));
  EXPECT_EQ(scalar_mul_mod_n(a, b), small_scalar(2500));
  // a * a^-1 == 1 mod n.
  const Scalar32 inv = scalar_inv_mod_n(a);
  EXPECT_EQ(scalar_mul_mod_n(a, inv), small_scalar(1));
  // Reduction: n + 5 mod n == 5.
  Scalar32 over = kOrderN;
  over[31] += 5;
  EXPECT_EQ(scalar_mod_n(over), small_scalar(5));
  EXPECT_TRUE(scalar_is_zero(Scalar32{}));
  EXPECT_FALSE(scalar_is_zero(a));
}

TEST(P256, LargeScalarInverseProperty) {
  const Scalar32 k = scalar_from_hex(
      "a6e3c57dd01abe90086538398355dd4c3b17aa873382b0f24d6129493d8aad60");
  EXPECT_EQ(scalar_mul_mod_n(k, scalar_inv_mod_n(k)), small_scalar(1));
}

// -- differential: scalar multiplication vs an affine reference --------------
//
// The reference is plain double-and-add built only from the public p256_add,
// so it shares no code with the comb or window paths under test. Random
// scalars come from a printed seed; WATZ_P256_SEED=0x<s> replays a run.

/// k * p by affine double-and-add over p256_add, most significant bit first.
EcPoint reference_mul(const EcPoint& p, const Scalar32& k) {
  EcPoint acc;  // infinity
  for (int i = 0; i < 256; ++i) {
    acc = p256_add(acc, acc);
    if ((k[i / 8] >> (7 - i % 8)) & 1) acc = p256_add(acc, p);
  }
  return acc;
}

/// 2^bit as a scalar.
Scalar32 pow2(int bit) {
  Scalar32 s{};
  s[31 - bit / 8] = static_cast<std::uint8_t>(1u << (bit % 8));
  return s;
}

/// 2^bits - 1 as a scalar.
Scalar32 low_ones(int bits) {
  Scalar32 s{};
  for (int b = 0; b < bits; ++b) s[31 - b / 8] |= static_cast<std::uint8_t>(1u << (b % 8));
  return s;
}

Scalar32 minus_small(Scalar32 s, std::uint8_t v) {
  int borrow = v;
  for (int i = 31; i >= 0 && borrow != 0; --i) {
    const int cur = s[i] - borrow;
    s[i] = static_cast<std::uint8_t>(cur);
    borrow = cur < 0 ? 1 : 0;
  }
  return s;
}

Scalar32 half(const Scalar32& s) {
  Scalar32 out{};
  for (int i = 0; i < 32; ++i)
    out[i] = static_cast<std::uint8_t>((s[i] >> 1) | (i > 0 ? s[i - 1] << 7 : 0));
  return out;
}

std::uint64_t differential_seed() {
  static const std::uint64_t seed = []() -> std::uint64_t {
    if (const char* env = std::getenv("WATZ_P256_SEED")) return std::strtoull(env, nullptr, 0);
    std::random_device device;
    return (static_cast<std::uint64_t>(device()) << 32) ^ device();
  }();
  return seed;
}

Scalar32 random_valid_scalar(std::mt19937_64& rng) {
  for (;;) {
    Scalar32 s;
    for (auto& b : s) b = static_cast<std::uint8_t>(rng());
    if (p256_scalar_valid(s)) return s;
  }
}

/// Checks k against G (comb and window paths) and against a random point q.
void expect_matches_reference(const Scalar32& k, const EcPoint& q) {
  SCOPED_TRACE("k = " + to_hex(k));
  ASSERT_TRUE(p256_scalar_valid(k));
  const EcPoint kg = reference_mul(generator(), k);
  EXPECT_EQ(p256_base_mul(k), kg);
  EXPECT_EQ(p256_mul(generator(), k), kg);
  EXPECT_EQ(p256_mul(q, k), reference_mul(q, k));
}

class P256Differential : public ::testing::Test {
 protected:
  void SetUp() override {
    std::printf("p256 differential seed: WATZ_P256_SEED=0x%llx\n",
                static_cast<unsigned long long>(differential_seed()));
    rng_.seed(differential_seed());
    q_ = reference_mul(generator(), random_valid_scalar(rng_));
    ASSERT_TRUE(p256_on_curve(q_));
  }

  std::mt19937_64 rng_;
  EcPoint q_;
};

TEST_F(P256Differential, EdgeScalarsMatchReference) {
  SCOPED_TRACE(::testing::Message() << "WATZ_P256_SEED=0x" << std::hex << differential_seed());
  std::vector<Scalar32> scalars;
  for (std::uint64_t v : {1, 2, 15, 16, 17}) scalars.push_back(small_scalar(v));
  // 16^i and 16^i - 1: digit boundaries of the comb rows and window table.
  for (int i : {1, 2, 8, 15, 16, 31, 32, 47, 63}) {
    scalars.push_back(pow2(4 * i));
    scalars.push_back(low_ones(4 * i));
  }
  // Long runs of zero digits between nonzero ones.
  scalars.push_back(scalar_from_hex(
      "8000000000000000000000000000000000000000000000000000000000000001"));
  scalars.push_back(scalar_from_hex(
      "0000000f00000000000000000000000000000000f00000000000000000000000"));
  scalars.push_back(scalar_from_hex(
      "a00000000000000000000000000000000000000000000000000000000000000b"));
  // Top of the range: n-1 = -1, n-2 = -2, and the halves around n/2.
  const Scalar32 n_minus_1 = minus_small(kOrderN, 1);
  scalars.push_back(n_minus_1);
  scalars.push_back(minus_small(kOrderN, 2));
  scalars.push_back(half(n_minus_1));                                  // (n-1)/2
  scalars.push_back(scalar_add_mod_n(half(n_minus_1), small_scalar(1)));  // (n+1)/2
  for (const Scalar32& k : scalars) expect_matches_reference(k, q_);
}

TEST_F(P256Differential, RandomScalarsMatchReference) {
  SCOPED_TRACE(::testing::Message() << "WATZ_P256_SEED=0x" << std::hex << differential_seed());
  for (int i = 0; i < 16; ++i) expect_matches_reference(random_valid_scalar(rng_), q_);
}

}  // namespace
}  // namespace watz::crypto
