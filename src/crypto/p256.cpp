#include "crypto/p256.hpp"

#include <cstring>
#include <vector>

#include "crypto/p256_field.hpp"

namespace watz::crypto {

namespace p256_detail {

namespace {

// Curve parameters (big-endian source, stored as LE limbs).
// p  = ffffffff00000001 0000000000000000 00000000ffffffff ffffffffffffffff
// n  = ffffffff00000000 ffffffffffffffff bce6faada7179e84 f3b9cac2fc632551
// b  = 5ac635d8aa3a93e7 b3ebbd55769886bc 651d06b0cc53b0f6 3bce3c3e27d2604b
// Gx = 6b17d1f2e12c4247 f8bce6e563a440f2 77037d812deb33a0 f4a13945d898c296
// Gy = 4fe342e2fe1a7f9b 8ee7eb4a7c0f9e16 2bce33576b315ece cbb6406837bf51f5
constexpr U256 kP{0xffffffffffffffffULL, 0x00000000ffffffffULL, 0x0000000000000000ULL,
                  0xffffffff00000001ULL};
constexpr U256 kN{0xf3b9cac2fc632551ULL, 0xbce6faada7179e84ULL, 0xffffffffffffffffULL,
                  0xffffffff00000000ULL};
constexpr U256 kB{0x3bce3c3e27d2604bULL, 0x651d06b0cc53b0f6ULL, 0xb3ebbd55769886bcULL,
                  0x5ac635d8aa3a93e7ULL};
constexpr U256 kGx{0xf4a13945d898c296ULL, 0x77037d812deb33a0ULL, 0xf8bce6e563a440f2ULL,
                   0x6b17d1f2e12c4247ULL};
constexpr U256 kGy{0xcbb6406837bf51f5ULL, 0x2bce33576b315eceULL, 0x8ee7eb4a7c0f9e16ULL,
                   0x4fe342e2fe1a7f9bULL};

// Precomputed Montgomery constants (R = 2^256).
// R mod p = 00000000fffffffe ffffffffffffffff ffffffff00000000 0000000000000001
constexpr U256 kOneP{0x0000000000000001ULL, 0xffffffff00000000ULL, 0xffffffffffffffffULL,
                     0x00000000fffffffeULL};
// R^2 mod p = 00000004fffffffd fffffffffffffffe fffffffbffffffff 0000000000000003
constexpr U256 kRRp{0x0000000000000003ULL, 0xfffffffbffffffffULL, 0xfffffffffffffffeULL,
                    0x00000004fffffffdULL};
// R^2 mod n = 66e12d94f3d95620 2845b2392b6bec59 4699799c49bd6fa6 83244c95be79eea2
constexpr U256 kRRn{0x83244c95be79eea2ULL, 0x4699799c49bd6fa6ULL, 0x2845b2392b6bec59ULL,
                    0x66e12d94f3d95620ULL};
// -n^-1 mod 2^64 = 0xccd1c8aaee00bc4f. For p it is 1, since p mod 2^64 = 2^64 - 1.
constexpr u64 kN0n = 0xccd1c8aaee00bc4fULL;

constexpr U256 kZero{};

// The limb helpers are forced inline so each field operation is one
// function with its limbs in registers: at -O2, GCC otherwise calls
// mul_wide and redc_p separately and passes the 512-bit product through
// memory.
#define WATZ_P256_INLINE [[gnu::always_inline]] inline

/// mask ? a : b (mask is all-ones or zero).
WATZ_P256_INLINE U256 select(u64 mask, const U256& a, const U256& b) noexcept {
  return U256{(a.w[0] & mask) | (b.w[0] & ~mask), (a.w[1] & mask) | (b.w[1] & ~mask),
              (a.w[2] & mask) | (b.w[2] & ~mask), (a.w[3] & mask) | (b.w[3] & ~mask)};
}

/// (carry * 2^256 + r) mod m for a value below 2m, by one masked subtraction.
WATZ_P256_INLINE U256 reduce_once(const U256& r, u64 carry, const U256& m) noexcept {
  u64 borrow = 0;
  U256 s;
  s.w[0] = subb(r.w[0], m.w[0], borrow);
  s.w[1] = subb(r.w[1], m.w[1], borrow);
  s.w[2] = subb(r.w[2], m.w[2], borrow);
  s.w[3] = subb(r.w[3], m.w[3], borrow);
  // The value is below m exactly when r - m borrows and nothing carried in.
  subb(carry, 0, borrow);
  return select(0 - borrow, r, s);
}

WATZ_P256_INLINE U256 add_mod(const U256& a, const U256& b, const U256& m) noexcept {
  u64 carry = 0;
  U256 r;
  r.w[0] = addc(a.w[0], b.w[0], carry);
  r.w[1] = addc(a.w[1], b.w[1], carry);
  r.w[2] = addc(a.w[2], b.w[2], carry);
  r.w[3] = addc(a.w[3], b.w[3], carry);
  return reduce_once(r, carry, m);
}

WATZ_P256_INLINE U256 sub_mod(const U256& a, const U256& b, const U256& m) noexcept {
  u64 borrow = 0;
  U256 r;
  r.w[0] = subb(a.w[0], b.w[0], borrow);
  r.w[1] = subb(a.w[1], b.w[1], borrow);
  r.w[2] = subb(a.w[2], b.w[2], borrow);
  r.w[3] = subb(a.w[3], b.w[3], borrow);
  // Add m back by mask when a < b.
  const u64 mask = 0 - borrow;
  u64 carry = 0;
  r.w[0] = addc(r.w[0], m.w[0] & mask, carry);
  r.w[1] = addc(r.w[1], m.w[1] & mask, carry);
  r.w[2] = addc(r.w[2], m.w[2] & mask, carry);
  r.w[3] = addc(r.w[3], m.w[3] & mask, carry);
  return r;
}

/// 512-bit product, little-endian limb order.
struct U512 {
  u64 w[8];
};

/// Three-word column accumulator of a product-scanning (Comba) multiply.
struct Acc {
  u64 c0 = 0, c1 = 0, c2 = 0;

  /// acc += x * y.
  void mac(u64 x, u64 y) noexcept {
    const u128 p = static_cast<u128>(x) * y;
    u64 carry = 0;
    c0 = addc(c0, static_cast<u64>(p), carry);
    c1 = addc(c1, static_cast<u64>(p >> 64), carry);
    c2 = addc(c2, 0, carry);
  }

  /// Returns the finished column's word and shifts the accumulator down.
  u64 next() noexcept {
    const u64 out = c0;
    c0 = c1;
    c1 = c2;
    c2 = 0;
    return out;
  }
};

/// a * b, one column at a time (16 multiplies).
WATZ_P256_INLINE U512 mul_wide(const U256& a, const U256& b) noexcept {
  const u64 a0 = a.w[0], a1 = a.w[1], a2 = a.w[2], a3 = a.w[3];
  const u64 b0 = b.w[0], b1 = b.w[1], b2 = b.w[2], b3 = b.w[3];
  Acc acc;
  U512 t{};
  acc.mac(a0, b0);
  t.w[0] = acc.next();
  acc.mac(a0, b1);
  acc.mac(a1, b0);
  t.w[1] = acc.next();
  acc.mac(a0, b2);
  acc.mac(a1, b1);
  acc.mac(a2, b0);
  t.w[2] = acc.next();
  acc.mac(a0, b3);
  acc.mac(a1, b2);
  acc.mac(a2, b1);
  acc.mac(a3, b0);
  t.w[3] = acc.next();
  acc.mac(a1, b3);
  acc.mac(a2, b2);
  acc.mac(a3, b1);
  t.w[4] = acc.next();
  acc.mac(a2, b3);
  acc.mac(a3, b2);
  t.w[5] = acc.next();
  acc.mac(a3, b3);
  t.w[6] = acc.next();
  t.w[7] = acc.c0;
  return t;
}

/// a^2: the 6 cross products once, doubled, plus the 4 squares (10
/// multiplies).
WATZ_P256_INLINE U512 sqr_wide(const U256& a) noexcept {
  const u64 a0 = a.w[0], a1 = a.w[1], a2 = a.w[2], a3 = a.w[3];
  Acc acc;
  acc.mac(a0, a1);
  const u64 x1 = acc.next();
  acc.mac(a0, a2);
  const u64 x2 = acc.next();
  acc.mac(a0, a3);
  acc.mac(a1, a2);
  const u64 x3 = acc.next();
  acc.mac(a1, a3);
  const u64 x4 = acc.next();
  acc.mac(a2, a3);
  const u64 x5 = acc.next();
  const u64 x6 = acc.c0;
  u64 carry = 0;
  const u64 d1 = addc(x1, x1, carry);
  const u64 d2 = addc(x2, x2, carry);
  const u64 d3 = addc(x3, x3, carry);
  const u64 d4 = addc(x4, x4, carry);
  const u64 d5 = addc(x5, x5, carry);
  const u64 d6 = addc(x6, x6, carry);
  const u64 d7 = carry;
  const u128 s0 = static_cast<u128>(a0) * a0;
  const u128 s1 = static_cast<u128>(a1) * a1;
  const u128 s2 = static_cast<u128>(a2) * a2;
  const u128 s3 = static_cast<u128>(a3) * a3;
  U512 t{};
  carry = 0;
  t.w[0] = static_cast<u64>(s0);
  t.w[1] = addc(d1, static_cast<u64>(s0 >> 64), carry);
  t.w[2] = addc(d2, static_cast<u64>(s1), carry);
  t.w[3] = addc(d3, static_cast<u64>(s1 >> 64), carry);
  t.w[4] = addc(d4, static_cast<u64>(s2), carry);
  t.w[5] = addc(d5, static_cast<u64>(s2 >> 64), carry);
  t.w[6] = addc(d6, static_cast<u64>(s3), carry);
  t.w[7] = addc(d7, static_cast<u64>(s3 >> 64), carry);
  return t;
}

/// One round of redc_p: adds q*p for q = t0, which clears t0. With
/// p = 2^256 - 2^224 + 2^192 + 2^96 - 1, t0 + q*p = q*2^96 + q*2^192 *
/// 0xffffffff00000001, i.e. q<<32 and q>>32 at t1..t2 and one 64x64
/// product at t3..t4. `carry` brings the previous round's carry out of its
/// t4 (this round's t4) and takes this round's.
WATZ_P256_INLINE void redc_p_round(u64 q, u64& t1, u64& t2, u64& t3, u64& t4, u64& carry) noexcept {
  const u128 m = static_cast<u128>(q) * 0xffffffff00000001ULL;
  u64 c = 0;
  t1 = addc(t1, q << 32, c);
  t2 = addc(t2, q >> 32, c);
  t3 = addc(t3, static_cast<u64>(m), c);
  // The high word is at most 2^64 - 2^32, so adding the carry cannot wrap.
  t4 = addc(t4, static_cast<u64>(m >> 64) + carry, c);
  carry = c;
}

/// t * R^-1 mod p for t < p*R: Montgomery reduction specialised to p, where
/// -p^-1 mod 2^64 = 1 makes each round's quotient the low limb itself.
WATZ_P256_INLINE U256 redc_p(const U512& t) noexcept {
  u64 t1 = t.w[1], t2 = t.w[2], t3 = t.w[3], t4 = t.w[4], t5 = t.w[5], t6 = t.w[6],
      t7 = t.w[7];
  u64 carry = 0;
  redc_p_round(t.w[0], t1, t2, t3, t4, carry);
  redc_p_round(t1, t2, t3, t4, t5, carry);
  redc_p_round(t2, t3, t4, t5, t6, carry);
  redc_p_round(t3, t4, t5, t6, t7, carry);
  return reduce_once(U256{t4, t5, t6, t7}, carry, kP);
}

/// Low word of x*y + a + b, which cannot overflow 128 bits; `hi` takes the
/// high word.
WATZ_P256_INLINE u64 mul_add(u64 x, u64 y, u64 a, u64 b, u64& hi) noexcept {
  const u128 r = static_cast<u128>(x) * y + a + b;
  hi = static_cast<u64>(r >> 64);
  return static_cast<u64>(r);
}

/// One round of redc_n: adds q*n for q = t0 * -n^-1, which clears t0.
/// `carry` works as in redc_p_round.
WATZ_P256_INLINE void redc_n_round(u64 t0, u64& t1, u64& t2, u64& t3, u64& t4,
                                   u64& carry) noexcept {
  const u64 q = t0 * kN0n;
  u64 hi = 0;
  mul_add(q, kN.w[0], t0, 0, hi);
  t1 = mul_add(q, kN.w[1], t1, hi, hi);
  t2 = mul_add(q, kN.w[2], t2, hi, hi);
  t3 = mul_add(q, kN.w[3], t3, hi, hi);
  t4 = addc(t4, hi, carry);
}

/// t * R^-1 mod n for t < n*R: word-by-word Montgomery reduction.
WATZ_P256_INLINE U256 redc_n(const U512& t) noexcept {
  u64 t1 = t.w[1], t2 = t.w[2], t3 = t.w[3], t4 = t.w[4], t5 = t.w[5], t6 = t.w[6],
      t7 = t.w[7];
  u64 carry = 0;
  redc_n_round(t.w[0], t1, t2, t3, t4, carry);
  redc_n_round(t1, t2, t3, t4, t5, carry);
  redc_n_round(t2, t3, t4, t5, t6, carry);
  redc_n_round(t3, t4, t5, t6, t7, carry);
  return reduce_once(U256{t4, t5, t6, t7}, carry, kN);
}

U512 widen(const U256& a) noexcept { return U512{a.w[0], a.w[1], a.w[2], a.w[3], 0, 0, 0, 0}; }

}  // namespace

U256 fp_mul(const U256& a, const U256& b) noexcept { return redc_p(mul_wide(a, b)); }
U256 fp_sqr(const U256& a) noexcept { return redc_p(sqr_wide(a)); }
U256 fp_add(const U256& a, const U256& b) noexcept { return add_mod(a, b, kP); }
U256 fp_sub(const U256& a, const U256& b) noexcept { return sub_mod(a, b, kP); }
U256 fp_to_mont(const U256& a) noexcept { return fp_mul(a, kRRp); }
U256 fp_from_mont(const U256& a) noexcept { return redc_p(widen(a)); }

U256 fn_mul(const U256& a, const U256& b) noexcept { return redc_n(mul_wide(a, b)); }
U256 fn_sqr(const U256& a) noexcept { return redc_n(sqr_wide(a)); }
U256 fn_to_mont(const U256& a) noexcept { return fn_mul(a, kRRn); }
U256 fn_from_mont(const U256& a) noexcept { return redc_n(widen(a)); }

}  // namespace p256_detail

namespace {

using namespace p256_detail;
using p256_detail::select;

U256 from_be(const Scalar32& b) noexcept {
  U256 v;
  for (int limb = 0; limb < 4; ++limb) {
    u64 x = 0;
    for (int i = 0; i < 8; ++i) x = (x << 8) | b[(3 - limb) * 8 + i];
    v.w[limb] = x;
  }
  return v;
}

Scalar32 to_be(const U256& v) noexcept {
  Scalar32 b;
  for (int limb = 0; limb < 4; ++limb)
    for (int i = 0; i < 8; ++i)
      b[(3 - limb) * 8 + i] = static_cast<std::uint8_t>(v.w[limb] >> (56 - 8 * i));
  return b;
}

bool is_zero(const U256& v) noexcept {
  return (v.w[0] | v.w[1] | v.w[2] | v.w[3]) == 0;
}

/// All-ones when v == 0, else zero, without a branch.
u64 zero_mask(const U256& v) noexcept {
  const u64 t = v.w[0] | v.w[1] | v.w[2] | v.w[3];
  return ((t | (0 - t)) >> 63) - 1;
}

/// All-ones when a == b, else zero; a and b must be below 2^63.
u64 eq_mask(u64 a, u64 b) noexcept { return 0 - (((a ^ b) - 1) >> 63); }

/// Returns -1/0/1 for a<b / a==b / a>b.
int cmp(const U256& a, const U256& b) noexcept {
  for (int i = 3; i >= 0; --i) {
    if (a.w[i] < b.w[i]) return -1;
    if (a.w[i] > b.w[i]) return 1;
  }
  return 0;
}

int bit(const U256& v, int i) noexcept { return (v.w[i / 64] >> (i % 64)) & 1; }

/// x squared n times in F_p (Montgomery domain).
U256 fp_sqr_n(U256 x, int n) noexcept {
  while (n-- > 0) x = fp_sqr(x);
  return x;
}

/// a^-1 = a^(p-2) in F_p by a fixed addition chain (255 squarings, 12
/// multiplications). x_k below is a^(2^k - 1).
U256 fp_inv(const U256& a) noexcept {
  const U256 x2 = fp_mul(fp_sqr(a), a);
  const U256 x3 = fp_mul(fp_sqr(x2), a);
  const U256 x6 = fp_mul(fp_sqr_n(x3, 3), x3);
  const U256 x12 = fp_mul(fp_sqr_n(x6, 6), x6);
  const U256 x15 = fp_mul(fp_sqr_n(x12, 3), x3);
  const U256 x30 = fp_mul(fp_sqr_n(x15, 15), x15);
  const U256 x32 = fp_mul(fp_sqr_n(x30, 2), x2);
  // p - 2 = ffffffff 00000001 00000000 00000000 00000000 ffffffff ffffffff fffffffd
  U256 t = fp_mul(fp_sqr_n(x32, 32), a);
  t = fp_mul(fp_sqr_n(t, 128), x32);
  t = fp_mul(fp_sqr_n(t, 32), x32);
  t = fp_mul(fp_sqr_n(t, 30), x30);
  return fp_mul(fp_sqr_n(t, 2), a);
}

/// a^-1 = a^(n-2) mod n by square-and-multiply over the public exponent
/// (Montgomery domain in and out).
U256 fn_inv(const U256& a) noexcept {
  constexpr U256 kNMinus2{kN.w[0] - 2, kN.w[1], kN.w[2], kN.w[3]};
  U256 result = fn_to_mont(U256{1, 0, 0, 0});
  for (int i = 255; i >= 0; --i) {
    result = fn_sqr(result);
    if (bit(kNMinus2, i)) result = fn_mul(result, a);
  }
  return result;
}

/// Jacobian point, coordinates in the Montgomery domain of F_p.
struct JPoint {
  U256 x, y, z;  // z == 0 -> infinity
};

/// Affine point in the Montgomery domain of F_p (implicit z = 1).
struct APoint {
  U256 x, y;
};

JPoint select(u64 mask, const JPoint& a, const JPoint& b) noexcept {
  return {select(mask, a.x, b.x), select(mask, a.y, b.y), select(mask, a.z, b.z)};
}

APoint select(u64 mask, const APoint& a, const APoint& b) noexcept {
  return {select(mask, a.x, b.x), select(mask, a.y, b.y)};
}

JPoint jacobian_infinity() { return JPoint{kZero, kZero, kZero}; }

JPoint to_jacobian(const EcPoint& p) {
  if (p.infinity) return jacobian_infinity();
  return JPoint{fp_to_mont(from_be(p.x)), fp_to_mont(from_be(p.y)), kOneP};
}

EcPoint to_affine(const JPoint& p) {
  if (is_zero(p.z)) return EcPoint{};
  const U256 zinv = fp_inv(p.z);
  const U256 zinv2 = fp_sqr(zinv);
  const U256 zinv3 = fp_mul(zinv2, zinv);
  EcPoint out;
  out.infinity = false;
  out.x = to_be(fp_from_mont(fp_mul(p.x, zinv2)));
  out.y = to_be(fp_from_mont(fp_mul(p.y, zinv3)));
  return out;
}

/// Point doubling, dbl-2001-b formulas for a = -3. Infinity (z = 0) maps to
/// z = 0, and P-256 has no point with y = 0, so no input needs a branch.
JPoint jdouble(const JPoint& p) {
  const U256 delta = fp_sqr(p.z);
  const U256 gamma = fp_sqr(p.y);
  const U256 beta = fp_mul(p.x, gamma);
  const U256 t0 = fp_sub(p.x, delta);
  const U256 t1 = fp_add(p.x, delta);
  U256 alpha = fp_mul(t0, t1);
  alpha = fp_add(fp_add(alpha, alpha), alpha);  // 3*(x-d)*(x+d)
  U256 beta4 = fp_add(beta, beta);
  beta4 = fp_add(beta4, beta4);
  const U256 beta8 = fp_add(beta4, beta4);
  JPoint r;
  r.x = fp_sub(fp_sqr(alpha), beta8);
  const U256 yz = fp_add(p.y, p.z);
  r.z = fp_sub(fp_sub(fp_sqr(yz), gamma), delta);
  const U256 g2 = fp_sqr(gamma);
  U256 g8 = fp_add(g2, g2);
  g8 = fp_add(g8, g8);
  g8 = fp_add(g8, g8);
  r.y = fp_sub(fp_mul(alpha, fp_sub(beta4, r.x)), g8);
  return r;
}

/// General Jacobian addition. An infinite input is absorbed by a masked
/// select; the only branch is on equal or opposite finite inputs.
JPoint jadd(const JPoint& a, const JPoint& b) {
  const u64 a_inf = zero_mask(a.z);
  const u64 b_inf = zero_mask(b.z);
  const U256 z1z1 = fp_sqr(a.z);
  const U256 z2z2 = fp_sqr(b.z);
  const U256 u1 = fp_mul(a.x, z2z2);
  const U256 u2 = fp_mul(b.x, z1z1);
  const U256 s1 = fp_mul(fp_mul(a.y, b.z), z2z2);
  const U256 s2 = fp_mul(fp_mul(b.y, a.z), z1z1);
  const U256 h = fp_sub(u2, u1);
  const U256 r = fp_sub(s2, s1);
  if ((zero_mask(h) & ~a_inf & ~b_inf) != 0)
    return is_zero(r) ? jdouble(a) : jacobian_infinity();
  const U256 hh = fp_sqr(h);
  const U256 hhh = fp_mul(h, hh);
  const U256 v = fp_mul(u1, hh);
  JPoint out;
  out.x = fp_sub(fp_sub(fp_sqr(r), hhh), fp_add(v, v));
  out.y = fp_sub(fp_mul(r, fp_sub(v, out.x)), fp_mul(s1, hhh));
  out.z = fp_mul(fp_mul(a.z, b.z), h);
  return select(a_inf, b, select(b_inf, a, out));
}

/// Mixed addition a + b for affine b; `b_inf` is all-ones when b stands for
/// the identity. Same branch rule as jadd.
JPoint madd(const JPoint& a, const APoint& b, u64 b_inf) {
  const u64 a_inf = zero_mask(a.z);
  const U256 z1z1 = fp_sqr(a.z);
  const U256 u2 = fp_mul(b.x, z1z1);
  const U256 s2 = fp_mul(fp_mul(b.y, a.z), z1z1);
  const U256 h = fp_sub(u2, a.x);
  const U256 r = fp_sub(s2, a.y);
  if ((zero_mask(h) & ~a_inf & ~b_inf) != 0)
    return is_zero(r) ? jdouble(a) : jacobian_infinity();
  const U256 hh = fp_sqr(h);
  const U256 hhh = fp_mul(h, hh);
  const U256 v = fp_mul(a.x, hh);
  JPoint out;
  out.x = fp_sub(fp_sub(fp_sqr(r), hhh), fp_add(v, v));
  out.y = fp_sub(fp_mul(r, fp_sub(v, out.x)), fp_mul(a.y, hhh));
  out.z = fp_mul(a.z, h);
  return select(a_inf, JPoint{b.x, b.y, select(b_inf, kZero, kOneP)}, select(b_inf, a, out));
}

/// Entries 1..15 of a window table: entry j-1 holds j times the row's point.
template <typename Point>
using Row = Point[15];

/// Constant-time read of `row` at digit d (0..15): scans every entry and
/// keeps entry d-1 by mask; digit 0 yields all-zero coordinates.
template <typename Point>
Point lookup(const Row<Point>& row, u64 digit) {
  Point out{};
  for (u64 j = 0; j < 15; ++j) out = select(eq_mask(digit, j + 1), row[j], out);
  return out;
}

/// Base-16 digit i of k (i = 0 is least significant).
u64 nibble(const U256& k, int i) { return (k.w[i / 16] >> (4 * (i % 16))) & 15; }

JPoint base_point() { return JPoint{fp_to_mont(kGx), fp_to_mont(kGy), kOneP}; }

/// Fixed-base comb for G: row[i][j-1] = j * 16^i * G, affine, 61,440 B.
struct CombTable {
  Row<APoint> row[64];
};

CombTable build_comb_table() {
  std::vector<JPoint> points(64 * 15);
  JPoint base = base_point();  // 16^i * G
  for (int i = 0; i < 64; ++i) {
    JPoint* row = &points[i * 15];
    row[0] = base;
    for (int j = 1; j < 15; ++j) row[j] = jadd(row[j - 1], base);
    base = jdouble(row[7]);  // 2 * (8 * 16^i * G)
  }
  // Montgomery's trick: one inversion for all 960 z coordinates.
  std::vector<U256> prefix(points.size());
  U256 acc = kOneP;
  for (std::size_t k = 0; k < points.size(); ++k) {
    prefix[k] = acc;
    acc = fp_mul(acc, points[k].z);
  }
  U256 inv = fp_inv(acc);
  CombTable table;
  for (std::size_t k = points.size(); k-- > 0;) {
    const U256 zinv = fp_mul(inv, prefix[k]);
    inv = fp_mul(inv, points[k].z);
    const U256 zinv2 = fp_sqr(zinv);
    table.row[k / 15][k % 15] =
        APoint{fp_mul(points[k].x, zinv2), fp_mul(points[k].y, fp_mul(zinv2, zinv))};
  }
  return table;
}

/// Built on first use; the function-local static makes concurrent first
/// calls wait for one build.
const CombTable& comb_table() {
  static const CombTable table = build_comb_table();
  return table;
}

/// k * G: one mixed addition per base-16 digit of k, no doublings.
JPoint comb_mul(const U256& k) {
  const CombTable& table = comb_table();
  JPoint acc = jacobian_infinity();
  for (int i = 0; i < 64; ++i) {
    const u64 digit = nibble(k, i);
    acc = madd(acc, lookup(table.row[i], digit), eq_mask(digit, 0));
  }
  return acc;
}

/// k * P: 4-bit fixed window over a per-call table of 1..15 * P.
JPoint window_mul(const JPoint& p, const U256& k) {
  Row<JPoint> table;
  table[0] = p;
  for (int j = 1; j < 15; ++j)
    table[j] = j % 2 == 1 ? jdouble(table[j / 2]) : jadd(table[j - 1], p);
  JPoint acc = jacobian_infinity();
  for (int i = 63; i >= 0; --i) {
    for (int d = 0; d < 4; ++d) acc = jdouble(acc);
    acc = jadd(acc, lookup(table, nibble(k, i)));
  }
  return acc;
}

}  // namespace

Bytes EcPoint::encode_uncompressed() const {
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  append(out, x);
  append(out, y);
  return out;
}

Result<EcPoint> EcPoint::decode_uncompressed(ByteView data) {
  if (data.size() != 65 || data[0] != 0x04)
    return Result<EcPoint>::err("EcPoint: expected 65-byte uncompressed encoding");
  EcPoint p;
  p.infinity = false;
  std::memcpy(p.x.data(), data.data() + 1, 32);
  std::memcpy(p.y.data(), data.data() + 33, 32);
  if (!p256_on_curve(p)) return Result<EcPoint>::err("EcPoint: not on curve");
  return p;
}

EcPoint p256_base_mul(const Scalar32& k) { return to_affine(comb_mul(from_be(k))); }

EcPoint p256_mul(const EcPoint& p, const Scalar32& k) {
  return to_affine(window_mul(to_jacobian(p), from_be(k)));
}

EcPoint p256_base_mul_add(const Scalar32& u1, const EcPoint& q, const Scalar32& u2) {
  return to_affine(jadd(comb_mul(from_be(u1)), window_mul(to_jacobian(q), from_be(u2))));
}

EcPoint p256_add(const EcPoint& a, const EcPoint& b) {
  return to_affine(jadd(to_jacobian(a), to_jacobian(b)));
}

bool p256_on_curve(const EcPoint& p) {
  if (p.infinity) return true;
  const U256 x = from_be(p.x);
  const U256 y = from_be(p.y);
  if (cmp(x, kP) >= 0 || cmp(y, kP) >= 0) return false;
  const U256 xm = fp_to_mont(x);
  const U256 ym = fp_to_mont(y);
  // y^2 == x^3 - 3x + b
  const U256 lhs = fp_sqr(ym);
  const U256 x2 = fp_sqr(xm);
  const U256 x3 = fp_mul(x2, xm);
  const U256 three_x = fp_add(fp_add(xm, xm), xm);
  const U256 rhs = fp_add(fp_sub(x3, three_x), fp_to_mont(kB));
  return lhs == rhs;
}

bool p256_scalar_valid(const Scalar32& k) {
  const U256 v = from_be(k);
  return !is_zero(v) && cmp(v, kN) < 0;
}

Scalar32 scalar_mod_n(const Scalar32& v) { return to_be(reduce_once(from_be(v), 0, kN)); }

Scalar32 scalar_add_mod_n(const Scalar32& a, const Scalar32& b) {
  return to_be(add_mod(from_be(a), from_be(b), kN));
}

/// a*b*R^-1 is below R even for unreduced operands, so the second multiply,
/// by R^2, lands fully reduced on a*b mod n.
Scalar32 scalar_mul_mod_n(const Scalar32& a, const Scalar32& b) {
  return to_be(fn_mul(fn_mul(from_be(a), from_be(b)), kRRn));
}

Scalar32 scalar_inv_mod_n(const Scalar32& a) {
  return to_be(fn_from_mont(fn_inv(fn_to_mont(from_be(a)))));
}

bool scalar_is_zero(const Scalar32& a) { return is_zero(from_be(a)); }

}  // namespace watz::crypto
