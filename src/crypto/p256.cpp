#include "crypto/p256.hpp"

#include <cstring>
#include <vector>

namespace watz::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// 256-bit unsigned integer, little-endian limb order.
struct U256 {
  u64 w[4] = {0, 0, 0, 0};

  bool operator==(const U256&) const = default;
};

constexpr U256 kZero{};

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

/// mask ? a : b (mask is all-ones or zero).
U256 select(u64 mask, const U256& a, const U256& b) noexcept {
  U256 r;
  for (int i = 0; i < 4; ++i) r.w[i] = (a.w[i] & mask) | (b.w[i] & ~mask);
  return r;
}

/// Returns -1/0/1 for a<b / a==b / a>b.
int cmp(const U256& a, const U256& b) noexcept {
  for (int i = 3; i >= 0; --i) {
    if (a.w[i] < b.w[i]) return -1;
    if (a.w[i] > b.w[i]) return 1;
  }
  return 0;
}

/// a + b; returns carry out.
u64 add(U256& out, const U256& a, const U256& b) noexcept {
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(a.w[i]) + b.w[i] + carry;
    out.w[i] = static_cast<u64>(cur);
    carry = cur >> 64;
  }
  return static_cast<u64>(carry);
}

/// a - b; returns borrow out (1 if a < b).
u64 sub(U256& out, const U256& a, const U256& b) noexcept {
  u128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(a.w[i]) - b.w[i] - borrow;
    out.w[i] = static_cast<u64>(cur);
    borrow = (cur >> 64) & 1;
  }
  return static_cast<u64>(borrow);
}

int bit(const U256& v, int i) noexcept { return (v.w[i / 64] >> (i % 64)) & 1; }

/// Montgomery arithmetic modulo a fixed 256-bit modulus M (R = 2^256), with
/// RR = R^2 mod M and N0 = -M^-1 mod 2^64. The constants are template
/// arguments so the compiler folds the modulus limbs into the code. No
/// branch or memory address depends on an operand value.
template <U256 M, U256 RR, u64 N0>
class MontCtx {
 public:
  /// a*b*R^-1 mod M (operands in Montgomery domain -> result in domain),
  /// by coarsely integrated operand scanning (CIOS).
  U256 mul(const U256& a, const U256& b) const noexcept {
    u64 t[6] = {};
    for (int i = 0; i < 4; ++i) {
      u128 carry = 0;
      for (int j = 0; j < 4; ++j) {
        const u128 cur = static_cast<u128>(a.w[j]) * b.w[i] + t[j] + carry;
        t[j] = static_cast<u64>(cur);
        carry = cur >> 64;
      }
      u128 cur = static_cast<u128>(t[4]) + carry;
      t[4] = static_cast<u64>(cur);
      t[5] = static_cast<u64>(cur >> 64);
      // Add q*M so the low limb vanishes, then shift down one limb.
      const u64 q = t[0] * N0;
      carry = (static_cast<u128>(q) * M.w[0] + t[0]) >> 64;
      for (int j = 1; j < 4; ++j) {
        cur = static_cast<u128>(q) * M.w[j] + t[j] + carry;
        t[j - 1] = static_cast<u64>(cur);
        carry = cur >> 64;
      }
      cur = static_cast<u128>(t[4]) + carry;
      t[3] = static_cast<u64>(cur);
      t[4] = t[5] + static_cast<u64>(cur >> 64);
    }
    return reduce_once(U256{t[0], t[1], t[2], t[3]}, t[4]);
  }

  /// (carry * 2^256 + r) mod M for a value below 2M.
  U256 reduce_once(const U256& r, u64 carry) const noexcept {
    U256 s;
    const u64 borrow = sub(s, r, M);
    // The value is below M exactly when r - M borrows and nothing carried in.
    return select(0 - (borrow & ~carry & 1), r, s);
  }

  U256 to_mont(const U256& a) const noexcept { return mul(a, RR); }
  U256 from_mont(const U256& a) const noexcept { return mul(a, U256{1, 0, 0, 0}); }

  U256 add_mod(const U256& a, const U256& b) const noexcept {
    U256 r;
    const u64 carry = add(r, a, b);
    return reduce_once(r, carry);
  }

  U256 sub_mod(const U256& a, const U256& b) const noexcept {
    U256 r;
    const u64 borrow = sub(r, a, b);
    add(r, r, select(0 - borrow, M, kZero));
    return r;
  }

  /// a^e mod M for a public exponent e (a in Montgomery domain, result in
  /// domain).
  U256 pow(const U256& a, const U256& e) const noexcept {
    U256 result = to_mont(U256{1, 0, 0, 0});
    for (int i = 255; i >= 0; --i) {
      result = mul(result, result);
      if (bit(e, i)) result = mul(result, a);
    }
    return result;
  }

  /// Modular inverse via Fermat (M prime). Input/output in Montgomery domain.
  U256 inv(const U256& a) const noexcept {
    U256 e;
    sub(e, M, U256{2, 0, 0, 0});
    return pow(a, e);
  }
};

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

// Precomputed Montgomery constants.
// R mod p = 00000000fffffffe ffffffffffffffff ffffffff00000000 0000000000000001
constexpr U256 kOneP{0x0000000000000001ULL, 0xffffffff00000000ULL, 0xffffffffffffffffULL,
                     0x00000000fffffffeULL};
// R^2 mod p = 00000004fffffffd fffffffffffffffe fffffffbffffffff 0000000000000003
constexpr U256 kRRp{0x0000000000000003ULL, 0xfffffffbffffffffULL, 0xfffffffffffffffeULL,
                    0x00000004fffffffdULL};
// -p^-1 mod 2^64 = 1 (since p mod 2^64 = 2^64 - 1).
constexpr u64 kN0p = 1;
// R^2 mod n = 66e12d94f3d95620 2845b2392b6bec59 4699799c49bd6fa6 83244c95be79eea2
constexpr U256 kRRn{0x83244c95be79eea2ULL, 0x4699799c49bd6fa6ULL, 0x2845b2392b6bec59ULL,
                    0x66e12d94f3d95620ULL};
// -n^-1 mod 2^64 = 0xccd1c8aaee00bc4f
constexpr u64 kN0n = 0xccd1c8aaee00bc4fULL;

constexpr MontCtx<kP, kRRp, kN0p> kFp;
constexpr MontCtx<kN, kRRn, kN0n> kFn;

/// a^-1 = a^(p-2) in F_p by a fixed addition chain (255 squarings, 12
/// multiplications). x_k below is a^(2^k - 1).
U256 fp_inv(const U256& a) noexcept {
  const auto& f = kFp;
  const auto sqr_n = [&f](U256 x, int n) {
    while (n-- > 0) x = f.mul(x, x);
    return x;
  };
  const U256 x2 = f.mul(sqr_n(a, 1), a);
  const U256 x3 = f.mul(sqr_n(x2, 1), a);
  const U256 x6 = f.mul(sqr_n(x3, 3), x3);
  const U256 x12 = f.mul(sqr_n(x6, 6), x6);
  const U256 x15 = f.mul(sqr_n(x12, 3), x3);
  const U256 x30 = f.mul(sqr_n(x15, 15), x15);
  const U256 x32 = f.mul(sqr_n(x30, 2), x2);
  // p - 2 = ffffffff 00000001 00000000 00000000 00000000 ffffffff ffffffff fffffffd
  U256 t = f.mul(sqr_n(x32, 32), a);
  t = f.mul(sqr_n(t, 128), x32);
  t = f.mul(sqr_n(t, 32), x32);
  t = f.mul(sqr_n(t, 30), x30);
  return f.mul(sqr_n(t, 2), a);
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
  return JPoint{kFp.to_mont(from_be(p.x)), kFp.to_mont(from_be(p.y)), kOneP};
}

EcPoint to_affine(const JPoint& p) {
  if (is_zero(p.z)) return EcPoint{};
  const auto& f = kFp;
  const U256 zinv = fp_inv(p.z);
  const U256 zinv2 = f.mul(zinv, zinv);
  const U256 zinv3 = f.mul(zinv2, zinv);
  EcPoint out;
  out.infinity = false;
  out.x = to_be(f.from_mont(f.mul(p.x, zinv2)));
  out.y = to_be(f.from_mont(f.mul(p.y, zinv3)));
  return out;
}

/// Point doubling, dbl-2001-b formulas for a = -3. Infinity (z = 0) maps to
/// z = 0, and P-256 has no point with y = 0, so no input needs a branch.
JPoint jdouble(const JPoint& p) {
  const auto& f = kFp;
  const U256 delta = f.mul(p.z, p.z);
  const U256 gamma = f.mul(p.y, p.y);
  const U256 beta = f.mul(p.x, gamma);
  const U256 t0 = f.sub_mod(p.x, delta);
  const U256 t1 = f.add_mod(p.x, delta);
  U256 alpha = f.mul(t0, t1);
  alpha = f.add_mod(f.add_mod(alpha, alpha), alpha);  // 3*(x-d)*(x+d)
  U256 beta4 = f.add_mod(beta, beta);
  beta4 = f.add_mod(beta4, beta4);
  const U256 beta8 = f.add_mod(beta4, beta4);
  JPoint r;
  r.x = f.sub_mod(f.mul(alpha, alpha), beta8);
  const U256 yz = f.add_mod(p.y, p.z);
  r.z = f.sub_mod(f.sub_mod(f.mul(yz, yz), gamma), delta);
  const U256 g2 = f.mul(gamma, gamma);
  U256 g8 = f.add_mod(g2, g2);
  g8 = f.add_mod(g8, g8);
  g8 = f.add_mod(g8, g8);
  r.y = f.sub_mod(f.mul(alpha, f.sub_mod(beta4, r.x)), g8);
  return r;
}

/// General Jacobian addition. An infinite input is absorbed by a masked
/// select; the only branch is on equal or opposite finite inputs.
JPoint jadd(const JPoint& a, const JPoint& b) {
  const auto& f = kFp;
  const u64 a_inf = zero_mask(a.z);
  const u64 b_inf = zero_mask(b.z);
  const U256 z1z1 = f.mul(a.z, a.z);
  const U256 z2z2 = f.mul(b.z, b.z);
  const U256 u1 = f.mul(a.x, z2z2);
  const U256 u2 = f.mul(b.x, z1z1);
  const U256 s1 = f.mul(f.mul(a.y, b.z), z2z2);
  const U256 s2 = f.mul(f.mul(b.y, a.z), z1z1);
  const U256 h = f.sub_mod(u2, u1);
  const U256 r = f.sub_mod(s2, s1);
  if ((zero_mask(h) & ~a_inf & ~b_inf) != 0)
    return is_zero(r) ? jdouble(a) : jacobian_infinity();
  const U256 hh = f.mul(h, h);
  const U256 hhh = f.mul(h, hh);
  const U256 v = f.mul(u1, hh);
  JPoint out;
  out.x = f.sub_mod(f.sub_mod(f.mul(r, r), hhh), f.add_mod(v, v));
  out.y = f.sub_mod(f.mul(r, f.sub_mod(v, out.x)), f.mul(s1, hhh));
  out.z = f.mul(f.mul(a.z, b.z), h);
  return select(a_inf, b, select(b_inf, a, out));
}

/// Mixed addition a + b for affine b; `b_inf` is all-ones when b stands for
/// the identity. Same branch rule as jadd.
JPoint madd(const JPoint& a, const APoint& b, u64 b_inf) {
  const auto& f = kFp;
  const u64 a_inf = zero_mask(a.z);
  const U256 z1z1 = f.mul(a.z, a.z);
  const U256 u2 = f.mul(b.x, z1z1);
  const U256 s2 = f.mul(f.mul(b.y, a.z), z1z1);
  const U256 h = f.sub_mod(u2, a.x);
  const U256 r = f.sub_mod(s2, a.y);
  if ((zero_mask(h) & ~a_inf & ~b_inf) != 0)
    return is_zero(r) ? jdouble(a) : jacobian_infinity();
  const U256 hh = f.mul(h, h);
  const U256 hhh = f.mul(h, hh);
  const U256 v = f.mul(a.x, hh);
  JPoint out;
  out.x = f.sub_mod(f.sub_mod(f.mul(r, r), hhh), f.add_mod(v, v));
  out.y = f.sub_mod(f.mul(r, f.sub_mod(v, out.x)), f.mul(a.y, hhh));
  out.z = f.mul(a.z, h);
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

JPoint base_point() { return JPoint{kFp.to_mont(kGx), kFp.to_mont(kGy), kOneP}; }

/// Fixed-base comb for G: row[i][j-1] = j * 16^i * G, affine, 61,440 B.
struct CombTable {
  Row<APoint> row[64];
};

CombTable build_comb_table() {
  const auto& f = kFp;
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
    acc = f.mul(acc, points[k].z);
  }
  U256 inv = fp_inv(acc);
  CombTable table;
  for (std::size_t k = points.size(); k-- > 0;) {
    const U256 zinv = f.mul(inv, prefix[k]);
    inv = f.mul(inv, points[k].z);
    const U256 zinv2 = f.mul(zinv, zinv);
    table.row[k / 15][k % 15] =
        APoint{f.mul(points[k].x, zinv2), f.mul(points[k].y, f.mul(zinv2, zinv))};
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
  const auto& f = kFp;
  const U256 x = from_be(p.x);
  const U256 y = from_be(p.y);
  if (cmp(x, kP) >= 0 || cmp(y, kP) >= 0) return false;
  const U256 xm = f.to_mont(x);
  const U256 ym = f.to_mont(y);
  // y^2 == x^3 - 3x + b
  const U256 lhs = f.mul(ym, ym);
  const U256 x2 = f.mul(xm, xm);
  const U256 x3 = f.mul(x2, xm);
  const U256 three_x = f.add_mod(f.add_mod(xm, xm), xm);
  const U256 rhs = f.add_mod(f.sub_mod(x3, three_x), f.to_mont(kB));
  return lhs == rhs;
}

bool p256_scalar_valid(const Scalar32& k) {
  const U256 v = from_be(k);
  return !is_zero(v) && cmp(v, kN) < 0;
}

Scalar32 scalar_mod_n(const Scalar32& v) { return to_be(kFn.reduce_once(from_be(v), 0)); }

Scalar32 scalar_add_mod_n(const Scalar32& a, const Scalar32& b) {
  return to_be(kFn.add_mod(from_be(a), from_be(b)));
}

Scalar32 scalar_mul_mod_n(const Scalar32& a, const Scalar32& b) {
  const auto& f = kFn;
  return to_be(f.from_mont(f.mul(f.to_mont(from_be(a)), f.to_mont(from_be(b)))));
}

Scalar32 scalar_inv_mod_n(const Scalar32& a) {
  const auto& f = kFn;
  return to_be(f.from_mont(f.inv(f.to_mont(from_be(a)))));
}

bool scalar_is_zero(const Scalar32& a) { return is_zero(from_be(a)); }

}  // namespace watz::crypto
