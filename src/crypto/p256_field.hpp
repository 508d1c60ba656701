// P-256 field arithmetic, internal to crypto/: Montgomery multiplication,
// squaring, addition and subtraction mod p and mod n, and the add-with-carry
// pair under them. Exposed so the tests can check every operation against a
// bit-serial reference; everything else goes through p256.hpp.
#pragma once

#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace watz::crypto::p256_detail {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// 256-bit unsigned integer, little-endian limb order.
struct U256 {
  u64 w[4] = {0, 0, 0, 0};

  bool operator==(const U256&) const = default;
};

/// a + b + carry for carry in {0, 1}; `carry` becomes the carry out.
inline u64 addc_portable(u64 a, u64 b, u64& carry) noexcept {
  const u128 sum = static_cast<u128>(a) + b + carry;
  carry = static_cast<u64>(sum >> 64);
  return static_cast<u64>(sum);
}

/// a - b - borrow for borrow in {0, 1}; `borrow` becomes the borrow out.
inline u64 subb_portable(u64 a, u64 b, u64& borrow) noexcept {
  const u128 diff = static_cast<u128>(a) - b - borrow;
  borrow = static_cast<u64>(diff >> 64) & 1;
  return static_cast<u64>(diff);
}

/// The carry pair every limb chain uses: `adc`/`sbb` on x86-64 (baseline
/// ISA, no CPUID pick), the u128 forms above elsewhere.
inline u64 addc(u64 a, u64 b, u64& carry) noexcept {
#if defined(__x86_64__)
  unsigned long long out = 0;
  carry = _addcarry_u64(static_cast<unsigned char>(carry), a, b, &out);
  return out;
#else
  return addc_portable(a, b, carry);
#endif
}

inline u64 subb(u64 a, u64 b, u64& borrow) noexcept {
#if defined(__x86_64__)
  unsigned long long out = 0;
  borrow = _subborrow_u64(static_cast<unsigned char>(borrow), a, b, &out);
  return out;
#else
  return subb_portable(a, b, borrow);
#endif
}

// Mod p = 2^256 - 2^224 + 2^192 + 2^96 - 1 and mod the group order n, with
// R = 2^256. Operands must be below the modulus; results are. mul/sqr take
// and return the Montgomery domain (a*b*R^-1); add/sub work in either.
U256 fp_mul(const U256& a, const U256& b) noexcept;
U256 fp_sqr(const U256& a) noexcept;
U256 fp_add(const U256& a, const U256& b) noexcept;
U256 fp_sub(const U256& a, const U256& b) noexcept;
U256 fp_to_mont(const U256& a) noexcept;
U256 fp_from_mont(const U256& a) noexcept;

U256 fn_mul(const U256& a, const U256& b) noexcept;
U256 fn_sqr(const U256& a) noexcept;
U256 fn_to_mont(const U256& a) noexcept;
U256 fn_from_mont(const U256& a) noexcept;

}  // namespace watz::crypto::p256_detail
