// NIST P-256 (secp256r1) group arithmetic, from scratch.
//
// Internals use 4x64-bit limbs with Montgomery multiplication and Jacobian
// projective points. k*G walks a fixed-base comb table (j * 16^i * G, built
// once per process); k*P uses a 4-bit fixed window. Scalar multiplication is
// constant-time in the scalar: table reads scan every entry by mask and a
// zero digit still runs its addition. This header exposes only the
// byte-oriented group API; ECDSA/ECDH sit on top in ecdsa.hpp. The curve
// choice follows the paper (secp256r1 per NIST recommendation, SS V
// "Implementation").
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace watz::crypto {

/// 256-bit scalar or coordinate, big-endian byte order.
using Scalar32 = std::array<std::uint8_t, 32>;

/// Affine curve point. `infinity` true means the identity element.
struct EcPoint {
  Scalar32 x{};
  Scalar32 y{};
  bool infinity = true;

  /// SEC1 uncompressed encoding: 0x04 || x || y (65 bytes).
  Bytes encode_uncompressed() const;
  /// Decodes SEC1 uncompressed form and checks curve membership.
  static Result<EcPoint> decode_uncompressed(ByteView data);

  bool operator==(const EcPoint& other) const = default;
};

/// k * G for the fixed base point. Requires a valid scalar (1..n-1).
EcPoint p256_base_mul(const Scalar32& k);

/// k * P for arbitrary P (P must be on the curve).
EcPoint p256_mul(const EcPoint& p, const Scalar32& k);

/// u1 * G + u2 * Q with a single final inversion (ECDSA verification).
/// Q must be on the curve; either scalar may be zero.
EcPoint p256_base_mul_add(const Scalar32& u1, const EcPoint& q, const Scalar32& u2);

EcPoint p256_add(const EcPoint& a, const EcPoint& b);

bool p256_on_curve(const EcPoint& p);

/// True iff 1 <= k < n (the group order).
bool p256_scalar_valid(const Scalar32& k);

// -- scalar arithmetic mod the group order n (for ECDSA) --------------------

/// Reduces an arbitrary 32-byte big-endian value mod n.
Scalar32 scalar_mod_n(const Scalar32& v);
Scalar32 scalar_add_mod_n(const Scalar32& a, const Scalar32& b);
Scalar32 scalar_mul_mod_n(const Scalar32& a, const Scalar32& b);
/// Modular inverse mod n; input must be non-zero mod n.
Scalar32 scalar_inv_mod_n(const Scalar32& a);
bool scalar_is_zero(const Scalar32& a);

}  // namespace watz::crypto
