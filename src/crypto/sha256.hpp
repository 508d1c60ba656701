// SHA-256 (FIPS 180-4). Used for code measurement of Wasm bytecode, the
// evidence anchor, MKVB derivation and RFC 6979 nonce generation.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace watz::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(ByteView data) noexcept;
  /// Finalises and returns the digest. The object must be reset() before
  /// further use.
  Sha256Digest finish() noexcept;

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// One-shot convenience wrapper.
Sha256Digest sha256(ByteView data) noexcept;

}  // namespace watz::crypto
