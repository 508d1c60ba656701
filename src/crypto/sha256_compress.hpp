// SHA-256 block compression, internal to crypto/: the portable rounds and
// the x86-64 SHA extensions (SHA-NI) version. Both are exposed so the tests
// can check one against the other bit for bit; everything else hashes
// through Sha256 / sha256().
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace watz::crypto::sha256_detail {

using State = std::array<std::uint32_t, 8>;
/// Runs `nblocks` consecutive 64-byte blocks at `data` (any alignment)
/// through the compression function, updating `state` in place.
using CompressFn = void (*)(State& state, const std::uint8_t* data,
                            std::size_t nblocks) noexcept;

/// The FIPS 180-4 rounds in plain C++; available on every build.
void compress_portable(State& state, const std::uint8_t* data, std::size_t nblocks) noexcept;

/// The SHA-NI compression, or nullptr when this is not an x86-64 build or
/// the CPU lacks SHA (CPUID.7.0:EBX[29]), SSSE3 or SSE4.1.
CompressFn sha_ni_compress() noexcept;

}  // namespace watz::crypto::sha256_detail
