#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>

#include "common/bytes.hpp"
#include "crypto/sha256_compress.hpp"

namespace watz::crypto {
namespace {

std::string hex_digest(ByteView data) {
  const Sha256Digest d = sha256(data);
  return to_hex(d);
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_digest({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_digest(to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_digest(to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  const Bytes data(1000000, 'a');
  EXPECT_EQ(hex_digest(data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog repeatedly");
  // Feed in irregular chunk sizes crossing block boundaries.
  for (std::size_t chunk : {1u, 3u, 7u, 19u, 63u, 64u, 65u}) {
    Sha256 ctx;
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t take = std::min(chunk, data.size() - off);
      ctx.update(ByteView(data.data() + off, take));
      off += take;
    }
    EXPECT_EQ(ctx.finish(), sha256(data)) << "chunk=" << chunk;
  }
}

TEST(Sha256, ExactBlockBoundaries) {
  // 55/56/64 byte inputs hit the padding edge cases.
  for (std::size_t n : {55u, 56u, 63u, 64u, 119u, 120u, 128u}) {
    const Bytes data(n, 0x5a);
    Sha256 ctx;
    ctx.update(data);
    EXPECT_EQ(ctx.finish(), sha256(data)) << n;
  }
}

TEST(Sha256, ResetReusesObject) {
  Sha256 ctx;
  ctx.update(to_bytes("abc"));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(to_bytes("abc"));
  EXPECT_EQ(to_hex(ctx.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// -- differential: SHA-NI vs the portable rounds ----------------------------
//
// Each block function is driven on its own (no Sha256 object in between) on
// the FIPS vectors and on random buffers from a printed seed;
// WATZ_SHA_SEED=0x<s> replays a run. The random buffers also go through
// Sha256::update in random chunk splits, which exercises the buffering and
// whichever block function this CPU picked.

using sha256_detail::CompressFn;

struct Vector {
  std::string message;
  const char* digest;
};

std::vector<Vector> fips_vectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmn"
       "opqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

/// SHA-256 of `msg` through `compress` alone. The whole blocks go in runs
/// whose lengths `rng` picks (one run when `rng` is null), then the padded
/// tail.
Sha256Digest digest_with(CompressFn compress, ByteView msg, std::mt19937_64* rng = nullptr) {
  sha256_detail::State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const std::size_t whole = msg.size() / 64;
  for (std::size_t done = 0; done < whole;) {
    const std::size_t run = rng == nullptr ? whole - done : 1 + (*rng)() % (whole - done);
    compress(state, msg.data() + 64 * done, run);
    done += run;
  }
  std::uint8_t tail[128] = {};
  const std::size_t rest = msg.size() % 64;
  if (rest > 0) std::memcpy(tail, msg.data() + 64 * whole, rest);
  tail[rest] = 0x80;
  const std::size_t tail_blocks = rest < 56 ? 1 : 2;
  const std::uint64_t bit_len = std::uint64_t{msg.size()} * 8;
  for (int i = 0; i < 8; ++i)
    tail[64 * tail_blocks - 1 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  compress(state, tail, tail_blocks);
  Sha256Digest out;
  for (int i = 0; i < 32; ++i) out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

/// The SHA-NI block function, or skips the calling test.
#define REQUIRE_SHA_NI(fn)                                                              \
  const CompressFn fn = sha256_detail::sha_ni_compress();                               \
  if (fn == nullptr)                                                                    \
    GTEST_SKIP() << "no SHA-NI: not an x86-64 build, or the CPU lacks SHA "             \
                    "(CPUID.7.0:EBX[29]), SSSE3 or SSE4.1; only the portable path runs"

TEST(Sha256Compress, PortableMatchesFipsVectors) {
  for (const Vector& v : fips_vectors())
    EXPECT_EQ(to_hex(digest_with(&sha256_detail::compress_portable, to_bytes(v.message))),
              v.digest)
        << v.message.size() << " bytes";
}

TEST(Sha256Compress, ShaNiMatchesFipsVectors) {
  REQUIRE_SHA_NI(sha_ni);
  for (const Vector& v : fips_vectors())
    EXPECT_EQ(to_hex(digest_with(sha_ni, to_bytes(v.message))), v.digest)
        << v.message.size() << " bytes";
}

std::uint64_t differential_seed() {
  static const std::uint64_t seed = []() -> std::uint64_t {
    if (const char* env = std::getenv("WATZ_SHA_SEED")) return std::strtoull(env, nullptr, 0);
    std::random_device device;
    return (static_cast<std::uint64_t>(device()) << 32) ^ device();
  }();
  return seed;
}

/// A random message at a random offset (0..15) into its storage, so the
/// block functions see every alignment.
struct Buffer {
  Bytes storage;
  std::size_t offset = 0;
  ByteView view() const { return ByteView(storage).subspan(offset); }
};

class Sha256Differential : public ::testing::Test {
 protected:
  void SetUp() override {
    std::printf("sha256 differential seed: WATZ_SHA_SEED=0x%llx\n",
                static_cast<unsigned long long>(differential_seed()));
    rng_.seed(differential_seed());
    // 2,000 buffers of 0..1,100 bytes, then one of 256 KiB.
    for (int i = 0; i <= 2000; ++i) {
      const std::size_t size = i < 2000 ? rng_() % 1101 : 256 * 1024;
      Buffer b;
      b.offset = rng_() % 16;
      b.storage.resize(b.offset + size);
      for (std::uint8_t& byte : b.storage) byte = static_cast<std::uint8_t>(rng_());
      buffers_.push_back(std::move(b));
    }
  }

  std::mt19937_64 rng_;
  std::vector<Buffer> buffers_;
};

TEST_F(Sha256Differential, ChunkedUpdateMatchesPortable) {
  SCOPED_TRACE(::testing::Message() << "WATZ_SHA_SEED=0x" << std::hex << differential_seed());
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    const ByteView msg = buffers_[i].view();
    Sha256 ctx;
    for (std::size_t off = 0; off < msg.size();) {
      // Mostly short chunks, sometimes runs of several blocks.
      const std::size_t cap = rng_() % 4 == 0 ? 1024 : 80;
      const std::size_t take = std::min<std::size_t>(rng_() % (cap + 1), msg.size() - off);
      ctx.update(msg.subspan(off, take));
      off += take;
    }
    ASSERT_EQ(ctx.finish(), digest_with(&sha256_detail::compress_portable, msg))
        << "buffer " << i << ", " << msg.size() << " bytes";
  }
}

TEST_F(Sha256Differential, ShaNiMatchesPortable) {
  REQUIRE_SHA_NI(sha_ni);
  SCOPED_TRACE(::testing::Message() << "WATZ_SHA_SEED=0x" << std::hex << differential_seed());
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    const ByteView msg = buffers_[i].view();
    ASSERT_EQ(digest_with(sha_ni, msg, &rng_),
              digest_with(&sha256_detail::compress_portable, msg, &rng_))
        << "buffer " << i << ", " << msg.size() << " bytes";
  }
}

}  // namespace
}  // namespace watz::crypto
