#include "common/leb128.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <type_traits>

namespace watz {
namespace {

TEST(Leb128, UnsignedRoundTrip) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 624485ULL, 0xffffffffULL,
                          0xffffffffffffffffULL}) {
    Bytes out;
    write_uleb(out, v);
    EXPECT_EQ(out.size(), uleb_size(v));
    ByteReader reader(out);
    auto back = reader.read_uleb64();
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(reader.at_end());
  }
}

TEST(Leb128, SignedRoundTrip) {
  const std::int64_t values[] = {0,       1,        -1,        63,        64,
                                 -64,     -65,      624485,    -624485,   INT64_MAX,
                                 INT64_MIN};
  for (std::int64_t v : values) {
    Bytes out;
    write_sleb(out, v);
    ByteReader reader(out);
    auto back = reader.read_sleb64();
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(*back, v);
  }
}

TEST(Leb128, KnownEncodings) {
  // Classic DWARF/Wasm examples.
  Bytes out;
  write_uleb(out, 624485);
  EXPECT_EQ(out, (Bytes{0xe5, 0x8e, 0x26}));
  out.clear();
  write_sleb(out, -123456);
  EXPECT_EQ(out, (Bytes{0xc0, 0xbb, 0x78}));
}

TEST(Leb128, Sleb32Range) {
  Bytes out;
  write_sleb(out, static_cast<std::int64_t>(INT32_MIN));
  ByteReader reader(out);
  auto v = reader.read_sleb32();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, INT32_MIN);

  out.clear();
  write_sleb(out, static_cast<std::int64_t>(INT32_MAX) + 1);
  ByteReader reader2(out);
  EXPECT_FALSE(reader2.read_sleb32().ok());
}

TEST(Leb128, Uleb32Overflow) {
  const Bytes too_big = {0xff, 0xff, 0xff, 0xff, 0x7f};  // 35 bits set
  ByteReader reader(too_big);
  EXPECT_FALSE(reader.read_uleb32().ok());
}

TEST(Leb128, TruncatedInput) {
  const Bytes truncated = {0x80};  // continuation bit, no next byte
  ByteReader reader(truncated);
  EXPECT_FALSE(reader.read_uleb32().ok());
}

TEST(ByteReader, ReadPrimitives) {
  const Bytes data = {0xaa, 0x01, 0x02, 0x03, 0x04, 0x10, 0x11};
  ByteReader reader(data);
  EXPECT_EQ(*reader.read_u8(), 0xaa);
  EXPECT_EQ(*reader.read_u32le(), 0x04030201u);
  auto run = reader.read_bytes(2);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ((*run)[0], 0x10);
  EXPECT_TRUE(reader.at_end());
  EXPECT_FALSE(reader.read_u8().ok());
}

TEST(ByteReader, BoundsChecks) {
  const Bytes data = {1, 2};
  ByteReader reader(data);
  EXPECT_FALSE(reader.read_u32le().ok());
  EXPECT_FALSE(reader.read_bytes(3).ok());
  EXPECT_EQ(reader.remaining(), 2u);
}

// -- seeded differential test against a byte-at-a-time reference -----------
//
// ByteReader::take_leb decodes a word at a time when enough bytes remain and
// byte by byte otherwise. The reference below follows the spec's grammar for
// uN/sN (binary format, "Integers") one byte per step, with the core's
// contract on top: at the last byte the type allows, a payload the type
// cannot hold is "overflow", checked before a continuation bit, which is
// "too long"; on failure the position does not move. Each case compares
// value, position and error string, for all four integer types, at every
// start offset and with the buffer cut at every tail offset (so both paths
// run on each encoding). Buffers are allocated to their exact size, so the
// sanitizers see any word load past the end. The seed is printed;
// WATZ_LEB_SEED=0x<s> replays a run.

struct RefLeb {
  const char* error = nullptr;
  __int128 value = 0;
  std::size_t len = 0;
};

template <typename T>
struct LebSpec;
template <>
struct LebSpec<std::uint32_t> {
  static constexpr auto kRead = &ByteReader::read_uleb32;
  static constexpr const char* kOverflow = "uleb32 overflow";
  static constexpr const char* kTooLong = "uleb32 too long";
};
template <>
struct LebSpec<std::uint64_t> {
  static constexpr auto kRead = &ByteReader::read_uleb64;
  static constexpr const char* kOverflow = "uleb64 overflow";
  static constexpr const char* kTooLong = "uleb64 too long";
};
template <>
struct LebSpec<std::int32_t> {
  static constexpr auto kRead = &ByteReader::read_sleb32;
  static constexpr const char* kOverflow = "sleb32 overflow";
  static constexpr const char* kTooLong = "sleb32 too long";
};
template <>
struct LebSpec<std::int64_t> {
  static constexpr auto kRead = &ByteReader::read_sleb64;
  static constexpr const char* kOverflow = "sleb64 overflow";
  static constexpr const char* kTooLong = "sleb64 too long";
};

/// uN / sN with `bits` = N still to read, starting at `at`.
template <typename T>
RefLeb reference_leb(const Bytes& in, std::size_t at, int bits) {
  constexpr bool kSigned = std::is_signed_v<T>;
  if (at >= in.size()) return {"unexpected end of data"};
  const unsigned n = in[at];
  if (bits <= 7) {  // the last byte the type allows
    const unsigned payload = n & 0x7f;
    const bool fits = kSigned ? payload < (1u << (bits - 1)) || payload >= 128 - (1u << (bits - 1))
                              : payload < (1u << bits);
    if (!fits) return {LebSpec<T>::kOverflow};
    if (n >= 128) return {LebSpec<T>::kTooLong};
  }
  if (n < 128) return {nullptr, kSigned && n >= 64 ? __int128(n) - 128 : __int128(n), 1};
  const RefLeb rest = reference_leb<T>(in, at + 1, bits - 7);
  if (rest.error) return rest;
  return {nullptr, __int128(n - 128) + 128 * rest.value, rest.len + 1};
}

std::string hex(const Bytes& b) {
  std::string out;
  char part[4];
  for (std::uint8_t byte : b) {
    std::snprintf(part, sizeof(part), "%02x ", byte);
    out += part;
  }
  return out;
}

/// Compares the core and the read_* wrapper with the reference on `in`
/// from `start`; returns the number of mismatches.
template <typename T>
int diff_one(const Bytes& in, std::size_t start) {
  const RefLeb ref = reference_leb<T>(in, start, 8 * sizeof(T));
  const std::string want_error = ref.error ? ref.error : "";
  const std::size_t want_pos = ref.error ? start : start + ref.len;
  const T want_value = static_cast<T>(ref.value);
  EXPECT_TRUE(ref.error || __int128(want_value) == ref.value) << "reference out of range";

  ByteReader core(in);
  core.seek(start);
  T got{};
  const char* error = core.take_leb(got);
  const std::string got_error = error ? error : "";

  ByteReader wrapped(in);
  wrapped.seek(start);
  const Result<T> r = (wrapped.*LebSpec<T>::kRead)();
  const std::string wrapped_error = r.error();
  const T wrapped_value = r.ok() ? *r : T{};

  const bool same = got_error == want_error && core.pos() == want_pos &&
                    (ref.error || got == want_value) && wrapped_error == want_error &&
                    wrapped.pos() == want_pos && (ref.error || wrapped_value == want_value);
  EXPECT_TRUE(same) << LebSpec<T>::kOverflow << " decoder on [" << hex(in) << "] from " << start
                    << ": got '" << got_error << "' pos " << core.pos() << " value "
                    << +got << "; wrapper '" << wrapped_error << "' pos " << wrapped.pos()
                    << "; want '" << want_error << "' pos " << want_pos << " value "
                    << +want_value;
  return same ? 0 : 1;
}

/// Every type, from `start`, on `in` and on each prefix of it that still
/// holds `start` (the value cut at every tail offset).
int diff_all_cuts(const Bytes& in, std::size_t start) {
  int bad = 0;
  for (std::size_t end = start; end <= in.size(); ++end) {
    const Bytes cut(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(end));
    bad += diff_one<std::uint32_t>(cut, start) + diff_one<std::uint64_t>(cut, start) +
           diff_one<std::int32_t>(cut, start) + diff_one<std::int64_t>(cut, start);
  }
  return bad;
}

std::uint64_t leb_seed() {
  static const std::uint64_t seed = []() -> std::uint64_t {
    if (const char* env = std::getenv("WATZ_LEB_SEED")) return std::strtoull(env, nullptr, 0);
    std::random_device device;
    return (static_cast<std::uint64_t>(device()) << 32) ^ device();
  }();
  return seed;
}

/// Minimal encodings of `v` (unsigned and signed), then each re-encoded
/// with 1..10 padding groups (overlong), up to 11 bytes long.
std::vector<Bytes> encodings_of(std::uint64_t v) {
  std::vector<Bytes> out;
  Bytes u, s;
  write_uleb(u, v);
  write_sleb(s, static_cast<std::int64_t>(v));
  for (const Bytes& minimal : {u, s}) {
    const bool negative = &minimal == &s && static_cast<std::int64_t>(v) < 0;
    Bytes padded = minimal;
    out.push_back(padded);
    while (padded.size() < 11) {
      padded.back() |= 0x80;
      padded.push_back(negative ? 0x7f : 0x00);
      out.push_back(padded);
    }
  }
  return out;
}

TEST(Leb128Differential, BoundariesLengthsAndCuts) {
  std::vector<std::uint64_t> values = {0, 1, 0x3f, 0x40, 0x7f, 0x80, 0x3fff, 0x4000};
  for (int bits = 7; bits < 64; bits += 7) {  // each length's first and last value
    values.push_back((1ull << bits) - 1);
    values.push_back(1ull << bits);
  }
  for (std::int64_t s : {std::int64_t{-1}, std::int64_t{-0x40}, std::int64_t{-0x41},
                         std::int64_t{INT32_MIN}, std::int64_t{INT32_MAX},
                         std::int64_t{INT32_MIN} - 1, std::int64_t{INT32_MAX} + 1, INT64_MIN,
                         INT64_MAX, std::int64_t{UINT32_MAX}, std::int64_t{UINT32_MAX} + 1})
    values.push_back(static_cast<std::uint64_t>(s));
  values.push_back(~0ull);

  int bad = 0;
  for (std::uint64_t v : values)
    for (const Bytes& enc : encodings_of(v)) {
      // Alone, then between a prefix and a tail long enough for the word path.
      bad += diff_all_cuts(enc, 0);
      Bytes framed(3 + enc.size() + 12, 0x80);
      framed[0] = 0xaa;
      std::copy(enc.begin(), enc.end(), framed.begin() + 3);
      bad += diff_all_cuts(framed, 3);
    }

  // The last allowed byte, every payload and continuation: sleb64's 10th
  // byte may only be 0x00 or 0x7f, sleb32's 5th only a sign extension.
  for (int last = 0; last < 256; ++last)
    for (int nbytes : {5, 10}) {
      Bytes in(static_cast<std::size_t>(nbytes - 1), 0x80);
      in.push_back(static_cast<std::uint8_t>(last));
      in.push_back(0x00);
      bad += diff_all_cuts(in, 0);
    }
  EXPECT_EQ(bad, 0);
}

TEST(Leb128Differential, SpecRejectsOverlongAndOutOfRange) {
  const Bytes sleb64_payload_past_bit63 = {0x80, 0x80, 0x80, 0x80, 0x80,
                                           0x80, 0x80, 0x80, 0x80, 0x05};
  ByteReader r1(sleb64_payload_past_bit63);
  auto a = r1.read_sleb64();
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.error(), "sleb64 overflow");

  const Bytes sleb32_overlong_one = {0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00};
  ByteReader r2(sleb32_overlong_one);
  auto b = r2.read_sleb32();
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.error(), "sleb32 too long");
  ByteReader r3(sleb32_overlong_one);  // still a valid (padded) sleb64
  auto c = r3.read_sleb64();
  ASSERT_TRUE(c.ok()) << c.error();
  EXPECT_EQ(*c, 1);

  const Bytes eleven = {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00};
  ByteReader r4(eleven);
  auto d = r4.read_sleb64();
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.error(), "sleb64 too long");
  EXPECT_EQ(r4.pos(), 0u);
}

TEST(Leb128Differential, SeededRandomBuffers) {
  std::printf("leb128 differential seed: WATZ_LEB_SEED=0x%llx\n",
              static_cast<unsigned long long>(leb_seed()));
  SCOPED_TRACE(::testing::Message() << "WATZ_LEB_SEED=0x" << std::hex << leb_seed());
  std::mt19937_64 rng(leb_seed());
  int bad = 0;
  for (int i = 0; i < 4000; ++i) {
    Bytes in(rng() % 24);
    // A per-buffer share of continuation bits, so long and overlong
    // encodings are common.
    const unsigned continue_odds = 1 + rng() % 16;
    for (auto& b : in) {
      b = static_cast<std::uint8_t>(rng());
      if (rng() % 16 < continue_odds) b |= 0x80;
    }
    for (std::size_t start = 0; start <= in.size(); ++start)
      bad += diff_one<std::uint32_t>(in, start) + diff_one<std::uint64_t>(in, start) +
             diff_one<std::int32_t>(in, start) + diff_one<std::int64_t>(in, start);
    if (bad > 20) break;  // enough output to debug from
  }
  EXPECT_EQ(bad, 0);
}

}  // namespace
}  // namespace watz
