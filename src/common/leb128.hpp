// LEB128 variable-length integers, the encoding used throughout the
// WebAssembly binary format (and by wcc when emitting modules).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace watz {

namespace leb_detail {

template <typename T>
struct Names;
template <>
struct Names<std::uint32_t> {
  static constexpr const char* kOverflow = "uleb32 overflow";
  static constexpr const char* kTooLong = "uleb32 too long";
};
template <>
struct Names<std::uint64_t> {
  static constexpr const char* kOverflow = "uleb64 overflow";
  static constexpr const char* kTooLong = "uleb64 too long";
};
template <>
struct Names<std::int32_t> {
  static constexpr const char* kOverflow = "sleb32 overflow";
  static constexpr const char* kTooLong = "sleb32 too long";
};
template <>
struct Names<std::int64_t> {
  static constexpr const char* kOverflow = "sleb64 overflow";
  static constexpr const char* kTooLong = "sleb64 too long";
};

/// Packs the 7-bit groups of 8 little-endian LEB bytes into one integer,
/// first group lowest; the continuation bits drop out.
constexpr std::uint64_t pack7x8(std::uint64_t x) noexcept {
  x = ((x & 0x7f007f007f007f00ull) >> 1) | (x & 0x007f007f007f007full);
  x = ((x & 0x3fff00003fff0000ull) >> 2) | (x & 0x00003fff00003fffull);
  return ((x & 0x0fffffff00000000ull) >> 4) | (x & 0x000000000fffffffull);
}

}  // namespace leb_detail

/// Streaming reader over a byte view with bounds checking; nothing reads
/// past the end of the view.
///
/// The `take_*` core is inline and Result-free: it returns nullptr on
/// success, else a static error message, and leaves the position unchanged
/// on failure. The `read_*` methods wrap it in a Result carrying the same
/// message. Hot loops (the one-pass translator) call the core directly.
class ByteReader {
 public:
  explicit ByteReader(ByteView data) : data_(data) {}

  std::size_t pos() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }

  const char* take_u8(std::uint8_t& out) noexcept {
    if (pos_ >= data_.size()) return kEndOfData;
    out = data_[pos_++];
    return nullptr;
  }

  /// `n` raw bytes; `out` points at them inside the view.
  const char* take_bytes(std::size_t n, const std::uint8_t*& out) noexcept {
    if (remaining() < n) return kEndOfData;
    out = data_.data() + pos_;
    pos_ += n;
    return nullptr;
  }

  /// LEB128 into `T`: uint32_t/uint64_t unsigned, int32_t/int64_t signed.
  /// As the spec bounds it: at most ceil(N/7) bytes ("too long"), and the
  /// unused bits of the last allowed byte are zero, or for a signed type a
  /// sign extension ("overflow").
  template <typename T>
  const char* take_leb(T& out) noexcept;

  Result<std::uint8_t> read_u8();
  Result<std::uint32_t> read_u32le();
  /// Unsigned LEB128, at most 32 bits of payload.
  Result<std::uint32_t> read_uleb32();
  /// Unsigned LEB128, at most 64 bits of payload.
  Result<std::uint64_t> read_uleb64();
  /// Signed LEB128, 32-bit.
  Result<std::int32_t> read_sleb32();
  /// Signed LEB128, 64-bit.
  Result<std::int64_t> read_sleb64();
  /// Raw byte run of exactly `n` bytes.
  Result<ByteView> read_bytes(std::size_t n);

  void seek(std::size_t pos) { pos_ = pos; }

 private:
  static constexpr const char* kEndOfData = "unexpected end of data";

  ByteView data_;
  std::size_t pos_ = 0;
};

template <typename T>
const char* ByteReader::take_leb(T& out) noexcept {
  static_assert(std::is_integral_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
  using Names = leb_detail::Names<T>;
  constexpr bool kSigned = std::is_signed_v<T>;
  constexpr int kMaxBytes = (8 * static_cast<int>(sizeof(T)) + 6) / 7;  // 5 or 10
  // Payload bits the last allowed byte carries (4 or 1); a signed value's
  // top one is its sign.
  constexpr int kLastBits = 8 * static_cast<int>(sizeof(T)) - 7 * (kMaxBytes - 1);
  // The last byte's bits above its payload: zero, or (signed) all equal to
  // the sign bit, which joins the mask.
  constexpr std::uint8_t kLastMask =
      0x7f & ~((1u << (kSigned ? kLastBits - 1 : kLastBits)) - 1);
  auto check_last = [](std::uint8_t byte) -> const char* {
    const std::uint8_t high = byte & kLastMask;
    if (high != 0 && (!kSigned || high != kLastMask)) return Names::kOverflow;
    return (byte & 0x80) ? Names::kTooLong : nullptr;
  };

  const std::uint8_t* p = data_.data() + pos_;
  const std::size_t avail = data_.size() - pos_;
  std::uint64_t v = 0;
  int len = 0;
  constexpr std::size_t kWordAvail = kMaxBytes > 8 ? kMaxBytes : 8;
  if (std::endian::native == std::endian::little && avail >= kWordAvail) {
    // Word at a time: the first clear continuation bit gives the length,
    // with no exit branch per byte.
    std::uint64_t w = 0;
    std::memcpy(&w, p, 8);
    const std::uint64_t stops = ~w & 0x8080808080808080ull;
    len = stops ? std::countr_zero(stops) / 8 + 1 : 9;
    // Reaching the last allowed byte: it ends the value or is an error.
    if constexpr (kMaxBytes <= 8) {
      if (len >= kMaxBytes) {
        if (const char* e = check_last(p[kMaxBytes - 1])) return e;
        len = kMaxBytes;
      }
    } else if (len > 8 && (p[8] & 0x80)) {
      if (const char* e = check_last(p[9])) return e;
      len = 10;
    }
    v = leb_detail::pack7x8(w & (~0ull >> (64 - 8 * (len < 8 ? len : 8))));
    if (len > 8) v |= static_cast<std::uint64_t>(p[8] & 0x7f) << 56;
    if (len > 9) v |= static_cast<std::uint64_t>(p[9]) << 63;
  } else {
    for (;; ++len) {
      if (static_cast<std::size_t>(len) == avail) return kEndOfData;
      const std::uint8_t byte = p[len];
      if (len == kMaxBytes - 1)
        if (const char* e = check_last(byte)) return e;
      v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * len);
      if ((byte & 0x80) == 0) break;
    }
    ++len;
  }
  if constexpr (kSigned) {
    if (7 * len < 64) {
      const int unused = 64 - 7 * len;
      v = static_cast<std::uint64_t>(static_cast<std::int64_t>(v << unused) >> unused);
    }
  }
  out = static_cast<T>(v);
  pos_ += static_cast<std::size_t>(len);
  return nullptr;
}

void write_uleb(Bytes& out, std::uint64_t value);
void write_sleb(Bytes& out, std::int64_t value);

/// Number of bytes write_uleb would emit.
std::size_t uleb_size(std::uint64_t value);

}  // namespace watz
