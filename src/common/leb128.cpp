#include "common/leb128.hpp"

namespace watz {

namespace {

template <typename T>
Result<T> take(ByteReader& r, const char* (ByteReader::*core)(T&)) {
  T v{};
  if (const char* e = (r.*core)(v)) return Result<T>::err(e);
  return v;
}

}  // namespace

Result<std::uint8_t> ByteReader::read_u8() { return take(*this, &ByteReader::take_u8); }

Result<std::uint32_t> ByteReader::read_u32le() {
  const std::uint8_t* p = nullptr;
  if (const char* e = take_bytes(4, p)) return Result<std::uint32_t>::err(e);
  return get_u32le(p);
}

Result<std::uint32_t> ByteReader::read_uleb32() {
  return take(*this, &ByteReader::take_leb<std::uint32_t>);
}

Result<std::uint64_t> ByteReader::read_uleb64() {
  return take(*this, &ByteReader::take_leb<std::uint64_t>);
}

Result<std::int32_t> ByteReader::read_sleb32() {
  return take(*this, &ByteReader::take_leb<std::int32_t>);
}

Result<std::int64_t> ByteReader::read_sleb64() {
  return take(*this, &ByteReader::take_leb<std::int64_t>);
}

Result<ByteView> ByteReader::read_bytes(std::size_t n) {
  const std::uint8_t* p = nullptr;
  if (const char* e = take_bytes(n, p)) return Result<ByteView>::err(e);
  return ByteView(p, n);
}

void write_uleb(Bytes& out, std::uint64_t value) {
  do {
    std::uint8_t byte = value & 0x7f;
    value >>= 7;
    if (value != 0) byte |= 0x80;
    out.push_back(byte);
  } while (value != 0);
}

void write_sleb(Bytes& out, std::int64_t value) {
  bool more = true;
  while (more) {
    std::uint8_t byte = value & 0x7f;
    value >>= 7;
    if ((value == 0 && (byte & 0x40) == 0) || (value == -1 && (byte & 0x40) != 0)) {
      more = false;
    } else {
      byte |= 0x80;
    }
    out.push_back(byte);
  }
}

std::size_t uleb_size(std::uint64_t value) {
  std::size_t n = 1;
  while (value >>= 7) ++n;
  return n;
}

}  // namespace watz
