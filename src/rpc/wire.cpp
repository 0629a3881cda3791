#include "rpc/wire.h"

#include <cstring>
#include <stdexcept>

#include "common/bytes.h"
#include "common/error.h"

namespace asdf::rpc {

void Encoder::putU32(std::uint32_t v) { bytes::putU32(buf_, v); }

void Encoder::putI64(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  putU32(static_cast<std::uint32_t>(u >> 32));
  putU32(static_cast<std::uint32_t>(u & 0xFFFFFFFFULL));
}

void Encoder::putDouble(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  putI64(static_cast<std::int64_t>(bits));
}

void Encoder::putString(const std::string& s) {
  putU32(static_cast<std::uint32_t>(s.size()));
  for (char c : s) buf_.push_back(static_cast<std::uint8_t>(c));
  while (buf_.size() % 4 != 0) buf_.push_back(0);  // XDR padding
}

void Encoder::putDoubleVector(const std::vector<double>& v) {
  putU32(static_cast<std::uint32_t>(v.size()));
  // One resize, then the same big-endian bytes putDouble would append.
  const std::size_t start = buf_.size();
  buf_.resize(start + 8 * v.size());
  std::uint8_t* out = buf_.data() + start;
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    bytes::storeU32(out, static_cast<std::uint32_t>(bits >> 32));
    bytes::storeU32(out + 4, static_cast<std::uint32_t>(bits));
    out += 8;
  }
}

void Decoder::need(std::size_t n) {
  if (n > buf_.size() - pos_) {
    throw RpcError("wire decode: truncated message");
  }
}

std::uint32_t Decoder::getU32() {
  need(4);
  const std::uint32_t v = bytes::readU32(buf_.data() + pos_);
  pos_ += 4;
  return v;
}

std::int64_t Decoder::getI64() {
  const std::uint64_t hi = getU32();
  const std::uint64_t lo = getU32();
  return static_cast<std::int64_t>((hi << 32) | lo);
}

double Decoder::getDouble() {
  const auto bits = static_cast<std::uint64_t>(getI64());
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Decoder::getString() {
  const std::uint32_t len = getU32();
  need(len);
  std::string s(reinterpret_cast<const char*>(buf_.data()) +
                    static_cast<long>(pos_),
                len);
  pos_ += len;
  while (pos_ % 4 != 0) {
    need(1);
    ++pos_;
  }
  return s;
}

std::vector<double> Decoder::getDoubleVector() {
  const std::uint32_t n = getU32();
  // Check the untrusted length against the bytes left before sizing
  // anything from it: a hostile prefix must fail as an RpcError, not
  // as a multi-gigabyte allocation.
  const std::size_t len = 8 * static_cast<std::size_t>(n);
  need(len);
  std::vector<double> v(n);
  const std::uint8_t* in = buf_.data() + pos_;
  for (double& d : v) {
    const std::uint64_t bits = bytes::readU64(in);
    std::memcpy(&d, &bits, sizeof(d));
    in += 8;
  }
  pos_ += len;
  return v;
}

}  // namespace asdf::rpc
