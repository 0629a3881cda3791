#include "rpc/wire.h"

#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "rpc/transport.h"

namespace asdf::rpc {
namespace {

TEST(Wire, U32RoundTrip) {
  Encoder enc;
  enc.putU32(0);
  enc.putU32(1);
  enc.putU32(0xFFFFFFFFu);
  enc.putU32(0xDEADBEEFu);
  EXPECT_EQ(enc.size(), 16u);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.getU32(), 0u);
  EXPECT_EQ(dec.getU32(), 1u);
  EXPECT_EQ(dec.getU32(), 0xFFFFFFFFu);
  EXPECT_EQ(dec.getU32(), 0xDEADBEEFu);
  EXPECT_TRUE(dec.exhausted());
}

TEST(Wire, I64RoundTrip) {
  Encoder enc;
  enc.putI64(0);
  enc.putI64(-1);
  enc.putI64(1234567890123LL);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.getI64(), 0);
  EXPECT_EQ(dec.getI64(), -1);
  EXPECT_EQ(dec.getI64(), 1234567890123LL);
}

TEST(Wire, DoubleRoundTripExact) {
  Encoder enc;
  for (double v : {0.0, -0.0, 1.5, -3.14159, 1e300, 1e-300}) {
    enc.putDouble(v);
  }
  Decoder dec(enc.bytes());
  for (double v : {0.0, -0.0, 1.5, -3.14159, 1e300, 1e-300}) {
    EXPECT_EQ(dec.getDouble(), v);
  }
}

TEST(Wire, StringRoundTripWithPadding) {
  Encoder enc;
  enc.putString("");
  enc.putString("a");
  enc.putString("abcd");
  enc.putString("hello world");
  EXPECT_EQ(enc.size() % 4, 0u);  // XDR alignment
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.getString(), "");
  EXPECT_EQ(dec.getString(), "a");
  EXPECT_EQ(dec.getString(), "abcd");
  EXPECT_EQ(dec.getString(), "hello world");
  EXPECT_TRUE(dec.exhausted());
}

TEST(Wire, VectorRoundTrip) {
  Encoder enc;
  enc.putDoubleVector({});
  enc.putDoubleVector({1.0, 2.5, -3.0});
  Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.getDoubleVector().empty());
  const auto v = dec.getDoubleVector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[1], 2.5);
}

TEST(Wire, TruncatedMessageThrows) {
  Encoder enc;
  enc.putDouble(42.0);
  std::vector<std::uint8_t> cut(enc.bytes().begin(), enc.bytes().end() - 1);
  Decoder dec(cut);
  EXPECT_THROW(dec.getDouble(), RpcError);
}

TEST(Wire, HostileVectorLengthThrowsRpcError) {
  // A length prefix near 2^32 with two doubles behind it: the decoder
  // must reject it from the bytes left, before sizing a vector by it.
  for (const std::uint32_t length : {0xFFFFFFF0u, 0xFFFFFFFFu, 3u}) {
    Encoder enc;
    enc.putU32(length);
    enc.putDouble(1.0);
    enc.putDouble(2.0);
    Decoder dec(enc.bytes());
    EXPECT_THROW(dec.getDoubleVector(), RpcError) << length;
  }
}

TEST(Wire, BulkVectorBytesMatchScalarEncoding) {
  auto fromBits = [](std::uint64_t bits) {
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  };
  const std::vector<double> values = {
      fromBits(0x7FF80000DEADBEEFULL),  // quiet NaN with a payload
      -0.0,
      fromBits(0x0000000000000001ULL),  // smallest denormal
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  Encoder bulk;
  bulk.putDoubleVector({});
  bulk.putDoubleVector(values);
  Encoder scalar;
  scalar.putU32(0);
  scalar.putU32(static_cast<std::uint32_t>(values.size()));
  for (const double d : values) scalar.putDouble(d);
  EXPECT_EQ(bulk.bytes(), scalar.bytes());

  const std::vector<std::uint8_t> golden = {
      0x00, 0x00, 0x00, 0x00,                          // empty vector
      0x00, 0x00, 0x00, 0x05,                          // five doubles
      0x7F, 0xF8, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF,  // NaN payload
      0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // -0.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,  // denormal
      0x7F, 0xF0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // +inf
      0xFF, 0xF0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // -inf
  };
  EXPECT_EQ(bulk.bytes(), golden);

  // Decoding restores every bit pattern, NaN payload included.
  Decoder dec(bulk.bytes());
  EXPECT_TRUE(dec.getDoubleVector().empty());
  const std::vector<double> back = dec.getDoubleVector();
  ASSERT_EQ(back.size(), values.size());
  EXPECT_EQ(std::memcmp(back.data(), values.data(),
                        values.size() * sizeof(double)),
            0);
  EXPECT_TRUE(dec.exhausted());
}

TEST(Wire, MixedSequenceRoundTrip) {
  Encoder enc;
  enc.putString("sadc");
  enc.putU32(3);
  enc.putDoubleVector({9.0, 8.0});
  enc.putI64(-77);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.getString(), "sadc");
  EXPECT_EQ(dec.getU32(), 3u);
  EXPECT_EQ(dec.getDoubleVector().size(), 2u);
  EXPECT_EQ(dec.getI64(), -77);
  EXPECT_TRUE(dec.exhausted());
}

class WireProperty : public ::testing::TestWithParam<int> {};

TEST_P(WireProperty, RandomRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 19 + 5);
  for (int iter = 0; iter < 50; ++iter) {
    Encoder enc;
    std::vector<double> doubles;
    std::vector<std::string> strings;
    const long n = rng.uniformInt(0, 20);
    for (long i = 0; i < n; ++i) {
      doubles.push_back(rng.gaussian(0.0, 1e6));
      std::string s;
      const long len = rng.uniformInt(0, 30);
      for (long j = 0; j < len; ++j) {
        s += static_cast<char>(rng.uniformInt(32, 126));
      }
      strings.push_back(s);
      enc.putDouble(doubles.back());
      enc.putString(strings.back());
    }
    Decoder dec(enc.bytes());
    for (long i = 0; i < n; ++i) {
      EXPECT_EQ(dec.getDouble(), doubles[static_cast<std::size_t>(i)]);
      EXPECT_EQ(dec.getString(), strings[static_cast<std::size_t>(i)]);
    }
    EXPECT_TRUE(dec.exhausted());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRuns, WireProperty, ::testing::Range(0, 6));

TEST(Transport, ChannelAccounting) {
  TransportRegistry registry;
  RpcChannelStats& ch = registry.channel("sadc-tcp");
  ch.recordConnect();
  ch.recordConnect();
  ch.recordCall(48, 1000);
  ch.recordCall(48, 1200);
  EXPECT_EQ(ch.connects(), 2);
  EXPECT_EQ(ch.calls(), 2);
  EXPECT_DOUBLE_EQ(ch.staticOverheadBytes(), 2 * 2028.0);
  EXPECT_DOUBLE_EQ(ch.totalCallBytes(), 48 + 1000 + 48 + 1200 + 4 * 78.0);
  EXPECT_DOUBLE_EQ(ch.bytesPerCall(), ch.totalCallBytes() / 2.0);
}

TEST(Transport, RegistryKeysChannelsByName) {
  TransportRegistry registry;
  registry.channel("a").recordConnect();
  registry.channel("b").recordConnect();
  registry.channel("a").recordConnect();
  EXPECT_EQ(registry.channel("a").connects(), 2);
  EXPECT_EQ(registry.channel("b").connects(), 1);
  EXPECT_EQ(registry.channels().size(), 2u);
}

TEST(Transport, EmptyChannelSafeStats) {
  TransportRegistry registry;
  const RpcChannelStats& ch = registry.channel("idle");
  EXPECT_DOUBLE_EQ(ch.bytesPerCall(), 0.0);
  EXPECT_DOUBLE_EQ(ch.totalCallBytes(), 0.0);
}

}  // namespace
}  // namespace asdf::rpc
