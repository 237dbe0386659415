// Unit tests for the common substrate: hex, codec, RNG, slot pool.
#include <gtest/gtest.h>

#include <map>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/config_file.h"
#include "common/rng.h"
#include "common/slot_pool.h"

namespace repro {
namespace {

// ---- hex ------------------------------------------------------------------

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex(data), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), data);
}

TEST(Hex, AcceptsUppercase) {
  EXPECT_EQ(from_hex("ABFF"), (Bytes{0xab, 0xff}));
}

TEST(Hex, RejectsOddLength) { EXPECT_TRUE(from_hex("abc").empty()); }

TEST(Hex, RejectsNonHexChars) { EXPECT_TRUE(from_hex("zz").empty()); }

TEST(Hex, EmptyIsEmpty) {
  EXPECT_EQ(to_hex(BytesView{}), "");
  EXPECT_TRUE(from_hex("").empty());
}

// ---- codec ------------------------------------------------------------------

TEST(Codec, ScalarRoundTrip) {
  Encoder enc;
  enc.u8(0xab);
  enc.u32(0xdeadbeef);
  enc.u64(0x0123456789abcdefull);
  enc.bool_(true);
  enc.bool_(false);

  Decoder dec(enc.result());
  EXPECT_EQ(dec.u8(), 0xab);
  EXPECT_EQ(dec.u32(), 0xdeadbeefu);
  EXPECT_EQ(dec.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(dec.bool_(), true);
  EXPECT_EQ(dec.bool_(), false);
  EXPECT_TRUE(dec.done());
}

TEST(Codec, BytesAndStringsRoundTrip) {
  Encoder enc;
  enc.bytes(Bytes{1, 2, 3});
  enc.str("hello");
  enc.bytes(Bytes{});

  Decoder dec(enc.result());
  EXPECT_EQ(dec.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(dec.str(), "hello");
  EXPECT_EQ(dec.bytes(), Bytes{});
  EXPECT_TRUE(dec.done());
}

TEST(Codec, BoolDecodingIsStrict) {
  // Canonical wire format: only 0x00/0x01 decode as bool (found by the
  // mutation fuzzer — permissive bools break encoding uniqueness).
  EXPECT_EQ(Decoder(Bytes{0}).bool_(), false);
  EXPECT_EQ(Decoder(Bytes{1}).bool_(), true);
  EXPECT_FALSE(Decoder(Bytes{2}).bool_().has_value());
  EXPECT_FALSE(Decoder(Bytes{0x40}).bool_().has_value());
}

TEST(Codec, TruncationReturnsNullopt) {
  Encoder enc;
  enc.u64(42);
  Bytes data = enc.result();
  data.resize(4);
  Decoder dec(data);
  EXPECT_FALSE(dec.u64().has_value());
}

TEST(Codec, ByteLengthPrefixBeyondBufferRejected) {
  Encoder enc;
  enc.u32(1000);  // claims 1000 bytes follow
  Decoder dec(enc.result());
  EXPECT_FALSE(dec.bytes().has_value());
}

TEST(Codec, RawReadsExactCount) {
  Encoder enc;
  enc.raw(Bytes{9, 8, 7});
  Decoder dec(enc.result());
  EXPECT_EQ(dec.raw(3), (Bytes{9, 8, 7}));
  EXPECT_FALSE(dec.raw(1).has_value());
}

TEST(Codec, LittleEndianLayout) {
  Encoder enc;
  enc.u32(0x01020304);
  EXPECT_EQ(enc.result(), (Bytes{0x04, 0x03, 0x02, 0x01}));
}

// ---- rng --------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(7), 7u);
}

TEST(Rng, UniformZeroBoundYieldsZero) {
  // An empty range must not divide by zero — chaos-schedule generators
  // draw from ranges that can legitimately be empty.
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(0), 0u);
  EXPECT_EQ(rng.uniform_range(4, 4), 4u);  // degenerate-but-nonempty still works
}

TEST(Rng, UniformCoversRange) {
  Rng rng(6);
  std::map<std::uint64_t, int> hist;
  for (int i = 0; i < 7000; ++i) hist[rng.uniform(7)]++;
  EXPECT_EQ(hist.size(), 7u);
  for (const auto& [v, c] : hist) EXPECT_GT(c, 500) << "value " << v;
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(9);
  double sum = 0;
  const int k = 100000;
  for (int i = 0; i < k; ++i) sum += rng.exponential(250.0);
  const double mean = sum / k;
  EXPECT_GT(mean, 240.0);
  EXPECT_LT(mean, 260.0);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng base(10);
  Rng a = base.fork(1);
  Rng b = base.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}


// ---- config files -------------------------------------------------------

TEST(ConfigFile, ParsesKeysCommentsAndRepeats) {
  const char* text =
      "# cluster\n"
      "id = 3\n"
      "; semicolon comment\n"
      "peer = 127.0.0.1:9000\n"
      "peer = 127.0.0.1:9001\n"
      "\n"
      "name = node three\n";
  auto cfg = ConfigFile::parse(text);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->get_int("id", -1), 3);
  EXPECT_EQ(cfg->get_all("peer").size(), 2u);
  EXPECT_EQ(cfg->get_str("name", ""), "node three");
  EXPECT_FALSE(cfg->has("missing"));
  EXPECT_EQ(cfg->get_int("missing", 42), 42);
}

TEST(ConfigFile, LastValueWinsForScalars) {
  auto cfg = ConfigFile::parse("x = 1\nx = 2\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->get_int("x", 0), 2);
  EXPECT_EQ(cfg->get_all("x").size(), 2u);
}

TEST(ConfigFile, BoolParsing) {
  auto cfg = ConfigFile::parse("a = true\nb = off\nc = banana\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_TRUE(cfg->get_bool("a", false));
  EXPECT_FALSE(cfg->get_bool("b", true));
  EXPECT_TRUE(cfg->get_bool("c", true));  // unparseable -> fallback
}

TEST(ConfigFile, MalformedLineRejectedWithError) {
  std::string error;
  EXPECT_FALSE(ConfigFile::parse("just words\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(ConfigFile::parse("= value\n").has_value());
}

TEST(ConfigFile, NonIntegerFallsBack) {
  auto cfg = ConfigFile::parse("x = 12abc\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->get_int("x", 7), 7);
}

TEST(HostPort, ParsesValidAddresses) {
  auto hp = parse_host_port("127.0.0.1:9000");
  ASSERT_TRUE(hp.has_value());
  EXPECT_EQ(hp->host, "127.0.0.1");
  EXPECT_EQ(hp->port, 9000);
  EXPECT_TRUE(parse_host_port("example.com:1").has_value());
}

TEST(HostPort, RejectsMalformedAddresses) {
  EXPECT_FALSE(parse_host_port("nohost").has_value());
  EXPECT_FALSE(parse_host_port(":123").has_value());
  EXPECT_FALSE(parse_host_port("h:").has_value());
  EXPECT_FALSE(parse_host_port("h:0").has_value());
  EXPECT_FALSE(parse_host_port("h:70000").has_value());
  EXPECT_FALSE(parse_host_port("h:12x").has_value());
}

// ---- slot pool ------------------------------------------------------------

TEST(SlotPool, GrowsOnlyWhenNoSlotIsFree) {
  SlotPool<int> pool;
  const std::uint32_t a = pool.acquire();
  const std::uint32_t b = pool.acquire();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  pool[a] = 10;
  pool[b] = 20;
  pool.release(a);
  // The freed slot comes back before the slab grows.
  EXPECT_EQ(pool.acquire(), a);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[b], 20);
  EXPECT_EQ(pool.acquire(), 2u);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(SlotPool, ReusesTheMostRecentlyReleasedSlotFirst) {
  SlotPool<int> pool;
  for (int i = 0; i < 4; ++i) pool.acquire();
  pool.release(1);
  pool.release(3);
  EXPECT_EQ(pool.acquire(), 3u);
  EXPECT_EQ(pool.acquire(), 1u);
  EXPECT_EQ(pool.size(), 4u);
}

}  // namespace
}  // namespace repro
