// CRC32 (slicing-by-8) against the byte-at-a-time definition: every
// length to 64 plus page-sized buffers, every start alignment, and
// chained seeds. WAL segments and wire frames carry these values, so
// they must not change by a single bit.

#include "common/crc32.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"

namespace crimson {
namespace {

/// The reflected IEEE 802.3 CRC32, one byte and eight shifts at a time.
uint32_t BytewiseCrc32(const char* data, size_t n, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= static_cast<uint8_t>(data[i]);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

TEST(Crc32Test, MatchesKnownVectors) {
  // IEEE CRC32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseOracleAtEveryLengthAndAlignment) {
  // 8 bytes of slack in front so every start offset 0-7 reads the
  // same lengths; 8,196 and 8,205 are a WAL page record's body and a
  // full payload.
  const std::string buf = RandomBytes(8 + 8205, 0xC4C32);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(8196);
  lengths.push_back(8205);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n : lengths) {
      SCOPED_TRACE("offset " + std::to_string(offset) + " length " +
                   std::to_string(n));
      const char* p = buf.data() + offset;
      ASSERT_EQ(Crc32(p, n), BytewiseCrc32(p, n));
      ASSERT_EQ(Crc32(p, n, 0x12345678u), BytewiseCrc32(p, n, 0x12345678u));
    }
  }
}

TEST(Crc32Test, ChainedSeedsEqualOneChecksumOfTheWhole) {
  const std::string buf = RandomBytes(8205, 0x5EED);
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{63}, size_t{4096}, size_t{8195}, size_t{8205}}) {
    SCOPED_TRACE("split " + std::to_string(split));
    const uint32_t head = Crc32(buf.data(), split);
    EXPECT_EQ(Crc32(buf.data() + split, buf.size() - split, head),
              Crc32(buf.data(), buf.size()));
    EXPECT_EQ(Crc32(buf.data(), buf.size()),
              BytewiseCrc32(buf.data(), buf.size()));
  }
  // Three pieces, each of odd length.
  const uint32_t a = Crc32(buf.data(), 13);
  const uint32_t ab = Crc32(buf.data() + 13, 1001, a);
  EXPECT_EQ(Crc32(buf.data() + 1014, 77, ab), BytewiseCrc32(buf.data(), 1091));
}

}  // namespace
}  // namespace crimson
