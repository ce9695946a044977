#include "common/crc32.h"

#include <array>

#include "common/coding.h"

namespace crimson {

namespace {

/// Slicing-by-8 tables for CRC32 (IEEE 802.3 polynomial, reflected),
/// built at compile time. Row 0 is the classic byte-at-a-time table;
/// row k advances a byte's contribution past k further zero bytes, so
/// one step folds eight input bytes with eight lookups (Kounavis &
/// Berry, "A Systematic Approach to Building High Performance
/// Software-Based CRC Generators", ISCC 2005).
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t row = 1; row < 8; ++row) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = t[row - 1][i];
      t[row][i] = (prev >> 8) ^ t[0][prev & 0xFF];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

}  // namespace

uint32_t Crc32(const char* data, size_t n, uint32_t seed) {
  const auto& t = kCrc32Tables;
  uint32_t c = seed ^ 0xFFFFFFFFu;
  // Eight bytes per step; the little-endian decode keeps the byte order
  // the reflected polynomial expects on any host.
  for (; n >= 8; data += 8, n -= 8) {
    const uint32_t lo = c ^ DecodeFixed32(data);
    const uint32_t hi = DecodeFixed32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    c = t[0][(c ^ static_cast<uint8_t>(*data)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace crimson
