#include "common/crc32c.h"

#include <array>

namespace phoenix {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reversed CRC-32C polynomial

// Slicing-by-8 tables: [0] is the classic bytewise table; [k][i] is the
// CRC of byte i followed by k zero bytes, so eight bytes fold into the CRC
// with eight independent lookups instead of eight dependent ones.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

const Tables& GetTables() {
  static const Tables& tables = *new auto(MakeTables());
  return tables;
}

// Little-endian 32-bit load with no alignment requirement.
inline uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  const Tables& t = GetTables();
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = Load32(p) ^ crc;
    uint32_t hi = Load32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace phoenix
