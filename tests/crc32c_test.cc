#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace phoenix {
namespace {

// The textbook one-byte-at-a-time CRC-32C, kept independent of the sliced
// implementation so the two can be compared.
uint32_t BytewiseCrc32c(uint32_t crc, const uint8_t* p, size_t n) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(uint64_t seed, size_t n) {
  Random rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

TEST(Crc32cTest, KnownVector) {
  // Canonical CRC-32C test vector: "123456789" -> 0xE3069283.
  const std::string s = "123456789";
  EXPECT_EQ(Crc32c(s.data(), s.size()), 0xE3069283u);
}

TEST(Crc32cTest, EmptyIsZero) { EXPECT_EQ(Crc32c(nullptr, 0), 0u); }

TEST(Crc32cTest, SensitiveToEveryByte) {
  std::string a = "phoenix recovery log";
  uint32_t base = Crc32c(a.data(), a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    std::string b = a;
    b[i] ^= 0x01;
    EXPECT_NE(Crc32c(b.data(), b.size()), base) << "byte " << i;
  }
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  std::string s = "split into pieces";
  uint32_t one_shot = Crc32c(s.data(), s.size());
  uint32_t crc = 0;
  crc = Crc32cExtend(crc, s.data(), 5);
  crc = Crc32cExtend(crc, s.data() + 5, s.size() - 5);
  EXPECT_EQ(crc, one_shot);
}

TEST(Crc32cTest, KnownVectorAtEveryAlignment) {
  // The check vector placed at each offset of an 8-byte word, so the sliced
  // loop sees every misalignment and a 1-byte tail.
  const std::string s = "123456789";
  for (size_t offset = 0; offset < 8; ++offset) {
    std::string buf(offset, 'x');
    buf += s;
    EXPECT_EQ(Crc32c(buf.data() + offset, s.size()), 0xE3069283u)
        << "offset " << offset;
  }
}

TEST(Crc32cTest, UnalignedStartsAndOddLengthsMatchBytewise) {
  std::vector<uint8_t> bytes = RandomBytes(7, 96);
  for (size_t start = 0; start < 9; ++start) {
    for (size_t len = 0; start + len <= bytes.size(); ++len) {
      EXPECT_EQ(Crc32c(bytes.data() + start, len),
                BytewiseCrc32c(0, bytes.data() + start, len))
          << "start " << start << " len " << len;
    }
  }
}

TEST(Crc32cTest, SeededBuffersMatchBytewise) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    size_t n = static_cast<size_t>(Random(seed).Uniform(4096)) + 1;
    std::vector<uint8_t> bytes = RandomBytes(seed, n);
    EXPECT_EQ(Crc32c(bytes.data(), n), BytewiseCrc32c(0, bytes.data(), n))
        << "seed " << seed << " n " << n;
  }
}

TEST(Crc32cTest, ExtendSplitAtEveryOffsetMatchesBytewise) {
  std::vector<uint8_t> bytes = RandomBytes(42, 131);
  const uint32_t whole = BytewiseCrc32c(0, bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, bytes.data(), split);
    crc = Crc32cExtend(crc, bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(crc, whole) << "split " << split;
  }
}

}  // namespace
}  // namespace phoenix
