#include "common/crc32c.h"

#include <array>

#include "common/simd.h"

namespace adaptagg {
namespace {

/// Byte-at-a-time lookup table for the reflected Castagnoli polynomial,
/// built once at first use.
std::array<uint32_t, 256> BuildTable() {
  constexpr uint32_t kPoly = 0x82F63B78u;
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

uint32_t Crc32cScalar(uint32_t crc, const uint8_t* data, size_t len) {
  static const std::array<uint32_t, 256> kTable = BuildTable();
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(uint32_t crc, const uint8_t* data, size_t len) {
#if defined(ADAPTAGG_SIMD_HAVE_AVX2)
  if (simd::HardwareCrc32c()) return simd::Crc32cSse42(crc, data, len);
#endif
  return Crc32cScalar(crc, data, len);
}

}  // namespace adaptagg
