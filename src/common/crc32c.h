#ifndef ADAPTAGG_COMMON_CRC32C_H_
#define ADAPTAGG_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace adaptagg {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78), the
/// checksum used by iSCSI/ext4 and hardware-accelerated on SSE4.2. It
/// signs every spill page, checkpoint page and wire frame, so it runs
/// twice per spilled page. On a 4-vCPU AVX2 host (bench_micro_core) the
/// byte-at-a-time table costs 2.74 ns/byte, 11 us per 4 KiB page; the
/// SSE4.2 crc32 instruction computes the same values at 0.12 ns/byte.
///
/// Extends `crc` with `len` bytes at `data`; pass 0 to start a fresh
/// checksum. Composable: Crc32c(Crc32c(0, a, n), b, m) checksums a||b.
/// Dispatched through the SIMD layer (simd::HardwareCrc32c); every path
/// returns the same value, so checksummed bytes never depend on the host.
uint32_t Crc32c(uint32_t crc, const uint8_t* data, size_t len);

/// Portable table-driven reference implementation of Crc32c (also the
/// dispatched fallback, and the only path under ADAPTAGG_FORCE_SCALAR);
/// exposed for the differential tests and the microbench.
uint32_t Crc32cScalar(uint32_t crc, const uint8_t* data, size_t len);

}  // namespace adaptagg

#endif  // ADAPTAGG_COMMON_CRC32C_H_
