#ifndef ADAPTAGG_COMMON_SIMD_H_
#define ADAPTAGG_COMMON_SIMD_H_

// The repo's one and only SIMD surface: a portable wrapper over AVX2
// (x86-64) and NEON (aarch64) with a scalar fallback, selected once per
// process by runtime dispatch (simd.cc). Raw intrinsics and the
// <immintrin.h>/<arm_neon.h> includes are banned everywhere else by
// lint rule S11, so every vector kernel lives here and callers consume
// the dispatched entry points below.
//
// Contract shared by every kernel: the vector variants are bit-identical
// to their scalar counterparts (hashes decide tuple routing and result
// emit order, so a single differing lane would change observable
// output). The differential suites in tests/common and tests/agg compare
// the dispatched and forced-scalar paths byte for byte.
//
// Dispatch honors the ADAPTAGG_FORCE_SCALAR environment variable (any
// value except "" and "0" pins the scalar path), which is how CI
// exercises the fallback on AVX2 hosts.

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define ADAPTAGG_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define ADAPTAGG_SIMD_NEON 1
#include <arm_neon.h>
#endif

#if defined(ADAPTAGG_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
// Per-function AVX2 code generation: kernels carry this attribute
// instead of the whole build carrying -mavx2, so a single binary holds
// both paths and the runtime dispatcher picks one.
#define ADAPTAGG_TARGET_AVX2 __attribute__((target("avx2")))
#define ADAPTAGG_TARGET_SSE42 __attribute__((target("sse4.2")))
#define ADAPTAGG_SIMD_HAVE_AVX2 1
#else
#define ADAPTAGG_TARGET_AVX2
#define ADAPTAGG_TARGET_SSE42
#endif

namespace adaptagg {
namespace simd {

/// Which instruction set the process-wide dispatcher resolved to.
enum class DispatchKind {
  kScalar,  ///< portable fallback (also under ADAPTAGG_FORCE_SCALAR)
  kAvx2,    ///< x86-64 with AVX2: 8-lane key hashing + merge kernels
            ///< (+ the SSE4.2 CRC-32C where the CPU reports it)
  kNeon,    ///< aarch64: 128-bit merge kernels, scalar hashing
};

/// Resolved dispatch of this process (cached after the first call; the
/// first resolution also logs the decision once). Thread-safe.
DispatchKind ActiveDispatch();

/// Human-readable name of ActiveDispatch(): "scalar", "avx2", "neon".
const char* DispatchName();

/// True when the environment pinned the scalar path.
bool ForcedScalar();

/// Test-only: drops the cached dispatch (and its log-once latch) so the
/// next ActiveDispatch() re-reads ADAPTAGG_FORCE_SCALAR and the CPU.
/// Callers must be single-threaded around this.
void ResetDispatchForTest();

// ---------------------------------------------------------------------
// Batch key hashing: FNV-1a over 8-byte words + SplitMix64 finalizer,
// 8 records per step. Bit-identical to HashBytes (common/random.cc) on
// keys whose width is a multiple of 8.
// ---------------------------------------------------------------------

/// Hashes the `words * 8`-byte key prefix of `n` records laid out
/// `stride` bytes apart: per word `h = (h ^ word) * prime` starting from
/// `basis`, finalized with SplitMix64. Dispatched (AVX2: 8 lanes).
void HashKeysFnvWords(const uint8_t* recs, int stride, int words, int n,
                      uint64_t basis, uint64_t prime, uint64_t* out);

/// Scalar reference implementation of HashKeysFnvWords (also the
/// dispatched fallback); exposed for the differential tests.
void HashKeysFnvWordsScalar(const uint8_t* recs, int stride, int words,
                            int n, uint64_t basis, uint64_t prime,
                            uint64_t* out);

// ---------------------------------------------------------------------
// CRC-32C (Castagnoli). The checksum itself is common/crc32c.h's
// Crc32c, which dispatches here; only the hardware body lives in this
// file.
// ---------------------------------------------------------------------

/// True when Crc32c may use the SSE4.2 crc32 instruction: the dispatch
/// resolved to kAvx2 (so ADAPTAGG_FORCE_SCALAR pins the table code) and
/// the CPU reports sse4.2.
bool HardwareCrc32c();

// ---------------------------------------------------------------------
// Fused aggregate/merge arithmetic. The 128-bit forms need no runtime
// dispatch: SSE2 is baseline on x86-64 and NEON on aarch64, so they are
// always-inline and fold straight into the hash-table update functors.
// ---------------------------------------------------------------------

/// state[0..7] += a, state[8..15] += b as int64 — the fused COUNT+SUM
/// update ([count][sum] += [1][value]) and any other 16-byte pair add.
inline void AddInt64PairInPlace(uint8_t* state, int64_t a, int64_t b) {
#if defined(ADAPTAGG_SIMD_X86)
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i d = _mm_set_epi64x(b, a);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_add_epi64(s, d));
#elif defined(ADAPTAGG_SIMD_NEON)
  int64x2_t s = vld1q_s64(reinterpret_cast<const int64_t*>(
      static_cast<void*>(state)));
  const int64_t d[2] = {a, b};
  vst1q_s64(reinterpret_cast<int64_t*>(static_cast<void*>(state)),
            vaddq_s64(s, vld1q_s64(d)));
#else
  // Unsigned arithmetic: accumulators wrap in two's complement on
  // overflow (same bit pattern as the vector adds), never UB.
  uint64_t x;
  uint64_t y;
  std::memcpy(&x, state, 8);
  std::memcpy(&y, state + 8, 8);
  x += static_cast<uint64_t>(a);
  y += static_cast<uint64_t>(b);
  std::memcpy(state, &x, 8);
  std::memcpy(state + 8, &y, 8);
#endif
}

/// state[w] += other[w] for `words` int64 words — the fused additive
/// partial-merge (COUNT / SUM(int64) / AVG(int64) states). Two words
/// per 128-bit step, scalar tail.
inline void AddInt64Words(uint8_t* state, const uint8_t* other,
                          int words) {
  int w = 0;
#if defined(ADAPTAGG_SIMD_X86)
  for (; w + 2 <= words; w += 2) {
    __m128i s = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(state + w * 8));
    __m128i o = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(other + w * 8));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + w * 8),
                     _mm_add_epi64(s, o));
  }
#elif defined(ADAPTAGG_SIMD_NEON)
  for (; w + 2 <= words; w += 2) {
    int64x2_t s = vld1q_s64(reinterpret_cast<const int64_t*>(
        static_cast<const void*>(state + w * 8)));
    int64x2_t o = vld1q_s64(reinterpret_cast<const int64_t*>(
        static_cast<const void*>(other + w * 8)));
    vst1q_s64(reinterpret_cast<int64_t*>(static_cast<void*>(state + w * 8)),
              vaddq_s64(s, o));
  }
#endif
  for (; w < words; ++w) {
    // Unsigned: wraps like the vector adds instead of overflowing UB.
    uint64_t a;
    uint64_t b;
    std::memcpy(&a, state + w * 8, 8);
    std::memcpy(&b, other + w * 8, 8);
    a += b;
    std::memcpy(state + w * 8, &a, 8);
  }
}

/// Merges `num_ops` MIN/MAX(int64) partial blocks ([extremum:int64]
/// [seen:int64] per op; `is_min[op]` = 1 for MIN) from `other` into
/// `state`, exactly like AggregateOp::MergePartial: an unseen other op
/// is skipped, the extremum compare-stores, seen is set to 1.
using MinMaxMergeFn = void (*)(uint8_t* state, const uint8_t* other,
                               const uint8_t* is_min, int num_ops);

/// The dispatched MIN/MAX merge (AVX2 hosts get a branchless 128-bit
/// compare+blend; resolve once per batch, the functor calls per record).
MinMaxMergeFn ResolveMinMaxMerge();

/// Scalar reference MIN/MAX merge (also the dispatched fallback).
void MergeMinMaxInt64Scalar(uint8_t* state, const uint8_t* other,
                            const uint8_t* is_min, int num_ops);

// ---------------------------------------------------------------------
// AVX2 kernel bodies. Header-inline so every translation unit can reach
// them through the dispatch tables without a global -mavx2; the target
// attribute scopes AVX2 code generation to exactly these functions.
// ---------------------------------------------------------------------

#if defined(ADAPTAGG_SIMD_HAVE_AVX2)

namespace internal {

/// Exact 64-bit lane-wise multiply (AVX2 has no _mm256_mullo_epi64):
/// composed from 32x32->64 multiplies, exact modulo 2^64.
ADAPTAGG_TARGET_AVX2 inline __m256i Mullo64(__m256i a, __m256i b) {
  __m256i lo = _mm256_mul_epu32(a, b);
  __m256i ah = _mm256_srli_epi64(a, 32);
  __m256i bh = _mm256_srli_epi64(b, 32);
  __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(ah, b),
                                   _mm256_mul_epu32(a, bh));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// 4-lane SplitMix64; constants must match common/random.h.
ADAPTAGG_TARGET_AVX2 inline __m256i SplitMix64x4(__m256i x) {
  x = _mm256_add_epi64(
      x, _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL)));
  x = Mullo64(
      _mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
      _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  x = Mullo64(
      _mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
      _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

/// One 8-byte key word of record `i`, word `w`.
inline long long KeyWord(const uint8_t* recs, int stride, int i, int w) {
  long long v;
  std::memcpy(&v, recs + static_cast<int64_t>(i) * stride + w * 8, 8);
  return v;
}

}  // namespace internal

/// 8-lane AVX2 body of HashKeysFnvWords (bit-identical to the scalar
/// loop; the tail of n % 8 records runs scalar).
ADAPTAGG_TARGET_AVX2 inline void HashKeysFnvWordsAvx2(
    const uint8_t* recs, int stride, int words, int n, uint64_t basis,
    uint64_t prime, uint64_t* out) {
  const __m256i prime_v =
      _mm256_set1_epi64x(static_cast<long long>(prime));
  const __m256i basis_v =
      _mm256_set1_epi64x(static_cast<long long>(basis));
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i h0 = basis_v;
    __m256i h1 = basis_v;
    for (int w = 0; w < words; ++w) {
      __m256i v0 = _mm256_set_epi64x(
          internal::KeyWord(recs, stride, i + 3, w),
          internal::KeyWord(recs, stride, i + 2, w),
          internal::KeyWord(recs, stride, i + 1, w),
          internal::KeyWord(recs, stride, i + 0, w));
      __m256i v1 = _mm256_set_epi64x(
          internal::KeyWord(recs, stride, i + 7, w),
          internal::KeyWord(recs, stride, i + 6, w),
          internal::KeyWord(recs, stride, i + 5, w),
          internal::KeyWord(recs, stride, i + 4, w));
      h0 = internal::Mullo64(_mm256_xor_si256(h0, v0), prime_v);
      h1 = internal::Mullo64(_mm256_xor_si256(h1, v1), prime_v);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        internal::SplitMix64x4(h0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4),
                        internal::SplitMix64x4(h1));
  }
  if (i < n) {
    HashKeysFnvWordsScalar(recs + static_cast<int64_t>(i) * stride, stride,
                           words, n - i, basis, prime, out + i);
  }
}

/// AVX2 body of the MIN/MAX(int64) partial merge: per op one 128-bit
/// load pair, a 64-bit compare picking the surviving extremum, and a
/// blend — no data-dependent branch beyond the unseen-other skip.
ADAPTAGG_TARGET_AVX2 inline void MergeMinMaxInt64Avx2(
    uint8_t* state, const uint8_t* other, const uint8_t* is_min,
    int num_ops) {
  for (int op = 0; op < num_ops; ++op) {
    uint8_t* s_ptr = state + op * 16;
    const uint8_t* o_ptr = other + op * 16;
    int64_t other_seen;
    std::memcpy(&other_seen, o_ptr + 8, 8);
    if (other_seen == 0) continue;  // other side saw no tuples
    __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s_ptr));
    __m128i o = _mm_loadu_si128(reinterpret_cast<const __m128i*>(o_ptr));
    // Lane 0 holds the extremum; lane 1 (seen) is overwritten with 1
    // below, so only lane 0 of the compare matters.
    __m128i take_other =
        is_min[op] != 0 ? _mm_cmpgt_epi64(s, o) : _mm_cmpgt_epi64(o, s);
    __m128i merged = _mm_blendv_epi8(s, o, take_other);
    merged = _mm_insert_epi64(merged, 1, 1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(s_ptr), merged);
  }
}

/// SSE4.2 body of Crc32c: the crc32 instruction over 8-byte words, then
/// a byte tail. Same polynomial, pre/post inversion and composition as
/// the table reference Crc32cScalar, so the values are identical.
ADAPTAGG_TARGET_SSE42 inline uint32_t Crc32cSse42(uint32_t crc,
                                                   const uint8_t* data,
                                                   size_t len) {
  uint64_t c = ~crc;
  for (; len >= 8; data += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, data, 8);
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; len > 0; ++data, --len) c32 = _mm_crc32_u8(c32, *data);
  return ~c32;
}

#endif  // ADAPTAGG_SIMD_HAVE_AVX2

}  // namespace simd
}  // namespace adaptagg

#endif  // ADAPTAGG_COMMON_SIMD_H_
