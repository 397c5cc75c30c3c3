#include "common/simd.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

namespace adaptagg {
namespace simd {
namespace {

constexpr uint64_t kBasis = 1469598103934665603ULL ^ 0x5ca1ab1eULL;
constexpr uint64_t kPrime = 1099511628211ULL;

/// Pins ADAPTAGG_FORCE_SCALAR for one test and restores the prior
/// environment (and the cached dispatch) on destruction.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(const char* value) {
    const char* prev = std::getenv("ADAPTAGG_FORCE_SCALAR");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    if (value != nullptr) {
      setenv("ADAPTAGG_FORCE_SCALAR", value, 1);
    } else {
      unsetenv("ADAPTAGG_FORCE_SCALAR");
    }
    ResetDispatchForTest();
  }
  ~ScopedForceScalar() {
    if (had_prev_) {
      setenv("ADAPTAGG_FORCE_SCALAR", prev_.c_str(), 1);
    } else {
      unsetenv("ADAPTAGG_FORCE_SCALAR");
    }
    ResetDispatchForTest();
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

/// Deterministic pseudo-random record block: `n` records of `stride`
/// bytes whose leading `words * 8` bytes are the key.
std::vector<uint8_t> MakeRecords(int n, int stride, uint64_t seed) {
  std::vector<uint8_t> recs(static_cast<size_t>(n) * stride);
  uint64_t x = seed;
  for (size_t i = 0; i + 8 <= recs.size(); i += 8) {
    x = SplitMix64(x + 0x9e3779b97f4a7c15ULL);
    std::memcpy(recs.data() + i, &x, 8);
  }
  return recs;
}

TEST(SimdDispatch, ResolvesOnceToAStableKind) {
  const DispatchKind kind = ActiveDispatch();
  EXPECT_EQ(ActiveDispatch(), kind);
  const std::string name = DispatchName();
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "neon")
      << name;
#if defined(ADAPTAGG_SIMD_HAVE_AVX2)
  if (!ForcedScalar() && __builtin_cpu_supports("avx2")) {
    EXPECT_EQ(kind, DispatchKind::kAvx2);
  }
#endif
}

TEST(SimdDispatch, ForceScalarEnvPinsTheFallback) {
  ScopedForceScalar force("1");
  EXPECT_TRUE(ForcedScalar());
  EXPECT_EQ(ActiveDispatch(), DispatchKind::kScalar);
  EXPECT_STREQ(DispatchName(), "scalar");
}

TEST(SimdDispatch, ZeroAndEmptyDoNotForce) {
  {
    ScopedForceScalar force("0");
    EXPECT_FALSE(ForcedScalar());
  }
  {
    ScopedForceScalar force("");
    EXPECT_FALSE(ForcedScalar());
  }
}

TEST(SimdHash, MatchesHashBytesOnWordKeys) {
  // The dispatched batch hash must be bit-identical to the scalar
  // HashBytes path for every key width that is a multiple of 8.
  for (int words : {1, 2, 3}) {
    const int stride = words * 8 + 8;  // keys plus a trailing value col
    for (int n : {1, 7, 8, 9, 31, 127, 128}) {
      std::vector<uint8_t> recs =
          MakeRecords(n, stride, 0xabcdef01u + static_cast<uint64_t>(n));
      std::vector<uint64_t> got(static_cast<size_t>(n));
      HashKeysFnvWords(recs.data(), stride, words, n, kBasis, kPrime,
                       got.data());
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(got[static_cast<size_t>(i)],
                  HashBytes(recs.data() + static_cast<size_t>(i) * stride,
                            static_cast<size_t>(words) * 8, 0x5ca1ab1eULL))
            << "words=" << words << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdHash, DispatchedMatchesScalarReference) {
  const int words = 2;
  const int stride = 24;
  const int n = 100;
  std::vector<uint8_t> recs = MakeRecords(n, stride, 42);
  std::vector<uint64_t> dispatched(n);
  std::vector<uint64_t> scalar(n);
  HashKeysFnvWords(recs.data(), stride, words, n, kBasis, kPrime,
                   dispatched.data());
  HashKeysFnvWordsScalar(recs.data(), stride, words, n, kBasis, kPrime,
                         scalar.data());
  EXPECT_EQ(dispatched, scalar);
}

TEST(SimdArith, AddInt64PairWrapsLikeScalar) {
  uint8_t state[16];
  int64_t a = std::numeric_limits<int64_t>::max();
  int64_t b = -5;
  std::memcpy(state, &a, 8);
  std::memcpy(state + 8, &b, 8);
  AddInt64PairInPlace(state, 1, 7);
  int64_t x;
  int64_t y;
  std::memcpy(&x, state, 8);
  std::memcpy(&y, state + 8, 8);
  EXPECT_EQ(x, std::numeric_limits<int64_t>::min());  // two's-complement
  EXPECT_EQ(y, 2);
}

TEST(SimdArith, AddInt64WordsHandlesOddCounts) {
  for (int words : {1, 2, 3, 5, 8}) {
    std::vector<uint8_t> state(static_cast<size_t>(words) * 8);
    std::vector<uint8_t> other(static_cast<size_t>(words) * 8);
    std::vector<int64_t> expect(static_cast<size_t>(words));
    for (int w = 0; w < words; ++w) {
      const int64_t s = 100 * w - 7;
      const int64_t o = -13 * w + 2;
      std::memcpy(state.data() + w * 8, &s, 8);
      std::memcpy(other.data() + w * 8, &o, 8);
      expect[static_cast<size_t>(w)] = s + o;
    }
    AddInt64Words(state.data(), other.data(), words);
    for (int w = 0; w < words; ++w) {
      int64_t got;
      std::memcpy(&got, state.data() + w * 8, 8);
      EXPECT_EQ(got, expect[static_cast<size_t>(w)]) << words << ":" << w;
    }
  }
}

/// Builds a [extremum][seen] block pair and runs both merge paths.
void CheckMinMaxMerge(int64_t mine, int64_t mine_seen, int64_t theirs,
                      int64_t their_seen, bool is_min, int64_t want,
                      int64_t want_seen) {
  for (const bool dispatched : {false, true}) {
    uint8_t state[16];
    uint8_t other[16];
    std::memcpy(state, &mine, 8);
    std::memcpy(state + 8, &mine_seen, 8);
    std::memcpy(other, &theirs, 8);
    std::memcpy(other + 8, &their_seen, 8);
    const uint8_t min_flag = is_min ? 1 : 0;
    if (dispatched) {
      ResolveMinMaxMerge()(state, other, &min_flag, 1);
    } else {
      MergeMinMaxInt64Scalar(state, other, &min_flag, 1);
    }
    int64_t got;
    int64_t got_seen;
    std::memcpy(&got, state, 8);
    std::memcpy(&got_seen, state + 8, 8);
    EXPECT_EQ(got, want) << (dispatched ? "dispatched" : "scalar");
    EXPECT_EQ(got_seen, want_seen) << (dispatched ? "dispatched" : "scalar");
  }
}

TEST(SimdArith, MinMaxMergeMatchesAggregateOpSemantics) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Unseen other side: state untouched (even its seen flag).
  CheckMinMaxMerge(5, 1, 999, 0, /*is_min=*/true, 5, 1);
  CheckMinMaxMerge(5, 0, 999, 0, /*is_min=*/false, 5, 0);
  // Plain wins and losses, both directions.
  CheckMinMaxMerge(5, 1, 3, 1, /*is_min=*/true, 3, 1);
  CheckMinMaxMerge(5, 1, 9, 1, /*is_min=*/true, 5, 1);
  CheckMinMaxMerge(5, 1, 9, 1, /*is_min=*/false, 9, 1);
  CheckMinMaxMerge(5, 1, 3, 1, /*is_min=*/false, 5, 1);
  // Equal values keep the existing extremum and still mark seen.
  CheckMinMaxMerge(4, 1, 4, 1, /*is_min=*/true, 4, 1);
  // Sentinel extremes: INT64_MIN/MAX survive the signed compare.
  CheckMinMaxMerge(kMin, 1, 0, 1, /*is_min=*/true, kMin, 1);
  CheckMinMaxMerge(kMax, 1, 0, 1, /*is_min=*/false, kMax, 1);
  CheckMinMaxMerge(0, 1, kMin, 1, /*is_min=*/true, kMin, 1);
  CheckMinMaxMerge(0, 1, kMax, 1, /*is_min=*/false, kMax, 1);
  // An unseen *state* side adopts the other value via the compare
  // (InitState seeds MIN with INT64_MAX / MAX with INT64_MIN, so the
  // sentinel always loses).
  CheckMinMaxMerge(kMax, 0, 7, 1, /*is_min=*/true, 7, 1);
  CheckMinMaxMerge(kMin, 0, 7, 1, /*is_min=*/false, 7, 1);
}

TEST(SimdArith, MinMaxMergeMultiOpBlocks) {
  // Three ops in one block: MIN, MAX, MIN — mixed flags exercise the
  // per-op flag indexing of both paths.
  const uint8_t flags[3] = {1, 0, 1};
  int64_t state_v[6] = {10, 1, 10, 1, 10, 1};
  int64_t other_v[6] = {3, 1, 30, 1, 99, 0};
  uint8_t state[48];
  uint8_t other[48];
  std::memcpy(state, state_v, 48);
  std::memcpy(other, other_v, 48);
  uint8_t state2[48];
  std::memcpy(state2, state, 48);

  MergeMinMaxInt64Scalar(state, other, flags, 3);
  ResolveMinMaxMerge()(state2, other, flags, 3);
  EXPECT_EQ(std::memcmp(state, state2, 48), 0);

  int64_t got[6];
  std::memcpy(got, state, 48);
  EXPECT_EQ(got[0], 3);   // MIN took 3
  EXPECT_EQ(got[2], 30);  // MAX took 30
  EXPECT_EQ(got[4], 10);  // unseen other skipped
  EXPECT_EQ(got[5], 1);
}

TEST(SimdHash, ForcedScalarAgreesWithVectorPath) {
  // Hash a block under the active dispatch, then force scalar and
  // re-hash: byte-identical outputs on any host.
  const int n = 64;
  const int stride = 16;
  std::vector<uint8_t> recs = MakeRecords(n, stride, 99);
  std::vector<uint64_t> vec(n);
  HashKeysFnvWords(recs.data(), stride, 1, n, kBasis, kPrime, vec.data());
  ScopedForceScalar force("yes");
  std::vector<uint64_t> sca(n);
  HashKeysFnvWords(recs.data(), stride, 1, n, kBasis, kPrime, sca.data());
  EXPECT_EQ(vec, sca);
}

}  // namespace
}  // namespace simd
}  // namespace adaptagg
