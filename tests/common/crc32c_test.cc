#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/simd.h"

namespace adaptagg {
namespace {

/// The canonical CRC-32C check value: crc("123456789") == 0xE3069283.
constexpr uint8_t kCheckInput[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
constexpr uint32_t kCheckValue = 0xE3069283u;

/// Pins ADAPTAGG_FORCE_SCALAR for one test and restores the prior
/// environment (and the cached dispatch) on destruction.
class ScopedForceScalar {
 public:
  ScopedForceScalar() {
    const char* prev = std::getenv("ADAPTAGG_FORCE_SCALAR");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("ADAPTAGG_FORCE_SCALAR", "1", 1);
    simd::ResetDispatchForTest();
  }
  ~ScopedForceScalar() {
    if (had_prev_) {
      setenv("ADAPTAGG_FORCE_SCALAR", prev_.c_str(), 1);
    } else {
      unsetenv("ADAPTAGG_FORCE_SCALAR");
    }
    simd::ResetDispatchForTest();
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  uint64_t x = seed;
  for (size_t i = 0; i < n; ++i) {
    x = SplitMix64(x + i);
    out[i] = static_cast<uint8_t>(x >> 29);
  }
  return out;
}

TEST(Crc32c, KnownVector) {
  EXPECT_EQ(Crc32c(0, kCheckInput, sizeof(kCheckInput)), kCheckValue);
}

TEST(Crc32c, Composable) {
  uint32_t part = Crc32c(0, kCheckInput, 4);
  EXPECT_EQ(Crc32c(part, kCheckInput + 4, 5), kCheckValue);
}

TEST(Crc32c, DetectsSingleBitFlip) {
  std::vector<uint8_t> buf(256);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  const uint32_t good = Crc32c(0, buf.data(), buf.size());
  for (size_t byte : {size_t{0}, buf.size() / 2, buf.size() - 1}) {
    buf[byte] ^= 0x10;
    EXPECT_NE(Crc32c(0, buf.data(), buf.size()), good);
    buf[byte] ^= 0x10;
  }
}

TEST(Crc32c, KnownVectorOnBothPaths) {
  EXPECT_EQ(Crc32cScalar(0, kCheckInput, sizeof(kCheckInput)), kCheckValue);
  EXPECT_EQ(Crc32c(0, kCheckInput, sizeof(kCheckInput)), kCheckValue);
  ScopedForceScalar force;
  EXPECT_FALSE(simd::HardwareCrc32c());
  EXPECT_EQ(Crc32c(0, kCheckInput, sizeof(kCheckInput)), kCheckValue);
}

TEST(Crc32c, DispatchedMatchesScalarEveryLengthAndAlignment) {
  // Every length 0..8200 (two 4 KiB pages and a ragged tail) at every
  // start misalignment 0..7. The scalar reference of each prefix is
  // built incrementally — the table code is a plain byte loop — so only
  // the dispatched side pays for the quadratic sweep.
  constexpr size_t kMaxLen = 8'200;
  const std::vector<uint8_t> buf = RandomBytes(kMaxLen + 8, 0xc4c);
  for (size_t misalign = 0; misalign < 8; ++misalign) {
    const uint8_t* data = buf.data() + misalign;
    uint32_t ref = 0;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) ref = Crc32cScalar(ref, data + len - 1, 1);
      const uint32_t got = Crc32c(0, data, len);
      if (got != ref) {
        ADD_FAILURE() << "len " << len << " misalign " << misalign << ": "
                      << std::hex << got << " != " << ref;
        return;
      }
    }
  }
}

TEST(Crc32c, ChainedCompositionMatchesScalar) {
  // Split points inside and across 8-byte words, chaining the dispatched
  // kernel with itself and with the reference in both orders.
  const std::vector<uint8_t> buf = RandomBytes(67, 0x5eed);
  const uint32_t whole = Crc32cScalar(0, buf.data(), buf.size());
  ASSERT_EQ(Crc32c(0, buf.data(), buf.size()), whole);
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint8_t* tail = buf.data() + split;
    const size_t tail_len = buf.size() - split;
    const uint32_t head = Crc32c(0, buf.data(), split);
    EXPECT_EQ(head, Crc32cScalar(0, buf.data(), split)) << split;
    EXPECT_EQ(Crc32c(head, tail, tail_len), whole) << split;
    EXPECT_EQ(Crc32cScalar(head, tail, tail_len), whole) << split;
    EXPECT_EQ(Crc32c(Crc32cScalar(0, buf.data(), split), tail, tail_len),
              whole)
        << split;
  }
}

}  // namespace
}  // namespace adaptagg
