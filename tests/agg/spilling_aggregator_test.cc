#include "agg/spilling_aggregator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "common/random.h"

namespace adaptagg {
namespace {

class SpillingAggregatorTest : public ::testing::Test {
 protected:
  SpillingAggregatorTest()
      : disk_(1024),
        schema_({{"g", DataType::kInt64, 8}, {"v", DataType::kInt64, 8}}) {
    auto spec = MakeCountSumSpec(&schema_, 0, 1);
    EXPECT_TRUE(spec.ok());
    spec_ = std::make_unique<AggregationSpec>(std::move(spec).value());
  }

  std::vector<uint8_t> Proj(int64_t g, int64_t v) {
    std::vector<uint8_t> p(16);
    std::memcpy(p.data(), &g, 8);
    std::memcpy(p.data() + 8, &v, 8);
    return p;
  }

  std::vector<uint8_t> Partial(int64_t g, int64_t count, int64_t sum) {
    std::vector<uint8_t> p(24);
    std::memcpy(p.data(), &g, 8);
    std::memcpy(p.data() + 8, &count, 8);
    std::memcpy(p.data() + 16, &sum, 8);
    return p;
  }

  // Collects (group -> (count, sum)) from Finish().
  std::map<int64_t, std::pair<int64_t, int64_t>> Collect(
      SpillingAggregator& agg) {
    std::map<int64_t, std::pair<int64_t, int64_t>> out;
    Status st = agg.Finish([&](const uint8_t* key, const uint8_t* state) {
      int64_t g, c, s;
      std::memcpy(&g, key, 8);
      std::memcpy(&c, state, 8);
      std::memcpy(&s, state + 8, 8);
      EXPECT_TRUE(out.emplace(g, std::make_pair(c, s)).second)
          << "group " << g << " emitted twice";
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    return out;
  }

  SimDisk disk_;
  Schema schema_;
  std::unique_ptr<AggregationSpec> spec_;
};

TEST_F(SpillingAggregatorTest, InMemoryWhenGroupsFit) {
  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/100);
  for (int64_t g = 0; g < 50; ++g) {
    for (int rep = 0; rep < 3; ++rep) {
      ASSERT_TRUE(agg.AddProjected(Proj(g, g).data()).ok());
    }
  }
  EXPECT_FALSE(agg.has_spilled());
  auto result = Collect(agg);
  ASSERT_EQ(result.size(), 50u);
  for (int64_t g = 0; g < 50; ++g) {
    EXPECT_EQ(result[g].first, 3);
    EXPECT_EQ(result[g].second, 3 * g);
  }
  EXPECT_EQ(agg.stats().overflow_records, 0);
}

TEST_F(SpillingAggregatorTest, SpillsAndRecoversExactCounts) {
  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/32,
                         /*fanout=*/4);
  constexpr int64_t kGroups = 1'000;
  for (int64_t i = 0; i < 5'000; ++i) {
    int64_t g = i % kGroups;
    ASSERT_TRUE(agg.AddProjected(Proj(g, 1).data()).ok());
  }
  EXPECT_TRUE(agg.has_spilled());
  auto result = Collect(agg);
  ASSERT_EQ(result.size(), static_cast<size_t>(kGroups));
  for (const auto& [g, cs] : result) {
    EXPECT_EQ(cs.first, 5) << g;
    EXPECT_EQ(cs.second, 5) << g;
  }
  EXPECT_GT(agg.stats().overflow_records, 0);
  EXPECT_GT(agg.stats().spill_pages_written, 0);
  EXPECT_GT(agg.stats().spill_pages_read, 0);
  EXPECT_GE(agg.stats().max_depth, 1);
}

TEST_F(SpillingAggregatorTest, DeepRecursionTinyTable) {
  // M=2 with 200 groups forces multiple levels of repartitioning.
  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/2,
                         /*fanout=*/2);
  for (int64_t i = 0; i < 1'000; ++i) {
    ASSERT_TRUE(agg.AddProjected(Proj(i % 200, 2).data()).ok());
  }
  auto result = Collect(agg);
  ASSERT_EQ(result.size(), 200u);
  for (const auto& [g, cs] : result) {
    EXPECT_EQ(cs.first, 5);
    EXPECT_EQ(cs.second, 10);
  }
  EXPECT_GE(agg.stats().max_depth, 2);
}

TEST_F(SpillingAggregatorTest, MixedRawAndPartialInputs) {
  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/8,
                         /*fanout=*/2);
  // 100 groups, each gets 2 raw tuples (v=1) and one partial (3, 10).
  for (int64_t g = 0; g < 100; ++g) {
    ASSERT_TRUE(agg.AddProjected(Proj(g, 1).data()).ok());
    ASSERT_TRUE(agg.AddPartial(Partial(g, 3, 10).data()).ok());
    ASSERT_TRUE(agg.AddProjected(Proj(g, 1).data()).ok());
  }
  auto result = Collect(agg);
  ASSERT_EQ(result.size(), 100u);
  for (const auto& [g, cs] : result) {
    EXPECT_EQ(cs.first, 5) << g;   // 2 raw + partial count 3
    EXPECT_EQ(cs.second, 12) << g; // 2*1 + partial sum 10
  }
}

TEST_F(SpillingAggregatorTest, HeavyHitterNeverSpillsItsOwnUpdates) {
  // One group inserted first keeps aggregating in place even while other
  // groups overflow around it.
  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/4);
  ASSERT_TRUE(agg.AddProjected(Proj(0, 1).data()).ok());
  for (int64_t i = 0; i < 2'000; ++i) {
    ASSERT_TRUE(agg.AddProjected(Proj(1 + i % 50, 1).data()).ok());
    ASSERT_TRUE(agg.AddProjected(Proj(0, 1).data()).ok());
  }
  int64_t spilled_before = agg.stats().overflow_records;
  auto result = Collect(agg);
  EXPECT_EQ(result[0].first, 2'001);
  // The heavy group was resident from the start: its 2001 updates are
  // not in the spill count (only other groups' records are).
  EXPECT_LE(spilled_before, 2'000);
  EXPECT_EQ(result.size(), 51u);
}

TEST_F(SpillingAggregatorTest, EmptyFinish) {
  SpillingAggregator agg(spec_.get(), &disk_, 8);
  int emitted = 0;
  ASSERT_TRUE(
      agg.Finish([&](const uint8_t*, const uint8_t*) { ++emitted; }).ok());
  EXPECT_EQ(emitted, 0);
}

TEST_F(SpillingAggregatorTest, SpillFilesReleasedAfterFinish) {
  SpillingAggregator agg(spec_.get(), &disk_, 4, 2);
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(agg.AddProjected(Proj(i, 1).data()).ok());
  }
  Collect(agg);
  // All spill bucket files were dropped; writing to the disk again works
  // and SimDisk holds no leaked pages for them (new file starts empty).
  auto probe = disk_.CreateFile("probe");
  ASSERT_TRUE(probe.ok());
  auto pages = disk_.NumPages(*probe);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(*pages, 0);
}

TEST_F(SpillingAggregatorTest, DistinctSpecZeroStateWidth) {
  auto distinct = MakeDistinctSpec(&schema_, {0});
  ASSERT_TRUE(distinct.ok());
  SpillingAggregator agg(&*distinct, &disk_, 16, 2);
  std::vector<uint8_t> rec(8);
  for (int64_t i = 0; i < 1'000; ++i) {
    int64_t g = i % 77;
    std::memcpy(rec.data(), &g, 8);
    ASSERT_TRUE(agg.AddProjected(rec.data()).ok());
  }
  int emitted = 0;
  ASSERT_TRUE(
      agg.Finish([&](const uint8_t*, const uint8_t*) { ++emitted; }).ok());
  EXPECT_EQ(emitted, 77);
}

// --- Pinned emit order and spill I/O ---------------------------------
//
// Finish() emits the resident table, then each bucket's recursive child
// in bucket order, so the exact (key, state) sequence and every SpillStats
// counter are functions of the input order alone. The constants below
// were captured from the record-at-a-time bucket re-read; the batched
// re-read must reproduce them exactly.

struct PinnedRun {
  uint64_t digest = 0;
  int64_t emitted = 0;
  SpillStats stats;
};

// FNV-1a over the emitted (key, state) bytes in emit order.
PinnedRun FinishPinned(const AggregationSpec& spec, SpillingAggregator& agg) {
  PinnedRun run;
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](const uint8_t* p, int n) {
    for (int i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ULL;
    }
  };
  Status st = agg.Finish([&](const uint8_t* key, const uint8_t* state) {
    fold(key, spec.key_width());
    fold(state, spec.state_width());
    ++run.emitted;
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  run.digest = h;
  run.stats = agg.stats();
  return run;
}

void ExpectStats(const SpillStats& s, int64_t overflow_records,
                 int64_t pages_written, int64_t pages_read, int buckets,
                 int max_depth) {
  EXPECT_EQ(s.overflow_records, overflow_records);
  EXPECT_EQ(s.spill_pages_written, pages_written);
  EXPECT_EQ(s.spill_pages_read, pages_read);
  EXPECT_EQ(s.buckets_created, buckets);
  EXPECT_EQ(s.max_depth, max_depth);
}

TEST_F(SpillingAggregatorTest, PinnedEmitOrderMixedRawAndPartial) {
  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/64,
                         /*fanout=*/4);
  for (int64_t i = 0; i < 6'000; ++i) {
    const int64_t g = static_cast<int64_t>(SplitMix64(i) % 900);
    if (i % 5 == 0) {
      ASSERT_TRUE(agg.AddPartial(Partial(g, 2, i).data()).ok());
    } else {
      ASSERT_TRUE(agg.AddProjected(Proj(g, i % 7 - 3).data()).ok());
    }
  }
  const PinnedRun run = FinishPinned(*spec_, agg);
  EXPECT_EQ(run.emitted, 899);  // one of the 900 keys is never drawn
  EXPECT_EQ(run.digest, 18242623935282511792u);
  ExpectStats(run.stats, /*overflow_records=*/9'134, /*pages_written=*/177,
              /*pages_read=*/177, /*buckets=*/20, /*max_depth=*/2);
}

TEST_F(SpillingAggregatorTest, PinnedEmitOrderDeepRecursion) {
  SpillingAggregator agg(spec_.get(), &disk_, /*max_entries=*/4,
                         /*fanout=*/2);
  for (int64_t i = 0; i < 3'000; ++i) {
    const int64_t g = static_cast<int64_t>(SplitMix64(i + 17) % 400);
    ASSERT_TRUE(agg.AddProjected(Proj(g, i).data()).ok());
  }
  const PinnedRun run = FinishPinned(*spec_, agg);
  EXPECT_EQ(run.emitted, 400);
  EXPECT_GE(run.stats.max_depth, 2);
  EXPECT_EQ(run.digest, 8174405791965259896u);
  ExpectStats(run.stats, /*overflow_records=*/14'217, /*pages_written=*/312,
              /*pages_read=*/312, /*buckets=*/136, /*max_depth=*/7);
}

TEST_F(SpillingAggregatorTest, PinnedEmitOrderDistinctZeroStateWidth) {
  auto distinct = MakeDistinctSpec(&schema_, {0});
  ASSERT_TRUE(distinct.ok());
  SpillingAggregator agg(&*distinct, &disk_, /*max_entries=*/16,
                         /*fanout=*/2);
  std::vector<uint8_t> rec(8);
  for (int64_t i = 0; i < 2'000; ++i) {
    const int64_t g = static_cast<int64_t>(SplitMix64(i + 99) % 300);
    std::memcpy(rec.data(), &g, 8);
    ASSERT_TRUE(agg.AddProjected(rec.data()).ok());
  }
  const PinnedRun run = FinishPinned(*distinct, agg);
  EXPECT_EQ(run.emitted, 300);
  EXPECT_EQ(run.digest, 6317103935405943041u);
  ExpectStats(run.stats, /*overflow_records=*/5'112, /*pages_written=*/66,
              /*pages_read=*/66, /*buckets=*/30, /*max_depth=*/4);
}

}  // namespace
}  // namespace adaptagg
