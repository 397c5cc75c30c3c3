#include "storage/spill_file.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "storage/faulty_disk.h"

namespace adaptagg {
namespace {

constexpr int kBatchWidthForTest = 128;

class SpillFileTest : public ::testing::Test {
 protected:
  SpillFileTest() : disk_(256) {}

  SpillWriter MakeWriter(int raw_width, int partial_width) {
    auto w = SpillWriter::Create(&disk_, "spill", raw_width, partial_width);
    EXPECT_TRUE(w.ok());
    return std::move(w).value();
  }

  SimDisk disk_;
};

/// One NextRun() result: its tag and records, copied out.
struct SpillRun {
  SpillTag tag;
  std::vector<std::vector<uint8_t>> records;
};

/// Drains `reader` a run of at most `max` records at a time.
std::vector<SpillRun> ReadRuns(const SpillWriter& w, SpillReader& reader,
                          int max) {
  std::vector<SpillRun> runs;
  SpillTag tag;
  const uint8_t* recs = nullptr;
  int n = 0;
  while ((n = reader.NextRun(max, &tag, &recs)) > 0) {
    EXPECT_LE(n, max);
    const int width = w.WidthOf(tag);
    SpillRun run{tag, {}};
    for (int i = 0; i < n; ++i) {
      const uint8_t* rec = recs + static_cast<size_t>(i) * (1 + width);
      run.records.emplace_back(rec, rec + width);
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

/// Record `i` of a test stream: `width` bytes, each equal to `i`.
std::vector<uint8_t> Filled(int width, int i) {
  return std::vector<uint8_t>(static_cast<size_t>(width),
                              static_cast<uint8_t>(i));
}

TEST_F(SpillFileTest, MixedTagRoundtrip) {
  SpillWriter w = MakeWriter(/*raw=*/16, /*partial=*/24);
  uint8_t raw[16];
  uint8_t partial[24];
  for (int i = 0; i < 100; ++i) {
    if (i % 3 == 0) {
      std::memset(partial, i, sizeof(partial));
      ASSERT_TRUE(w.Append(SpillTag::kPartial, partial).ok());
    } else {
      std::memset(raw, i, sizeof(raw));
      ASSERT_TRUE(w.Append(SpillTag::kRaw, raw).ok());
    }
  }
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(w.num_records(), 100);
  EXPECT_GT(w.num_pages(), 1);

  SpillReader reader(&w);
  int i = 0;
  for (const SpillRun& run : ReadRuns(w, reader, kBatchWidthForTest)) {
    for (const std::vector<uint8_t>& rec : run.records) {
      if (i % 3 == 0) {
        EXPECT_EQ(run.tag, SpillTag::kPartial);
        EXPECT_EQ(rec, Filled(24, i));
      } else {
        EXPECT_EQ(run.tag, SpillTag::kRaw);
        EXPECT_EQ(rec, Filled(16, i));
      }
      ++i;
    }
  }
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(i, 100);
  EXPECT_EQ(reader.pages_read(), w.num_pages());
}

TEST_F(SpillFileTest, EmptySpill) {
  SpillWriter w = MakeWriter(8, 8);
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(w.num_pages(), 0);
  SpillReader reader(&w);
  SpillTag tag;
  const uint8_t* rec;
  EXPECT_EQ(reader.NextRun(8, &tag, &rec), 0);
  EXPECT_TRUE(reader.status().ok());
}

TEST_F(SpillFileTest, FlushMidStreamPreservesOrder) {
  SpillWriter w = MakeWriter(8, 8);
  int64_t v = 1;
  ASSERT_TRUE(w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  ASSERT_TRUE(w.Flush().ok());
  v = 2;
  ASSERT_TRUE(w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(w.num_pages(), 2);

  SpillReader reader(&w);
  SpillTag tag;
  const uint8_t* rec;
  // Each page holds one record, so each run does too.
  ASSERT_EQ(reader.NextRun(8, &tag, &rec), 1);
  int64_t out;
  std::memcpy(&out, rec, 8);
  EXPECT_EQ(out, 1);
  ASSERT_EQ(reader.NextRun(8, &tag, &rec), 1);
  std::memcpy(&out, rec, 8);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(reader.NextRun(8, &tag, &rec), 0);
}

TEST_F(SpillFileTest, DoubleFlushNoEmptyPage) {
  SpillWriter w = MakeWriter(8, 8);
  int64_t v = 1;
  ASSERT_TRUE(w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(w.num_pages(), 1);
}

TEST_F(SpillFileTest, DropReleasesFile) {
  SpillWriter w = MakeWriter(8, 8);
  int64_t v = 9;
  ASSERT_TRUE(w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_TRUE(w.Drop().ok());
  std::vector<uint8_t> page;
  EXPECT_FALSE(disk_.ReadPage(w.file_id(), 0, page).ok());
}

TEST_F(SpillFileTest, PagePackingRespectsFrameOverhead) {
  // 256-byte pages, 4-byte header, frames of 1+8 bytes -> 28 per page.
  SpillWriter w = MakeWriter(8, 0);
  int64_t v = 0;
  for (int i = 0; i < 28; ++i) {
    ASSERT_TRUE(
        w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  }
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(w.num_pages(), 1);
  ASSERT_TRUE(
      w.Append(SpillTag::kRaw, reinterpret_cast<uint8_t*>(&v)).ok());
  ASSERT_TRUE(w.Flush().ok());
  EXPECT_EQ(w.num_pages(), 2);
}

// --- run reader -------------------------------------------------------

TEST_F(SpillFileTest, RunEndsAtTagChange) {
  // One page: 3 raw, 2 partial, 4 raw records.
  SpillWriter w = MakeWriter(/*raw=*/8, /*partial=*/16);
  int i = 0;
  for (int k = 0; k < 3; ++k, ++i) {
    ASSERT_TRUE(w.Append(SpillTag::kRaw, Filled(8, i).data()).ok());
  }
  for (int k = 0; k < 2; ++k, ++i) {
    ASSERT_TRUE(w.Append(SpillTag::kPartial, Filled(16, i).data()).ok());
  }
  for (int k = 0; k < 4; ++k, ++i) {
    ASSERT_TRUE(w.Append(SpillTag::kRaw, Filled(8, i).data()).ok());
  }
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_EQ(w.num_pages(), 1);

  SpillReader reader(&w);
  const std::vector<SpillRun> runs = ReadRuns(w, reader, kBatchWidthForTest);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].tag, SpillTag::kRaw);
  EXPECT_EQ(runs[1].tag, SpillTag::kPartial);
  EXPECT_EQ(runs[2].tag, SpillTag::kRaw);
  ASSERT_EQ(runs[0].records.size(), 3u);
  ASSERT_EQ(runs[1].records.size(), 2u);
  ASSERT_EQ(runs[2].records.size(), 4u);
  int j = 0;
  for (const SpillRun& run : runs) {
    for (const std::vector<uint8_t>& rec : run.records) {
      EXPECT_EQ(rec, Filled(run.tag == SpillTag::kRaw ? 8 : 16, j)) << j;
      ++j;
    }
  }
  EXPECT_TRUE(reader.status().ok());
}

TEST_F(SpillFileTest, RunEndsAtPageBoundary) {
  // 28 raw 8-byte frames fill a 256-byte page; 40 records span two.
  SpillWriter w = MakeWriter(8, 0);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(w.Append(SpillTag::kRaw, Filled(8, i).data()).ok());
  }
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_EQ(w.num_pages(), 2);

  SpillReader reader(&w);
  const std::vector<SpillRun> runs = ReadRuns(w, reader, kBatchWidthForTest);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].records.size(), 28u);
  EXPECT_EQ(runs[1].records.size(), 12u);
  EXPECT_EQ(runs[1].records.front(), Filled(8, 28));
  EXPECT_EQ(runs[1].records.back(), Filled(8, 39));
  EXPECT_EQ(reader.pages_read(), 2);
}

TEST_F(SpillFileTest, RunEndsAtMax) {
  SpillWriter w = MakeWriter(8, 0);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(w.Append(SpillTag::kRaw, Filled(8, i).data()).ok());
  }
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_EQ(w.num_pages(), 1);

  SpillReader reader(&w);
  const std::vector<SpillRun> runs = ReadRuns(w, reader, /*max=*/8);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].records.size(), 8u);
  EXPECT_EQ(runs[1].records.size(), 8u);
  EXPECT_EQ(runs[2].records.size(), 4u);
  EXPECT_EQ(runs[1].records.front(), Filled(8, 8));
  EXPECT_EQ(runs[2].records.back(), Filled(8, 19));
}

TEST(SpillFileCorruption, CorruptedPageSurfacesDataLoss) {
  // The second page is torn on write; the first still reads back, then
  // the run reader stops with kDataLoss instead of decoding garbage.
  TornWriteDisk disk(256);
  disk.TearWrite(1);
  auto created = SpillWriter::Create(&disk, "spill", 8, 0);
  ASSERT_TRUE(created.ok());
  SpillWriter w = std::move(created).value();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(w.Append(SpillTag::kRaw, Filled(8, i).data()).ok());
  }
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_EQ(w.num_pages(), 2);

  SpillReader reader(&w);
  const std::vector<SpillRun> runs = ReadRuns(w, reader, kBatchWidthForTest);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].records.size(), 28u);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss)
      << reader.status().ToString();
  SpillTag tag;
  const uint8_t* rec;
  EXPECT_EQ(reader.NextRun(8, &tag, &rec), 0);
}

}  // namespace
}  // namespace adaptagg
