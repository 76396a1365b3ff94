// OPENAPI_TEST_LABELS: concurrent  (run under TSan in CI: ctest -L concurrent)
// Exhaustive kill-point injection over the region log's crash recovery:
// a log is truncated at EVERY byte offset within its final record (the
// only record a crash mid-append can tear, since appends are sequential)
// and reopened. Every kill point must recover the intact prefix
// BIT-identically, report exact recovery_stats(), and leave the file
// appendable — no kill point may corrupt an earlier record or wedge the
// log.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "store/region_log.h"
#include "store/region_record.h"
#include "store/region_store.h"
#include "util/file_io.h"

namespace openapi::store {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Deterministic record with awkward doubles (repeating binary
/// fractions, tiny magnitudes) so bit-exactness assertions bite.
RegionRecord MakeRecord(size_t dim, size_t num_classes, uint64_t seed) {
  RegionRecord record;
  record.fingerprint = 0x9e3779b97f4a7c15ULL * (seed + 1);
  record.argmax = static_cast<uint32_t>(seed % num_classes);
  record.epoch = static_cast<uint32_t>(seed % 3);
  record.anchor.assign(dim, 0.0);
  record.lo.assign(dim, 0.0);
  record.hi.assign(dim, 0.0);
  for (size_t j = 0; j < dim; ++j) {
    double base =
        0.1 * static_cast<double>(j + 1) + 1e-7 * static_cast<double>(seed);
    record.anchor[j] = base;
    record.lo[j] = base - 1.0 / 3.0;
    record.hi[j] = base + 1e-12;
  }
  record.model.weights = linalg::Matrix(dim, num_classes);
  for (size_t j = 0; j < dim; ++j) {
    for (size_t c = 0; c < num_classes; ++c) {
      record.model.weights(j, c) =
          std::sin(static_cast<double>(seed * 31 + j * 7 + c)) * 1e3;
    }
  }
  record.model.bias.assign(num_classes, 0.0);
  for (size_t c = 0; c < num_classes; ++c) {
    record.model.bias[c] = -0.7 * static_cast<double>(c) - 1e-9;
  }
  return record;
}

void ExpectBitIdentical(const RegionRecord& a, const RegionRecord& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.argmax, b.argmax);
  EXPECT_EQ(a.epoch, b.epoch);
  ASSERT_EQ(a.anchor.size(), b.anchor.size());
  for (size_t j = 0; j < a.anchor.size(); ++j) {
    EXPECT_EQ(a.anchor[j], b.anchor[j]);
    EXPECT_EQ(a.lo[j], b.lo[j]);
    EXPECT_EQ(a.hi[j], b.hi[j]);
  }
  ASSERT_EQ(a.model.bias.size(), b.model.bias.size());
  for (size_t c = 0; c < a.model.bias.size(); ++c) {
    EXPECT_EQ(a.model.bias[c], b.model.bias[c]);
  }
  ASSERT_EQ(a.model.weights.rows(), b.model.weights.rows());
  ASSERT_EQ(a.model.weights.cols(), b.model.weights.cols());
  for (size_t j = 0; j < a.model.weights.rows(); ++j) {
    for (size_t c = 0; c < a.model.weights.cols(); ++c) {
      EXPECT_EQ(a.model.weights(j, c), b.model.weights(j, c));
    }
  }
}

// ---------------------------------------------------------------------------
// The exhaustive sweep. Build a log of 4 records, then for every byte
// offset t in [start of record 3, file size) write the first t bytes to a
// scratch path and reopen it. A crash mid-append can only produce exactly
// these prefixes (appends are sequential and earlier bytes are never
// rewritten), so this enumerates every reachable crash state.
// ---------------------------------------------------------------------------
TEST(StoreKillpointTest, EveryTruncationOfTheFinalRecordRecovers) {
  constexpr size_t kDim = 3, kClasses = 2, kRecords = 4;
  const std::string path = TempPath("killpoint_master.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup

  std::vector<RegionRecord> written;
  std::vector<uint64_t> offsets;
  {
    auto log = RegionLog::Open(path, kDim, kClasses);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (uint64_t s = 0; s < kRecords; ++s) {
      written.push_back(MakeRecord(kDim, kClasses, s));
      auto offset = (*log)->Append(written.back());
      ASSERT_TRUE(offset.ok()) << offset.status().ToString();
      offsets.push_back(*offset);
    }
    ASSERT_TRUE((*log)->Flush().ok());
  }
  auto full = util::ReadFileToString(path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const uint64_t file_size = full->size();
  const uint64_t final_start = offsets.back();
  ASSERT_GT(file_size, final_start);

  const std::string scratch = TempPath("killpoint_scratch.rlog");
  for (uint64_t t = final_start; t < file_size; ++t) {
    SCOPED_TRACE("kill point at byte " + std::to_string(t));
    (void)util::RemoveFile(scratch);  // best-effort scratch cleanup
    ASSERT_TRUE(
        util::WriteStringToFile(scratch, full->substr(0, t)).ok());

    std::vector<RegionRecord> replayed;
    auto log = RegionLog::Open(
        scratch, kDim, kClasses,
        [&replayed](uint64_t, const RegionRecord& record) {
          replayed.push_back(record);
        });
    ASSERT_TRUE(log.ok()) << log.status().ToString();

    // Exact accounting: the intact prefix survives, the torn tail — and
    // nothing else — is dropped.
    EXPECT_EQ((*log)->recovery_stats().records_recovered, kRecords - 1);
    EXPECT_EQ((*log)->recovery_stats().bytes_truncated, t - final_start);
    EXPECT_EQ((*log)->record_count(), kRecords - 1);
    ASSERT_EQ(replayed.size(), kRecords - 1);
    for (size_t r = 0; r + 1 < kRecords; ++r) {
      ExpectBitIdentical(replayed[r], written[r]);
    }

    // The recovered log is appendable: a new record lands where the torn
    // one was, and a clean reopen replays all 4 with zero truncation.
    auto offset = (*log)->Append(written.back());
    ASSERT_TRUE(offset.ok()) << offset.status().ToString();
    EXPECT_EQ(*offset, final_start);
    ASSERT_TRUE((*log)->Flush().ok());
    log->reset();

    std::vector<RegionRecord> reread;
    auto reopened = RegionLog::Open(
        scratch, kDim, kClasses,
        [&reread](uint64_t, const RegionRecord& record) {
          reread.push_back(record);
        });
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->recovery_stats().bytes_truncated, 0u);
    ASSERT_EQ(reread.size(), kRecords);
    ExpectBitIdentical(reread.back(), written.back());
  }
}

// ---------------------------------------------------------------------------
// The same sweep through RegionStore::Open: the directory rebuilt from a
// truncated log indexes exactly the surviving records (the torn
// fingerprint is absent), and recovery_stats() surfaces the log's counts
// through the store.
// ---------------------------------------------------------------------------
TEST(StoreKillpointTest, StoreOpenRecoversDirectoryFromTruncatedLog) {
  constexpr size_t kDim = 3, kClasses = 2, kRecords = 3;
  const std::string path = TempPath("killpoint_store.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup

  std::vector<RegionRecord> written;
  uint64_t final_start = 0;
  {
    auto log = RegionLog::Open(path, kDim, kClasses);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (uint64_t s = 0; s < kRecords; ++s) {
      written.push_back(MakeRecord(kDim, kClasses, s));
      auto offset = (*log)->Append(written.back());
      ASSERT_TRUE(offset.ok()) << offset.status().ToString();
      final_start = *offset;
    }
    ASSERT_TRUE((*log)->Flush().ok());
  }
  auto full = util::ReadFileToString(path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  // One representative mid-payload kill point (the exhaustive sweep above
  // covers the rest at the log layer).
  const uint64_t t = final_start + (full->size() - final_start) / 2;
  const std::string scratch = TempPath("killpoint_store_scratch.rlog");
  (void)util::RemoveFile(scratch);  // best-effort scratch cleanup
  ASSERT_TRUE(util::WriteStringToFile(scratch, full->substr(0, t)).ok());

  auto store = RegionStore::Open(scratch, kDim, kClasses);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->recovery_stats().records_recovered, kRecords - 1);
  EXPECT_EQ((*store)->recovery_stats().bytes_truncated, t - final_start);
  EXPECT_EQ((*store)->size(), kRecords - 1);
  EXPECT_TRUE((*store)->Contains(written[0].fingerprint));
  EXPECT_TRUE((*store)->Contains(written[1].fingerprint));
  EXPECT_FALSE((*store)->Contains(written.back().fingerprint));

  // The surviving records read back bit-identically through the store.
  // (written[1] carries the max surviving epoch, so it passes the store's
  // drift-epoch candidate filter; written[0]'s older epoch is recovered
  // but — correctly — not a reload candidate.)
  EXPECT_EQ((*store)->current_epoch(), written[1].epoch);
  std::vector<uint64_t> candidates;
  (*store)->CollectCandidates(written[1].anchor, written[1].argmax,
                              &candidates);
  ASSERT_FALSE(candidates.empty());
  auto record = (*store)->Read(candidates[0]);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  ExpectBitIdentical(*record, written[1]);
}

}  // namespace
}  // namespace openapi::store
