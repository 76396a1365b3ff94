// RegionLog + RegionRecord: wire-format round-trips are bit-exact, a
// fresh log opens empty, reopen replays the append order, and crash
// recovery truncates at the first torn or corrupt frame — keeping the
// intact prefix, reporting the dropped byte count, and leaving the file
// appendable again. RegionDirectory: the reload candidate order.

#include "store/region_log.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "store/region_directory.h"
#include "store/region_record.h"
#include "util/file_io.h"

namespace openapi::store {
namespace {

// Header: u8[8] magic + u32 version + u32 reserved + u64 dim + u64 C.
constexpr uint64_t kHeaderBytes = 32;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// A deterministic record with deliberately awkward doubles (repeating
/// binary fractions, negatives, subnormal-adjacent magnitudes) so the
/// bit-exactness assertions actually bite.
RegionRecord MakeRecord(size_t dim, size_t num_classes, uint64_t seed) {
  RegionRecord record;
  record.fingerprint = 0x9e3779b97f4a7c15ULL * (seed + 1);
  record.argmax = static_cast<uint32_t>(seed % num_classes);
  record.anchor.assign(dim, 0.0);
  record.lo.assign(dim, 0.0);
  record.hi.assign(dim, 0.0);
  for (size_t j = 0; j < dim; ++j) {
    double base = 0.1 * static_cast<double>(j + 1) +
                  1e-7 * static_cast<double>(seed);
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

void ExpectBitIdentical(const RegionRecord& a, const RegionRecord& b,
                        size_t dim, size_t num_classes) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.argmax, b.argmax);
  ASSERT_EQ(b.anchor.size(), dim);
  ASSERT_EQ(b.lo.size(), dim);
  ASSERT_EQ(b.hi.size(), dim);
  for (size_t j = 0; j < dim; ++j) {
    // EXPECT_EQ on doubles is exact comparison — the wire format claims
    // raw-bit round-trips, not approximate ones.
    EXPECT_EQ(a.anchor[j], b.anchor[j]);
    EXPECT_EQ(a.lo[j], b.lo[j]);
    EXPECT_EQ(a.hi[j], b.hi[j]);
  }
  ASSERT_EQ(b.model.weights.rows(), dim);
  ASSERT_EQ(b.model.weights.cols(), num_classes);
  ASSERT_EQ(b.model.bias.size(), num_classes);
  for (size_t j = 0; j < dim; ++j) {
    for (size_t c = 0; c < num_classes; ++c) {
      EXPECT_EQ(a.model.weights(j, c), b.model.weights(j, c));
    }
  }
  for (size_t c = 0; c < num_classes; ++c) {
    EXPECT_EQ(a.model.bias[c], b.model.bias[c]);
  }
}

TEST(RegionRecordTest, EncodeDecodeRoundTripIsBitExact) {
  const size_t dim = 5, num_classes = 3;
  RegionRecord record = MakeRecord(dim, num_classes, 42);
  std::string buffer;
  EncodeRecord(record, dim, num_classes, &buffer);
  EXPECT_EQ(buffer.size(), RecordFrameSize(dim, num_classes));
  Result<RegionRecord> decoded = DecodeRecord(buffer, 0, dim, num_classes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectBitIdentical(record, *decoded, dim, num_classes);
}

TEST(RegionRecordTest, DecodeClassifiesTornVersusCorrupt) {
  const size_t dim = 3, num_classes = 2;
  RegionRecord record = MakeRecord(dim, num_classes, 7);
  std::string buffer;
  EncodeRecord(record, dim, num_classes, &buffer);

  // Torn tail: the frame extends past the end of the data.
  std::string torn = buffer.substr(0, buffer.size() - 5);
  EXPECT_TRUE(DecodeRecord(torn, 0, dim, num_classes).status().IsOutOfRange());

  // Corruption: one payload byte flipped fails the checksum.
  std::string corrupt = buffer;
  corrupt[corrupt.size() - 1] ^= 0x01;
  EXPECT_TRUE(
      DecodeRecord(corrupt, 0, dim, num_classes).status().IsIoError());

  // Corruption: stomped magic.
  std::string bad_magic = buffer;
  bad_magic[0] ^= 0xFF;
  EXPECT_TRUE(
      DecodeRecord(bad_magic, 0, dim, num_classes).status().IsIoError());
}

TEST(RegionLogTest, FreshLogOpensEmptyAndAppendsReturnOffsets) {
  const std::string path = TempPath("fresh.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup
  auto log = RegionLog::Open(path, /*dim=*/4, /*num_classes=*/3);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->record_count(), 0u);
  EXPECT_EQ((*log)->recovery_stats().records_recovered, 0u);
  EXPECT_EQ((*log)->recovery_stats().bytes_truncated, 0u);

  Result<uint64_t> first = (*log)->Append(MakeRecord(4, 3, 0));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, kHeaderBytes);
  Result<uint64_t> second = (*log)->Append(MakeRecord(4, 3, 1));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, kHeaderBytes + RecordFrameSize(4, 3));
  EXPECT_EQ((*log)->record_count(), 2u);

  // ReadAt round-trips through the live handle.
  Result<RegionRecord> read = (*log)->ReadAt(*second);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectBitIdentical(MakeRecord(4, 3, 1), *read, 4, 3);
}

TEST(RegionLogTest, ReopenReplaysIntactRecordsInAppendOrder) {
  const std::string path = TempPath("replay.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup
  const size_t dim = 4, num_classes = 3;
  std::vector<uint64_t> offsets;
  {
    auto log = RegionLog::Open(path, dim, num_classes);
    ASSERT_TRUE(log.ok());
    for (uint64_t i = 0; i < 5; ++i) {
      Result<uint64_t> offset = (*log)->Append(MakeRecord(dim, num_classes, i));
      ASSERT_TRUE(offset.ok());
      offsets.push_back(*offset);
    }
    ASSERT_TRUE((*log)->Flush().ok());
  }  // destructor closes the file

  std::vector<std::pair<uint64_t, RegionRecord>> replayed;
  auto log = RegionLog::Open(
      path, dim, num_classes,
      [&](uint64_t offset, const RegionRecord& record) {
        replayed.emplace_back(offset, record);
      });
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->recovery_stats().records_recovered, 5u);
  EXPECT_EQ((*log)->recovery_stats().bytes_truncated, 0u);
  EXPECT_EQ((*log)->record_count(), 5u);
  ASSERT_EQ(replayed.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(replayed[i].first, offsets[i]);
    ExpectBitIdentical(MakeRecord(dim, num_classes, i), replayed[i].second,
                       dim, num_classes);
  }
}

TEST(RegionLogTest, TornTailIsTruncatedAndIntactPrefixSurvives) {
  const std::string path = TempPath("torn.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup
  const size_t dim = 3, num_classes = 2;
  const uint64_t frame = RecordFrameSize(dim, num_classes);
  {
    auto log = RegionLog::Open(path, dim, num_classes);
    ASSERT_TRUE(log.ok());
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*log)->Append(MakeRecord(dim, num_classes, i)).ok());
    }
    ASSERT_TRUE((*log)->Flush().ok());
  }
  // Simulate a crash mid-append of record 3: chop 11 bytes off its frame.
  const uint64_t intact_end = kHeaderBytes + 2 * frame;
  ASSERT_TRUE(util::TruncateFile(path, intact_end + frame - 11).ok());

  std::vector<RegionRecord> replayed;
  auto log = RegionLog::Open(
      path, dim, num_classes,
      [&](uint64_t, const RegionRecord& record) { replayed.push_back(record); });
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->recovery_stats().records_recovered, 2u);
  EXPECT_EQ((*log)->recovery_stats().bytes_truncated, frame - 11);
  ASSERT_EQ(replayed.size(), 2u);
  ExpectBitIdentical(MakeRecord(dim, num_classes, 0), replayed[0], dim,
                     num_classes);
  ExpectBitIdentical(MakeRecord(dim, num_classes, 1), replayed[1], dim,
                     num_classes);
  // Recovery physically dropped the torn bytes...
  Result<uint64_t> size = util::FileSizeOf(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, intact_end);
  // ...so the next append lands exactly where record 3 should have been.
  Result<uint64_t> offset = (*log)->Append(MakeRecord(dim, num_classes, 9));
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, intact_end);
  EXPECT_EQ((*log)->record_count(), 3u);
}

TEST(RegionLogTest, CorruptChecksumDropsTheRecordAndEverythingAfter) {
  const std::string path = TempPath("corrupt.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup
  const size_t dim = 3, num_classes = 2;
  const uint64_t frame = RecordFrameSize(dim, num_classes);
  {
    auto log = RegionLog::Open(path, dim, num_classes);
    ASSERT_TRUE(log.ok());
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE((*log)->Append(MakeRecord(dim, num_classes, i)).ok());
    }
    ASSERT_TRUE((*log)->Flush().ok());
  }
  // Flip one payload byte inside record 1 (the second record): recovery
  // must keep record 0, drop record 1 AND the intact records behind it —
  // append order is the only order replay can trust.
  Result<std::string> bytes = util::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  mutated[kHeaderBytes + frame + frame / 2] ^= 0x40;
  ASSERT_TRUE(util::WriteStringToFile(path, mutated).ok());

  std::vector<RegionRecord> replayed;
  auto log = RegionLog::Open(
      path, dim, num_classes,
      [&](uint64_t, const RegionRecord& record) { replayed.push_back(record); });
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->recovery_stats().records_recovered, 1u);
  EXPECT_EQ((*log)->recovery_stats().bytes_truncated, 3 * frame);
  ASSERT_EQ(replayed.size(), 1u);
  ExpectBitIdentical(MakeRecord(dim, num_classes, 0), replayed[0], dim,
                     num_classes);
  Result<uint64_t> size = util::FileSizeOf(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, kHeaderBytes + frame);
}

TEST(RegionLogTest, HeaderMismatchRefusesToOpen) {
  const std::string path = TempPath("shape.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup
  {
    auto log = RegionLog::Open(path, /*dim=*/4, /*num_classes=*/3);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(MakeRecord(4, 3, 0)).ok());
    ASSERT_TRUE((*log)->Flush().ok());
  }
  // Same file, different endpoint shape: refusing beats silently
  // truncating another endpoint's records.
  EXPECT_TRUE(RegionLog::Open(path, 5, 3).status().IsIoError());
  EXPECT_TRUE(RegionLog::Open(path, 4, 2).status().IsIoError());
  // The refused opens must not have damaged the real log.
  auto log = RegionLog::Open(path, 4, 3);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ((*log)->recovery_stats().records_recovered, 1u);
}

TEST(RegionLogTest, NonLogFileRefusesToOpen) {
  const std::string path = TempPath("notalog.rlog");
  ASSERT_TRUE(util::WriteStringToFile(path, "this is not a region log").ok());
  EXPECT_TRUE(RegionLog::Open(path, 4, 3).status().IsIoError());
  // A file shorter than the header is equally not a log.
  ASSERT_TRUE(util::WriteStringToFile(path, "OAR").ok());
  EXPECT_TRUE(RegionLog::Open(path, 4, 3).status().IsIoError());
}

TEST(RegionLogTest, ZeroLengthFileOpensAsFreshLog) {
  // A crash between creating the file and flushing its header leaves it
  // empty. That must not wedge the namespace: the file holds no records,
  // so it opens as a fresh log and gets its header.
  const std::string path = TempPath("empty.rlog");
  ASSERT_TRUE(util::WriteStringToFile(path, "").ok());
  const size_t dim = 3, num_classes = 2;
  {
    auto log = RegionLog::Open(path, dim, num_classes);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ((*log)->record_count(), 0u);
    EXPECT_EQ((*log)->recovery_stats().bytes_truncated, 0u);
    Result<uint64_t> offset = (*log)->Append(MakeRecord(dim, num_classes, 3));
    ASSERT_TRUE(offset.ok());
    EXPECT_EQ(*offset, kHeaderBytes);
    ASSERT_TRUE((*log)->Flush().ok());
  }
  std::vector<RegionRecord> replayed;
  auto log = RegionLog::Open(
      path, dim, num_classes,
      [&](uint64_t, const RegionRecord& record) { replayed.push_back(record); });
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(replayed.size(), 1u);
  ExpectBitIdentical(MakeRecord(dim, num_classes, 3), replayed[0], dim,
                     num_classes);
}

TEST(RegionLogTest, ReadAtRejectsBogusOffsets) {
  const std::string path = TempPath("readat.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup
  auto log = RegionLog::Open(path, /*dim=*/3, /*num_classes=*/2);
  ASSERT_TRUE(log.ok());
  Result<uint64_t> offset = (*log)->Append(MakeRecord(3, 2, 5));
  ASSERT_TRUE(offset.ok());
  // Mid-record offset: the bytes there do not start with a frame magic.
  EXPECT_FALSE((*log)->ReadAt(*offset + 4).ok());
  // Past the end entirely.
  EXPECT_FALSE((*log)->ReadAt(*offset + 100 * 1000).ok());
  // The real offset still reads fine afterwards.
  EXPECT_TRUE((*log)->ReadAt(*offset).ok());
}

TEST(RegionDirectoryTest, FirstArgmaxOffsetsComeFirstAndStaleEpochsAreSkipped) {
  RegionDirectory directory(/*dim=*/2);
  const Vec unit_lo{0.0, 0.0}, unit_hi{1.0, 1.0};
  // Overlapping boxes around (0.5, 0.5) with mixed anchor argmax.
  directory.Put(/*fingerprint=*/1, /*offset=*/100, /*argmax=*/1, unit_lo,
                unit_hi, /*epoch=*/1);
  directory.Put(2, 200, 0, unit_lo, unit_hi, 1);
  directory.Put(3, 300, 1, Vec{0.4, 0.4}, Vec{0.6, 0.6}, 1);
  directory.Put(4, 400, 2, unit_lo, unit_hi, /*epoch=*/0);  // stale
  directory.Put(5, 500, 0, Vec{2.0, 2.0}, Vec{3.0, 3.0}, 1);  // elsewhere
  directory.Put(6, 600, 2, unit_lo, unit_hi, 1);
  const Vec x{0.5, 0.5};
  auto collect = [&](size_t first_argmax, uint32_t min_epoch) {
    std::vector<uint64_t> offsets{7};  // appended after existing content
    directory.CollectCandidates(x, first_argmax, &offsets, min_epoch);
    return offsets;
  };
  // Matching-argmax entries first, then the other partitions in
  // ascending argmax order, each in entry order.
  EXPECT_EQ(collect(1, 1), (std::vector<uint64_t>{7, 100, 300, 200, 600}));
  EXPECT_EQ(collect(0, 1), (std::vector<uint64_t>{7, 200, 100, 300, 600}));
  EXPECT_EQ(collect(2, 1), (std::vector<uint64_t>{7, 600, 200, 100, 300}));
  EXPECT_EQ(collect(2, 0),
            (std::vector<uint64_t>{7, 400, 600, 200, 100, 300}));
  EXPECT_EQ(collect(9, 1), (std::vector<uint64_t>{7, 200, 100, 300, 600}));
  // A refresh repoints the offset and raises the epoch; the entry keeps
  // its first argmax partition.
  directory.Put(4, 450, 1, unit_lo, unit_hi, 1);
  EXPECT_EQ(collect(1, 1),
            (std::vector<uint64_t>{7, 100, 300, 200, 450, 600}));
}

}  // namespace
}  // namespace openapi::store
