// OPENAPI_TEST_LABELS: concurrent  (run under TSan in CI: ctest -L concurrent)
// RegionLog + RegionRecord: wire-format round-trips are bit-exact, a
// fresh log opens empty, reopen replays the append order, and crash
// recovery truncates at the first torn or corrupt frame — keeping the
// intact prefix, reporting the dropped byte count, and leaving the file
// appendable again — also when the log spans several replay chunks and
// when recovery runs on a shared-pool worker. RegionDirectory: the
// reload candidate order, and a randomized run against a std::map
// oracle.

#include "store/region_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "store/region_directory.h"
#include "store/region_record.h"
#include "store/region_store.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

// What a RegionStore recovered from one log: its recovery stats, the
// file it left, and its directory as seen through the store's surface.
struct Recovered {
  RegionLog::RecoveryStats stats;
  uint64_t file_size = 0;
  size_t entries = 0;
  std::vector<char> contains;  // per probed fingerprint
  std::vector<std::vector<uint64_t>> candidates;  // per probed point
};

Recovered RecoverStore(const std::string& path, size_t dim,
                       size_t num_classes,
                       const std::vector<uint64_t>& fingerprints,
                       const std::vector<Vec>& points) {
  Recovered out;
  auto store = RegionStore::Open(path, dim, num_classes);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return out;
  out.stats = (*store)->recovery_stats();
  out.entries = (*store)->size();
  for (uint64_t fingerprint : fingerprints) {
    out.contains.push_back((*store)->Contains(fingerprint) ? 1 : 0);
  }
  for (const Vec& x : points) {
    std::vector<uint64_t> offsets;
    (*store)->CollectCandidates(x, /*first_argmax=*/1, &offsets);
    out.candidates.push_back(std::move(offsets));
  }
  Result<uint64_t> size = util::FileSizeOf(path);
  EXPECT_TRUE(size.ok());
  out.file_size = size.ok() ? *size : 0;
  return out;
}

TEST(RegionLogTest, CorruptFrameInTheSecondChunkTruncatesThereAcrossChunks) {
  const std::string path = TempPath("chunks.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup
  const size_t dim = 48, num_classes = 4;
  const uint64_t frame = RecordFrameSize(dim, num_classes);
  const size_t chunk_frames = RegionLog::kReplayChunkBytes / frame;
  ASSERT_GE(chunk_frames, 3u);
  // Three and a half chunks; the corrupt frame sits inside the second.
  const size_t total = 3 * chunk_frames + chunk_frames / 2;
  const size_t corrupt = chunk_frames + chunk_frames / 3;
  // Every third record re-appends one of 40 fingerprints, so replay
  // refreshes entries as well as adding them.
  auto record_at = [&](size_t i) {
    RegionRecord record = MakeRecord(dim, num_classes, i);
    record.fingerprint = i % 3 == 0 ? 0x5eed0000 + (i / 3) % 40 : 0xf00d + i;
    return record;
  };
  {
    auto log = RegionLog::Open(path, dim, num_classes);
    ASSERT_TRUE(log.ok());
    for (size_t i = 0; i < total; ++i) {
      ASSERT_TRUE((*log)->Append(record_at(i)).ok());
    }
    ASSERT_TRUE((*log)->Flush().ok());
  }
  Result<std::string> bytes = util::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_EQ(bytes->size(), kHeaderBytes + total * frame);
  std::string mutated = *bytes;
  mutated[kHeaderBytes + corrupt * frame + frame / 2] ^= 0x40;

  // The expected directory: the intact prefix, Put in append order.
  RegionDirectory expected(dim);
  std::vector<uint64_t> fingerprints;
  std::vector<Vec> points;
  for (size_t i = 0; i < total; ++i) {
    const RegionRecord record = record_at(i);
    fingerprints.push_back(record.fingerprint);
    if (i % 97 == 0) points.push_back(record.anchor);
    if (i < corrupt) {
      expected.Put(record.fingerprint, kHeaderBytes + i * frame,
                   record.argmax, record.lo, record.hi, record.epoch);
    }
  }
  Recovered want;
  want.stats.records_recovered = corrupt;
  want.stats.bytes_truncated = (total - corrupt) * frame;
  want.file_size = kHeaderBytes + corrupt * frame;
  want.entries = expected.size();
  for (uint64_t fingerprint : fingerprints) {
    want.contains.push_back(expected.Contains(fingerprint) ? 1 : 0);
  }
  for (const Vec& x : points) {
    std::vector<uint64_t> offsets;
    expected.CollectCandidates(x, /*first_argmax=*/1, &offsets);
    want.candidates.push_back(std::move(offsets));
  }
  auto expect_recovered = [&](const Recovered& got) {
    EXPECT_EQ(got.stats.records_recovered, want.stats.records_recovered);
    EXPECT_EQ(got.stats.bytes_truncated, want.stats.bytes_truncated);
    EXPECT_EQ(got.file_size, want.file_size);
    EXPECT_EQ(got.entries, want.entries);
    EXPECT_EQ(got.contains, want.contains);
    EXPECT_EQ(got.candidates, want.candidates);
  };

  // On the calling thread: chunks are read ahead while the pool checks.
  ASSERT_TRUE(util::WriteStringToFile(path, mutated).ok());
  expect_recovered(RecoverStore(path, dim, num_classes, fingerprints, points));

  // On a shared-pool worker, which replays serially.
  ASSERT_TRUE(util::WriteStringToFile(path, mutated).ok());
  util::ThreadPool* pool = util::SharedThreadPool();
  std::promise<std::pair<bool, Recovered>> on_worker;
  pool->Submit([&] {
    on_worker.set_value(
        {pool->OnWorkerThread(),
         RecoverStore(path, dim, num_classes, fingerprints, points)});
  });
  const std::pair<bool, Recovered> worker = on_worker.get_future().get();
  EXPECT_TRUE(worker.first);
  expect_recovered(worker.second);
  (void)util::RemoveFile(path);  // best-effort scratch cleanup
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

// A randomized run of ~20k Puts, ~30% of them on a fingerprint already
// present, against a std::map oracle of the documented semantics: the
// first Put of a fingerprint files it (offset, argmax, epoch, box) in
// entry order; later Puts repoint the offset, union the box and raise the
// epoch, keeping the first argmax.
void CheckDirectoryAgainstOracle(size_t reserve) {
  const size_t dim = 3, puts = 20000, classes = 5;
  struct OracleEntry {
    uint64_t offset = 0;
    uint32_t argmax = 0;
    uint32_t epoch = 0;
    Vec lo, hi;
  };
  std::map<uint64_t, OracleEntry> oracle;
  std::vector<uint64_t> entry_order;  // fingerprints by first Put
  RegionDirectory directory(dim);
  directory.Reserve(reserve);
  util::Rng rng(reserve + 11);
  for (size_t i = 0; i < puts; ++i) {
    uint64_t fingerprint = 0;
    if (!entry_order.empty() && rng.Flip(0.3)) {
      fingerprint = entry_order[rng.Index(entry_order.size())];
    } else if (rng.Flip(0.5)) {
      fingerprint = rng.engine()();
    } else {
      // Low-entropy keys: strided high bits, the same low bits.
      fingerprint = static_cast<uint64_t>(i) << 40;
    }
    const uint64_t offset = 32 + 1000 * i;
    const auto argmax = static_cast<uint32_t>(rng.Index(classes));
    const auto epoch = static_cast<uint32_t>(rng.Index(4));
    Vec lo = rng.UniformVector(dim, -1.0, 1.0);
    Vec hi = lo;
    for (double& h : hi) h += rng.Uniform(0.0, 0.5);
    directory.Put(fingerprint, offset, argmax, lo, hi, epoch);
    auto [it, inserted] = oracle.try_emplace(fingerprint);
    OracleEntry& entry = it->second;
    entry.offset = offset;
    if (inserted) {
      entry_order.push_back(fingerprint);
      entry.argmax = argmax;
      entry.epoch = epoch;
      entry.lo = lo;
      entry.hi = hi;
    } else {
      entry.epoch = std::max(entry.epoch, epoch);
      for (size_t j = 0; j < dim; ++j) {
        entry.lo[j] = std::min(entry.lo[j], lo[j]);
        entry.hi[j] = std::max(entry.hi[j], hi[j]);
      }
    }
  }
  ASSERT_GT(puts - oracle.size(), puts / 5);  // repeats were exercised
  EXPECT_EQ(directory.size(), oracle.size());
  for (const auto& [fingerprint, entry] : oracle) {
    EXPECT_TRUE(directory.Contains(fingerprint));
    Vec lo, hi;
    uint32_t epoch = 99;
    ASSERT_TRUE(directory.Find(fingerprint, &lo, &hi, &epoch));
    EXPECT_EQ(lo, entry.lo);
    EXPECT_EQ(hi, entry.hi);
    EXPECT_EQ(epoch, entry.epoch);
  }
  for (size_t i = 0; i < 1000; ++i) {
    const uint64_t absent = rng.engine()();
    if (oracle.count(absent) > 0) continue;
    EXPECT_FALSE(directory.Contains(absent));
    Vec lo, hi;
    uint32_t epoch = 0;
    EXPECT_FALSE(directory.Find(absent, &lo, &hi, &epoch));
  }
  std::vector<const OracleEntry*> in_entry_order;
  for (uint64_t fingerprint : entry_order) {
    in_entry_order.push_back(&oracle.at(fingerprint));
  }
  for (size_t q = 0; q < 200; ++q) {
    const Vec x = rng.UniformVector(dim, -1.0, 1.2);
    const size_t first = rng.Index(classes + 1);  // classes: none match
    const auto min_epoch = static_cast<uint32_t>(rng.Index(4));
    // Matching-argmax entries first, then ascending argmax, each
    // partition in entry order.
    std::vector<uint64_t> want;
    auto collect = [&](uint32_t argmax) {
      for (const OracleEntry* entry : in_entry_order) {
        if (entry->argmax != argmax || entry->epoch < min_epoch) continue;
        bool inside = true;
        for (size_t j = 0; j < dim; ++j) {
          inside = inside && x[j] >= entry->lo[j] && x[j] <= entry->hi[j];
        }
        if (inside) want.push_back(entry->offset);
      }
    };
    collect(static_cast<uint32_t>(first));
    for (uint32_t argmax = 0; argmax < classes; ++argmax) {
      if (argmax != first) collect(argmax);
    }
    std::vector<uint64_t> got;
    directory.CollectCandidates(x, first, &got, min_epoch);
    EXPECT_EQ(got, want) << "query " << q;
  }
}

TEST(RegionDirectoryTest, RandomizedPutsMatchAMapOracleWhenReserved) {
  CheckDirectoryAgainstOracle(/*reserve=*/20000);
}

TEST(RegionDirectoryTest, RandomizedPutsMatchAMapOracleWhileGrowing) {
  CheckDirectoryAgainstOracle(/*reserve=*/0);
}

}  // namespace
}  // namespace openapi::store
