// OPENAPI_TEST_LABELS: concurrent  (run under TSan in CI: ctest -L concurrent)
//
// Seeded corruption and truncation fuzz of RegionLog::Open against a
// reference replay. Open streams the log in chunks and checks each
// chunk's frames on the shared thread pool; the reference is the plain
// whole-file loop (read everything, DecodeRecord front to back, truncate
// at the first failure). Every mutated log must open with the same
// status, recover the same records bit for bit, report the same
// truncation and leave the file at the same size — and no frame that is
// not byte-for-byte a valid encoding may ever reach on_record.
//
// The logs use a tiny endpoint shape so a few megabytes span more than
// three replay chunks plus a torn final frame, and mutations are biased
// toward chunk boundaries, where a chunked reader can go wrong.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "store/region_log.h"
#include "store/region_record.h"
#include "util/file_io.h"
#include "util/logging.h"
#include "util/rng.h"

namespace openapi::store {
namespace {

constexpr size_t kDim = 1, kClasses = 2;
constexpr size_t kHeaderBytes = 32;
// Header field offsets: magic, version, base epoch, dim, num_classes.
constexpr size_t kVersionAt = 8, kBaseEpochAt = 12, kDimAt = 16,
                 kClassesAt = 24;
// Frame field offsets: magic, payload size, checksum, then the payload
// (fingerprint, argmax, epoch, ...).
constexpr size_t kSizeAt = 4, kChecksumAt = 8, kPayloadAt = 16,
                 kEpochAt = kPayloadAt + 12;
constexpr int kIterations = 48;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

RegionRecord MakeRecord(uint64_t seed) {
  RegionRecord record;
  record.fingerprint = 0x9e3779b97f4a7c15ULL * (seed + 1);
  record.argmax = static_cast<uint32_t>(seed % kClasses);
  record.epoch = static_cast<uint32_t>(seed % 5);
  const double base = 0.25 + 1e-7 * static_cast<double>(seed);
  record.anchor = {base};
  record.lo = {base - 1.0 / 3.0};
  record.hi = {base + 1e-12};
  record.model.weights = linalg::Matrix(kDim, kClasses);
  record.model.weights(0, 0) = -1.0 / static_cast<double>(seed + 3);
  record.model.weights(0, 1) = static_cast<double>(seed) * 1e-3;
  record.model.bias = {0.5, -0.7 - 1e-9 * static_cast<double>(seed)};
  return record;
}

void PutU32(uint32_t v, std::string* bytes, size_t at) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[at + i] = static_cast<char>(v >> (8 * i));
  }
}

void PutU64(uint64_t v, std::string* bytes, size_t at) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + i] = static_cast<char>(v >> (8 * i));
  }
}

uint32_t GetU32(const std::string& bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

uint64_t GetU64(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

/// What one Open did: its status, the records it replayed (as frame bytes,
/// so equal strings mean bit-identical records), and the file it left.
struct Outcome {
  Status status;
  uint64_t records_recovered = 0;
  uint64_t bytes_truncated = 0;
  uint32_t base_epoch = 0;
  std::vector<uint64_t> offsets;
  std::string replayed;
  uint64_t file_size = 0;
};

/// The reference replay: read the whole file, validate the header, decode
/// frame after frame with DecodeRecord, truncate at the first failure. A
/// 0-byte file is a fresh log (the header is written, nothing replays).
Outcome ReferenceOpen(const std::string& path) {
  Outcome out;
  Result<std::string> content = util::ReadFileToString(path);
  if (!content.ok()) {
    out.status = content.status();
    return out;
  }
  if (content->empty()) {
    std::string header = "OARLOG1\n";
    header.resize(kHeaderBytes, '\0');
    PutU32(1, &header, kVersionAt);
    PutU64(kDim, &header, kDimAt);
    PutU64(kClasses, &header, kClassesAt);
    out.status = util::WriteStringToFile(path, header);
    out.file_size = header.size();
    return out;
  }
  if (content->size() < kHeaderBytes ||
      content->compare(0, 8, std::string("OARLOG1\n")) != 0 ||
      GetU32(*content, kVersionAt) != 1 ||
      GetU64(*content, kDimAt) != kDim ||
      GetU64(*content, kClassesAt) != kClasses) {
    out.status = Status::IoError("refused");
    out.file_size = content->size();
    return out;
  }
  out.base_epoch = GetU32(*content, kBaseEpochAt);
  size_t offset = kHeaderBytes;
  while (offset < content->size()) {
    Result<RegionRecord> record =
        DecodeRecord(*content, offset, kDim, kClasses);
    if (!record.ok()) {
      out.bytes_truncated = content->size() - offset;
      EXPECT_TRUE(util::TruncateFile(path, offset).ok());
      break;
    }
    // The accepted frame itself: DecodeRecord round-trips bit-exactly.
    const size_t frame = RecordFrameSize(kDim, kClasses);
    out.offsets.push_back(offset);
    out.replayed.append(*content, offset, frame);
    ++out.records_recovered;
    offset += frame;
  }
  out.file_size = offset;
  return out;
}

/// RegionLog::Open, recording every record on_record sees. `mutated` is
/// the file as handed to Open: a replayed record must re-encode to exactly
/// the bytes at its offset, i.e. be a valid, uncorrupted frame.
Outcome LogOpen(const std::string& path, const std::string& mutated) {
  Outcome out;
  auto log = RegionLog::Open(
      path, kDim, kClasses,
      [&](uint64_t offset, const RegionRecord& record) {
        const size_t before = out.replayed.size();
        EncodeRecord(record, kDim, kClasses, &out.replayed);
        const size_t frame = out.replayed.size() - before;
        ASSERT_LE(offset + frame, mutated.size());
        ASSERT_EQ(0, std::memcmp(out.replayed.data() + before,
                                 mutated.data() + offset, frame))
            << "frame at " << offset << " reached on_record but is corrupt";
        out.offsets.push_back(offset);
      });
  out.status = log.status();
  if (log.ok()) {
    out.records_recovered = (*log)->recovery_stats().records_recovered;
    out.bytes_truncated = (*log)->recovery_stats().bytes_truncated;
    out.base_epoch = (*log)->base_epoch();
    EXPECT_EQ((*log)->record_count(), out.records_recovered);
  }
  Result<uint64_t> size = util::FileSizeOf(path);
  EXPECT_TRUE(size.ok());
  if (size.ok()) out.file_size = *size;
  return out;
}

/// A log of more than three replay chunks of frames plus a torn final
/// frame, as a crash mid-append leaves it.
std::string BuildBaseLog(size_t* frames) {
  const size_t frame = RecordFrameSize(kDim, kClasses);
  const size_t chunk_frames = RegionLog::kReplayChunkBytes / frame;
  *frames = 3 * chunk_frames + chunk_frames / 3;
  const std::string path = TempPath("replay_fuzz_base.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup
  {
    auto log = RegionLog::Open(path, kDim, kClasses);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    if (!log.ok()) return "";
    for (size_t i = 0; i <= *frames; ++i) {
      EXPECT_TRUE((*log)->Append(MakeRecord(i)).ok());
    }
    EXPECT_TRUE((*log)->Flush().ok());
  }
  Result<std::string> bytes = util::ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  if (!bytes.ok()) return "";
  bytes->resize(bytes->size() - frame / 2);  // tear the final frame
  return *bytes;
}

/// A frame index, a third of the time next to a chunk boundary.
size_t PickFrame(util::Rng* rng, size_t frames) {
  const size_t chunk_frames =
      RegionLog::kReplayChunkBytes / RecordFrameSize(kDim, kClasses);
  if (rng->Index(3) == 0) {
    const size_t boundary = (1 + rng->Index(frames / chunk_frames)) *
                            chunk_frames;
    return std::min(frames - 1, boundary - 1 + rng->Index(3));
  }
  return rng->Index(frames);
}

void Reseal(std::string* bytes, size_t frame_at) {
  const size_t payload = RecordPayloadSize(kDim, kClasses);
  PutU64(Fnv1a64(bytes->data() + frame_at + kPayloadAt, payload), bytes,
         frame_at + kChecksumAt);
}

/// Applies one seeded mutation to `bytes` and describes it.
std::string Mutate(util::Rng* rng, size_t frames, std::string* bytes) {
  const size_t frame = RecordFrameSize(kDim, kClasses);
  const size_t at = kHeaderBytes + PickFrame(rng, frames) * frame;
  switch (rng->Index(7)) {
    case 0: {
      const size_t flips = 1 + rng->Index(3);
      for (size_t i = 0; i < flips; ++i) {
        (*bytes)[rng->Index(bytes->size())] ^=
            static_cast<char>(1u << rng->Index(8));
      }
      return "bit flips";
    }
    case 1:
      bytes->resize(rng->Index(bytes->size()));
      return "truncation at byte " + std::to_string(bytes->size());
    case 2: {
      const uint32_t size = GetU32(*bytes, at + kSizeAt);
      PutU32(rng->Flip(0.5) ? size + 1 + static_cast<uint32_t>(rng->Index(64))
                            : static_cast<uint32_t>(rng->engine()()),
             bytes, at + kSizeAt);
      return "payload size of frame at " + std::to_string(at);
    }
    case 3:
      PutU32(static_cast<uint32_t>(rng->engine()()) | 1u, bytes, at);
      return "magic of frame at " + std::to_string(at);
    case 4: {
      static constexpr size_t kFields[] = {kVersionAt, kBaseEpochAt, kDimAt,
                                           kClassesAt};
      const size_t field = kFields[rng->Index(4)];
      if (field == kDimAt || field == kClassesAt) {
        PutU64(GetU64(*bytes, field) + 1 + rng->Index(3), bytes, field);
      } else {
        PutU32(static_cast<uint32_t>(rng->engine()()), bytes, field);
      }
      return "header field at " + std::to_string(field);
    }
    case 5:
      PutU32(static_cast<uint32_t>(rng->engine()()), bytes, at + kEpochAt);
      return "epoch of frame at " + std::to_string(at);
    default:
      // A tampered epoch under a recomputed checksum is a valid frame:
      // both replays must accept it and carry the new epoch.
      PutU32(static_cast<uint32_t>(rng->engine()()), bytes, at + kEpochAt);
      Reseal(bytes, at);
      return "resealed epoch of frame at " + std::to_string(at);
  }
}

TEST(StoreReplayFuzzTest, MutatedLogsReplayLikeTheReference) {
  const util::LogLevel saved_level = util::GetLogLevel();
  util::SetLogLevel(util::LogLevel::kError);  // one truncation warning per case
  size_t frames = 0;
  const std::string base = BuildBaseLog(&frames);
  ASSERT_FALSE(base.empty());
  const std::string reference_path = TempPath("replay_fuzz_reference.rlog");
  const std::string log_path = TempPath("replay_fuzz_log.rlog");

  util::Rng rng(20200420);
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::string mutated = base;
    const std::string what = Mutate(&rng, frames, &mutated);
    SCOPED_TRACE("iteration " + std::to_string(iteration) + ": " + what);
    ASSERT_TRUE(util::WriteStringToFile(reference_path, mutated).ok());
    ASSERT_TRUE(util::WriteStringToFile(log_path, mutated).ok());

    const Outcome expected = ReferenceOpen(reference_path);
    const Outcome actual = LogOpen(log_path, mutated);
    ASSERT_EQ(actual.status.code(), expected.status.code())
        << actual.status.ToString();
    EXPECT_EQ(actual.records_recovered, expected.records_recovered);
    EXPECT_EQ(actual.bytes_truncated, expected.bytes_truncated);
    EXPECT_EQ(actual.base_epoch, expected.base_epoch);
    EXPECT_EQ(actual.file_size, expected.file_size);
    EXPECT_TRUE(actual.offsets == expected.offsets);
    EXPECT_TRUE(actual.replayed == expected.replayed)
        << "replayed records differ from the reference replay";
  }
  util::SetLogLevel(saved_level);
}

TEST(StoreReplayFuzzTest, CheckFramesAgreesWithCheckFrame) {
  // The batched check (four checksums at a time, then a scalar tail) must
  // pass exactly the frames CheckFrame passes, at every batch alignment.
  const size_t frame = RecordFrameSize(kDim, kClasses);
  util::Rng rng(7);
  for (size_t count = 0; count <= 9; ++count) {
    for (int trial = 0; trial < 20; ++trial) {
      std::string frames;
      for (size_t i = 0; i < count; ++i) {
        EncodeRecord(MakeRecord(count * 100 + i), kDim, kClasses, &frames);
      }
      if (count > 0 && trial > 0) {
        const size_t at = rng.Index(frames.size());
        frames[at] ^= static_cast<char>(1u << rng.Index(8));
      }
      std::vector<char> intact(count, 2);
      CheckFrames(frames, kDim, kClasses, intact.data());
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(intact[i] != 0,
                  CheckFrame(frames, i * frame, kDim, kClasses).ok())
            << "count " << count << " trial " << trial << " frame " << i;
      }
    }
  }
}

TEST(StoreReplayFuzzTest, IntactLogReplaysEveryChunk) {
  // The unmutated base log: every whole frame across all chunks replays,
  // only the torn final frame is dropped.
  size_t frames = 0;
  const std::string base = BuildBaseLog(&frames);
  ASSERT_FALSE(base.empty());
  const std::string path = TempPath("replay_fuzz_intact.rlog");
  ASSERT_TRUE(util::WriteStringToFile(path, base).ok());
  const Outcome actual = LogOpen(path, base);
  ASSERT_TRUE(actual.status.ok()) << actual.status.ToString();
  const size_t frame = RecordFrameSize(kDim, kClasses);
  EXPECT_EQ(actual.records_recovered, frames);
  EXPECT_EQ(actual.bytes_truncated, frame - frame / 2);
  EXPECT_EQ(actual.file_size, kHeaderBytes + frames * frame);
  ASSERT_EQ(actual.offsets.size(), frames);
  for (size_t i = 0; i < frames; ++i) {
    ASSERT_EQ(actual.offsets[i], kHeaderBytes + i * frame);
  }
}

}  // namespace
}  // namespace openapi::store
