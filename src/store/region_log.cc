#include "store/region_log.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace openapi::store {
namespace {

constexpr char kLogMagic[8] = {'O', 'A', 'R', 'L', 'O', 'G', '1', '\n'};
constexpr uint32_t kLogVersion = 1;
constexpr size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;
// Replay hands the pool this many frames per task.
constexpr size_t kCheckBlockFrames = 64;

void AppendU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t ReadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t ReadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::string EncodeHeader(size_t dim, size_t num_classes) {
  std::string header(kLogMagic, sizeof(kLogMagic));
  AppendU32(kLogVersion, &header);
  AppendU32(0, &header);  // base epoch: fresh logs start at epoch 0
  AppendU64(dim, &header);
  AppendU64(num_classes, &header);
  return header;
}

// Replays the frames behind the header of `file` (already validated,
// `file_size` bytes long) and truncates the file at the first frame that
// fails. Frames have a fixed size, so frame i starts at kHeaderSize +
// i * frame_size and the file splits into chunks of whole frames (plus a
// partial tail frame when a crash tore the last append). Each chunk is
// read into one reused buffer, its frames are checked on the shared pool,
// and the intact prefix is decoded into one reused record and handed to
// `on_record` on this thread, in append order. The first frame that fails
// marks the recovery point: everything before it is intact (each record
// carries its own checksum); everything from it on is the torn tail a
// crash mid-append (or bit rot) left behind.
Result<RegionLog::RecoveryStats> ReplayFrames(
    util::File* file, uint64_t file_size, size_t dim, size_t num_classes,
    const std::function<void(uint64_t, const RegionRecord&)>& on_record) {
  const size_t frame_size = RecordFrameSize(dim, num_classes);
  const size_t chunk_frames =
      std::max<size_t>(1, RegionLog::kReplayChunkBytes / frame_size);
  util::ThreadPool* pool = util::SharedThreadPool();
  std::string chunk;
  std::vector<char> intact(chunk_frames);
  RegionRecord record;
  RegionLog::RecoveryStats recovery;
  uint64_t offset = kHeaderSize;
  while (offset < file_size) {
    const size_t bytes = static_cast<size_t>(
        std::min<uint64_t>(file_size - offset, chunk_frames * frame_size));
    OPENAPI_RETURN_NOT_OK(file->ReadAt(offset, bytes, &chunk));
    // Only whole frames are checked: a partial one is never intact.
    const size_t frames = bytes / frame_size;
    const std::string_view whole(chunk.data(), frames * frame_size);
    if (pool->OnWorkerThread()) {
      // A worker must not wait on its own pool's queue (thread_pool.h).
      CheckFrames(whole, dim, num_classes, intact.data());
    } else {
      const size_t blocks =
          (frames + kCheckBlockFrames - 1) / kCheckBlockFrames;
      util::ParallelFor(pool, blocks, [&](size_t block) {
        const size_t first = block * kCheckBlockFrames;
        const size_t count = std::min(kCheckBlockFrames, frames - first);
        CheckFrames(whole.substr(first * frame_size, count * frame_size), dim,
                    num_classes, intact.data() + first);
      });
    }
    size_t good = 0;
    while (good < frames && intact[good]) ++good;
    if (on_record) {
      for (size_t i = 0; i < good; ++i) {
        DecodeCheckedFrame(chunk.data() + i * frame_size, dim, num_classes,
                           &record);
        on_record(offset + i * frame_size, record);
      }
    }
    recovery.records_recovered += good;
    if (good * frame_size < bytes) {
      const Status reason =
          CheckFrame(chunk, good * frame_size, dim, num_classes);
      offset += good * frame_size;
      const uint64_t dropped = file_size - offset;
      OPENAPI_LOG(Warning)
          << file->path() << ": dropping torn log tail (" << dropped
          << " bytes after " << recovery.records_recovered
          << " intact records): " << reason.ToString();
      OPENAPI_RETURN_NOT_OK(file->Close());
      OPENAPI_RETURN_NOT_OK(util::TruncateFile(file->path(), offset));
      recovery.bytes_truncated = dropped;
      break;
    }
    offset += bytes;
  }
  return recovery;
}

}  // namespace

Result<std::unique_ptr<RegionLog>> RegionLog::Open(
    const std::string& path, size_t dim, size_t num_classes,
    const std::function<void(uint64_t, const RegionRecord&)>& on_record) {
  RecoveryStats recovery;
  uint32_t base_epoch = 0;

  Result<uint64_t> file_size = util::FileSizeOf(path);
  if (!file_size.ok() && !file_size.status().IsNotFound()) {
    return file_size.status();
  }
  // A crash between creating the file and flushing its header leaves a
  // 0-byte file. It holds no records, so it opens as a fresh log; any
  // other file shorter than the header is refused below.
  const bool fresh = !file_size.ok() || *file_size == 0;
  if (!fresh) {
    if (*file_size < kHeaderSize) {
      return Status::IoError(path + ": not a region log");
    }
    OPENAPI_ASSIGN_OR_RETURN(util::File file,
                             util::File::Open(path, util::File::Mode::kRead));
    std::string header;
    OPENAPI_RETURN_NOT_OK(file.ReadAt(0, kHeaderSize, &header));
    if (std::memcmp(header.data(), kLogMagic, sizeof(kLogMagic)) != 0) {
      return Status::IoError(path + ": not a region log");
    }
    const uint32_t version = ReadU32(header.data() + 8);
    if (version != kLogVersion) {
      return Status::IoError(util::StrFormat(
          "%s: region log version %u, expected %u", path.c_str(),
          static_cast<unsigned>(version),
          static_cast<unsigned>(kLogVersion)));
    }
    base_epoch = ReadU32(header.data() + 12);
    const uint64_t file_dim = ReadU64(header.data() + 16);
    const uint64_t file_classes = ReadU64(header.data() + 24);
    if (file_dim != dim || file_classes != num_classes) {
      return Status::IoError(util::StrFormat(
          "%s: region log shape (%llu, %llu) does not match endpoint "
          "(%zu, %zu)",
          path.c_str(), static_cast<unsigned long long>(file_dim),
          static_cast<unsigned long long>(file_classes), dim, num_classes));
    }
    OPENAPI_ASSIGN_OR_RETURN(
        recovery, ReplayFrames(&file, *file_size, dim, num_classes,
                               on_record));
  }

  OPENAPI_ASSIGN_OR_RETURN(util::File file,
                           util::File::Open(path, util::File::Mode::kAppend));
  if (fresh) {
    OPENAPI_RETURN_NOT_OK(file.Append(EncodeHeader(dim, num_classes)).status());
    OPENAPI_RETURN_NOT_OK(file.Flush());
  }
  auto log = std::unique_ptr<RegionLog>(
      new RegionLog(std::move(file), path, dim, num_classes));
  log->record_count_ = recovery.records_recovered;
  log->base_epoch_ = base_epoch;
  log->recovery_ = recovery;
  return log;
}

Result<uint64_t> RegionLog::Append(const RegionRecord& record) {
  std::string frame;
  frame.reserve(RecordFrameSize(dim_, num_classes_));
  EncodeRecord(record, dim_, num_classes_, &frame);
  OPENAPI_ASSIGN_OR_RETURN(uint64_t offset, file_.Append(frame));
  ++record_count_;
  return offset;
}

Result<RegionRecord> RegionLog::ReadAt(uint64_t offset) const {
  std::string frame;
  OPENAPI_RETURN_NOT_OK(
      file_.ReadAt(offset, RecordFrameSize(dim_, num_classes_), &frame));
  return DecodeRecord(frame, 0, dim_, num_classes_);
}

Status RegionLog::Flush() { return file_.Flush(); }

}  // namespace openapi::store
