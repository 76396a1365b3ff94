#include "store/region_log.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/mutex.h"
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

// One chunk read running on the shared pool while the caller checks and
// replays the chunk before it. Destruction waits for the read, so an
// early return never leaves it writing into a freed buffer or reading a
// closed file.
class ChunkPrefetch {
 public:
  ChunkPrefetch() = default;
  ChunkPrefetch(const ChunkPrefetch&) = delete;
  ChunkPrefetch& operator=(const ChunkPrefetch&) = delete;
  ~ChunkPrefetch() { (void)Wait(); }

  /// Reads `bytes` at `offset` of *file into *out on `pool`. At most one
  /// read is in flight: call Wait() before starting the next.
  void Start(util::ThreadPool* pool, const util::File* file, uint64_t offset,
             size_t bytes, std::string* out) EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      pending_ = true;
    }
    pool->Submit([this, file, offset, bytes, out] {
      Status status = file->ReadAt(offset, bytes, out);
      util::MutexLock lock(mutex_);
      status_ = std::move(status);
      pending_ = false;
      done_.NotifyAll();
    });
  }

  /// Blocks until the last read started has finished and returns its
  /// status (OK when none was started).
  Status Wait() EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    while (pending_) done_.Wait(mutex_);
    return status_;
  }

 private:
  util::Mutex mutex_;
  util::CondVar done_;
  bool pending_ GUARDED_BY(mutex_) = false;
  Status status_ GUARDED_BY(mutex_);
};

// Replays the frames behind the header of `file` (already validated,
// `file_size` bytes long) and truncates the file at the first frame that
// fails. Frames have a fixed size, so frame i starts at kHeaderSize +
// i * frame_size and the file splits into chunks of whole frames (plus a
// partial tail frame when a crash tore the last append). Two chunk
// buffers alternate: while the pool checks chunk k's frames and this
// thread decodes its intact prefix into one reused record and hands it
// to `on_record` in append order, a pool task reads chunk k+1 into the
// other buffer. The first frame that fails marks the recovery point:
// everything before it is intact (each record carries its own
// checksum); everything from it on is the torn tail a crash mid-append
// (or bit rot) left behind, and a chunk already read ahead past it is
// discarded unchecked.
Result<RegionLog::RecoveryStats> ReplayFrames(
    util::File* file, uint64_t file_size, size_t dim, size_t num_classes,
    const std::function<void(uint64_t, const RegionRecord&)>& on_record) {
  const size_t frame_size = RecordFrameSize(dim, num_classes);
  const size_t chunk_frames =
      std::max<size_t>(1, RegionLog::kReplayChunkBytes / frame_size);
  const auto chunk_bytes = [&](uint64_t at) {
    return static_cast<size_t>(
        std::min<uint64_t>(file_size - at, chunk_frames * frame_size));
  };
  util::ThreadPool* pool = util::SharedThreadPool();
  // A worker must not wait on its own pool's queue (thread_pool.h), so on
  // a worker each chunk is read, checked and replayed in turn.
  const bool serial = pool->OnWorkerThread();
  std::string chunks[2];
  std::vector<char> intact(chunk_frames);
  RegionRecord record;
  RegionLog::RecoveryStats recovery;
  // Declared after the buffers it writes into, so it is destroyed (and
  // waits for its read) before they are.
  ChunkPrefetch prefetch;
  uint64_t offset = kHeaderSize;
  size_t current = 0;
  if (offset < file_size) {
    OPENAPI_RETURN_NOT_OK(
        file->ReadAt(offset, chunk_bytes(offset), &chunks[current]));
  }
  while (offset < file_size) {
    const std::string& chunk = chunks[current];
    const size_t bytes = chunk.size();
    const uint64_t next = offset + bytes;
    if (!serial && next < file_size) {
      prefetch.Start(pool, file, next, chunk_bytes(next),
                     &chunks[current ^ 1]);
    }
    // Only whole frames are checked: a partial one is never intact.
    const size_t frames = bytes / frame_size;
    const std::string_view whole(chunk.data(), frames * frame_size);
    if (serial) {
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
      // The chunk read ahead lies past the recovery point: whatever it
      // read, or failed to read, is dropped with the tail.
      (void)prefetch.Wait();
      OPENAPI_RETURN_NOT_OK(file->Close());
      OPENAPI_RETURN_NOT_OK(util::TruncateFile(file->path(), offset));
      recovery.bytes_truncated = dropped;
      break;
    }
    offset = next;
    current ^= 1;
    if (offset < file_size) {
      OPENAPI_RETURN_NOT_OK(
          serial ? file->ReadAt(offset, chunk_bytes(offset), &chunks[current])
                 : prefetch.Wait());
    }
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
