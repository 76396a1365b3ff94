// The project's ONLY raw file-I/O site (enforced by the `raw-file-io`
// rule in scripts/lint_invariants.py): every byte that reaches or leaves
// disk under src/ flows through the helpers and the `File` handle below.
//
// Why confinement matters here: the tiered region store
// (store/region_log.h) makes crash-safety claims — append-only writes,
// recovery that truncates at the first torn record — and those claims are
// only auditable if the set of code paths that can touch a file is one
// module wide. Scattered `std::ofstream`s each carry their own buffering,
// error-reporting, and partial-write behavior; a single wrapper gives
// every caller the same Status-surfaced failure semantics and gives tests
// one seam to reason about.
//
// The handle is deliberately tiny: positional reads, appends that report
// the offset the data landed at, explicit flush, size, truncate. That is
// exactly the contract an append-only log with an offset directory needs;
// anything fancier (memory maps, async I/O) would belong behind the same
// interface.

#ifndef OPENAPI_UTIL_FILE_IO_H_
#define OPENAPI_UTIL_FILE_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "util/status.h"

namespace openapi::util {

/// Reads the entire file into a string. NotFound when the file does not
/// exist, IoError on any other failure.
Result<std::string> ReadFileToString(const std::string& path);

/// Atomically-enough replaces `path` with `content` (truncate + write +
/// flush). Callers needing crash-safe appends use File in kAppend mode.
Status WriteStringToFile(const std::string& path, const std::string& content);

/// Size in bytes; NotFound when the file does not exist.
Result<uint64_t> FileSizeOf(const std::string& path);

Status RemoveFile(const std::string& path);

/// Shrinks `path` to exactly `new_size` bytes — the crash-recovery
/// primitive that drops a torn log tail. Growing is not supported.
Status TruncateFile(const std::string& path, uint64_t new_size);

/// A movable owning file handle over C stdio.
///
///   kRead      read-only; the file must exist.
///   kTruncate  read/write; created or emptied.
///   kAppend    read/write; created if missing; every write lands at the
///              current end of file regardless of any read position.
///
/// ReadAt and Append may interleave on one kAppend handle (the log's
/// access pattern); the handle itself is NOT thread-safe — callers
/// serialize (store::RegionStore holds a mutex around its log).
class File {
 public:
  enum class Mode { kRead, kTruncate, kAppend };

  static Result<File> Open(const std::string& path, Mode mode);

  File() = default;
  ~File();
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Reads exactly `size` bytes starting at `offset` into *out (resized).
  /// OutOfRange when the range extends past end of file.
  Status ReadAt(uint64_t offset, size_t size, std::string* out) const;

  /// Appends `data` at end of file and returns the offset it landed at.
  Result<uint64_t> Append(const std::string& data);

  /// Pushes buffered writes to the kernel.
  Status Flush();

  /// Current size in bytes.
  Result<uint64_t> Size() const;

  /// Flushes and closes; further use requires a new Open. Idempotent.
  Status Close();

 private:
  File(std::FILE* file, std::string path, Mode mode)
      : file_(file), path_(std::move(path)), mode_(mode) {}

  /// C stdio keeps one shared position; mutable because positional reads
  /// on a logically-const handle must seek.
  mutable std::FILE* file_ = nullptr;
  std::string path_;
  Mode mode_ = Mode::kRead;
};

}  // namespace openapi::util

#endif  // OPENAPI_UTIL_FILE_IO_H_
