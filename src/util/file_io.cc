#include "util/file_io.h"

#include <cerrno>
#include <cstring>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

namespace openapi::util {
namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  OPENAPI_ASSIGN_OR_RETURN(File file, File::Open(path, File::Mode::kRead));
  OPENAPI_ASSIGN_OR_RETURN(uint64_t size, file.Size());
  std::string content;
  OPENAPI_RETURN_NOT_OK(file.ReadAt(0, static_cast<size_t>(size), &content));
  return content;
}

Status WriteStringToFile(const std::string& path,
                         const std::string& content) {
  OPENAPI_ASSIGN_OR_RETURN(File file,
                           File::Open(path, File::Mode::kTruncate));
  OPENAPI_RETURN_NOT_OK(file.Append(content).status());
  return file.Close();
}

Result<uint64_t> FileSizeOf(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::IoError(ErrnoMessage("stat failed for", path));
  }
  return static_cast<uint64_t>(st.st_size);
}

Status RemoveFile(const std::string& path) {
  if (::remove(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IoError(ErrnoMessage("cannot remove", path));
  }
  return Status::OK();
}

Status TruncateFile(const std::string& path, uint64_t new_size) {
  OPENAPI_ASSIGN_OR_RETURN(uint64_t current, FileSizeOf(path));
  if (new_size > current) {
    return Status::InvalidArgument(
        "TruncateFile cannot grow " + path);
  }
  if (::truncate(path.c_str(), static_cast<off_t>(new_size)) != 0) {
    return Status::IoError(ErrnoMessage("cannot truncate", path));
  }
  return Status::OK();
}

Result<File> File::Open(const std::string& path, Mode mode) {
  const char* flags = nullptr;
  switch (mode) {
    case Mode::kRead:
      flags = "rb";
      break;
    case Mode::kTruncate:
      flags = "w+b";
      break;
    case Mode::kAppend:
      flags = "a+b";
      break;
  }
  std::FILE* file = std::fopen(path.c_str(), flags);
  if (file == nullptr) {
    if (mode == Mode::kRead && errno == ENOENT) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::IoError(ErrnoMessage("cannot open", path));
  }
  return File(file, path, mode);
}

File::~File() {
  if (file_ != nullptr) std::fclose(file_);
}

File::File(File&& other) noexcept
    : file_(other.file_), path_(std::move(other.path_)),
      mode_(other.mode_) {
  other.file_ = nullptr;
}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    path_ = std::move(other.path_);
    mode_ = other.mode_;
    other.file_ = nullptr;
  }
  return *this;
}

Status File::ReadAt(uint64_t offset, size_t size, std::string* out) const {
  if (file_ == nullptr) return Status::FailedPrecondition("file is closed");
  // An append handle may have buffered writes past `offset`; push them
  // out so the positional read sees every byte Append reported durable.
  if (mode_ != Mode::kRead && std::fflush(file_) != 0) {
    return Status::IoError(ErrnoMessage("flush before read failed on", path_));
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::IoError(ErrnoMessage("seek failed on", path_));
  }
  out->resize(size);
  const size_t read = std::fread(out->data(), 1, size, file_);
  if (read != size) {
    out->resize(read);
    if (std::ferror(file_)) {
      return Status::IoError(ErrnoMessage("read failed on", path_));
    }
    return Status::OutOfRange("read past end of " + path_);
  }
  return Status::OK();
}

Result<uint64_t> File::Append(const std::string& data) {
  if (file_ == nullptr) return Status::FailedPrecondition("file is closed");
  if (mode_ == Mode::kRead) {
    return Status::FailedPrecondition("file opened read-only: " + path_);
  }
  // "a+b" writes at end of file unconditionally; kTruncate handles seek
  // explicitly so interleaved ReadAt cannot displace the write position.
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    return Status::IoError(ErrnoMessage("seek failed on", path_));
  }
  const long at = std::ftell(file_);
  if (at < 0) {
    return Status::IoError(ErrnoMessage("tell failed on", path_));
  }
  if (!data.empty() &&
      std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
    return Status::IoError(ErrnoMessage("write failed on", path_));
  }
  return static_cast<uint64_t>(at);
}

Status File::Flush() {
  if (file_ == nullptr) return Status::FailedPrecondition("file is closed");
  if (std::fflush(file_) != 0) {
    return Status::IoError(ErrnoMessage("flush failed on", path_));
  }
  return Status::OK();
}

Result<uint64_t> File::Size() const {
  if (file_ == nullptr) return Status::FailedPrecondition("file is closed");
  if (mode_ != Mode::kRead && std::fflush(file_) != 0) {
    return Status::IoError(ErrnoMessage("flush failed on", path_));
  }
  struct stat st;
  if (::fstat(::fileno(file_), &st) != 0) {
    return Status::IoError(ErrnoMessage("stat failed for", path_));
  }
  return static_cast<uint64_t>(st.st_size);
}

Status File::Close() {
  if (file_ == nullptr) return Status::OK();
  std::FILE* file = file_;
  file_ = nullptr;
  if (std::fclose(file) != 0) {
    return Status::IoError(ErrnoMessage("close failed on", path_));
  }
  return Status::OK();
}

}  // namespace openapi::util
