// util::File and the free file helpers — the ONLY raw-I/O module in
// src/ (lint_invariants.py enforces the confinement). Covers the status
// mapping (NotFound for missing paths, OutOfRange past EOF), positional
// reads interleaved with appends, shrink-only truncation, and move
// semantics.

#include "util/file_io.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace openapi::util {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(FileIoTest, WriteReadRoundTrip) {
  const std::string path = TempPath("roundtrip.bin");
  // Binary-hostile content: embedded NULs and newlines must round-trip.
  std::string content("abc\0def\nghi", 11);
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, content);
  Result<uint64_t> size = FileSizeOf(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11u);
  ASSERT_TRUE(RemoveFile(path).ok());
  EXPECT_TRUE(FileSizeOf(path).status().IsNotFound());
}

TEST(FileIoTest, MissingPathIsNotFound) {
  const std::string path = TempPath("does_not_exist.bin");
  EXPECT_TRUE(ReadFileToString(path).status().IsNotFound());
  EXPECT_TRUE(FileSizeOf(path).status().IsNotFound());
  EXPECT_TRUE(File::Open(path, File::Mode::kRead).status().IsNotFound());
}

TEST(FileIoTest, AppendReturnsLandingOffsetsAndReadAtSeesThem) {
  const std::string path = TempPath("append.bin");
  Result<File> file = File::Open(path, File::Mode::kTruncate);
  ASSERT_TRUE(file.ok());
  Result<uint64_t> first = file->Append("hello");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0u);
  Result<uint64_t> second = file->Append("world!");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 5u);
  // Positional read through the SAME handle, before any explicit flush:
  // ReadAt must see the buffered appends.
  std::string out;
  ASSERT_TRUE(file->ReadAt(5, 6, &out).ok());
  EXPECT_EQ(out, "world!");
  ASSERT_TRUE(file->ReadAt(0, 5, &out).ok());
  EXPECT_EQ(out, "hello");
  Result<uint64_t> size = file->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11u);
  // A read past EOF is OutOfRange — the torn-record signal the region
  // log's recovery relies on.
  EXPECT_TRUE(file->ReadAt(8, 10, &out).IsOutOfRange());
  EXPECT_TRUE(file->Close().ok());
}

TEST(FileIoTest, AppendModeContinuesAnExistingFile) {
  const std::string path = TempPath("append_mode.bin");
  ASSERT_TRUE(WriteStringToFile(path, "base").ok());
  {
    Result<File> file = File::Open(path, File::Mode::kAppend);
    ASSERT_TRUE(file.ok());
    Result<uint64_t> offset = file->Append("+more");
    ASSERT_TRUE(offset.ok());
    EXPECT_EQ(*offset, 4u);  // lands after the existing bytes
    ASSERT_TRUE(file->Flush().ok());
  }
  Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "base+more");
}

TEST(FileIoTest, TruncateIsShrinkOnly) {
  const std::string path = TempPath("truncate.bin");
  ASSERT_TRUE(WriteStringToFile(path, "0123456789").ok());
  ASSERT_TRUE(TruncateFile(path, 4).ok());
  Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "0123");
  // Growing through TruncateFile is refused: the helper exists to drop
  // torn log tails, never to materialize holes.
  EXPECT_TRUE(TruncateFile(path, 100).IsInvalidArgument());
  EXPECT_TRUE(TruncateFile(path, 0).ok());
  Result<uint64_t> size = FileSizeOf(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 0u);
}

TEST(FileIoTest, MoveTransfersOwnership) {
  const std::string path = TempPath("move.bin");
  Result<File> opened = File::Open(path, File::Mode::kTruncate);
  ASSERT_TRUE(opened.ok());
  File file = std::move(*opened);
  ASSERT_TRUE(file.Append("data").ok());
  File stolen = std::move(file);
  std::string out;
  ASSERT_TRUE(stolen.ReadAt(0, 4, &out).ok());
  EXPECT_EQ(out, "data");
  EXPECT_TRUE(stolen.Close().ok());
  EXPECT_TRUE(stolen.Close().ok());  // idempotent
}

TEST(FileIoTest, ReadModeCannotAppend) {
  const std::string path = TempPath("readonly.bin");
  ASSERT_TRUE(WriteStringToFile(path, "fixed").ok());
  Result<File> file = File::Open(path, File::Mode::kRead);
  ASSERT_TRUE(file.ok());
  std::string out;
  ASSERT_TRUE(file->ReadAt(0, 5, &out).ok());
  EXPECT_EQ(out, "fixed");
  EXPECT_FALSE(file->Append("nope").ok());
}

}  // namespace
}  // namespace openapi::util
