// CSV output for benchmark series so figures can be re-plotted externally.
// Fields containing commas, quotes, or newlines are quoted per RFC 4180.

#ifndef OPENAPI_UTIL_CSV_WRITER_H_
#define OPENAPI_UTIL_CSV_WRITER_H_

#include <string>
#include <vector>

#include "util/file_io.h"
#include "util/status.h"

namespace openapi::util {

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  static Result<CsvWriter> Open(const std::string& path,
                                const std::vector<std::string>& header);

  CsvWriter(CsvWriter&&) = default;
  CsvWriter& operator=(CsvWriter&&) = default;

  /// Writes one row; must have the same arity as the header.
  Status WriteRow(const std::vector<std::string>& fields);

  /// Convenience overload for numeric series.
  Status WriteRow(const std::vector<double>& values);

  /// Flushes and closes the file. Called by the destructor if omitted.
  Status Close();

  size_t num_columns() const { return num_columns_; }

 private:
  CsvWriter(File out, size_t num_columns)
      : out_(std::move(out)), num_columns_(num_columns) {}

  static std::string EscapeField(const std::string& field);

  File out_;
  size_t num_columns_;
};

}  // namespace openapi::util

#endif  // OPENAPI_UTIL_CSV_WRITER_H_
