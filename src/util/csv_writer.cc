#include "util/csv_writer.h"

#include "util/string_util.h"

namespace openapi::util {

Result<CsvWriter> CsvWriter::Open(const std::string& path,
                                  const std::vector<std::string>& header) {
  if (header.empty()) {
    return Status::InvalidArgument("CSV header must be non-empty");
  }
  auto out = File::Open(path, File::Mode::kTruncate);
  if (!out.ok()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  CsvWriter writer(std::move(*out), header.size());
  OPENAPI_RETURN_NOT_OK(writer.WriteRow(header));
  return writer;
}

Status CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  if (fields.size() != num_columns_) {
    return Status::InvalidArgument(StrFormat(
        "row has %zu fields, header has %zu", fields.size(), num_columns_));
  }
  std::vector<std::string> escaped;
  escaped.reserve(fields.size());
  for (const auto& f : fields) escaped.push_back(EscapeField(f));
  return out_.Append(Join(escaped, ",") + "\n").status();
}

Status CsvWriter::WriteRow(const std::vector<double>& values) {
  std::vector<std::string> fields;
  fields.reserve(values.size());
  for (double v : values) fields.push_back(StrFormat("%.17g", v));
  return WriteRow(fields);
}

Status CsvWriter::Close() { return out_.Close(); }

std::string CsvWriter::EscapeField(const std::string& field) {
  bool needs_quoting = field.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quoting) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace openapi::util
