#include "storage/csv.h"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

namespace cre {

namespace {

/// Splits one CSV line on the delimiter. Supports double-quoted fields
/// with embedded delimiters and doubled quotes.
std::vector<std::string> SplitLine(std::string_view line, char delimiter) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"' && current.empty()) {
      in_quotes = true;
    } else if (c == delimiter) {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      if (start < text.size()) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  // Drop trailing empty line.
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

bool ParseInt(const std::string& s, std::int64_t* out) {
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  // std::from_chars for doubles is not universally available; use strtod.
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

Status AppendCell(Column* col, const std::string& cell, std::size_t row,
                  std::size_t c) {
  auto fail = [&](const char* what) {
    std::ostringstream os;
    os << "CSV parse error at row " << row << ", column " << c << ": '"
       << cell << "' is not " << what;
    return Status::InvalidArgument(os.str());
  };
  switch (col->type()) {
    case DataType::kInt64:
    case DataType::kDate: {
      std::int64_t v = 0;
      if (!ParseInt(cell, &v)) return fail("an integer");
      col->AppendInt64(v);
      return Status::OK();
    }
    case DataType::kFloat64: {
      double v = 0;
      if (!ParseDouble(cell, &v)) return fail("a number");
      col->AppendFloat64(v);
      return Status::OK();
    }
    case DataType::kBool: {
      if (cell == "true" || cell == "1") {
        col->AppendBool(true);
      } else if (cell == "false" || cell == "0") {
        col->AppendBool(false);
      } else {
        return fail("a boolean");
      }
      return Status::OK();
    }
    case DataType::kString:
      col->AppendString(cell);
      return Status::OK();
    case DataType::kFloatVector:
      return Status::NotImplemented("vector columns in CSV");
  }
  return Status::Internal("unreachable CSV column type");
}

}  // namespace

Result<TablePtr> ParseCsv(std::string_view text, const Schema& schema,
                          const CsvOptions& options) {
  auto lines = SplitLines(text);
  auto table = Table::Make(schema);
  std::size_t start = options.has_header ? 1 : 0;
  for (std::size_t r = start; r < lines.size(); ++r) {
    if (lines[r].empty()) continue;
    auto fields = SplitLine(lines[r], options.delimiter);
    if (fields.size() != schema.num_fields()) {
      std::ostringstream os;
      os << "CSV row " << r << " has " << fields.size()
         << " fields, schema expects " << schema.num_fields();
      return Status::InvalidArgument(os.str());
    }
    for (std::size_t c = 0; c < fields.size(); ++c) {
      CRE_RETURN_NOT_OK(AppendCell(&table->column(c), fields[c], r, c));
    }
  }
  return table;
}

Result<TablePtr> ParseCsvInferSchema(std::string_view text,
                                     const CsvOptions& options) {
  auto lines = SplitLines(text);
  if (lines.empty()) {
    return Status::InvalidArgument("cannot infer schema from empty CSV");
  }
  auto header = SplitLine(lines[0], options.delimiter);
  const std::size_t cols = header.size();

  // Per-column: can it be int? can it be double?
  std::vector<bool> can_int(cols, true), can_double(cols, true);
  bool saw_data = false;
  const std::size_t limit =
      std::min(lines.size(), 1 + options.inference_rows);
  for (std::size_t r = 1; r < limit; ++r) {
    if (lines[r].empty()) continue;
    auto fields = SplitLine(lines[r], options.delimiter);
    if (fields.size() != cols) {
      return Status::InvalidArgument("ragged CSV row during inference");
    }
    saw_data = true;
    for (std::size_t c = 0; c < cols; ++c) {
      std::int64_t iv;
      double dv;
      if (!ParseInt(fields[c], &iv)) can_int[c] = false;
      if (!ParseDouble(fields[c], &dv)) can_double[c] = false;
    }
  }

  Schema schema;
  for (std::size_t c = 0; c < cols; ++c) {
    DataType type = DataType::kString;
    if (saw_data && can_int[c]) {
      type = DataType::kInt64;
    } else if (saw_data && can_double[c]) {
      type = DataType::kFloat64;
    }
    std::string name = header[c].empty() ? "col" + std::to_string(c)
                                         : header[c];
    schema.AddField({std::move(name), type, 0});
  }
  CsvOptions parse_options = options;
  parse_options.has_header = true;
  return ParseCsv(text, schema, parse_options);
}

Result<TablePtr> ReadCsvFile(const std::string& path, const Schema& schema,
                             const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open CSV file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseCsv(buffer.str(), schema, options);
}

std::string WriteCsv(const Table& table, char delimiter) {
  std::ostringstream os;
  const Schema& schema = table.schema();
  for (std::size_t c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) os << delimiter;
    os << schema.field(c).name;
  }
  os << "\n";
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) os << delimiter;
      const Value v = table.GetValue(r, c);
      if (v.is_string() &&
          v.AsString().find(delimiter) != std::string::npos) {
        os << '"' << v.AsString() << '"';
      } else if (v.is_date()) {
        os << v.AsInt64();
      } else {
        os << v.ToString();
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace cre
