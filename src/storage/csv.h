#ifndef CRE_STORAGE_CSV_H_
#define CRE_STORAGE_CSV_H_

#include <string>
#include <string_view>

#include "core/result.h"
#include "storage/table.h"

namespace cre {

/// CSV ingestion options. The engine's take on raw-data access (NoDB
/// [30] / runtime format adaptation [31]): text sources are parsed lazily
/// at query registration time, with schema inference when none is given.
struct CsvOptions {
  char delimiter = ',';
  bool has_header = true;
  /// Rows examined for schema inference (type per column: int64 if every
  /// sampled cell parses as an integer, else float64 if numeric, else
  /// string).
  std::size_t inference_rows = 100;
};

/// Parses CSV text into a table with the given schema (header skipped when
/// options.has_header). Fails with InvalidArgument on arity or parse
/// errors (row and column reported).
Result<TablePtr> ParseCsv(std::string_view text, const Schema& schema,
                          const CsvOptions& options = {});

/// Parses CSV text, inferring the schema from the header (column names)
/// and a sample of rows (column types).
Result<TablePtr> ParseCsvInferSchema(std::string_view text,
                                     const CsvOptions& options = {});

/// Reads and parses a CSV file.
Result<TablePtr> ReadCsvFile(const std::string& path, const Schema& schema,
                             const CsvOptions& options = {});

/// Serializes a table to CSV text (with header).
std::string WriteCsv(const Table& table, char delimiter = ',');

}  // namespace cre

#endif  // CRE_STORAGE_CSV_H_
