// Small CSV writer/reader for experiment output and capacity traces.
//
// The writer escapes per RFC 4180 (quotes around fields containing commas,
// quotes, or newlines). The reader parses exactly that subset — including
// quoted fields spanning physical lines and CRLF row terminators — and is
// only used for files this library writes, so it is intentionally not a
// general parser (no configurable delimiters, comments, or encodings).
#pragma once

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace sjs {

class CsvWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  /// Writes one row. Each field is escaped as needed.
  void write_row(const std::vector<std::string>& fields);

  /// Convenience: formats doubles with full round-trip precision.
  void write_row_numeric(const std::vector<double>& fields);

  /// Allocation-free variant: formats each value as %.17g (std::to_chars)
  /// into a stack buffer and streams it straight out — no temporary vector
  /// or std::string per row. Numeric fields never need RFC 4180 escaping.
  void write_row_numeric(const double* fields, std::size_t count);

  void flush() { out_.flush(); }

  /// False once any write or flush has failed (short write, ENOSPC, closed
  /// descriptor). std::ofstream swallows I/O errors into the stream state;
  /// durability-sensitive callers (serve::Journal) must check this after
  /// flushing instead of assuming the row reached the disk.
  bool ok() const { return out_.good(); }

 private:
  std::ofstream out_;
};

/// Reads an entire CSV file into rows of fields. Throws on I/O error.
std::vector<std::vector<std::string>> read_csv(const std::string& path);

/// Escapes one CSV field per RFC 4180.
std::string csv_escape(const std::string& field);

/// Formats a double with enough digits to round-trip: the %.17g text,
/// produced by std::to_chars.
std::string format_double(double v);

/// Writes v's %.17g text (std::to_chars) at `first` without allocating;
/// [first, last) must hold kNumericFieldMax bytes. Returns the end of it.
char* format_double_to(char* first, char* last, double v);

/// Reads a numeric field back: the whole of `field` must be one number
/// (std::from_chars, general format), so every %.17g text format_double
/// writes — subnormals included — reads back bit-exactly. Throws
/// std::invalid_argument on empty or malformed text or trailing characters,
/// and std::out_of_range on a value outside double's range.
double parse_double(std::string_view field);

/// Room one value of a numeric row needs: its %.17g text (at most 24
/// characters) and a separator.
inline constexpr std::size_t kNumericFieldMax = 32;

/// Formats one numeric CSV row — each value as %.17g (std::to_chars), comma
/// separated, '\n' terminated, the bytes CsvWriter::write_row_numeric
/// writes — into [first, last) without allocating, for writers that issue
/// the row as one write(2) (serve::Journal). The buffer must hold
/// count * kNumericFieldMax bytes. Returns the end of the text.
char* format_numeric_row(char* first, char* last, const double* fields,
                         std::size_t count);

}  // namespace sjs
