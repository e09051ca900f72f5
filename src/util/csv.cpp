#include "util/csv.hpp"

#include <charconv>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace sjs {

std::string csv_escape(const std::string& field) {
  bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

namespace {
// The %.17g conversion without printf: the standard defines to_chars with
// chars_format::general and a precision as exactly printf's %.*g, and it skips
// the format-string parse and locale lookup. Returns the end of the text.
char* write_g17(char* first, char* last, double v) {
  return std::to_chars(first, last, v, std::chars_format::general, 17).ptr;
}
}  // namespace

char* format_double_to(char* first, char* last, double v) {
  return write_g17(first, last, v);
}

double parse_double(std::string_view field) {
  double v = 0.0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    throw std::out_of_range("parse_double: out of range");
  }
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("parse_double: not a number");
  }
  return v;
}

std::string format_double(double v) {
  char buf[32];
  return std::string(buf, write_g17(buf, buf + sizeof(buf), v));
}

char* format_numeric_row(char* first, char* last, const double* fields,
                         std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (i) *first++ = ',';
    first = write_g17(first, last, fields[i]);
  }
  *first++ = '\n';
  return first;
}

CsvWriter::CsvWriter(const std::string& path) : out_(path) {
  if (!out_) throw std::runtime_error("cannot open for writing: " + path);
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << csv_escape(fields[i]);
  }
  out_ << '\n';
}

void CsvWriter::write_row_numeric(const std::vector<double>& fields) {
  write_row_numeric(fields.data(), fields.size());
}

void CsvWriter::write_row_numeric(const double* fields, std::size_t count) {
  char buf[32];
  for (std::size_t i = 0; i < count; ++i) {
    if (i) out_.put(',');
    out_.write(buf, write_g17(buf, buf + sizeof(buf), fields[i]) - buf);
  }
  out_.put('\n');
}

std::vector<std::vector<std::string>> read_csv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());

  // Character-level state machine rather than line-at-a-time: a quoted field
  // may legally contain '\n' (csv_escape produces such fields), so the
  // quoting state must survive row terminators.
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  bool row_open = false;  // consumed any character since the last terminator
  for (std::size_t i = 0; i < data.size(); ++i) {
    const char c = data[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < data.size() && data[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
      row_open = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
      row_open = true;
    } else if (c == '\r' && (i + 1 == data.size() || data[i + 1] == '\n')) {
      // CRLF (or a trailing CR at end of file): the '\n', when present,
      // terminates the row; the CR itself is not field content.
      row_open = true;
    } else if (c == '\n') {
      fields.push_back(std::move(field));
      field.clear();
      rows.push_back(std::move(fields));
      fields.clear();
      row_open = false;
    } else {
      field += c;
      row_open = true;
    }
  }
  if (row_open || in_quotes) {  // last row lacked a trailing newline
    fields.push_back(std::move(field));
    rows.push_back(std::move(fields));
  }
  return rows;
}

}  // namespace sjs
