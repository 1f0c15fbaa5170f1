// The result table every bench binary prints: (series, x) -> named
// columns, e.g. mops plus p50_ns/p99_ns/p999_ns/max_ns for a sampled
// figure, or mops plus alloc_peak_mb for the memory figure. A column
// exists only if some point set it; a point that did not set it shows
// "-" in the human table, an empty CSV cell, and no JSON field.
//
// One human printer (aligned rows, one per point), one long-format CSV
// printer (header `series,<x_label>,<columns...>`) for lifting fields
// by header name, and one JSON printer for machine consumers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/latency.hpp"

namespace wcq::harness {

class Table {
 public:
  Table(std::string title, std::string x_label)
      : title_(std::move(title)), x_label_(std::move(x_label)) {}

  void set(const std::string& series, std::uint64_t x,
           const std::string& column, double value) {
    std::ostringstream text;
    text << std::fixed << std::setprecision(3) << value;
    put(series, x, column, text.str());
  }

  void set(const std::string& series, std::uint64_t x,
           const std::string& column, std::uint64_t value) {
    put(series, x, column, std::to_string(value));
  }

  // The point's latency percentiles in ns; none when `h` holds no
  // samples (an untimed point, or a sample period longer than the ops
  // each thread ran), so absence never reads as a 0 ns latency.
  void set_percentiles(const std::string& series, std::uint64_t x,
                       const LatencyHistogram& h) {
    if (h.count() == 0) return;
    set(series, x, "p50_ns", h.p50());
    set(series, x, "p99_ns", h.p99());
    set(series, x, "p999_ns", h.p999());
    set(series, x, "max_ns", h.max());
  }

  void print(std::ostream& os) const {
    std::vector<std::vector<std::string>> lines{header()};
    for_each_point([&](const std::string& series, std::uint64_t x,
                       const Row& row) {
      lines.push_back(cells(series, x, row, "-"));
    });
    std::vector<std::size_t> width(lines[0].size(), 0);
    for (const auto& line : lines) {
      for (std::size_t i = 0; i < line.size(); ++i) {
        width[i] = std::max(width[i], line[i].size());
      }
    }
    os << "== " << title_ << " ==\n";
    for (const auto& line : lines) {
      os << std::left << std::setw(static_cast<int>(width[0])) << line[0]
         << std::right;
      for (std::size_t i = 1; i < line.size(); ++i) {
        os << "  " << std::setw(static_cast<int>(width[i])) << line[i];
      }
      os << "\n";
    }
  }

  void print_csv(std::ostream& os) const {
    os << "# " << title_ << "\n";
    write_csv_line(os, header());
    for_each_point([&](const std::string& series, std::uint64_t x,
                       const Row& row) {
      write_csv_line(os, cells(series, x, row, ""));
    });
  }

  void print_json(std::ostream& os) const {
    os << "{\"title\": \"" << title_ << "\", \"x_label\": \"" << x_label_
       << "\", \"points\": [";
    const char* sep = "";
    for_each_point([&](const std::string& series, std::uint64_t x,
                       const Row& row) {
      os << sep << "{\"series\": \"" << series << "\", \"x\": " << x;
      for (const auto& column : columns_) {
        if (const auto it = row.find(column); it != row.end()) {
          os << ", \"" << column << "\": " << it->second;
        }
      }
      os << "}";
      sep = ", ";
    });
    os << "]}\n";
  }

 private:
  using Row = std::map<std::string, std::string>;  // column -> value text

  void put(const std::string& series, std::uint64_t x,
           const std::string& column, std::string text) {
    if (points_.find(series) == points_.end()) series_.push_back(series);
    if (std::find(columns_.begin(), columns_.end(), column) ==
        columns_.end()) {
      columns_.push_back(column);
    }
    points_[series][x][column] = std::move(text);
  }

  // Series in first-set order, x ascending within a series.
  template <typename Fn>
  void for_each_point(Fn&& fn) const {
    for (const auto& series : series_) {
      for (const auto& [x, row] : points_.at(series)) fn(series, x, row);
    }
  }

  std::vector<std::string> header() const {
    std::vector<std::string> out{"series", x_label_};
    out.insert(out.end(), columns_.begin(), columns_.end());
    return out;
  }

  std::vector<std::string> cells(const std::string& series, std::uint64_t x,
                                 const Row& row, const char* missing) const {
    std::vector<std::string> out{series, std::to_string(x)};
    for (const auto& column : columns_) {
      const auto it = row.find(column);
      out.push_back(it != row.end() ? it->second : missing);
    }
    return out;
  }

  static void write_csv_line(std::ostream& os,
                             const std::vector<std::string>& line) {
    for (std::size_t i = 0; i < line.size(); ++i) {
      os << (i ? "," : "") << line[i];
    }
    os << "\n";
  }

  std::string title_;
  std::string x_label_;
  std::vector<std::string> series_;
  std::vector<std::string> columns_;
  std::map<std::string, std::map<std::uint64_t, Row>> points_;
};

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

inline bool want_csv(int argc, char** argv) {
  return has_flag(argc, argv, "--csv");
}

inline bool want_json(int argc, char** argv) {
  return has_flag(argc, argv, "--json");
}

}  // namespace wcq::harness
