#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hana::e2e {

void Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "e2e_bench: FAILED: %s\n", what.c_str());
  std::exit(2);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Samples::Add(const std::string& kind, bool single_thread, double ms) {
  (single_thread ? one_ : many_)[kind].push_back(ms);
}

double Samples::GeoMeanOfMedians(bool single_thread) const {
  std::vector<double> medians;
  for (const auto& [kind, values] : Of(single_thread)) {
    medians.push_back(Median(values));
  }
  return GeoMean(medians);
}

std::vector<double> Samples::AllOf(const std::string& kind) const {
  std::vector<double> all;
  for (const auto* map : {&many_, &one_}) {
    auto it = map->find(kind);
    if (it != map->end()) {
      all.insert(all.end(), it->second.begin(), it->second.end());
    }
  }
  return all;
}

size_t Samples::Count(bool single_thread) const {
  size_t n = 0;
  for (const auto& [kind, values] : Of(single_thread)) n += values.size();
  return n;
}

namespace {

bool IsIntLike(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDate ||
         t == DataType::kTimestamp || t == DataType::kBool;
}

// Doubles may differ by summation order only: sums over a few hundred
// thousand positive terms agree to ~1e-12 relative.
bool CellsMatch(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == DataType::kDouble || b.type() == DataType::kDouble) {
    if (!IsNumericType(a.type()) || !IsNumericType(b.type())) return false;
    double x = a.AsDouble(), y = b.AsDouble();
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-9 * scale;
  }
  if (IsIntLike(a.type()) && IsIntLike(b.type())) {
    return a.AsInt() == b.AsInt();
  }
  if (a.type() == DataType::kString && b.type() == DataType::kString) {
    return a.string_value() == b.string_value();
  }
  return false;
}

std::string RowText(const std::vector<Value>& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

// Rows sort by their leading cells; every compared result has its
// group keys (exact values) before its aggregates, so the order of
// two results with equal keys agrees even where sums differ in the
// last bits.
bool RowLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

}  // namespace

std::string CompareRows(Rows actual, Rows expected) {
  if (actual.size() != expected.size()) {
    return "row count " + std::to_string(actual.size()) + ", expected " +
           std::to_string(expected.size());
  }
  std::sort(actual.begin(), actual.end(), RowLess);
  std::sort(expected.begin(), expected.end(), RowLess);
  for (size_t r = 0; r < actual.size(); ++r) {
    const auto& a = actual[r];
    const auto& e = expected[r];
    bool same = a.size() == e.size();
    for (size_t c = 0; same && c < a.size(); ++c) same = CellsMatch(a[c], e[c]);
    if (!same) {
      return "row " + std::to_string(r) + " is " + RowText(a) +
             ", expected " + RowText(e);
    }
  }
  return "";
}

bool IdenticalRows(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Value& x = a[r][c];
      const Value& y = b[r][c];
      if (x.type() != y.type()) return false;
      if (x.type() == DataType::kDouble) {
        double dx = x.double_value(), dy = y.double_value();
        if (std::memcmp(&dx, &dy, sizeof(double)) != 0) return false;
      } else if (x.Compare(y) != 0) {
        return false;
      }
    }
  }
  return true;
}

void ExpectRows(const Rows& actual, const Rows& expected,
                const std::string& what) {
  std::string diff = CompareRows(actual, expected);
  if (!diff.empty()) Fail("wrong answer for " + what + ": " + diff);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::vector<const storage::ColumnTable*> LocalColumnTables(
    platform::Platform& db) {
  std::vector<const storage::ColumnTable*> tables;
  for (const std::string& name : db.catalog().TableNames()) {
    auto entry = db.catalog().GetTable(name);
    if (!entry.ok()) continue;
    const catalog::TableEntry& t = **entry;
    if (t.kind == catalog::TableKind::kColumn) {
      tables.push_back(t.column_table.get());
    } else if (t.kind == catalog::TableKind::kHybrid) {
      for (const auto& p : t.partitions) {
        if (p.hot != nullptr) tables.push_back(p.hot.get());
      }
    }
  }
  return tables;
}

size_t StoreBytes(platform::Platform& db) {
  size_t bytes = 0;
  for (const storage::ColumnTable* t : LocalColumnTables(db)) {
    bytes += t->MemoryBytes();
  }
  return bytes;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace hana::e2e
