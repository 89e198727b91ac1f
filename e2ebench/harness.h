#ifndef HANA_E2EBENCH_HARNESS_H_
#define HANA_E2EBENCH_HARNESS_H_

// Shared plumbing of the end-to-end benchmark: run options, failure
// handling, latency samples, result comparison and the JSON lines the
// benchmark prints.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/value.h"
#include "platform/platform.h"

namespace hana::e2e {

using Rows = std::vector<std::vector<Value>>;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;        // Small scale, one round, every check on.
  size_t host_cores = 1;     // CPUs this process may run on (nproc).
  size_t dop = 1;            // Parallel degree of the "dop = cores" passes.
  std::string git_sha = "unknown";
  std::string work_dir;      // Scratch space for the extended store.
  std::string trace_out;     // Span file written at the end of a traced run.
};

/// Reports a failed statement, set-up step or check and ends the
/// process with exit code 2, before any result line is printed.
[[noreturn]] void Fail(const std::string& what);

inline void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

template <typename T>
T Unwrap(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(*result);
}

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);
double GeoMean(const std::vector<double>& values);

/// Latency samples of one workload, keyed by statement kind ("Q6",
/// "insert_orders", ...) and by whether the statement ran at dop 1.
class Samples {
 public:
  void Add(const std::string& kind, bool single_thread, double ms);
  /// Kind -> samples for one dop class.
  const std::map<std::string, std::vector<double>>& Of(bool single_thread) const {
    return single_thread ? one_ : many_;
  }
  /// Geometric mean over kinds of each kind's median.
  double GeoMeanOfMedians(bool single_thread) const;
  /// Every sample of one kind, both dop classes.
  std::vector<double> AllOf(const std::string& kind) const;
  size_t Count(bool single_thread) const;

 private:
  std::map<std::string, std::vector<double>> many_;
  std::map<std::string, std::vector<double>> one_;
};

/// One reported figure. `samples` is the number of measurements the
/// value summarizes (0 for counts and sizes).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  size_t samples = 0;
};

// A statement that fails, or a wrong answer, ends the run before a
// result is printed, so a printed result has no failed operations.
struct Outcome {
  uint64_t attempted = 0;
  std::vector<Metric> metrics;  // The metrics of the result line.
  std::vector<Metric> details;  // Printed before it, one line each.
};

/// Compares a result against its reference as multisets of rows.
/// Integers, dates and strings must match exactly; doubles within a
/// relative tolerance that allows for a different summation order.
/// Returns an empty string on a match, else a description of the first
/// difference.
std::string CompareRows(Rows actual, Rows expected);

/// True when the two results are identical cell by cell, doubles
/// bit for bit, in the same row order.
bool IdenticalRows(const Rows& a, const Rows& b);

/// Fails the run when `actual` does not match `expected`.
void ExpectRows(const Rows& actual, const Rows& expected,
                const std::string& what);

/// Peak resident set of this process, MB.
double PeakRssMb();

/// Column tables of the catalog (hot hybrid partitions included).
std::vector<const storage::ColumnTable*> LocalColumnTables(
    platform::Platform& db);

/// Sum of ColumnTable::MemoryBytes() over LocalColumnTables().
size_t StoreBytes(platform::Platform& db);

std::string JsonEscape(const std::string& s);
/// Shortest text that reads back as the same double.
std::string JsonNumber(double v);

}  // namespace hana::e2e

#endif  // HANA_E2EBENCH_HARNESS_H_
