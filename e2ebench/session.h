#ifndef HANA_E2EBENCH_SESSION_H_
#define HANA_E2EBENCH_SESSION_H_

// A Session sends a workload's statements to one Platform, either
// untraced, through Platform::Execute, or traced, through the public
// entry point of each layer in turn (sql::ParseStatement,
// plan::BindSelectStatement, optimizer::Optimize,
// exec::ExecutePlanWithStats, the catalog's DML calls), with a span
// around each call and the layers' public counters read before and
// after. The spans and counters live in the benchmark only; the engine
// is not changed to produce them.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "platform/platform.h"

namespace hana::e2e {

struct Span {
  std::string name;  // "<layer>.<call>", e.g. "sql.parse".
  double start_ms = 0;
  double end_ms = 0;
  int64_t parent = -1;  // Index into Tracer::spans(), -1 for a root.
  uint64_t stmt = 0;
};

/// Per-layer work of the traced statements, summed over a traced run.
struct LayerTotals {
  std::map<std::string, double> self_ms;  // Layer -> self time.
  // exec
  double pipeline_wall_ms = 0, pipeline_cpu_ms = 0;
  double pipeline_capacity_ms = 0;  // Sum of wall_ms x dop.
  double morsels = 0, pipeline_rows = 0, serial_plan_stmts = 0;
  double radix_hash_joins = 0, perfect_hash_joins = 0;
  double perfect_hash_fallbacks = 0, nested_loop_fallbacks = 0;
  double boxed_key_builds = 0, agg_vectorized_chunks = 0, agg_boxed_rows = 0;
  double agg_partition_merges = 0, conjunction_kernel_chunks = 0;
  // storage
  double delta_rows_at_query = 0, selects = 0;
  double merges_completed = 0, merge_ms = 0, rows_merged = 0;
  double rows_retained_by_watermark = 0;
  // catalog
  double rows_examined = 0, rows_changed = 0;
  // federation, hadoop, extended
  double remote_calls = 0, rows_fetched = 0, remote_virtual_ms = 0;
  double remote_cache_hits = 0, mapreduce_jobs = 0;
  double ext_blocks_read = 0, ext_cache_hits = 0, ext_bytes_read = 0;
  double ext_io_virtual_ms = 0;
};

/// Keeps spans in memory; written out as JSON lines when the run ends.
class Tracer {
 public:
  size_t Begin(const std::string& name, uint64_t stmt, int64_t parent);
  void End(size_t span);
  const std::vector<Span>& spans() const { return spans_; }
  /// Adds each span's self time (its duration minus the part its
  /// children cover) to `totals` under the span's layer, for the
  /// spans recorded since `first`.
  void AddSelfTimes(size_t first, LayerTotals* totals) const;
  void WriteJsonl(const std::string& path, const std::string& workload) const;

 private:
  std::vector<Span> spans_;
  double origin_ms_ = NowMs();
};

class Session {
 public:
  /// `tracer` null: untraced. `merge_threshold_rows` must equal the
  /// platform's setting; the traced INSERT path applies the same
  /// auto-merge rule Platform::Execute does.
  Session(platform::Platform* db, Tracer* tracer, size_t merge_threshold_rows);

  void SetDop(size_t dop);
  bool single_thread() const { return dop_ == 1; }

  /// Runs one statement, records its wall time under `kind`, and
  /// returns its result. A statement that fails ends the run.
  platform::ExecResult Run(const std::string& kind, const std::string& sql);

  const Samples& samples() const { return samples_; }
  uint64_t statements() const { return statements_; }
  const LayerTotals& totals() const { return totals_; }

 private:
  Result<platform::ExecResult> RunTraced(const std::string& sql);
  Result<platform::ExecResult> TracedSelect(const sql::SelectStmt& stmt,
                                            int64_t root);
  Result<platform::ExecResult> TracedInsert(const sql::InsertStmt& stmt,
                                            int64_t root);
  Result<platform::ExecResult> TracedDelete(const sql::DeleteStmt& stmt,
                                            int64_t root);
  Result<platform::ExecResult> TracedUpdate(const sql::UpdateStmt& stmt,
                                            int64_t root);
  double VirtualNowMs();

  platform::Platform* db_;
  Tracer* tracer_;
  size_t merge_threshold_rows_;
  size_t dop_ = 1;
  Samples samples_;
  uint64_t statements_ = 0;
  uint64_t stmt_id_ = 0;
  LayerTotals totals_;
};

}  // namespace hana::e2e

#endif  // HANA_E2EBENCH_SESSION_H_
