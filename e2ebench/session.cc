#include "session.h"

#include <cstdio>

#include "exec/evaluator.h"
#include "exec/executor.h"
#include "exec/pipeline.h"
#include "exec/radix_join.h"
#include "optimizer/optimizer.h"
#include "plan/binder.h"
#include "sql/parser.h"

namespace hana::e2e {

namespace {

// The layers' public counters, read around each traced statement.
struct Counters {
  uint64_t radix_hash_joins = 0, perfect_hash_joins = 0;
  uint64_t perfect_hash_fallbacks = 0, nested_loop_fallbacks = 0;
  uint64_t boxed_key_builds = 0;
  uint64_t agg_vectorized_chunks = 0, agg_boxed_rows = 0;
  uint64_t agg_partition_merges = 0, conjunction_kernel_chunks = 0;
  uint64_t merges_completed = 0, merge_micros = 0, rows_merged = 0;
  uint64_t rows_retained_by_watermark = 0;
  uint64_t ext_blocks_read = 0, ext_cache_hits = 0, ext_bytes_read = 0;
  double ext_io_ms = 0;
};

Counters ReadCounters(platform::Platform& db) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  Counters c;
  const exec::JoinExecStats& join = exec::GlobalJoinExecStats();
  c.radix_hash_joins = join.radix_hash_joins.load(kRelaxed);
  c.perfect_hash_joins = join.perfect_hash_joins.load(kRelaxed);
  c.perfect_hash_fallbacks = join.perfect_hash_fallbacks.load(kRelaxed);
  c.nested_loop_fallbacks = join.nested_loop_fallbacks.load(kRelaxed);
  c.boxed_key_builds = join.boxed_key_builds.load(kRelaxed);
  const exec::AggExecStats& agg = exec::GlobalAggExecStats();
  c.agg_vectorized_chunks = agg.vectorized_chunks.load(kRelaxed);
  c.agg_boxed_rows = agg.boxed_rows.load(kRelaxed);
  c.agg_partition_merges = agg.partition_merges.load(kRelaxed);
  c.conjunction_kernel_chunks = agg.conjunction_kernel_chunks.load(kRelaxed);
  for (const storage::ColumnTable* t : LocalColumnTables(db)) {
    const storage::MergeStats& m = t->merge_stats();
    c.merges_completed += m.merges_completed.load(kRelaxed);
    c.merge_micros += m.merge_micros.load(kRelaxed);
    c.rows_merged += m.rows_merged.load(kRelaxed);
    c.rows_retained_by_watermark += m.rows_retained_by_watermark.load(kRelaxed);
  }
  if (db.iq() != nullptr) {
    const extended::ExtendedStoreMetrics& ext = db.iq()->store()->metrics();
    c.ext_blocks_read = ext.blocks_read;
    c.ext_cache_hits = ext.cache_hits;
    c.ext_bytes_read = ext.bytes_read;
    c.ext_io_ms = ext.simulated_io_ms;
  }
  return c;
}

void AddDelta(const Counters& a, const Counters& b, LayerTotals* t) {
  auto d = [](uint64_t before, uint64_t after) {
    return static_cast<double>(after - before);
  };
  t->radix_hash_joins += d(a.radix_hash_joins, b.radix_hash_joins);
  t->perfect_hash_joins += d(a.perfect_hash_joins, b.perfect_hash_joins);
  t->perfect_hash_fallbacks +=
      d(a.perfect_hash_fallbacks, b.perfect_hash_fallbacks);
  t->nested_loop_fallbacks +=
      d(a.nested_loop_fallbacks, b.nested_loop_fallbacks);
  t->boxed_key_builds += d(a.boxed_key_builds, b.boxed_key_builds);
  t->agg_vectorized_chunks +=
      d(a.agg_vectorized_chunks, b.agg_vectorized_chunks);
  t->agg_boxed_rows += d(a.agg_boxed_rows, b.agg_boxed_rows);
  t->agg_partition_merges += d(a.agg_partition_merges, b.agg_partition_merges);
  t->conjunction_kernel_chunks +=
      d(a.conjunction_kernel_chunks, b.conjunction_kernel_chunks);
  t->merges_completed += d(a.merges_completed, b.merges_completed);
  t->merge_ms += d(a.merge_micros, b.merge_micros) / 1000.0;
  t->rows_merged += d(a.rows_merged, b.rows_merged);
  t->rows_retained_by_watermark +=
      d(a.rows_retained_by_watermark, b.rows_retained_by_watermark);
  t->ext_blocks_read += d(a.ext_blocks_read, b.ext_blocks_read);
  t->ext_cache_hits += d(a.ext_cache_hits, b.ext_cache_hits);
  t->ext_bytes_read += d(a.ext_bytes_read, b.ext_bytes_read);
  t->ext_io_virtual_ms += b.ext_io_ms - a.ext_io_ms;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

// Records one span for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint64_t stmt, int64_t parent)
      : tracer_(tracer), id_(tracer->Begin(name, stmt, parent)) {}
  ~SpanScope() { tracer_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  size_t id_;
};

}  // namespace

size_t Tracer::Begin(const std::string& name, uint64_t stmt, int64_t parent) {
  spans_.push_back(Span{name, NowMs() - origin_ms_, 0, parent, stmt});
  return spans_.size() - 1;
}

void Tracer::End(size_t span) { spans_[span].end_ms = NowMs() - origin_ms_; }

void Tracer::AddSelfTimes(size_t first, LayerTotals* totals) const {
  std::vector<double> child_ms(spans_.size() - first, 0.0);
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= static_cast<int64_t>(first)) {
      child_ms[s.parent - first] += s.end_ms - s.start_ms;
    }
  }
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    double duration = s.end_ms - s.start_ms;
    totals->self_ms[LayerOf(s.name)] += duration - child_ms[i - first];
  }
}

void Tracer::WriteJsonl(const std::string& path,
                        const std::string& workload) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) Fail("cannot write trace file " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"workload\": \"%s\", \"span\": %zu, \"parent\": %lld, "
                 "\"stmt\": %llu, \"name\": \"%s\", \"start_ms\": %s, "
                 "\"end_ms\": %s}\n",
                 JsonEscape(workload).c_str(), i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.stmt),
                 JsonEscape(s.name).c_str(), JsonNumber(s.start_ms).c_str(),
                 JsonNumber(s.end_ms).c_str());
  }
  if (std::fclose(out) != 0) Fail("cannot write trace file " + path);
}

Session::Session(platform::Platform* db, Tracer* tracer,
                 size_t merge_threshold_rows)
    : db_(db), tracer_(tracer), merge_threshold_rows_(merge_threshold_rows) {
  SetDop(db->degree_of_parallelism());
}

void Session::SetDop(size_t dop) {
  Check(db_->SetParameter("threads", std::to_string(dop)), "set threads");
  dop_ = dop;
}

platform::ExecResult Session::Run(const std::string& kind,
                                  const std::string& sql) {
  double start = NowMs();
  Result<platform::ExecResult> result =
      tracer_ == nullptr ? db_->Execute(sql) : RunTraced(sql);
  double ms = NowMs() - start;
  if (!result.ok()) {
    Fail("statement " + kind + " failed: " + result.status().ToString() +
         "\n  " + sql);
  }
  samples_.Add(kind, single_thread(), ms);
  ++statements_;
  return std::move(*result);
}

double Session::VirtualNowMs() {
  double now = db_->clock().now_ms();
  if (db_->iq() != nullptr) now += db_->iq()->store()->clock().now_ms();
  return now;
}

Result<platform::ExecResult> Session::RunTraced(const std::string& sql) {
  uint64_t stmt_id = ++stmt_id_;
  size_t first_span = tracer_->spans().size();
  Counters before = ReadCounters(*db_);
  // Read outside the spans, so that this catalog walk is not charged to
  // the platform layer; counted for SELECTs only, below.
  double delta_rows = 0;
  for (const storage::ColumnTable* t : LocalColumnTables(*db_)) {
    delta_rows += static_cast<double>(t->delta_rows());
  }
  Result<platform::ExecResult> result = Status::Internal("not run");
  {
    SpanScope root(tracer_, "platform.execute", stmt_id, -1);
    int64_t root_id = static_cast<int64_t>(first_span);
    Result<sql::StmtPtr> parsed = Status::Internal("not parsed");
    {
      SpanScope span(tracer_, "sql.parse", stmt_id, root_id);
      parsed = sql::ParseStatement(sql);
    }
    if (!parsed.ok()) return parsed.status();
    const sql::Stmt& stmt = **parsed;
    switch (stmt.kind()) {
      case sql::StmtKind::kSelect:
        totals_.delta_rows_at_query += delta_rows;
        totals_.selects += 1;
        result = TracedSelect(static_cast<const sql::SelectStmt&>(stmt), root_id);
        break;
      case sql::StmtKind::kInsert:
        result = TracedInsert(static_cast<const sql::InsertStmt&>(stmt), root_id);
        break;
      case sql::StmtKind::kDelete:
        result = TracedDelete(static_cast<const sql::DeleteStmt&>(stmt), root_id);
        break;
      case sql::StmtKind::kUpdate:
        result = TracedUpdate(static_cast<const sql::UpdateStmt&>(stmt), root_id);
        break;
      default:
        return Status::InvalidArgument("traced run handles DML and SELECT only");
    }
  }
  AddDelta(before, ReadCounters(*db_), &totals_);
  tracer_->AddSelfTimes(first_span, &totals_);
  return result;
}

Result<platform::ExecResult> Session::TracedSelect(const sql::SelectStmt& stmt,
                                                   int64_t root) {
  uint64_t id = stmt_id_;
  double virtual_before = VirtualNowMs();
  db_->sda().ResetStats();
  double start = NowMs();
  Result<plan::LogicalOpPtr> logical = Status::Internal("not bound");
  {
    SpanScope span(tracer_, "plan.bind", id, root);
    logical = plan::BindSelectStatement(db_->catalog(), stmt);
  }
  HANA_RETURN_IF_ERROR(logical.status());
  {
    // Same hint handling as Platform::PlanSelect.
    SpanScope span(tracer_, "optimizer.optimize", id, root);
    optimizer::OptimizeContext ctx;
    ctx.catalog = &db_->catalog();
    ctx.sda = &db_->sda();
    ctx.options = db_->optimizer_options();
    ctx.options.use_remote_cache = false;
    for (const std::string& hint : stmt.hints) {
      if (hint == "USE_REMOTE_CACHE") ctx.options.use_remote_cache = true;
      if (hint == "NO_FEDERATION") ctx.options.enable_federation = false;
    }
    HANA_RETURN_IF_ERROR(optimizer::Optimize(&*logical, ctx));
  }
  std::vector<exec::PipelineStats> stats;
  Result<storage::Table> table = Status::Internal("not run");
  {
    SpanScope span(tracer_, "exec.execute", id, root);
    table = exec::ExecutePlanWithStats(**logical, db_, &stats);
  }
  HANA_RETURN_IF_ERROR(table.status());
  if (stats.empty()) totals_.serial_plan_stmts += 1;
  for (const exec::PipelineStats& p : stats) {
    totals_.pipeline_wall_ms += p.wall_ms;
    totals_.pipeline_cpu_ms += p.cpu_ms;
    totals_.pipeline_capacity_ms += p.wall_ms * static_cast<double>(dop_);
    totals_.morsels += static_cast<double>(p.morsels);
    totals_.pipeline_rows += static_cast<double>(p.rows);
  }
  platform::ExecResult result;
  result.metrics.local_ms = NowMs() - start;
  result.metrics.simulated_remote_ms = VirtualNowMs() - virtual_before;
  result.metrics.total_ms =
      result.metrics.local_ms + result.metrics.simulated_remote_ms;
  result.metrics.rows = table->num_rows();
  federation::StatementRemoteStats remote = db_->sda().stats();
  result.metrics.remote_calls = remote.remote_calls;
  result.metrics.mapreduce_jobs = remote.mapreduce_jobs;
  result.metrics.remote_cache_hit = remote.any_cache_hit;
  result.metrics.remote_materialization = remote.any_materialization;
  result.table = std::move(*table);
  totals_.remote_calls += static_cast<double>(remote.remote_calls);
  totals_.rows_fetched += static_cast<double>(remote.rows_fetched);
  totals_.mapreduce_jobs += static_cast<double>(remote.mapreduce_jobs);
  totals_.remote_cache_hits += remote.any_cache_hit ? 1 : 0;
  totals_.remote_virtual_ms += result.metrics.simulated_remote_ms;
  return result;
}

Result<platform::ExecResult> Session::TracedInsert(const sql::InsertStmt& stmt,
                                                   int64_t root) {
  uint64_t id = stmt_id_;
  if (stmt.select != nullptr || !stmt.columns.empty()) {
    return Status::InvalidArgument("traced INSERT takes positional VALUES only");
  }
  HANA_ASSIGN_OR_RETURN(catalog::TableEntry * entry,
                        db_->catalog().GetTable(stmt.table));
  std::vector<std::vector<plan::BoundExprPtr>> bound(stmt.values_rows.size());
  {
    SpanScope span(tracer_, "plan.bind", id, root);
    Schema empty;
    for (size_t r = 0; r < stmt.values_rows.size(); ++r) {
      for (const auto& expr : stmt.values_rows[r]) {
        HANA_ASSIGN_OR_RETURN(plan::BoundExprPtr b,
                              plan::BindScalarExpr(*expr, empty));
        bound[r].push_back(std::move(b));
      }
    }
  }
  // Evaluation and the cast to the column types are the platform's own
  // work in Platform::ExecuteInsert; they count as its self time.
  std::vector<std::vector<Value>> rows;
  for (const auto& exprs : bound) {
    std::vector<Value> row;
    for (size_t c = 0; c < exprs.size(); ++c) {
      HANA_ASSIGN_OR_RETURN(Value v, exec::EvalExprRow(*exprs[c], {}));
      if (c < entry->schema->num_columns()) {
        HANA_ASSIGN_OR_RETURN(v, v.CastTo(entry->schema->column(c).type));
      }
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }
  {
    SpanScope span(tracer_, "catalog.insert", id, root);
    HANA_RETURN_IF_ERROR(db_->catalog().Insert(stmt.table, rows));
  }
  if (merge_threshold_rows_ > 0 && entry->kind == catalog::TableKind::kColumn &&
      entry->column_table->delta_rows() >= merge_threshold_rows_) {
    SpanScope span(tracer_, "storage.merge", id, root);
    Status status = entry->column_table->MergeDelta(storage::MergeOptions{});
    if (!status.ok() && status.code() != StatusCode::kUnavailable) {
      return status;
    }
  }
  platform::ExecResult result;
  result.metrics.rows = rows.size();
  return result;
}

Result<platform::ExecResult> Session::TracedDelete(const sql::DeleteStmt& stmt,
                                                   int64_t root) {
  uint64_t id = stmt_id_;
  HANA_ASSIGN_OR_RETURN(catalog::TableEntry * entry,
                        db_->catalog().GetTable(stmt.table));
  if (stmt.where == nullptr || entry->kind != catalog::TableKind::kColumn) {
    return Status::InvalidArgument("traced DELETE takes a WHERE on a column table");
  }
  Result<plan::BoundExprPtr> predicate = Status::Internal("not bound");
  {
    SpanScope span(tracer_, "plan.bind", id, root);
    predicate = plan::BindScalarExpr(*stmt.where, *entry->schema);
  }
  HANA_RETURN_IF_ERROR(predicate.status());
  double examined = static_cast<double>(entry->column_table->num_rows());
  Result<size_t> deleted = Status::Internal("not run");
  {
    SpanScope span(tracer_, "catalog.delete", id, root);
    deleted = db_->catalog().DeleteWhere(stmt.table, **predicate);
  }
  HANA_RETURN_IF_ERROR(deleted.status());
  totals_.rows_examined += examined;
  totals_.rows_changed += static_cast<double>(*deleted);
  platform::ExecResult result;
  result.metrics.rows = *deleted;
  return result;
}

Result<platform::ExecResult> Session::TracedUpdate(const sql::UpdateStmt& stmt,
                                                   int64_t root) {
  uint64_t id = stmt_id_;
  HANA_ASSIGN_OR_RETURN(catalog::TableEntry * entry,
                        db_->catalog().GetTable(stmt.table));
  if (stmt.where == nullptr || entry->kind != catalog::TableKind::kColumn) {
    return Status::InvalidArgument("traced UPDATE takes a WHERE on a column table");
  }
  plan::BoundExprPtr predicate;
  std::vector<plan::BoundExprPtr> owned;
  std::vector<std::pair<size_t, const plan::BoundExpr*>> assignments;
  {
    SpanScope span(tracer_, "plan.bind", id, root);
    HANA_ASSIGN_OR_RETURN(predicate,
                          plan::BindScalarExpr(*stmt.where, *entry->schema));
    for (const auto& [column, expr] : stmt.assignments) {
      HANA_ASSIGN_OR_RETURN(size_t idx, entry->schema->ColumnIndex(column));
      HANA_ASSIGN_OR_RETURN(plan::BoundExprPtr b,
                            plan::BindScalarExpr(*expr, *entry->schema));
      owned.push_back(std::move(b));
      assignments.emplace_back(idx, owned.back().get());
    }
  }
  double examined = static_cast<double>(entry->column_table->num_rows());
  Result<size_t> updated = Status::Internal("not run");
  {
    SpanScope span(tracer_, "catalog.update", id, root);
    updated = db_->catalog().UpdateWhere(stmt.table, predicate.get(), assignments);
  }
  HANA_RETURN_IF_ERROR(updated.status());
  totals_.rows_examined += examined;
  totals_.rows_changed += static_cast<double>(*updated);
  platform::ExecResult result;
  result.metrics.rows = *updated;
  return result;
}

}  // namespace hana::e2e
