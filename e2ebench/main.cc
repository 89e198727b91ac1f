// End-to-end SQL benchmark driver. Runs one workload through
// platform::Platform::Execute and prints its metrics; with --trace 1 it
// instead runs the same statements through each layer's public entry
// point and prints per-layer metrics.
//
//   e2e_bench --workload olap_tpch|htap_sql|federated --seed N
//             --seconds S --trace 0|1 [--dop D] [--quick]
//             [--work-dir DIR] [--trace-out FILE] [--git-sha SHA]
//
// The last line of standard output is the result object; a failed
// statement or check exits with code 2 before it is printed.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "common/cpu_dispatch.h"
#include "storage/column_table.h"
#include "workloads.h"

#ifndef HANA_E2E_BUILD_TYPE
#define HANA_E2E_BUILD_TYPE "unknown"
#endif

namespace hana::e2e {

namespace {

// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

size_t HostCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  return 1;
}

Options ParseArgs(int argc, char** argv) {
  Options opts;
  opts.host_cores = HostCores();
  opts.dop = opts.host_cores;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fail("missing value for " + arg);
      return argv[++i];
    };
    auto number = [&](const std::string& text) {
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' || v < 0) {
        Fail("bad value for " + arg + ": " + text);
      }
      return v;
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = static_cast<uint64_t>(number(value()));
    } else if (arg == "--seconds") {
      opts.seconds = number(value());
    } else if (arg == "--trace") {
      opts.trace = number(value()) != 0;
    } else if (arg == "--dop") {
      opts.dop = static_cast<size_t>(number(value()));
    } else if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--work-dir") {
      opts.work_dir = value();
    } else if (arg == "--trace-out") {
      opts.trace_out = value();
    } else if (arg == "--git-sha") {
      opts.git_sha = value();
    } else {
      Fail("unknown argument " + arg);
    }
  }
  if (opts.dop == 0) Fail("--dop must be at least 1");
  // Thread-scaling figures are only meaningful with a core per thread.
  if (opts.dop > opts.host_cores) {
    Fail("--dop " + std::to_string(opts.dop) + " is above the " +
         std::to_string(opts.host_cores) + " cores this process may use");
  }
  if (opts.work_dir.empty()) opts.work_dir = ".";
  return opts;
}

std::string Provenance(const Options& opts, const std::string& workload) {
#ifdef HANA_LOCK_ORDER_CHECKS
  const char* lock_checks = "true";
#else
  const char* lock_checks = "false";
#endif
  return "{\"provenance\": {\"workload\": \"" + JsonEscape(workload) +
         "\", \"seed\": " + std::to_string(opts.seed) +
         ", \"host_cores\": " + std::to_string(opts.host_cores) +
         ", \"dop\": " + std::to_string(opts.dop) + ", \"cpu_level\": \"" +
         JsonEscape(CpuModeString()) + "\", \"build_type\": \"" +
         HANA_E2E_BUILD_TYPE + "\", \"lock_order_checks\": " + lock_checks +
         ", \"git_sha\": \"" + JsonEscape(opts.git_sha) +
         "\", \"quick\": " + (opts.quick ? "true" : "false") + "}}";
}

std::unique_ptr<Workload> Make(const std::string& name, const Options& opts) {
  if (name == "olap_tpch") return MakeOlapTpch(opts);
  if (name == "htap_sql") return MakeHtapSql(opts);
  if (name == "federated") return MakeFederated(opts);
  Fail("unknown workload '" + name + "'");
}

// One round: the statement mix at dop = cores, then at dop 1.
void Round(Workload& w, Session& session, size_t dop) {
  session.SetDop(dop);
  w.Pass(session);
  session.SetDop(1);
  w.Pass(session);
}

// Runs whole rounds until `seconds` have passed (one round in quick
// mode), so every run attempts the same statement mix.
size_t RunRounds(const Options& opts, const std::function<void()>& round) {
  double start = NowMs();
  size_t rounds = 0;
  do {
    round();
    ++rounds;
  } while (!opts.quick && NowMs() - start < opts.seconds * 1000.0);
  return rounds;
}

double SumMs(const Samples& samples) {
  double sum = 0;
  for (bool one : {false, true}) {
    for (const auto& [kind, values] : samples.Of(one)) {
      for (double v : values) sum += v;
    }
  }
  return sum;
}

std::unique_ptr<Workload> SetUp(const std::string& name, const Options& opts,
                                std::vector<double>* setup_ms) {
  std::unique_ptr<Workload> w = Make(name, opts);
  int repeats = opts.quick || opts.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) w->Teardown();
    double start = NowMs();
    w->Setup();
    setup_ms->push_back(NowMs() - start);
  }
  w->PrepareReferences();
  if (!opts.quick) {
    // Untimed warm-up pass: code, allocator and caches settle first.
    Session warm(&w->db(), nullptr, w->merge_threshold_rows());
    warm.SetDop(opts.dop);
    w->Pass(warm);
  }
  return w;
}

// One line per statement kind and dop class: median and sample count.
void PrintKindLines(const std::string& workload, const Samples& samples,
                    size_t dop) {
  for (bool one : {false, true}) {
    for (const auto& [kind, values] : samples.Of(one)) {
      std::printf(
          "{\"workload\": \"%s\", \"kind\": \"%s\", \"dop\": %zu, "
          "\"p50_ms\": %s, \"samples\": %zu}\n",
          JsonEscape(workload).c_str(), JsonEscape(kind).c_str(),
          one ? size_t{1} : dop, JsonNumber(Median(values)).c_str(),
          values.size());
    }
  }
}

Outcome RunUntraced(const std::string& name, const Options& opts) {
  std::vector<double> setup_ms;
  std::unique_ptr<Workload> w = SetUp(name, opts, &setup_ms);
  Session session(&w->db(), nullptr, w->merge_threshold_rows());
  RunRounds(opts, [&] { Round(*w, session, opts.dop); });
  w->Finish(session);

  Outcome out;
  out.attempted = session.statements();
  const Samples& s = session.samples();
  out.metrics = {
      {"setup_s", "s", Median(setup_ms) / 1000.0, setup_ms.size()},
      {"peak_rss_mb", "MB", PeakRssMb(), 0},
      {"store_bytes", "bytes", static_cast<double>(StoreBytes(w->db())), 0},
      {"stmt_geomean_ms", "ms", s.GeoMeanOfMedians(false), s.Count(false)},
      {"stmt_geomean_1t_ms", "ms", s.GeoMeanOfMedians(true), s.Count(true)},
      {"stmts_per_s", "stmt/s",
       static_cast<double>(session.statements()) / (SumMs(s) / 1000.0),
       session.statements()},
  };
  w->Details(session, &out.details);
  PrintKindLines(name, s, opts.dop);
  return out;
}

// Times full all-column scans of one local table from outside the
// engine; rows per second, median of three.
double ScanRowsPerSecond(platform::Platform& db, const std::string& table) {
  const catalog::TableEntry* entry =
      Unwrap(db.catalog().GetTable(table), "scan table " + table);
  if (entry->kind != catalog::TableKind::kColumn) {
    Fail("scan table " + table + " is not a column table");
  }
  std::vector<double> rates;
  for (int i = 0; i < 3; ++i) {
    size_t rows = 0;
    double start = NowMs();
    auto snapshot = entry->column_table->OpenSnapshot();
    snapshot->Scan(storage::kDefaultChunkRows, [&](const storage::Chunk& c) {
      rows += c.num_rows();
      return true;
    });
    double ms = NowMs() - start;
    rates.push_back(static_cast<double>(rows) / std::max(ms, 1e-6) * 1000.0);
  }
  return Median(rates);
}

Outcome RunTraced(const std::string& name, const Options& opts) {
  std::vector<double> setup_ms;
  std::unique_ptr<Workload> w = SetUp(name, opts, &setup_ms);
  platform::Platform& db = w->db();
  Session plain(&db, nullptr, w->merge_threshold_rows());
  Tracer tracer;
  Session traced(&db, &tracer, w->merge_threshold_rows());
  // Untraced and traced rounds alternate, so both see the same state
  // of the tables; their difference is the tracing overhead.
  size_t rounds = RunRounds(opts, [&] {
    Round(*w, plain, opts.dop);
    Round(*w, traced, opts.dop);
  });
  w->Finish(plain);

  const LayerTotals& t = traced.totals();
  double r = static_cast<double>(rounds);
  auto self = [&](const char* layer) {
    auto it = t.self_ms.find(layer);
    return it == t.self_ms.end() ? 0.0 : it->second / r;
  };
  size_t main_bytes = 0, delta_bytes = 0;
  for (const storage::ColumnTable* table : LocalColumnTables(db)) {
    main_bytes += table->MainMemoryBytes();
    delta_bytes += table->DeltaMemoryBytes();
  }
  const catalog::TableEntry* scanned =
      Unwrap(db.catalog().GetTable(w->scan_table()), "scan table");

  Outcome out;
  out.attempted = plain.statements() + traced.statements();
  out.metrics = {
      {"sql.parse_ms", "ms", self("sql"), 0},
      {"plan.bind_ms", "ms", self("plan"), 0},
      {"optimizer.optimize_ms", "ms", self("optimizer"), 0},
      {"platform.self_ms", "ms", self("platform"), 0},
      {"exec.execute_ms", "ms", self("exec"), 0},
      {"exec.pipeline_wall_ms", "ms", t.pipeline_wall_ms / r, 0},
      {"exec.pipeline_cpu_ms", "ms", t.pipeline_cpu_ms / r, 0},
      {"exec.busy_ratio", "ratio",
       t.pipeline_capacity_ms > 0 ? t.pipeline_cpu_ms / t.pipeline_capacity_ms
                                  : 0.0,
       0},
      {"exec.morsels", "count", t.morsels / r, 0},
      {"exec.pipeline_rows", "count", t.pipeline_rows / r, 0},
      {"exec.serial_plan_stmts", "count", t.serial_plan_stmts / r, 0},
      {"exec.radix_hash_joins", "count", t.radix_hash_joins / r, 0},
      {"exec.perfect_hash_joins", "count", t.perfect_hash_joins / r, 0},
      {"exec.perfect_hash_fallbacks", "count", t.perfect_hash_fallbacks / r, 0},
      {"exec.nested_loop_fallbacks", "count", t.nested_loop_fallbacks / r, 0},
      {"exec.boxed_key_builds", "count", t.boxed_key_builds / r, 0},
      {"exec.agg_vectorized_chunks", "count", t.agg_vectorized_chunks / r, 0},
      {"exec.agg_boxed_rows", "count", t.agg_boxed_rows / r, 0},
      {"exec.agg_partition_merges", "count", t.agg_partition_merges / r, 0},
      {"exec.conjunction_kernel_chunks", "count",
       t.conjunction_kernel_chunks / r, 0},
      {"storage.scan_rows_per_s", "rows/s",
       ScanRowsPerSecond(db, w->scan_table()), 3},
      {"storage.main_bytes", "bytes", static_cast<double>(main_bytes), 0},
      {"storage.delta_bytes", "bytes", static_cast<double>(delta_bytes), 0},
      {"storage.delta_rows_at_query", "count",
       t.selects > 0 ? t.delta_rows_at_query / t.selects : 0.0, 0},
      {"storage.merges_completed", "count", t.merges_completed / r, 0},
      {"storage.merge_ms", "ms", t.merge_ms / r, 0},
      {"storage.rows_merged", "count", t.rows_merged / r, 0},
      {"storage.rows_retained_by_watermark", "count",
       t.rows_retained_by_watermark / r, 0},
      {"storage.compression_ratio", "ratio",
       scanned->column_table->merge_stats().LastCompressionRatio(), 0},
      {"catalog.dml_ms", "ms", self("catalog"), 0},
      {"catalog.rows_examined_per_row_changed", "ratio",
       t.rows_changed > 0 ? t.rows_examined / t.rows_changed : 0.0, 0},
      {"federation.remote_calls", "count", t.remote_calls / r, 0},
      {"federation.rows_fetched", "count", t.rows_fetched / r, 0},
      {"federation.remote_virtual_ms", "ms", t.remote_virtual_ms / r, 0},
      {"federation.remote_cache_hits", "count", t.remote_cache_hits / r, 0},
      {"hadoop.mapreduce_jobs", "count", t.mapreduce_jobs / r, 0},
      {"extended.blocks_read", "count", t.ext_blocks_read / r, 0},
      {"extended.cache_hits", "count", t.ext_cache_hits / r, 0},
      {"extended.bytes_read", "bytes", t.ext_bytes_read / r, 0},
      {"extended.io_virtual_ms", "ms", t.ext_io_virtual_ms / r, 0},
  };

  // Summary: each layer's self time per round, and the tracing
  // overhead (traced minus untraced statement time per round).
  double untraced_ms = SumMs(plain.samples()) / r;
  double traced_ms = SumMs(traced.samples()) / r;
  std::string layers;
  double layer_sum = 0;
  for (const auto& [layer, ms] : t.self_ms) {
    if (!layers.empty()) layers += ", ";
    layers.append("\"").append(JsonEscape(layer)).append("\": ");
    layers.append(JsonNumber(ms / r));
    layer_sum += ms / r;
  }
  std::string span_file = opts.trace_out.empty()
                              ? opts.work_dir + "/trace_" + name + ".jsonl"
                              : opts.trace_out;
  tracer.WriteJsonl(span_file, name);
  std::printf(
      "{\"trace_summary\": {\"workload\": \"%s\", \"rounds\": %zu, "
      "\"untraced_stmt_ms_per_round\": %s, \"traced_stmt_ms_per_round\": %s, "
      "\"overhead_ms_per_round\": %s, \"layer_self_ms_per_round\": {%s}, "
      "\"layer_self_sum_ms_per_round\": %s, \"spans\": %zu, "
      "\"span_file\": \"%s\"}}\n",
      JsonEscape(name).c_str(), rounds, JsonNumber(untraced_ms).c_str(),
      JsonNumber(traced_ms).c_str(),
      JsonNumber(traced_ms - untraced_ms).c_str(), layers.c_str(),
      JsonNumber(layer_sum).c_str(), tracer.spans().size(),
      JsonEscape(span_file).c_str());
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out.append("\"").append(JsonEscape(m.name)).append("\": {\"value\": ");
    out.append(JsonNumber(m.value)).append(", \"unit\": \"");
    out.append(JsonEscape(m.unit)).append("\"}");
  }
  return out + "}";
}

void PrintMetricLines(const std::string& workload,
                      const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf(
        "{\"workload\": \"%s\", \"metric\": \"%s\", \"value\": %s, "
        "\"unit\": \"%s\", \"samples\": %zu}\n",
        JsonEscape(workload).c_str(), JsonEscape(m.name).c_str(),
        JsonNumber(m.value).c_str(), JsonEscape(m.unit).c_str(), m.samples);
  }
}

int Main(int argc, char** argv) {
  Options opts = ParseArgs(argc, argv);
  const std::string& name = opts.workload;
  Make(name, opts);  // Rejects an unknown name up front.
  std::printf("%s\n", Provenance(opts, name).c_str());
  std::fflush(stdout);
  Outcome out = opts.trace ? RunTraced(name, opts) : RunUntraced(name, opts);
  PrintMetricLines(name, out.details);
  PrintMetricLines(name, out.metrics);
  std::printf("{\"workload\": \"%s\", \"attempted\": %llu, \"failed\": 0}\n",
              JsonEscape(name).c_str(),
              static_cast<unsigned long long>(out.attempted));
  if (opts.quick) {
    // Quick mode is for development; its figures are not results.
    std::printf("quick mode: every check passed; no result reported\n");
    return 0;
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": 0, "
      "\"metrics\": %s}\n",
      static_cast<unsigned long long>(out.attempted),
      MetricsJson(out.metrics).c_str());
  return 0;
}

}  // namespace

}  // namespace hana::e2e

int main(int argc, char** argv) { return hana::e2e::Main(argc, argv); }
