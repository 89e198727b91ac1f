// The two workloads over local TPC-H column tables: olap_tpch (the
// twelve paper queries, read-only) and htap_sql (one session mixing
// new-order inserts, point updates and deletes with analytic queries).

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/util.h"
#include "reference.h"
#include "tpch/queries.h"
#include "workloads.h"

namespace hana::e2e {

namespace {

constexpr double kScaleFactor = 0.05;       // About 300,000 lineitem rows.
constexpr double kQuickScaleFactor = 0.01;  // Quick mode only.

// Shared set-up: all eight TPC-H tables as merged local column tables.
class LocalTpch {
 public:
  explicit LocalTpch(const Options& opts) : opts_(opts) {}

  void Load() {
    data_ = std::make_unique<tpch::TpchData>(tpch::Generate(
        opts_.quick ? kQuickScaleFactor : kScaleFactor, opts_.seed));
    platform::PlatformOptions options;
    options.attach_extended = false;
    options.start_hadoop = false;
    options.num_threads = opts_.dop;
    db_ = std::make_unique<platform::Platform>(options);
    for (const std::string& table : tpch::TpchTableNames()) {
      LoadColumnTable(*db_, table, tpch::TpchSchema(table),
                      *tpch::TableRows(*data_, table));
    }
  }

  void Unload() {
    db_.reset();
    data_.reset();
  }

 protected:
  const Options& opts_;
  std::unique_ptr<tpch::TpchData> data_;
  std::unique_ptr<platform::Platform> db_;
};

// Shows that CompareRows catches a wrong answer: each perturbation of
// `reference` (a changed value in each column, a dropped row, a
// duplicated row) must be reported, and a reordered copy must not.
void SelfCheckComparison(const Rows& reference, const std::string& what) {
  if (reference.empty()) return;
  Rows shuffled(reference.rbegin(), reference.rend());
  if (!CompareRows(shuffled, reference).empty()) {
    Fail("self-check: " + what + " reordered reference does not match itself");
  }
  std::vector<Rows> wrong;
  for (size_t c = 0; c < reference[0].size(); ++c) {
    Rows changed = reference;
    Value& cell = changed[0][c];
    switch (cell.type()) {
      case DataType::kDouble:
        cell = Value::Double(cell.double_value() * (1 + 1e-6) + 1e-6);
        break;
      case DataType::kInt64:
        cell = Value::Int(cell.int_value() + 1);
        break;
      case DataType::kDate:
        cell = Value::Date(cell.int_value() + 1);
        break;
      case DataType::kString:
        cell = Value::String(cell.string_value() + "x");
        break;
      default:
        cell = Value::Int(7);
        break;
    }
    wrong.push_back(std::move(changed));
  }
  wrong.push_back(Rows(reference.begin() + 1, reference.end()));
  Rows duplicated = reference;
  duplicated.push_back(reference[0]);
  wrong.push_back(std::move(duplicated));
  for (size_t i = 0; i < wrong.size(); ++i) {
    if (CompareRows(wrong[i], reference).empty()) {
      Fail("self-check: perturbation " + std::to_string(i) + " of " + what +
           " was not caught");
    }
  }
}

class OlapTpch : public Workload, private LocalTpch {
 public:
  explicit OlapTpch(const Options& opts) : LocalTpch(opts) {}

  void Setup() override { Load(); }
  void Teardown() override { Unload(); }
  platform::Platform& db() override { return *db_; }
  std::string scan_table() const override { return "lineitem"; }

  void PrepareReferences() override {
    for (int q : tpch::BenchmarkQueries()) {
      refs_[q] = ReferenceTpch(q, TpchView{data_.get(), nullptr});
    }
  }

  void Pass(Session& session) override {
    bool one = session.single_thread();
    for (int q : tpch::BenchmarkQueries()) {
      std::string name = "Q";
      name += std::to_string(q);
      platform::ExecResult r = session.Run(name, tpch::QueryText(q));
      ExpectRows(r.table.rows(), refs_[q],
                 "olap_tpch " + name + (one ? " at dop 1" : ""));
      identity_.Check(session, name, r.table.rows(), "olap_tpch " + name);
      if (opts_.quick) SelfCheckComparison(refs_[q], "olap_tpch " + name);
    }
  }

 private:
  std::map<int, Rows> refs_;
  DopIdentity identity_;
};

// Lineitem and orders rows the benchmark inserts follow the
// generator's value ranges, so new rows fall inside and outside the
// analytic queries' predicates in similar shares.
constexpr const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                       "4-NOT SPECIFIED", "5-LOW"};
constexpr const char* kShipModes[] = {"REG AIR", "AIR", "RAIL", "SHIP",
                                      "TRUCK", "MAIL", "FOB"};
constexpr const char* kInstructs[] = {"DELIVER IN PERSON", "COLLECT COD",
                                      "NONE", "TAKE BACK RETURN"};

// Auto-merge fires when an INSERT leaves this many unmerged rows in a
// table: every ~60 new orders for lineitem, so many times per run.
constexpr size_t kMergeThresholdRows = 256;
constexpr int kNewOrdersPerPass = 25;

// 17 significant digits: the engine parses back the very same double.
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class HtapSql : public Workload, private LocalTpch {
 public:
  explicit HtapSql(const Options& opts)
      : LocalTpch(opts), rng_(opts.seed * 0x9e3779b97f4a7c15ULL + 11) {}

  void Setup() override {
    Load();
    Check(db_->SetParameter("merge_threshold_rows",
                            std::to_string(kMergeThresholdRows)),
          "set merge_threshold_rows");
  }
  void Teardown() override { Unload(); }
  platform::Platform& db() override { return *db_; }
  size_t merge_threshold_rows() const override { return kMergeThresholdRows; }
  std::string scan_table() const override { return "lineitem"; }

  // The model is the generated data itself, kept in step with every
  // statement the workload sends; references are computed from it.
  void PrepareReferences() override {
    deleted_.assign(data_->lineitem.size(), 0);
    for (size_t i = 0; i < data_->lineitem.size(); ++i) {
      lines_of_[data_->lineitem[i][col::kLOKey].int_value()].push_back(i);
    }
    for (size_t i = 0; i < data_->orders.size(); ++i) {
      int64_t key = data_->orders[i][col::kOKey].int_value();
      order_pos_[key] = i;
      next_key_ = std::max(next_key_, key + 1);
    }
  }

  void Pass(Session& session) override {
    for (int i = 0; i < kNewOrdersPerPass; ++i) {
      NewOrder(session);
      if (i == 4) Update(session);
      if (i == 8) Query(session, 1);
      if (i == 11) Delete(session);
      if (i == 14) Query(session, 6);
      if (i == kNewOrdersPerPass - 1) Query(session, 3);
    }
  }

  void Finish(Session& session) override {
    (void)session;
    double qty = 0, price = 0, total = 0;
    int64_t lines = 0;
    for (size_t i = 0; i < data_->lineitem.size(); ++i) {
      if (deleted_[i]) continue;
      ++lines;
      qty += data_->lineitem[i][col::kLQty].double_value();
      price += data_->lineitem[i][col::kLPrice].double_value();
    }
    for (const auto& o : data_->orders) total += o[col::kOTotal].double_value();
    auto l = Unwrap(db_->Execute("SELECT COUNT(*) AS n, SUM(l_quantity) AS q, "
                                 "SUM(l_extendedprice) AS p FROM lineitem"),
                    "final lineitem totals");
    ExpectRows(l.table.rows(),
               {{Value::Int(lines), Value::Double(qty), Value::Double(price)}},
               "htap_sql final lineitem totals");
    auto o = Unwrap(db_->Execute("SELECT COUNT(*) AS n, SUM(o_totalprice) AS t "
                                 "FROM orders"),
                    "final orders totals");
    ExpectRows(o.table.rows(),
               {{Value::Int(static_cast<int64_t>(data_->orders.size())),
                 Value::Double(total)}},
               "htap_sql final orders totals");
  }

  void Details(const Session& session, std::vector<Metric>* out) override {
    const Samples& s = session.samples();
    std::vector<double> inserts = s.AllOf("insert_orders");
    std::vector<double> lines = s.AllOf("insert_lineitem");
    inserts.insert(inserts.end(), lines.begin(), lines.end());
    std::vector<double> queries;
    for (const char* q : {"Q1", "Q3", "Q6"}) {
      auto it = s.Of(false).find(q);
      if (it != s.Of(false).end()) {
        queries.insert(queries.end(), it->second.begin(), it->second.end());
      }
    }
    out->push_back({"htap_insert_p50_ms", "ms", Median(inserts), inserts.size()});
    out->push_back({"htap_insert_p99_ms", "ms", Percentile(inserts, 99),
                    inserts.size()});
    std::vector<double> updates = s.AllOf("update_orders");
    std::vector<double> deletes = s.AllOf("delete_lineitem");
    out->push_back({"htap_update_p50_ms", "ms", Median(updates), updates.size()});
    out->push_back({"htap_delete_p50_ms", "ms", Median(deletes), deletes.size()});
    out->push_back({"htap_query_p50_ms", "ms", Median(queries), queries.size()});
  }

 private:
  std::string Pick(const char* const* options, size_t n) {
    return options[rng_.Uniform(0, static_cast<int64_t>(n) - 1)];
  }

  void NewOrder(Session& session) {
    const int64_t customers = static_cast<int64_t>(data_->customer.size());
    const int64_t parts = static_cast<int64_t>(data_->part.size());
    const int64_t suppliers = static_cast<int64_t>(data_->supplier.size());
    int64_t key = next_key_++;
    int64_t date = rng_.Uniform(DaysFromCivil(1992, 1, 1),
                                DaysFromCivil(1998, 8, 2) - 151);
    int64_t n_lines = rng_.Uniform(1, 7);
    Rows lines;
    std::string values;
    double total = 0;
    for (int64_t l = 1; l <= n_lines; ++l) {
      int64_t part = rng_.Uniform(1, parts);
      int64_t supp = rng_.Uniform(1, suppliers);
      double qty = static_cast<double>(rng_.Uniform(1, 50));
      double price = (900.0 + static_cast<double>(part % 1000)) * qty / 10.0;
      double disc = static_cast<double>(rng_.Uniform(0, 10)) / 100.0;
      double tax = static_cast<double>(rng_.Uniform(0, 8)) / 100.0;
      int64_t ship = date + rng_.Uniform(1, 121);
      int64_t commit = date + rng_.Uniform(30, 90);
      int64_t receipt = ship + rng_.Uniform(1, 30);
      std::string flag = ship > DaysFromCivil(1995, 6, 17) ? "N" : "R";
      std::string status = ship > DaysFromCivil(1995, 6, 17) ? "O" : "F";
      std::string instruct = Pick(kInstructs, 4);
      std::string mode = Pick(kShipModes, 7);
      total += price * (1 + tax) * (1 - disc);
      if (!values.empty()) values += ", ";
      values += std::string("(") + std::to_string(key) + ", " + std::to_string(part) + ", " +
                std::to_string(supp) + ", " + std::to_string(l) + ", " +
                Num(qty) + ", " + Num(price) + ", " + Num(disc) + ", " +
                Num(tax) + ", '" + flag + "', '" + status + "', DATE '" +
                FormatDate(ship) + "', DATE '" + FormatDate(commit) +
                "', DATE '" + FormatDate(receipt) + "', '" + instruct +
                "', '" + mode + "', 'new line')";
      lines.push_back({Value::Int(key), Value::Int(part), Value::Int(supp),
                       Value::Int(l), Value::Double(qty), Value::Double(price),
                       Value::Double(disc), Value::Double(tax),
                       Value::String(flag), Value::String(status),
                       Value::Date(ship), Value::Date(commit),
                       Value::Date(receipt), Value::String(instruct),
                       Value::String(mode), Value::String("new line")});
    }
    int64_t cust = rng_.Uniform(1, customers);
    std::string prio = Pick(kPriorities, 5);
    auto r = session.Run(
        "insert_orders",
        "INSERT INTO orders VALUES (" + std::to_string(key) + ", " +
            std::to_string(cust) + ", 'O', " + Num(total) + ", DATE '" +
            FormatDate(date) + "', '" + prio +
            "', 'Clerk#000000001', 0, 'new order')");
    ExpectCount(r, 1, "insert into orders");
    order_pos_[key] = data_->orders.size();
    data_->orders.push_back({Value::Int(key), Value::Int(cust),
                             Value::String("O"), Value::Double(total),
                             Value::Date(date), Value::String(prio),
                             Value::String("Clerk#000000001"), Value::Int(0),
                             Value::String("new order")});
    r = session.Run("insert_lineitem", "INSERT INTO lineitem VALUES " + values);
    ExpectCount(r, lines.size(), "insert into lineitem");
    for (auto& line : lines) {
      lines_of_[key].push_back(data_->lineitem.size());
      data_->lineitem.push_back(std::move(line));
      deleted_.push_back(0);
    }
  }

  void Update(Session& session) {
    int64_t key = rng_.Uniform(1, next_key_ - 1);
    auto r = session.Run("update_orders",
                         "UPDATE orders SET o_totalprice = o_totalprice + 1.25 "
                         "WHERE o_orderkey = " + std::to_string(key));
    auto pos = order_pos_.find(key);
    ExpectCount(r, pos == order_pos_.end() ? 0 : 1, "update of orders");
    if (pos != order_pos_.end()) {
      Value& total = data_->orders[pos->second][col::kOTotal];
      total = Value::Double(total.double_value() + 1.25);
    }
  }

  void Delete(Session& session) {
    int64_t key = rng_.Uniform(1, next_key_ - 1);
    auto r = session.Run("delete_lineitem",
                         "DELETE FROM lineitem WHERE l_orderkey = " +
                             std::to_string(key));
    size_t live = 0;
    for (size_t pos : lines_of_[key]) {
      if (!deleted_[pos]) {
        deleted_[pos] = 1;
        ++live;
      }
    }
    ExpectCount(r, live, "delete from lineitem");
  }

  void Query(Session& session, int q) {
    std::string name = "Q";
    name += std::to_string(q);
    platform::ExecResult r = session.Run(name, tpch::QueryText(q));
    ExpectRows(r.table.rows(), ReferenceTpch(q, TpchView{data_.get(), &deleted_}),
               "htap_sql " + name);
  }

  static void ExpectCount(const platform::ExecResult& r, size_t expected,
                          const std::string& what) {
    if (r.metrics.rows != expected) {
      Fail("htap_sql " + what + " reported " + std::to_string(r.metrics.rows) +
           " rows, expected " + std::to_string(expected));
    }
  }

  Rng rng_;
  std::vector<uint8_t> deleted_;  // Lineitem rows removed, by position.
  std::unordered_map<int64_t, std::vector<size_t>> lines_of_;
  std::unordered_map<int64_t, size_t> order_pos_;
  int64_t next_key_ = 1;
};

}  // namespace

void LoadColumnTable(platform::Platform& db, const std::string& name,
                     const std::shared_ptr<Schema>& schema, const Rows& rows) {
  sql::CreateTableStmt create;
  create.table = name;
  create.columns = schema->columns();
  Check(db.catalog().CreateTable(create), "create " + name);
  Check(db.catalog().Insert(name, rows), "load " + name);
  Check(db.catalog().MergeDelta(name), "merge " + name);
}

void DopIdentity::Check(const Session& session, const std::string& kind,
                        const Rows& rows, const std::string& what) {
  if (!session.single_thread()) {
    parallel_[kind] = rows;
    return;
  }
  auto it = parallel_.find(kind);
  if (it != parallel_.end() && !IdenticalRows(rows, it->second)) {
    Fail(what + ": the dop 1 answer is not identical to the dop = cores answer");
  }
}

std::unique_ptr<Workload> MakeOlapTpch(const Options& opts) {
  return std::make_unique<OlapTpch>(opts);
}

std::unique_ptr<Workload> MakeHtapSql(const Options& opts) {
  return std::make_unique<HtapSql>(opts);
}

}  // namespace hana::e2e
