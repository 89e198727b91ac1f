// The federated workload: statements whose work happens in extended
// storage (Figure 7's join, a hybrid table's Union Plan, a full scan of
// an extended fact table) and at Hive through SDA (the Figure 14
// queries, plain and served from the remote cache).

#include <unistd.h>

#include <filesystem>

#include "common/util.h"
#include "reference.h"
#include "tpch/queries.h"
#include "workloads.h"

namespace hana::e2e {

namespace {

constexpr double kScaleFactor = 0.01;
constexpr double kQuickScaleFactor = 0.002;
constexpr int64_t kStores = 500;
constexpr size_t kSalesRows = 200000;
constexpr size_t kQuickSalesRows = 20000;
constexpr size_t kEventRows = 40000;
// The extended store's buffer cache is a fraction of the sales table,
// so a full scan of sales misses it on every pass.
constexpr size_t kExtCacheBytes = 1 << 20;

const char* const kRegions[] = {"NORTH", "SOUTH", "EAST", "WEST"};

// Six of Figure 14's twelve queries keep a pass near 2 s; all twelve
// take over 7 s at SF 0.01, Q18 alone 3.4 s.
const int kHiveQueries[] = {1, 3, 6, 12, 14, 19};

constexpr const char* kFig7Join =
    "SELECT s.region, SUM(f.amount) AS revenue "
    "FROM stores s JOIN sales f ON s.store_id = f.store_id "
    "WHERE s.name = 'Store#42' GROUP BY s.region";
constexpr const char* kHybridAgg =
    "SELECT bucket, COUNT(*) AS n, SUM(amount) AS total FROM events "
    "GROUP BY bucket";
constexpr const char* kExtendedAgg =
    "SELECT COUNT(*) AS n, SUM(amount) AS total FROM sales";

std::string HiveQuery(int q) {
  // The paper keeps PART local for Q14 and Q19.
  return tpch::QueryText(q, q == 14 || q == 19 ? "part_local" : "part");
}

std::string Hinted(int q) {
  return HiveQuery(q) + " WITH HINT (USE_REMOTE_CACHE)";
}

class Federated : public Workload {
 public:
  explicit Federated(const Options& opts) : opts_(opts) {}
  ~Federated() override { Drop(); }

  void Setup() override {
    static int instance = 0;
    workspace_ = opts_.work_dir + "/federated_" + std::to_string(::getpid()) +
                 "_" + std::to_string(instance++);
    platform::PlatformOptions options;
    options.workspace_dir = workspace_;
    options.extended_options.cache_bytes = kExtCacheBytes;
    options.num_threads = opts_.dop;
    db_ = std::make_unique<platform::Platform>(options);
    data_ = std::make_unique<tpch::TpchData>(tpch::Generate(
        opts_.quick ? kQuickScaleFactor : kScaleFactor, opts_.seed));
    for (const char* table : {"supplier", "nation", "region"}) {
      LoadColumnTable(*db_, table, tpch::TpchSchema(table),
                      *tpch::TableRows(*data_, table));
    }
    LoadColumnTable(*db_, "part_local", tpch::TpchSchema("part"), data_->part);
    for (const char* table : {"lineitem", "customer", "orders", "partsupp",
                              "part"}) {
      Check(db_->hive()->CreateTable(table, tpch::TpchSchema(table)),
            std::string("hive create ") + table);
      Check(db_->hive()->LoadRows(table, *tpch::TableRows(*data_, table)),
            std::string("hive load ") + table);
    }
    Check(db_->Run(R"(
        CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc" CONFIGURATION
          'DSN=hive1' WITH CREDENTIAL TYPE 'PASSWORD'
          USING 'user=dfuser;password=dfpass';
        CREATE VIRTUAL TABLE lineitem AT "HIVE1"."dflo"."dflo"."lineitem";
        CREATE VIRTUAL TABLE customer AT "HIVE1"."dflo"."dflo"."customer";
        CREATE VIRTUAL TABLE orders AT "HIVE1"."dflo"."dflo"."orders";
        CREATE VIRTUAL TABLE partsupp AT "HIVE1"."dflo"."dflo"."partsupp";
        CREATE VIRTUAL TABLE part AT "HIVE1"."dflo"."dflo"."part";
        CREATE TABLE sales (sale_id BIGINT, store_id BIGINT, amount DOUBLE)
          USING EXTENDED STORAGE;
        CREATE TABLE events (id BIGINT, bucket BIGINT, amount DOUBLE)
          USING HYBRID EXTENDED STORAGE
          PARTITION BY RANGE (bucket) (
            PARTITION VALUES < 1 COLD,
            PARTITION VALUES < 2 COLD,
            PARTITION VALUES < 3 COLD,
            PARTITION VALUES < 4 COLD,
            PARTITION OTHERS HOT))"),
          "register remote and extended tables");
    GenerateLocalData();
    LoadColumnTable(*db_, "stores",
                    std::make_shared<Schema>(std::vector<ColumnDef>{
                        {"store_id", DataType::kInt64, false},
                        {"name", DataType::kString, false},
                        {"region", DataType::kString, false}}),
                    stores_);
    Check(db_->catalog().Insert("sales", sales_), "load sales");
    Check(db_->catalog().Insert("events", events_), "load events");
    Check(db_->catalog().MergeDelta("events"), "merge events");
    Check(db_->SetParameter("enable_remote_cache", "true"), "remote cache");
    for (int q : kHiveQueries) {
      Unwrap(db_->Execute(Hinted(q)), "warm remote cache for Q" + std::to_string(q));
    }
  }

  void Teardown() override {
    Drop();
    data_.reset();
  }
  platform::Platform& db() override { return *db_; }
  std::string scan_table() const override { return "part_local"; }

  void PrepareReferences() override {
    double store42 = 0;
    bool any = false;
    double sales_sum = 0;
    for (const auto& row : sales_) {
      sales_sum += row[2].double_value();
      if (row[1].int_value() == 42) {
        store42 += row[2].double_value();
        any = true;
      }
    }
    fig7_ref_ = any ? Rows{{Value::String(kRegions[42 % 4]), Value::Double(store42)}}
                    : Rows{};
    extended_ref_ = {{Value::Int(static_cast<int64_t>(sales_.size())),
                      Value::Double(sales_sum)}};
    std::map<int64_t, std::pair<int64_t, double>> buckets;
    for (const auto& row : events_) {
      auto& b = buckets[row[1].int_value()];
      ++b.first;
      b.second += row[2].double_value();
    }
    hybrid_ref_.clear();
    for (const auto& [bucket, b] : buckets) {
      hybrid_ref_.push_back(
          {Value::Int(bucket), Value::Int(b.first), Value::Double(b.second)});
    }
    for (int q : kHiveQueries) {
      hive_refs_[q] = ReferenceTpch(q, TpchView{data_.get(), nullptr});
    }
  }

  void Pass(Session& session) override {
    double virtual_ms = 0;
    auto run = [&](const std::string& kind, const std::string& sql,
                   const Rows& expected) {
      platform::ExecResult r = session.Run(kind, sql);
      ExpectRows(r.table.rows(), expected, "federated " + kind);
      virtual_ms += r.metrics.simulated_remote_ms;
      identity_.Check(session, kind, r.table.rows(), "federated " + kind);
      return r;
    };
    run("fig7_join", kFig7Join, fig7_ref_);
    run("hybrid_agg", kHybridAgg, hybrid_ref_);
    run("extended_agg", kExtendedAgg, extended_ref_);
    for (int q : kHiveQueries) {
      std::string name = "Q";
      name += std::to_string(q);
      run(name, HiveQuery(q), hive_refs_[q]);
      platform::ExecResult cached = run(name + "_cached", Hinted(q), hive_refs_[q]);
      if (!cached.metrics.remote_cache_hit) {
        Fail("federated " + name + " with USE_REMOTE_CACHE missed the cache "
             "after warm-up");
      }
    }
    if (!session.single_thread()) virtual_.push_back(virtual_ms);
  }

  void Details(const Session& session, std::vector<Metric>* out) override {
    (void)session;
    out->push_back({"fed_remote_virtual_ms", "ms", Median(virtual_),
                    virtual_.size()});
  }

 private:
  void Drop() {
    db_.reset();
    if (!workspace_.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(workspace_, ignored);
    }
  }

  void GenerateLocalData() {
    Rng rng(opts_.seed * 0x2545f4914f6cdd1dULL + 7);
    stores_.clear();
    sales_.clear();
    events_.clear();
    for (int64_t i = 0; i < kStores; ++i) {
      stores_.push_back({Value::Int(i), Value::String("Store#" + std::to_string(i)),
                         Value::String(kRegions[i % 4])});
    }
    size_t sales = opts_.quick ? kQuickSalesRows : kSalesRows;
    for (size_t i = 0; i < sales; ++i) {
      sales_.push_back({Value::Int(static_cast<int64_t>(i)),
                        Value::Int(rng.Uniform(0, kStores - 1)),
                        Value::Double(rng.Uniform(100, 99999) / 100.0)});
    }
    for (size_t i = 0; i < kEventRows; ++i) {
      events_.push_back({Value::Int(static_cast<int64_t>(i)),
                         Value::Int(static_cast<int64_t>(i % 5)),
                         Value::Double(rng.Uniform(0, 99999) / 100.0)});
    }
  }

  const Options& opts_;
  std::string workspace_;
  std::unique_ptr<platform::Platform> db_;
  std::unique_ptr<tpch::TpchData> data_;
  Rows stores_, sales_, events_;
  Rows fig7_ref_, extended_ref_, hybrid_ref_;
  std::map<int, Rows> hive_refs_;
  DopIdentity identity_;
  std::vector<double> virtual_;  // Remote virtual ms per dop = cores pass.
};

}  // namespace

std::unique_ptr<Workload> MakeFederated(const Options& opts) {
  return std::make_unique<Federated>(opts);
}

}  // namespace hana::e2e
