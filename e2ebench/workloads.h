#ifndef HANA_E2EBENCH_WORKLOADS_H_
#define HANA_E2EBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "platform/platform.h"
#include "session.h"

namespace hana::e2e {

/// One benchmark workload. The driver times Setup() several times,
/// then runs passes: a pass sends the workload's statement mix once, at
/// the session's current dop, and checks every answer.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds a fresh platform and loads the workload's data: generation,
  /// load, merge, remote registration and cache warm-up. Timed.
  virtual void Setup() = 0;
  /// Frees what the last Setup() built, so that the next Setup() does
  /// not time the release of its predecessor. Untimed.
  virtual void Teardown() = 0;
  /// Computes the expected answers from the generated rows. Untimed;
  /// called once, after the last Setup().
  virtual void PrepareReferences() = 0;
  virtual platform::Platform& db() = 0;
  /// Auto-merge threshold the workload set on the platform (0 = none).
  virtual size_t merge_threshold_rows() const { return 0; }

  /// Sends the statement mix once through `session`.
  virtual void Pass(Session& session) = 0;
  /// End-of-run checks of the final table contents.
  virtual void Finish(Session& session) { (void)session; }
  /// The workload's own figures, from the untraced samples.
  virtual void Details(const Session& session, std::vector<Metric>* out) {
    (void)session;
    (void)out;
  }
  /// The local column table the traced run times a full scan of.
  virtual std::string scan_table() const = 0;
};

std::unique_ptr<Workload> MakeOlapTpch(const Options& opts);
std::unique_ptr<Workload> MakeHtapSql(const Options& opts);
std::unique_ptr<Workload> MakeFederated(const Options& opts);

/// Loads TPC-H rows into a new local column table and merges it.
void LoadColumnTable(platform::Platform& db, const std::string& name,
                     const std::shared_ptr<Schema>& schema, const Rows& rows);

/// Checks that each statement kind's answer at dop 1 is identical, bit
/// for bit and in order, to its last answer at dop = cores.
class DopIdentity {
 public:
  void Check(const Session& session, const std::string& kind, const Rows& rows,
             const std::string& what);

 private:
  std::map<std::string, Rows> parallel_;
};

}  // namespace hana::e2e

#endif  // HANA_E2EBENCH_WORKLOADS_H_
