#ifndef HANA_E2EBENCH_REFERENCE_H_
#define HANA_E2EBENCH_REFERENCE_H_

// Expected answers of the benchmark's queries, computed in plain C++
// straight from the generated rows. Nothing here calls the engine's
// executor, planner, storage or Hadoop code, so a fault there cannot
// hide by showing up on both sides of a comparison.

#include <cstdint>
#include <vector>

#include "harness.h"
#include "tpch/dbgen.h"

namespace hana::e2e {

/// The TPC-H tables a reference reads. `lineitem_deleted`, when set,
/// marks lineitem rows (by position) that a DELETE removed.
struct TpchView {
  const tpch::TpchData* data = nullptr;
  const std::vector<uint8_t>* lineitem_deleted = nullptr;
};

/// Expected result of tpch::QueryText(q) over `view` (unordered).
Rows ReferenceTpch(int q, const TpchView& view);

/// Positions of the TPC-H columns the references and the HTAP model
/// read, in tpch::TpchSchema order.
namespace col {
enum Orders { kOKey = 0, kOCust = 1, kOTotal = 3, kODate = 4, kOPrio = 5,
              kOShipPrio = 7, kOComment = 8 };
enum Lineitem { kLOKey = 0, kLPart = 1, kLSupp = 2, kLLine = 3, kLQty = 4,
                kLPrice = 5, kLDisc = 6, kLTax = 7, kLFlag = 8, kLStatus = 9,
                kLShip = 10, kLCommit = 11, kLReceipt = 12, kLInstruct = 13,
                kLMode = 14 };
}  // namespace col

}  // namespace hana::e2e

#endif  // HANA_E2EBENCH_REFERENCE_H_
