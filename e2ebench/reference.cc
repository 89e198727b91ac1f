#include "reference.h"

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

namespace hana::e2e {

namespace {

int64_t I(const std::vector<Value>& row, size_t c) { return row[c].int_value(); }
double D(const std::vector<Value>& row, size_t c) { return row[c].double_value(); }
const std::string& S(const std::vector<Value>& row, size_t c) {
  return row[c].string_value();
}

int64_t Day(int y, int m, int d) { return DaysFromCivil(y, m, d); }

// SQL LIKE with '%' wildcards only (the benchmark's patterns use no
// '_'): greedy match of the literal pieces in order.
bool Like(const std::string& text, const std::string& pattern) {
  std::vector<std::string> pieces;
  std::string cur;
  for (char c : pattern) {
    if (c == '%') {
      pieces.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  pieces.push_back(cur);
  if (pieces.size() == 1) return text == pieces[0];
  const std::string& head = pieces.front();
  const std::string& tail = pieces.back();
  if (text.size() < head.size() + tail.size()) return false;
  if (text.compare(0, head.size(), head) != 0) return false;
  if (text.compare(text.size() - tail.size(), tail.size(), tail) != 0) {
    return false;
  }
  size_t pos = head.size();
  size_t limit = text.size() - tail.size();
  for (size_t i = 1; i + 1 < pieces.size(); ++i) {
    size_t found = text.find(pieces[i], pos);
    if (found == std::string::npos || found + pieces[i].size() > limit) {
      return false;
    }
    pos = found + pieces[i].size();
  }
  return true;
}

// Customer, part, supplier and order keys are 1..n and stored in key
// order by the generator; these maps do not rely on it.
template <typename Fn>
std::unordered_map<int64_t, const std::vector<Value>*> ByKey(
    const Rows& rows, size_t key_col, Fn keep) {
  std::unordered_map<int64_t, const std::vector<Value>*> map;
  for (const auto& row : rows) {
    if (keep(row)) map[I(row, key_col)] = &row;
  }
  return map;
}

auto All() {
  return [](const std::vector<Value>&) { return true; };
}

// A global aggregate over no rows is NULL.
Rows OneSum(bool any, double sum) {
  Rows out(1);
  out[0].push_back(any ? Value::Double(sum) : Value());
  return out;
}

class Reference {
 public:
  explicit Reference(const TpchView& view)
      : d_(*view.data), deleted_(view.lineitem_deleted) {}

  template <typename Fn>
  void ForEachLine(Fn fn) const {
    for (size_t i = 0; i < d_.lineitem.size(); ++i) {
      if (deleted_ != nullptr && i < deleted_->size() && (*deleted_)[i]) {
        continue;
      }
      fn(d_.lineitem[i]);
    }
  }

  static double Revenue(const std::vector<Value>& l) {
    return D(l, col::kLPrice) * (1 - D(l, col::kLDisc));
  }

  Rows Q1() const {
    struct Agg {
      double qty = 0, base = 0, disc_price = 0, charge = 0, disc = 0;
      int64_t n = 0;
    };
    std::map<std::pair<std::string, std::string>, Agg> groups;
    int64_t cutoff = Day(1998, 9, 2);
    ForEachLine([&](const std::vector<Value>& l) {
      if (I(l, col::kLShip) > cutoff) return;
      Agg& a = groups[{S(l, col::kLFlag), S(l, col::kLStatus)}];
      double price = D(l, col::kLPrice);
      double disc = D(l, col::kLDisc);
      a.qty += D(l, col::kLQty);
      a.base += price;
      a.disc_price += price * (1 - disc);
      a.charge += price * (1 - disc) * (1 + D(l, col::kLTax));
      a.disc += disc;
      ++a.n;
    });
    Rows out;
    for (const auto& [key, a] : groups) {
      double n = static_cast<double>(a.n);
      out.push_back({Value::String(key.first), Value::String(key.second),
                     Value::Double(a.qty), Value::Double(a.base),
                     Value::Double(a.disc_price), Value::Double(a.charge),
                     Value::Double(a.qty / n), Value::Double(a.base / n),
                     Value::Double(a.disc / n), Value::Int(a.n)});
    }
    return out;
  }

  Rows Q3() const {
    int64_t cut = Day(1995, 3, 15);
    auto building = ByKey(d_.customer, 0, [](const std::vector<Value>& c) {
      return S(c, 6) == "BUILDING";
    });
    auto orders = ByKey(d_.orders, col::kOKey, [&](const std::vector<Value>& o) {
      return I(o, col::kODate) < cut && building.count(I(o, col::kOCust)) > 0;
    });
    std::map<int64_t, double> revenue;
    ForEachLine([&](const std::vector<Value>& l) {
      if (I(l, col::kLShip) <= cut) return;
      if (orders.count(I(l, col::kLOKey)) == 0) return;
      revenue[I(l, col::kLOKey)] += Revenue(l);
    });
    Rows out;
    for (const auto& [key, rev] : revenue) {
      const auto& o = *orders.at(key);
      out.push_back({Value::Int(key), Value::Double(rev), o[col::kODate],
                     o[col::kOShipPrio]});
    }
    return out;
  }

  Rows Q4() const {
    std::unordered_set<int64_t> late;
    ForEachLine([&](const std::vector<Value>& l) {
      if (I(l, col::kLCommit) < I(l, col::kLReceipt)) {
        late.insert(I(l, col::kLOKey));
      }
    });
    std::map<std::string, int64_t> counts;
    int64_t lo = Day(1993, 7, 1), hi = Day(1993, 10, 1);
    for (const auto& o : d_.orders) {
      int64_t date = I(o, col::kODate);
      if (date >= lo && date < hi && late.count(I(o, col::kOKey)) > 0) {
        ++counts[S(o, col::kOPrio)];
      }
    }
    Rows out;
    for (const auto& [prio, n] : counts) {
      out.push_back({Value::String(prio), Value::Int(n)});
    }
    return out;
  }

  Rows Q5() const {
    std::unordered_set<int64_t> asia_regions;
    for (const auto& r : d_.region) {
      if (S(r, 1) == "ASIA") asia_regions.insert(I(r, 0));
    }
    auto nations = ByKey(d_.nation, 0, [&](const std::vector<Value>& n) {
      return asia_regions.count(I(n, 2)) > 0;
    });
    auto customers = ByKey(d_.customer, 0, All());
    auto suppliers = ByKey(d_.supplier, 0, All());
    int64_t lo = Day(1994, 1, 1), hi = Day(1995, 1, 1);
    auto orders = ByKey(d_.orders, col::kOKey, [&](const std::vector<Value>& o) {
      return I(o, col::kODate) >= lo && I(o, col::kODate) < hi;
    });
    std::map<std::string, double> revenue;
    ForEachLine([&](const std::vector<Value>& l) {
      auto o = orders.find(I(l, col::kLOKey));
      if (o == orders.end()) return;
      auto c = customers.find(I(*o->second, col::kOCust));
      auto s = suppliers.find(I(l, col::kLSupp));
      if (c == customers.end() || s == suppliers.end()) return;
      int64_t nation = I(*s->second, 3);
      if (I(*c->second, 3) != nation) return;
      auto n = nations.find(nation);
      if (n == nations.end()) return;
      revenue[S(*n->second, 1)] += Revenue(l);
    });
    Rows out;
    for (const auto& [name, rev] : revenue) {
      out.push_back({Value::String(name), Value::Double(rev)});
    }
    return out;
  }

  Rows Q6() const {
    int64_t lo = Day(1994, 1, 1), hi = Day(1995, 1, 1);
    double sum = 0;
    bool any = false;
    ForEachLine([&](const std::vector<Value>& l) {
      int64_t ship = I(l, col::kLShip);
      double disc = D(l, col::kLDisc);
      if (ship >= lo && ship < hi && disc >= 0.05 && disc <= 0.07 &&
          D(l, col::kLQty) < 24) {
        sum += D(l, col::kLPrice) * disc;
        any = true;
      }
    });
    return OneSum(any, sum);
  }

  Rows Q10() const {
    auto customers = ByKey(d_.customer, 0, All());
    auto nations = ByKey(d_.nation, 0, All());
    int64_t lo = Day(1993, 10, 1), hi = Day(1994, 1, 1);
    auto orders = ByKey(d_.orders, col::kOKey, [&](const std::vector<Value>& o) {
      return I(o, col::kODate) >= lo && I(o, col::kODate) < hi;
    });
    std::map<int64_t, double> revenue;  // Keyed by customer.
    ForEachLine([&](const std::vector<Value>& l) {
      if (S(l, col::kLFlag) != "R") return;
      auto o = orders.find(I(l, col::kLOKey));
      if (o == orders.end()) return;
      revenue[I(*o->second, col::kOCust)] += Revenue(l);
    });
    Rows out;
    for (const auto& [cust, rev] : revenue) {
      const auto& c = *customers.at(cust);
      const auto& n = *nations.at(I(c, 3));
      out.push_back({c[0], c[1], Value::Double(rev), c[5], n[1], c[2], c[4],
                     c[7]});
    }
    return out;
  }

  Rows Q12() const {
    auto orders = ByKey(d_.orders, col::kOKey, All());
    int64_t lo = Day(1994, 1, 1), hi = Day(1995, 1, 1);
    std::map<std::string, std::pair<int64_t, int64_t>> counts;
    ForEachLine([&](const std::vector<Value>& l) {
      const std::string& mode = S(l, col::kLMode);
      if (mode != "MAIL" && mode != "SHIP") return;
      int64_t commit = I(l, col::kLCommit), receipt = I(l, col::kLReceipt);
      if (!(commit < receipt && I(l, col::kLShip) < commit)) return;
      if (receipt < lo || receipt >= hi) return;
      auto o = orders.find(I(l, col::kLOKey));
      if (o == orders.end()) return;
      const std::string& prio = S(*o->second, col::kOPrio);
      auto& c = counts[mode];
      if (prio == "1-URGENT" || prio == "2-HIGH") {
        ++c.first;
      } else {
        ++c.second;
      }
    });
    Rows out;
    for (const auto& [mode, c] : counts) {
      out.push_back({Value::String(mode), Value::Int(c.first),
                     Value::Int(c.second)});
    }
    return out;
  }

  Rows Q13() const {
    std::unordered_map<int64_t, int64_t> orders_of;
    for (const auto& o : d_.orders) {
      if (o[col::kOComment].is_null()) continue;
      if (Like(S(o, col::kOComment), "%special%requests%")) continue;
      ++orders_of[I(o, col::kOCust)];
    }
    std::map<int64_t, int64_t> dist;
    for (const auto& c : d_.customer) {
      auto it = orders_of.find(I(c, 0));
      ++dist[it == orders_of.end() ? 0 : it->second];
    }
    Rows out;
    for (const auto& [count, n] : dist) {
      out.push_back({Value::Int(count), Value::Int(n)});
    }
    return out;
  }

  Rows Q14() const {
    auto parts = ByKey(d_.part, 0, All());
    int64_t lo = Day(1995, 9, 1), hi = Day(1995, 10, 1);
    double promo = 0, total = 0;
    bool any = false;
    ForEachLine([&](const std::vector<Value>& l) {
      int64_t ship = I(l, col::kLShip);
      if (ship < lo || ship >= hi) return;
      auto p = parts.find(I(l, col::kLPart));
      if (p == parts.end()) return;
      double rev = Revenue(l);
      if (Like(S(*p->second, 4), "PROMO%")) promo += rev;
      total += rev;
      any = true;
    });
    return OneSum(any, 100.00 * promo / total);
  }

  Rows Q16() const {
    std::unordered_set<int64_t> complained;
    for (const auto& s : d_.supplier) {
      if (!s[6].is_null() && Like(S(s, 6), "%Customer%Complaints%")) {
        complained.insert(I(s, 0));
      }
    }
    auto parts = ByKey(d_.part, 0, [](const std::vector<Value>& p) {
      static const std::set<int64_t> kSizes = {49, 14, 23, 45, 19, 3, 36, 9};
      return S(p, 3) != "Brand#45" && !Like(S(p, 4), "MEDIUM POLISHED%") &&
             kSizes.count(I(p, 5)) > 0;
    });
    std::map<std::tuple<std::string, std::string, int64_t>, std::set<int64_t>>
        groups;
    for (const auto& ps : d_.partsupp) {
      if (complained.count(I(ps, 1)) > 0) continue;
      auto p = parts.find(I(ps, 0));
      if (p == parts.end()) continue;
      const auto& part = *p->second;
      groups[{S(part, 3), S(part, 4), I(part, 5)}].insert(I(ps, 1));
    }
    Rows out;
    for (const auto& [key, supps] : groups) {
      out.push_back({Value::String(std::get<0>(key)),
                     Value::String(std::get<1>(key)),
                     Value::Int(std::get<2>(key)),
                     Value::Int(static_cast<int64_t>(supps.size()))});
    }
    return out;
  }

  Rows Q18() const {
    std::map<int64_t, double> qty;
    ForEachLine([&](const std::vector<Value>& l) {
      qty[I(l, col::kLOKey)] += D(l, col::kLQty);
    });
    auto customers = ByKey(d_.customer, 0, All());
    Rows out;
    for (const auto& o : d_.orders) {
      auto q = qty.find(I(o, col::kOKey));
      if (q == qty.end() || !(q->second > 300)) continue;
      auto c = customers.find(I(o, col::kOCust));
      if (c == customers.end()) continue;
      out.push_back({(*c->second)[1], (*c->second)[0], o[col::kOKey],
                     o[col::kODate], o[col::kOTotal], Value::Double(q->second)});
    }
    return out;
  }

  Rows Q19() const {
    auto parts = ByKey(d_.part, 0, All());
    struct Branch {
      const char* brand;
      std::set<std::string> containers;
      double qty_lo, qty_hi;
      int64_t size_hi;
    };
    const Branch branches[] = {
        {"Brand#12", {"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5},
        {"Brand#23", {"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10},
        {"Brand#34", {"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15},
    };
    double sum = 0;
    bool any = false;
    ForEachLine([&](const std::vector<Value>& l) {
      const std::string& mode = S(l, col::kLMode);
      if (mode != "AIR" && mode != "AIR REG") return;
      if (S(l, col::kLInstruct) != "DELIVER IN PERSON") return;
      auto p = parts.find(I(l, col::kLPart));
      if (p == parts.end()) return;
      const auto& part = *p->second;
      double q = D(l, col::kLQty);
      int64_t size = I(part, 5);
      for (const Branch& b : branches) {
        if (S(part, 3) == b.brand && b.containers.count(S(part, 6)) > 0 &&
            q >= b.qty_lo && q <= b.qty_hi && size >= 1 && size <= b.size_hi) {
          sum += Revenue(l);
          any = true;
          break;
        }
      }
    });
    return OneSum(any, sum);
  }

 private:
  const tpch::TpchData& d_;
  const std::vector<uint8_t>* deleted_;
};

}  // namespace

Rows ReferenceTpch(int q, const TpchView& view) {
  Reference ref(view);
  switch (q) {
    case 1: return ref.Q1();
    case 3: return ref.Q3();
    case 4: return ref.Q4();
    case 5: return ref.Q5();
    case 6: return ref.Q6();
    case 10: return ref.Q10();
    case 12: return ref.Q12();
    case 13: return ref.Q13();
    case 14: return ref.Q14();
    case 16: return ref.Q16();
    case 18: return ref.Q18();
    case 19: return ref.Q19();
  }
  Fail("no reference for TPC-H Q" + std::to_string(q));
}

}  // namespace hana::e2e
