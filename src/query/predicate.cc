#include "query/predicate.h"

#include <algorithm>

#include "common/str_util.h"
#include "storage/page.h"

namespace sdw::query {

namespace {

template <typename T>
bool Compare(CompareOp op, const T& a, const T& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

// Verdict of atom `a` on the field `f` points at: a value of column a.col of
// `schema`, read the same way whatever layout the field came from.
bool EvalAtom(const Predicate::Bound::Atom& a, const storage::Schema& schema,
              const std::byte* f) {
  if (a.is_string) {
    std::string_view raw(reinterpret_cast<const char*>(f),
                         schema.column(a.col).size);
    size_t end = raw.size();
    while (end > 0 && raw[end - 1] == ' ') --end;  // kChar is space-padded
    return Compare(a.op, raw.substr(0, end), std::string_view(a.sval));
  }
  if (a.type == storage::ColumnType::kDouble) {
    double v;
    std::memcpy(&v, f, sizeof(v));
    return Compare(a.op, v, static_cast<double>(a.ival));
  }
  int64_t v;
  if (a.type == storage::ColumnType::kInt32) {
    int32_t v32;
    std::memcpy(&v32, f, sizeof(v32));
    v = v32;
  } else {
    std::memcpy(&v, f, sizeof(v));
  }
  return Compare(a.op, v, a.ival);
}

// The CNF walk over fields located by `field(col)`.
template <typename FieldFn>
bool EvalCnf(const std::vector<std::vector<Predicate::Bound::Atom>>& cnf,
             const storage::Schema& schema, FieldFn field) {
  for (const auto& clause : cnf) {
    bool any = false;
    for (const auto& a : clause) {
      if (EvalAtom(a, schema, field(a.col))) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

}  // namespace

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string AtomicPred::ToString() const {
  // Escaped: this rendering feeds predicate/plan signatures, which are
  // compared for equality — adversarial column names or string literals
  // containing the delimiter characters must not forge a collision.
  if (is_string) {
    return StrPrintf("%s%s'%s'", EscapeSigToken(column).c_str(),
                     CompareOpName(op), EscapeSigToken(sval).c_str());
  }
  return StrPrintf("%s%s%lld", EscapeSigToken(column).c_str(),
                   CompareOpName(op), static_cast<long long>(ival));
}

Predicate& Predicate::And(AtomicPred a) {
  cnf_.push_back({std::move(a)});
  return *this;
}

Predicate& Predicate::AndAnyOf(std::vector<AtomicPred> clause) {
  SDW_CHECK(!clause.empty());
  cnf_.push_back(std::move(clause));
  return *this;
}

bool Predicate::Eval(const storage::Schema& schema,
                     const std::byte* tuple) const {
  // Slow path used by non-critical code; hot loops use Bind().
  return Bind(schema).Eval(schema, tuple);
}

Predicate::Bound Predicate::Bind(const storage::Schema& schema) const {
  Bound bound;
  bound.cnf.reserve(cnf_.size());
  for (const auto& clause : cnf_) {
    std::vector<Bound::Atom> atoms;
    atoms.reserve(clause.size());
    for (const auto& a : clause) {
      const size_t col = schema.MustColumnIndex(a.column);
      atoms.push_back(
          {col, a.op, a.is_string, a.ival, a.sval, schema.column(col).type});
    }
    bound.cnf.push_back(std::move(atoms));
  }
  return bound;
}

bool Predicate::Bound::Eval(const storage::Schema& schema,
                            const std::byte* tuple) const {
  return EvalCnf(cnf, schema,
                 [&](size_t col) { return tuple + schema.offset(col); });
}

bool Predicate::Bound::EvalAt(const storage::Schema& schema,
                              const storage::Page& page, uint32_t i) const {
  // On a PAX page the field pointer lands inside the column's minipage, so
  // only the referenced columns' cache lines are touched.
  return EvalCnf(cnf, schema,
                 [&](size_t col) { return page.field(schema, col, i); });
}

std::string Predicate::Signature() const {
  std::vector<std::string> clause_sigs;
  clause_sigs.reserve(cnf_.size());
  for (const auto& clause : cnf_) {
    std::vector<std::string> atom_sigs;
    atom_sigs.reserve(clause.size());
    for (const auto& a : clause) atom_sigs.push_back(a.ToString());
    std::sort(atom_sigs.begin(), atom_sigs.end());
    clause_sigs.push_back("(" + StrJoin(atom_sigs, "|") + ")");
  }
  std::sort(clause_sigs.begin(), clause_sigs.end());
  return StrJoin(clause_sigs, "&");
}

namespace {

// True when (x op2 v2) forces (x op1 v1) for every x in a totally ordered
// domain, using open/closed bound reasoning only. No ±1 integer tightening:
// the predicate does not know the column type, and `x < 5 ⟹ x <= 4` is
// wrong for double columns, so bounds compare as written. kNe is handled
// positionally (a point complement implies only the same point complement;
// a range implies a kNe whose value lies outside the range).
template <typename T>
bool AtomImpliesOrdered(CompareOp op2, const T& v2, CompareOp op1,
                        const T& v1) {
  if (op2 == CompareOp::kNe) return op1 == CompareOp::kNe && v1 == v2;
  if (op1 == CompareOp::kNe) {
    // v1 must lie outside the set described by (op2, v2).
    switch (op2) {
      case CompareOp::kEq:
        return v2 != v1;
      case CompareOp::kLt:
        return v1 >= v2;
      case CompareOp::kLe:
        return v1 > v2;
      case CompareOp::kGt:
        return v1 <= v2;
      case CompareOp::kGe:
        return v1 < v2;
      case CompareOp::kNe:
        break;  // handled above
    }
    return false;
  }
  // Both sides are ranges (kEq is the degenerate [v,v]). Encode each as
  // lower/upper bounds with strictness and test interval inclusion.
  struct Range {
    bool has_lo = false, lo_strict = false;
    bool has_hi = false, hi_strict = false;
    const T* lo = nullptr;
    const T* hi = nullptr;
  };
  auto range_of = [](CompareOp op, const T& v) {
    Range r;
    switch (op) {
      case CompareOp::kEq:
        r = {true, false, true, false, &v, &v};
        break;
      case CompareOp::kLt:
        r = {false, false, true, true, nullptr, &v};
        break;
      case CompareOp::kLe:
        r = {false, false, true, false, nullptr, &v};
        break;
      case CompareOp::kGt:
        r = {true, true, false, false, &v, nullptr};
        break;
      case CompareOp::kGe:
        r = {true, false, false, false, &v, nullptr};
        break;
      case CompareOp::kNe:
        break;  // unreachable
    }
    return r;
  };
  const Range r2 = range_of(op2, v2);  // the narrower candidate
  const Range r1 = range_of(op1, v1);  // must enclose r2
  if (r1.has_lo) {
    if (!r2.has_lo) return false;
    if (*r2.lo < *r1.lo) return false;
    if (*r2.lo == *r1.lo && r1.lo_strict && !r2.lo_strict) return false;
  }
  if (r1.has_hi) {
    if (!r2.has_hi) return false;
    if (*r2.hi > *r1.hi) return false;
    if (*r2.hi == *r1.hi && r1.hi_strict && !r2.hi_strict) return false;
  }
  return true;
}

// (col2 op2 lit2) ⟹ (col1 op1 lit1)? Conservative: provable only for the
// same column and literal type.
bool AtomImplies(const AtomicPred& a2, const AtomicPred& a1) {
  if (a2.column != a1.column || a2.is_string != a1.is_string) return false;
  if (a2.is_string) return AtomImpliesOrdered(a2.op, a2.sval, a1.op, a1.sval);
  return AtomImpliesOrdered(a2.op, a2.ival, a1.op, a1.ival);
}

// Clause (OR of atoms) c2 implies clause c1 when every atom of c2 implies
// some atom of c1: any tuple satisfying c2 satisfies one of its atoms and
// therefore one of c1's. This is the IN-list-subset rule — a sub-list's
// every equality atom appears in the super-list.
bool ClauseImplies(const std::vector<AtomicPred>& c2,
                   const std::vector<AtomicPred>& c1) {
  for (const auto& a2 : c2) {
    bool implied = false;
    for (const auto& a1 : c1) {
      if (AtomImplies(a2, a1)) {
        implied = true;
        break;
      }
    }
    if (!implied) return false;
  }
  return true;
}

}  // namespace

bool PredicateContains(const Predicate& p1, const Predicate& p2) {
  // p2 ⟹ p1: every clause of p1 must be implied by some clause of p2 (p2
  // is a conjunction, so each of its clauses holds for any satisfying
  // tuple). An empty p1 is TRUE and contains everything.
  for (const auto& c1 : p1.cnf()) {
    bool implied = false;
    for (const auto& c2 : p2.cnf()) {
      if (ClauseImplies(c2, c1)) {
        implied = true;
        break;
      }
    }
    if (!implied) return false;
  }
  return true;
}

std::vector<std::string> Predicate::ReferencedColumns() const {
  std::vector<std::string> cols;
  for (const auto& clause : cnf_) {
    for (const auto& a : clause) {
      if (std::find(cols.begin(), cols.end(), a.column) == cols.end()) {
        cols.push_back(a.column);
      }
    }
  }
  return cols;
}

}  // namespace sdw::query
