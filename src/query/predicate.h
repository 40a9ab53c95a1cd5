// Selection predicates over a single table's tuples.
//
// Predicates are stored in a canonical conjunctive normal form: a conjunction
// of clauses, each clause a disjunction of atomic comparisons. This covers
// every predicate in the paper's workloads (equality/range on dimension
// attributes, IN-lists expressed as disjunctions) and canonicalizes cheaply,
// which Simultaneous Pipelining relies on to detect identical sub-plans.

#ifndef SDW_QUERY_PREDICATE_H_
#define SDW_QUERY_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/schema.h"

namespace sdw::storage {
class Page;
}  // namespace sdw::storage

namespace sdw::query {

/// Comparison operators for atomic predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Returns "=", "<>", "<", "<=", ">", ">=".
const char* CompareOpName(CompareOp op);

/// One comparison: column <op> literal. The literal is an int64 or a string
/// depending on the column type.
struct AtomicPred {
  std::string column;
  CompareOp op = CompareOp::kEq;
  bool is_string = false;
  int64_t ival = 0;
  std::string sval;

  static AtomicPred Int(std::string col, CompareOp op, int64_t v) {
    return {std::move(col), op, false, v, {}};
  }
  static AtomicPred Str(std::string col, CompareOp op, std::string v) {
    return {std::move(col), op, true, 0, std::move(v)};
  }

  /// "col<op>literal" canonical rendering.
  std::string ToString() const;
};

/// CNF predicate: AND of OR-clauses. An empty conjunction is TRUE.
class Predicate {
 public:
  /// The always-true predicate.
  static Predicate True() { return Predicate(); }

  /// Adds a one-atom clause (ANDed).
  Predicate& And(AtomicPred a);
  /// Adds a disjunctive clause (ANDed); must be non-empty.
  Predicate& AndAnyOf(std::vector<AtomicPred> clause);

  bool IsTrue() const { return cnf_.empty(); }
  size_t num_clauses() const { return cnf_.size(); }
  const std::vector<std::vector<AtomicPred>>& cnf() const { return cnf_; }

  /// Evaluates against a raw tuple of `schema`. Column names are resolved on
  /// first use and cached per (predicate, schema) via Bind().
  bool Eval(const storage::Schema& schema, const std::byte* tuple) const;

  /// Pre-resolved form for hot loops.
  struct Bound {
    struct Atom {
      size_t col;
      CompareOp op;
      bool is_string;
      int64_t ival;
      std::string sval;
      storage::ColumnType type;
    };
    std::vector<std::vector<Atom>> cnf;
    /// Evaluates the bound predicate on a tuple.
    bool Eval(const storage::Schema& schema, const std::byte* tuple) const;
    /// Evaluates the bound predicate on tuple `i` of `page` under either
    /// page layout, reading each field through Page::field. Eval and EvalAt
    /// share one atom body, so verdicts are identical across layouts (the
    /// columnar differential suite pins this).
    bool EvalAt(const storage::Schema& schema, const storage::Page& page,
                uint32_t i) const;
    bool IsTrue() const { return cnf.empty(); }
  };

  /// Resolves column names against `schema`; aborts on unknown columns.
  Bound Bind(const storage::Schema& schema) const;

  /// Canonical signature: clauses and atoms sorted, so logically identical
  /// predicates built in different orders produce equal strings.
  std::string Signature() const;

  /// Columns referenced by the predicate (deduplicated).
  std::vector<std::string> ReferencedColumns() const;

 private:
  std::vector<std::vector<AtomicPred>> cnf_;
};

/// Sound containment test over CNF: true only when every tuple satisfying
/// `p2` provably satisfies `p1` (p2 ⊆ p1, i.e. p1 is the weaker predicate).
/// The prover is per-clause implication — each clause of p1 must be implied
/// by some clause of p2, where a clause implies another when each of its
/// atoms implies some atom of the target clause. Atom implication compares
/// value ranges (open/closed interval bounds, so the reasoning is exact for
/// integer columns and still sound for doubles, whose literals are widened
/// at Bind time) and equality/subset structure for strings (IN-lists are
/// OR-clauses, so an IN-list subset falls out of clause implication).
/// Anything unprovable — different columns, kNe against ranges, mixed
/// types — returns a conservative `false`; the check never claims
/// containment that a tuple sweep could refute. TRUE (the empty predicate)
/// contains everything; only TRUE contains TRUE-or-weaker predicates.
bool PredicateContains(const Predicate& p1, const Predicate& p2);

}  // namespace sdw::query

#endif  // SDW_QUERY_PREDICATE_H_
