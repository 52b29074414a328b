#ifndef CQAC_CONTAINMENT_CANONICAL_COVERAGE_H_
#define CQAC_CONTAINMENT_CANONICAL_COVERAGE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "ast/comparison.h"
#include "ast/query.h"
#include "ast/value.h"
#include "constraints/orders.h"
#include "engine/canonical.h"
#include "engine/coded_eval.h"
#include "engine/query_plan.h"

namespace cqac {

/// The canonical databases of a query q over a constant pool, and the
/// queries evaluated on them: the engine of the canonical-database union
/// test, shared by CqacContainedInUnion and CanonicalCoverage.
class CanonicalDatabases {
 public:
  /// Merges q's own constants into `constants` and primes q's freezer
  /// with every value a total order over q's variables and the pool can
  /// surface.
  CanonicalDatabases(const ConjunctiveQuery& q,
                     std::vector<Rational> constants);

  CanonicalDatabases(const CanonicalDatabases&) = delete;
  CanonicalDatabases& operator=(const CanonicalDatabases&) = delete;

  /// The pool, q's constants included.
  const std::vector<Rational>& constants() const { return constants_; }

  /// Compiles `d` to run on these databases.
  void AddQuery(const ConjunctiveQuery& d);

  size_t num_queries() const { return coded_.size(); }

  /// Calls fn(order, multiplicity) on one satisfying total order of q's
  /// variables over the pool per orbit of interchangeable q variables
  /// (`multiplicity` is the orbit's size) until fn returns false.
  /// Swapping two interchangeable variables maps each canonical database
  /// to an identical one, so ComputedBySome is constant on every orbit
  /// and the representative decides it.
  void ForEachOrbit(
      const std::function<bool(const TotalOrder&, int64_t multiplicity)>& fn,
      OrderEnumerationStats* stats = nullptr) const;

  /// True when some query added at position `first` or later computes q's
  /// frozen head on the canonical database of `order`.  A query whose
  /// head arity differs from q's never does.
  bool ComputedBySome(const TotalOrder& order, size_t first = 0);

 private:
  std::vector<std::string> variables_;
  std::vector<Comparison> comparisons_;
  OrderSymmetry symmetry_;
  std::vector<Rational> constants_;
  CanonicalFreezer freezer_;
  // Each evaluator points at its plan, so neither container may move its
  // elements as it grows.
  std::deque<QueryPlan> plans_;
  std::deque<CodedEvaluator> coded_;
};

/// The canonical databases of a query q, over a fixed constant pool, on
/// which no query added so far computes q's frozen head: the incremental
/// form of CqacContainedInUnion.  q ⊑ d1 ∪ ... ∪ dk exactly when, after
/// Add(d1) ... Add(dk), complete() holds.  q's satisfying orders are
/// enumerated once; each Add evaluates only the new query, and only on
/// the databases still uncovered.
///
/// The canonical-database test stays exact over any constant pool that
/// contains the constants of both sides, so the verdicts are
/// CqacContainedInUnion's as long as every added query's constants lie in
/// the pool (Add's precondition).  A query with a constant outside it
/// could split a database the pool does not distinguish.
class CanonicalCoverage {
 public:
  /// Enumerates q's satisfying total orders over q's variables and
  /// `constants` (q's own constants are merged in), one per orbit.
  CanonicalCoverage(const ConjunctiveQuery& q,
                    const std::vector<Rational>& constants);

  CanonicalCoverage(const CanonicalCoverage&) = delete;
  CanonicalCoverage& operator=(const CanonicalCoverage&) = delete;

  /// Drops every uncovered database on which `d` computes q's frozen
  /// head.  Every constant of `d` must lie in the pool.
  void Add(const ConjunctiveQuery& d);

  /// True when every canonical database of q is covered.
  bool complete() const { return uncovered_.empty(); }

  /// Canonical databases (orbit representatives) still uncovered.
  int64_t uncovered() const { return static_cast<int64_t>(uncovered_.size()); }

 private:
  CanonicalDatabases databases_;
  std::vector<TotalOrder> uncovered_;
};

}  // namespace cqac

#endif  // CQAC_CONTAINMENT_CANONICAL_COVERAGE_H_
