#include "containment/canonical_coverage.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "constraints/ac_solver.h"

namespace cqac {

namespace {

/// True when every constant of `d` lies in `pool`.
[[maybe_unused]] bool ConstantsInPool(const ConjunctiveQuery& d,
                                      const std::vector<Rational>& pool) {
  for (const Rational& c : d.Constants()) {
    if (std::find(pool.begin(), pool.end(), c) == pool.end()) return false;
  }
  return true;
}

}  // namespace

CanonicalDatabases::CanonicalDatabases(const ConjunctiveQuery& q,
                                       std::vector<Rational> constants)
    : variables_(q.AllVariables()),
      comparisons_(q.comparisons()),
      constants_(std::move(constants)),
      freezer_(q) {
  for (const Rational& c : q.Constants()) {
    if (std::find(constants_.begin(), constants_.end(), c) ==
        constants_.end()) {
      constants_.push_back(c);
    }
  }
  symmetry_.groups = InterchangeableVariableGroups(q);
  // Every value an order can surface is coded up front, so no Freeze
  // rebuilds the dictionary mid-run.
  freezer_.PrimeDictionary(constants_, variables_.size());
}

void CanonicalDatabases::AddQuery(const ConjunctiveQuery& d) {
  plans_.emplace_back(d);
  coded_.emplace_back(&plans_.back());
  coded_.back().BindTo(&freezer_);
}

void CanonicalDatabases::ForEachOrbit(
    const std::function<bool(const TotalOrder&, int64_t multiplicity)>& fn,
    OrderEnumerationStats* stats) const {
  ForEachSatisfyingOrderPruned(variables_, constants_, comparisons_,
                               symmetry_, fn, stats);
}

bool CanonicalDatabases::ComputedBySome(const TotalOrder& order,
                                        size_t first) {
  freezer_.Freeze(order);
  for (size_t i = first; i < coded_.size(); ++i) {
    // Run returns false for an arity-mismatched query, as ComputesTuple
    // does.
    if (coded_[i].Run(freezer_, /*match_frozen_head=*/true, nullptr)) {
      return true;
    }
  }
  return false;
}

CanonicalCoverage::CanonicalCoverage(const ConjunctiveQuery& q,
                                     const std::vector<Rational>& constants)
    : databases_(q, constants) {
  if (!AcSolver::IsSatisfiable(q.comparisons())) return;  // q is empty.
  databases_.ForEachOrbit(
      [this](const TotalOrder& order, int64_t /*multiplicity*/) {
        uncovered_.push_back(order);
        return true;
      });
}

void CanonicalCoverage::Add(const ConjunctiveQuery& d) {
  assert(ConstantsInPool(d, databases_.constants()) &&
         "CanonicalCoverage::Add: constant outside the pool");
  if (uncovered_.empty()) return;
  databases_.AddQuery(d);
  const size_t newest = databases_.num_queries() - 1;
  uncovered_.erase(std::remove_if(uncovered_.begin(), uncovered_.end(),
                                  [&](const TotalOrder& order) {
                                    return databases_.ComputedBySome(order,
                                                                     newest);
                                  }),
                   uncovered_.end());
}

}  // namespace cqac
