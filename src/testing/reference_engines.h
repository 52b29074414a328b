#ifndef CQAC_TESTING_REFERENCE_ENGINES_H_
#define CQAC_TESTING_REFERENCE_ENGINES_H_

#include <functional>
#include <string>
#include <vector>

#include "ast/comparison.h"
#include "ast/query.h"
#include "ast/substitution.h"
#include "constraints/orders.h"

namespace cqac {
namespace testing {

/// Naive reference engines for the production enumerators.  Each one is
/// the textbook algorithm with no pruning, compilation or symmetry
/// reduction, so it is easy to trust; tests, benches and
/// CheckEngineReferences (differential.h) diff the production engines
/// against them.  No production code path calls them.

/// The enumerate-then-filter reference for ForEachSatisfyingOrderPruned:
/// walks the full ForEachTotalOrder insertion tree and tests the axioms
/// with the constraint solver at every leaf.  With empty symmetry the
/// pruned enumerator must emit exactly this sequence.  `stats` counts
/// every node of the unpruned tree (the "unpruned" side of bench_phase1's
/// node counts); every emitted order has multiplicity 1.
void ForEachSatisfyingOrderReference(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants,
    const std::vector<Comparison>& axioms,
    const std::function<bool(const TotalOrder&)>& fn,
    OrderEnumerationStats* stats = nullptr);

/// The backtracking reference for ForEachContainmentMapping: searches
/// subgoals in body order over string substitutions copied per branch.
/// It emits the same mapping *set* as the compiled engine, possibly in a
/// different order (the compiled engine reorders subgoals
/// most-constrained-first).
void ForEachContainmentMappingReference(
    const ConjunctiveQuery& from, const ConjunctiveQuery& to,
    const std::function<bool(const Substitution&)>& fn);

/// The canonical-database test for q1 ⊑ q2 built only from reference
/// parts: the reference orders over q1's variables and the constants of
/// both queries, each frozen by FreezeQuery and evaluated by
/// ComputesTuple.  The reference verdict for CqacContainedCanonical.
bool ReferenceContainedCanonical(const ConjunctiveQuery& q1,
                                 const ConjunctiveQuery& q2);

}  // namespace testing
}  // namespace cqac

#endif  // CQAC_TESTING_REFERENCE_ENGINES_H_
