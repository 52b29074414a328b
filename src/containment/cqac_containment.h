#ifndef CQAC_CONTAINMENT_CQAC_CONTAINMENT_H_
#define CQAC_CONTAINMENT_CQAC_CONTAINMENT_H_

#include <cstdint>

#include "ast/query.h"

namespace cqac {

/// Containment and equivalence for conjunctive queries with arithmetic
/// comparisons.  Once comparisons are present, the single-containment-
/// mapping criterion of Chandra & Merlin is no longer complete; the
/// library implements the two classical complete tests the paper reviews
/// (Section 2.3):
///
/// * the **canonical-database test** (Levy–Sagiv / Klug): enumerate every
///   total order of q1's variables together with the constants of both
///   queries; for each order whose witness assignment satisfies q1's
///   comparisons, freeze q1's body into a database and require q2 to
///   compute the frozen head on it; and
///
/// * the **order-refinement implication test** (in the spirit of Gupta et
///   al. / Zhang–Özsoyoğlu): for each such total order, collapse q1 by the
///   order's equalities and require some containment mapping mu from q2's
///   ordinary subgoals into the collapsed q1 whose image mu(beta2) is
///   implied by the order — i.e. check beta1 |= OR_mu mu(beta2) by
///   exhausting the total orders that refine beta1.
///
/// Both are exponential in the number of distinct variables and constants
/// (the problem is Pi^p_2-complete in general); they are implemented
/// independently and cross-checked in the property-test suite.

/// Counters describing the work a containment test performed.
///
/// The canonical-database tests (CqacContainedCanonical /
/// CqacContainedInUnion) enumerate with the prefix-pruned,
/// symmetry-reduced tree of ForEachSatisfyingOrderPruned:
/// `orders_enumerated` counts physical callbacks (one canonical
/// representative per symmetry orbit), while `orders_satisfying`
/// accumulates orbit multiplicities — i.e. the number of satisfying
/// orders the naive enumerate-then-filter reference would visit.  The
/// implication/normalized tests use the plain enumeration, where the two
/// counters coincide.
struct ContainmentStats {
  int64_t orders_enumerated = 0;
  int64_t orders_satisfying = 0;
  /// Enumeration-tree nodes accepted / cut by a partial-order axiom check
  /// (see OrderEnumerationStats); zero for the non-pruned tests.
  int64_t nodes_visited = 0;
  int64_t nodes_pruned = 0;
};

/// q1 ⊑ q2 via the canonical-database test.
bool CqacContainedCanonical(const ConjunctiveQuery& q1,
                            const ConjunctiveQuery& q2,
                            ContainmentStats* stats = nullptr);

/// q1 ⊑ q2 via the order-refinement implication test.
bool CqacContainedImplication(const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2,
                              ContainmentStats* stats = nullptr);

/// q1 ⊑ q2 via the normalization route of Gupta et al. / Zhang–Özsoyoğlu:
/// both queries are normalized (see containment/normalization.h) so that
/// shared variables and constants live in the comparison sets, and the
/// implication beta1 |= OR_mu exists-ybar mu(beta2) is checked over the
/// satisfying total orders of q1's terms.  A third independent
/// implementation, cross-checked against the others in the test suite.
bool CqacContainedNormalized(const ConjunctiveQuery& q1,
                             const ConjunctiveQuery& q2,
                             ContainmentStats* stats = nullptr);

/// The single-containment-mapping test: true when some containment
/// mapping mu from q2 to q1 has beta1 |= mu(beta2).  Always *sound*
/// (true implies q1 ⊑ q2) but incomplete in general — completeness is
/// exactly what the multiple-mapping phenomenon breaks.  Klug showed it
/// is complete when the comparisons are left (or, symmetrically, right)
/// semi-interval, where containment drops from Pi^p_2 to NP.
bool CqacContainedSingleMapping(const ConjunctiveQuery& q1,
                                const ConjunctiveQuery& q2);

/// True when every comparison of `q` is of the form `X op c` (or `c op X`)
/// with op in {<, <=, =} — Klug's left-semi-interval fragment on which
/// CqacContainedSingleMapping is complete.
bool IsLeftSemiInterval(const ConjunctiveQuery& q);

/// q1 ⊑ q2 (canonical-database test; the library default).
bool CqacContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

/// q1 ≡ q2.
bool CqacEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

/// q ⊑ u for a union of CQACs on the right-hand side: every canonical
/// database of q (with the constants of q and of all disjuncts of u) on
/// which q's comparisons hold must have its frozen head computed by *some*
/// disjunct.  Unlike the plain-CQ case, one disjunct need not cover q by
/// itself (the paper's Example 2).
bool CqacContainedInUnion(const ConjunctiveQuery& q, const UnionQuery& u,
                          ContainmentStats* stats = nullptr);

/// p ⊑ q for unions of CQACs: every disjunct of p contained in q.
bool UnionCqacContained(const UnionQuery& p, const UnionQuery& q);

/// p ≡ q for unions of CQACs.
bool UnionCqacEquivalent(const UnionQuery& p, const UnionQuery& q);

}  // namespace cqac

#endif  // CQAC_CONTAINMENT_CQAC_CONTAINMENT_H_
