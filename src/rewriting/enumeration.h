#ifndef CQAC_REWRITING_ENUMERATION_H_
#define CQAC_REWRITING_ENUMERATION_H_

#include <cstdint>
#include <string>

#include "ast/query.h"
#include "rewriting/view_set.h"

namespace cqac {

/// Bounds for the naive complete-enumeration baseline.  The search space
/// is doubly exponential, so every run needs a budget.
struct EnumerationOptions {
  /// Maximum number of view atoms per candidate body.
  int max_subgoals = 2;

  /// Fresh variables available to candidates beyond the query's own
  /// variables (`_g0`, `_g1`, ...).
  int max_fresh_variables = 0;

  /// Abort after this many candidate bodies (-1 = unlimited).
  int64_t max_candidates = -1;
};

struct EnumerationResult {
  /// True when an equivalent rewriting was assembled within the bounds.
  bool found = false;

  /// The rewriting (union of CQACs); meaningful iff `found`.
  UnionQuery rewriting;

  /// True when the candidate budget ran out before an answer was reached.
  bool budget_exhausted = false;

  int64_t candidate_bodies = 0;   // bodies enumerated
  int64_t candidate_disjuncts = 0;  // body+order pairs tested

  /// One per candidate disjunct whose expansion was tested for
  /// containment in the query, plus one coverage update per accepted
  /// disjunct.  A coverage update evaluates only the new disjunct's
  /// expansion, on the query's canonical databases that no earlier
  /// accepted expansion covers (CanonicalCoverage).
  int64_t containment_checks = 0;
};

/// The "completely naive full-enumeration algorithm" the paper's Section 4
/// compares against: enumerate every candidate body of at most
/// `max_subgoals` view atoms over a fixed term pool (the query's variables,
/// the constants of query and views, and a few fresh variables); for each
/// body, enumerate every total order of its variables, keep body+order
/// disjuncts whose expansion is contained in the query, and accumulate
/// them until the union contains the query.  That last test is
/// incremental: the query's canonical databases over its constants and
/// the views' are enumerated once, and each accepted disjunct only
/// removes the ones its expansion covers.
///
/// Sound by construction, and complete relative to the bounds; its cost is
/// what makes the paper's pruned algorithm worthwhile ("a completely naive
/// full-enumeration algorithm would not have a chance ... the curves would
/// go nearly vertically").
EnumerationResult EnumerateEquivalentRewriting(const ConjunctiveQuery& query,
                                               const ViewSet& views,
                                               EnumerationOptions options = {});

}  // namespace cqac

#endif  // CQAC_REWRITING_ENUMERATION_H_
