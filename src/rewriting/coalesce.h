#ifndef CQAC_REWRITING_COALESCE_H_
#define CQAC_REWRITING_COALESCE_H_

#include "ast/query.h"
#include "runtime/cancellation.h"

namespace cqac {

/// Exact, semantics-preserving compaction of a union of CQACs.  The
/// algorithm's raw output carries one disjunct per canonical database, so
/// unions like
///
///   q(A) :- v(A,A), A < 8        q(P) :- free(P), P < 0
///   q(A) :- v(A,A), A = 8        q(P) :- free(P), P = 0
///                                q(P) :- free(P), 0 < P
///
/// abound.  Within groups of disjuncts sharing head and body, three exact
/// rules are applied to fixpoint:
///
///  * duplicates are dropped;
///  * a disjunct whose comparisons imply another's is subsumed by it;
///  * two disjuncts differing in exactly one comparison over the same
///    terms merge when the pair is a logical identity over a total order:
///    `< ∨ =` gives `<=`, `> ∨ =` gives `>=`, and complementary pairs
///    (`<= ∨ >`, `< ∨ >=`, `<= ∨ >=`) make the comparison vanish.
///
/// The examples above become `q(A) :- v(A,A), A <= 8` and
/// `q(P) :- free(P)`.  Every step preserves the union's semantics
/// exactly, so the result is still an equivalent rewriting.
///
/// `cancel`, when non-null, is polled before every step; once it is set
/// the pass stops and returns the union as compacted so far, which is
/// still equivalent to `u`.
UnionQuery CoalesceUnion(const UnionQuery& u,
                         const CancellationToken* cancel = nullptr);

}  // namespace cqac

#endif  // CQAC_REWRITING_COALESCE_H_
