#ifndef CQAC_TESTING_ORACLE_H_
#define CQAC_TESTING_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ast/query.h"
#include "engine/database.h"
#include "rewriting/view_set.h"
#include "testing/corpus.h"

namespace cqac {
namespace testing {

/// A brute-force semantic oracle for `Q ≡ ∪ expansions(R)`, built from
/// first principles and deliberately independent of the containment
/// engine under test: no AcSolver, no homomorphism search, no
/// PreparedQuery, no pruned order enumeration.  Its only imports from the
/// library are the base total-order enumerator (ForEachTotalOrder, the
/// naive insertion tree), map-based query freezing (FreezeQuery), and
/// view expansion (Expand) — everything else, including query evaluation
/// and comparison satisfaction, is reimplemented here in the simplest
/// possible form.  Slow on purpose; the fuzzer keeps its inputs small.
///
/// Soundness (docs/TESTING.md spells this out in full): by the
/// Levy–Sagiv canonical-database argument, `Q1 ⊑ Q2` fails iff it fails
/// on some canonical database of Q1 — a database obtained by freezing
/// Q1's body under a total order of its variables interleaved with the
/// constants of both sides.  So checking every such database decides
/// containment exactly, and equivalence is the conjunction of the two
/// directions (for the union, "some disjunct computes the frozen head"
/// on each canonical database of Q, and each disjunct's canonical
/// databases against Q).

/// Bounds on the oracle's work.  When a budget runs out the verdict is
/// returned with `checked == false` — never a silent pass pretending the
/// input was covered.
struct OracleOptions {
  /// Canonical databases (total orders) visited per containment
  /// direction before giving up.
  int64_t max_orders = 500000;

  /// A containment direction whose order enumeration would range over
  /// more than this many distinct terms (variables + constants) is
  /// skipped as over-budget without being started (the ordered Bell
  /// numbers pass 4 million at 9 terms).
  int max_order_terms = 8;

  /// Simplify expansion disjuncts (rewriting/expansion.h SimplifyQuery)
  /// before the reverse-direction enumeration.  Equivalence-preserving
  /// and usually the difference between 3 and 10 variables; the random-
  /// database check below always evaluates the *unsimplified* expansion,
  /// so a hypothetical SimplifyQuery bug cannot hide from the oracle.
  bool simplify_expansions = true;

  /// Random-database check: how many databases, and the row budget per
  /// relation in each.
  int random_databases = 48;
  int random_max_rows = 3;
  uint64_t seed = 1;

  /// Exhaustive-database check: every database over the canonical value
  /// pool with at most this many facts in total (0 disables), capped at
  /// `max_exhaustive_databases`.
  int exhaustive_max_facts = 2;
  int64_t max_exhaustive_databases = 5000;
};

/// What an oracle check concluded.
struct OracleVerdict {
  /// False when a budget stopped the check before full coverage; `ok`
  /// then only means "no counterexample found within budget".
  bool checked = true;

  bool ok = true;

  /// Human-readable counterexample: the database, the tuple, and which
  /// side computes it.  Empty when ok.
  std::string failure;

  int64_t orders_checked = 0;
  int64_t databases_checked = 0;

  /// Merges `other` into this verdict (first failure wins).
  void Merge(const OracleVerdict& other);
};

/// The canonical value pool of a case: every constant of the query, the
/// views, and (when given) the rewriting, plus a density witness between
/// each adjacent pair and one value beyond each extreme.  Freezing any of
/// the involved queries only ever produces values from this pool's convex
/// hull, which is why databases over it suffice (see docs/TESTING.md).
std::vector<Rational> OracleValuePool(const FuzzCase& c,
                                      const UnionQuery* rewriting);

/// Reference evaluation under set semantics: recursive backtracking over
/// the body with a std::map binding, comparisons evaluated at the leaves.
/// Independent of PreparedQuery and the coded engine; oracle_test diffs
/// it against Evaluate.
Relation NaiveEvaluate(const ConjunctiveQuery& q, const Database& db);
Relation NaiveEvaluate(const UnionQuery& q, const Database& db);

/// Complete equivalence check of `query` against the expansions of
/// `rewriting` by canonical-database enumeration (both directions).
OracleVerdict CheckEquivalenceByCanonicalDatabases(
    const FuzzCase& c, const UnionQuery& rewriting,
    const OracleOptions& options = {});

/// Sampled equivalence check: random databases over the canonical value
/// pool, both sides evaluated with NaiveEvaluate and diffed; each side is
/// additionally diffed against the production evaluator (Evaluate), so a
/// compiled-evaluator bug surfaces here even when both sides of the
/// equivalence agree.
OracleVerdict CheckEquivalenceByRandomDatabases(
    const FuzzCase& c, const UnionQuery& rewriting,
    const OracleOptions& options = {});

/// Exhaustive small-database equivalence check: every database over the
/// canonical value pool with at most `exhaustive_max_facts` facts.
OracleVerdict CheckEquivalenceByExhaustiveDatabases(
    const FuzzCase& c, const UnionQuery& rewriting,
    const OracleOptions& options = {});

/// All of the above, first failure wins.  This is the oracle the fuzzer
/// and the corpus replay test call.
OracleVerdict CheckRewritingWithOracle(const FuzzCase& c,
                                       const UnionQuery& rewriting,
                                       const OracleOptions& options = {});

}  // namespace testing
}  // namespace cqac

#endif  // CQAC_TESTING_ORACLE_H_
