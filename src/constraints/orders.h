#ifndef CQAC_CONSTRAINTS_ORDERS_H_
#define CQAC_CONSTRAINTS_ORDERS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ast/comparison.h"
#include "ast/query.h"
#include "ast/term.h"
#include "ast/value.h"

namespace cqac {

/// One equivalence class of a total order: a set of variables, plus at most
/// one constant, that all take the same value.
struct OrderBlock {
  std::vector<std::string> variables;
  std::optional<Rational> constant;

  /// A term denoting the block's value: the constant when present,
  /// otherwise the first variable.
  Term Representative() const;
};

/// A total (pre)order over a set of variables interleaved with a fixed set
/// of constants: a sequence of blocks with strictly increasing values.
/// This is the paper's "partition + total order of its members" object from
/// the canonical-database containment test (Section 2.3).
struct TotalOrder {
  std::vector<OrderBlock> blocks;

  /// A concrete witness assignment: blocks holding a constant get that
  /// constant's value; the others get rationals strictly between their
  /// neighbors' values (density), or beyond the extremes (unboundedness).
  std::map<std::string, Rational> ToAssignment() const;

  /// The per-block values underlying ToAssignment, written into `values`
  /// (resized to blocks.size()).  Values are strictly increasing across
  /// blocks.  This is the allocation-light form used by canonical-database
  /// freezing; ToAssignment is a map-building wrapper around it.
  void BlockValues(std::vector<Rational>* values) const;

  /// The order as a conjunction of comparisons: equalities within each
  /// block and `<` between representatives of adjacent blocks.
  std::vector<Comparison> ToComparisons() const;

  /// The order restricted to `keep_vars` (constants are always kept):
  /// equalities among surviving members and `<` between adjacent surviving
  /// blocks.  Comparisons between two constants are omitted as tautologies.
  std::vector<Comparison> ProjectedComparisons(
      const std::vector<std::string>& keep_vars) const;

  /// Renders as e.g. `X = Y < 3 < Z`.
  std::string ToString() const;
};

/// Invokes `fn` once for every total order of `variables` interleaved with
/// `constants` (which must be duplicate-free; they are sorted internally).
/// Distinct constants never share a block and always appear in ascending
/// order.  Enumeration stops early when `fn` returns false.
///
/// The number of orders grows like the ordered Bell numbers (1, 3, 13, 75,
/// 541, 4683, 47293, ... for 1..7 variables with no constants), which is
/// the source of the algorithm's exponential behavior in the number of
/// distinct variables and constants — exactly the growth the paper's
/// Figure 4 plots.
void ForEachTotalOrder(const std::vector<std::string>& variables,
                       const std::vector<Rational>& constants,
                       const std::function<bool(const TotalOrder&)>& fn);

/// Materializes all total orders.  Convenient for tests; prefer
/// ForEachTotalOrder in algorithmic code.
std::vector<TotalOrder> EnumerateTotalOrders(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants);

/// Like ForEachTotalOrder, but only visits orders whose witness assignment
/// satisfies `axioms`, pruning inconsistent prefixes during construction:
/// a partial placement whose order constraints already contradict the
/// axioms can never extend to a satisfying order.  When the axioms chain
/// most variables (e.g. the expanded Pre-Rewritings of Phase 2, which
/// carry a full total order over the query's variables), this visits a
/// tiny fraction of the ordered-Bell-many orders.
///
/// `constants` must include every constant occurring in `axioms`;
/// otherwise an axiom's truth is not determined by the order and the
/// enumeration may miss satisfying orders.
void ForEachSatisfyingOrder(const std::vector<std::string>& variables,
                            const std::vector<Rational>& constants,
                            const std::vector<Comparison>& axioms,
                            const std::function<bool(const TotalOrder&)>& fn);

/// Counters for one satisfying-order enumeration.  A "node" is a state of
/// the enumeration tree: the root (constants only) plus every accepted
/// placement of a variable into a partial order.  A candidate placement
/// rejected by an axiom check before recursion counts as pruned; one
/// skipped by the canonical-prefix symmetry restriction counts as
/// symmetry-skipped (its whole subtree is represented by a sibling).
struct OrderEnumerationStats {
  int64_t nodes_visited = 0;
  int64_t nodes_pruned = 0;
  int64_t nodes_symmetry_skipped = 0;
  /// Orders handed to the callback (one canonical representative per
  /// symmetry orbit).
  int64_t orders_emitted = 0;
  /// Sum of the emitted orders' multiplicities: the number of satisfying
  /// orders the naive enumerate-then-filter reference would visit.
  int64_t orders_weighted = 0;
};

/// Disjoint groups of pairwise interchangeable variables: the caller
/// asserts that renaming any group member to any other (a transposition,
/// and hence any permutation within a group) does not change whatever
/// verdict it derives from an order.  Members that also occur in the
/// axioms or outside `variables` are ignored for safety.
struct OrderSymmetry {
  std::vector<std::vector<std::string>> groups;
};

/// The prefix-pruned, symmetry-reduced enumeration tree behind
/// ForEachSatisfyingOrder.
///
/// Each axiom is checked against the *partial* block sequence the moment
/// its second endpoint is placed (a block chain totally orders everything
/// already placed, and later insertions never change the relative order of
/// two placed terms), so a violating subtree is cut at its root instead of
/// being walked and filtered at the leaves.  Axioms are first closed under
/// transitivity (through constants too), which lets the tree also cut
/// placements that only *implied* constraints forbid.
///
/// Orders differing only by a permutation of variables within one
/// `symmetry` group are collapsed to a single canonical representative
/// (group members appear in nondecreasing block position, in group order);
/// `fn` receives the orbit size as `multiplicity`.  With empty `symmetry`,
/// every multiplicity is 1 and the emitted sequence is exactly the
/// ForEachSatisfyingOrder sequence.
///
/// When an axiom mentions a constant outside `constants` or a variable
/// outside `variables`, positional checks cannot decide it; the
/// enumeration falls back to a solver-based filter per node and ignores
/// `symmetry` (every multiplicity is 1).
void ForEachSatisfyingOrderPruned(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants,
    const std::vector<Comparison>& axioms, const OrderSymmetry& symmetry,
    const std::function<bool(const TotalOrder&, int64_t multiplicity)>& fn,
    OrderEnumerationStats* stats = nullptr);

/// Groups of `query` variables that are interchangeable for any
/// order-based verdict: non-head variables that occur in no comparison and
/// whose pairwise swap leaves the body atom multiset unchanged (a
/// structural automorphism).  Swapping two such variables maps every
/// canonical database of `query` to an identical one, so any per-order
/// predicate — head computation by an arbitrary second query included —
/// is constant on each orbit.  Suitable as OrderSymmetry::groups for
/// enumerations over this query's variables.
std::vector<std::vector<std::string>> InterchangeableVariableGroups(
    const ConjunctiveQuery& query);

/// The number of total orders of `num_variables` variables with no
/// constants (ordered Bell / Fubini number).  Saturates at INT64_MAX.
int64_t CountTotalOrders(int num_variables);

}  // namespace cqac

#endif  // CQAC_CONSTRAINTS_ORDERS_H_
