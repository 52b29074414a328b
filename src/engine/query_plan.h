#ifndef CQAC_ENGINE_QUERY_PLAN_H_
#define CQAC_ENGINE_QUERY_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ast/query.h"

namespace cqac {

/// A conjunctive query compiled once for repeated evaluation: interned
/// variables, greedy most-constrained-first subgoal order, per-position
/// match ops (constant check / bind / consistency check), comparison
/// triggers by depth, and bound-column signatures for hash indexing.
///
/// The plan is pure data, immutable after construction and safe to share
/// across threads.  Two engines execute it, one per kind of database: the
/// row engine (PreparedQuery in evaluate.h) over arbitrary `Rational`
/// databases, and the coded columnar engine (CodedEvaluator in
/// coded_eval.h) over a CanonicalFreezer's dictionary-coded canonical
/// databases.  Callers that only evaluate on canonical databases hold a
/// QueryPlan directly.
struct QueryPlan {
  struct Op {
    enum Kind : uint8_t { kConst, kBind, kCheck };
    Kind kind;
    uint32_t slot;  // constant slot for kConst, var id otherwise
  };
  struct Subgoal {
    std::string predicate;
    int arity;
    std::vector<Op> ops;              // one per argument position
    std::vector<uint32_t> bind_vars;  // vars this subgoal binds (undo list)
    // Argument positions whose value is known before scanning candidates
    // (constants and variables bound at entry): the index key signature.
    std::vector<uint32_t> entry_cols;
  };
  struct TermRef {
    bool is_const;
    uint32_t var;    // valid when !is_const
    Rational value;  // valid when is_const
  };
  struct ComparisonRef {
    TermRef lhs, rhs;
    CompOp op;
  };

  explicit QueryPlan(const ConjunctiveQuery& q);

  uint32_t num_vars = 0;
  std::vector<Rational> constants;          // slot pool for kConst ops
  std::vector<Subgoal> subgoals;            // in search order
  std::vector<std::vector<int>> triggers;   // by depth, comparison ids
  std::vector<int> pending;                 // comparison ids never triggered
  std::vector<ComparisonRef> comparisons;
  std::vector<TermRef> head;
};

}  // namespace cqac

#endif  // CQAC_ENGINE_QUERY_PLAN_H_
