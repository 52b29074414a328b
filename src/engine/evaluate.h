#ifndef CQAC_ENGINE_EVALUATE_H_
#define CQAC_ENGINE_EVALUATE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/query.h"
#include "engine/database.h"
#include "engine/query_plan.h"

namespace cqac {

/// Evaluates a CQAC over a database instance under set semantics: the set
/// of head tuples produced by all satisfying assignments of the body
/// (ordinary subgoals matched against the database, comparisons evaluated
/// over the rationals).
///
/// The query must be safe; head positions holding constants emit those
/// constants.  For boolean queries the result is `{()}` (one empty tuple)
/// when the body is satisfiable on `db` and `{}` otherwise.
Relation Evaluate(const ConjunctiveQuery& q, const Database& db);

/// Evaluates a union of CQACs (the union of the disjuncts' results).
Relation Evaluate(const UnionQuery& q, const Database& db);

/// True iff `q`'s evaluation on `db` contains `head` — with early exit, so
/// this is much cheaper than `Evaluate(q, db).Contains(head)` when the
/// query has many satisfying assignments.
bool ComputesTuple(const ConjunctiveQuery& q, const Database& db,
                   const Tuple& head);

/// Union version of ComputesTuple.
bool ComputesTuple(const UnionQuery& q, const Database& db, const Tuple& head);

/// The row engine over a compiled QueryPlan: evaluates tuple at a time
/// over `Rational` values against a generic `Database`.  It backs
/// Evaluate/ComputesTuple (the shell, the semantic oracle, arbitrary
/// databases with values outside any dictionary).  Canonical databases
/// are evaluated by the coded columnar engine (coded_eval.h), which
/// executes the same plan over a CanonicalFreezer's dictionary codes.
///
/// PreparedQuery is immutable after construction and safe to share across
/// threads; all per-run state lives in a caller-owned Scratch.  Hash
/// indexes on each subgoal's bound columns are built once per (query, db)
/// run and only for relations large enough to repay the build.
class PreparedQuery {
 public:
  explicit PreparedQuery(const ConjunctiveQuery& q) : plan_(q) {}

  /// Relations smaller than this are scanned; larger ones get a hash index
  /// on the subgoal's bound columns (when it has any).
  static constexpr size_t kIndexGate = 32;

  struct Scratch {
    std::vector<Rational> values;        // var id -> value
    std::vector<char> bound;             // var id -> bound?
    std::vector<Rational> extra_values;  // bindings from ResolvePending
    std::vector<char> extra_bound;
    std::vector<uint32_t> extra_touched;
    std::vector<int> unresolved;
    Tuple head_row;
    struct DepthState {
      std::vector<const Rational*> rows;
      std::unordered_map<uint64_t, std::vector<uint32_t>> index;
      bool use_index = false;
    };
    std::vector<DepthState> depths;
    // Per-run parameters, set by Run.
    const Tuple* target = nullptr;
    Relation* out = nullptr;
    bool found = false;
  };

  /// Evaluates over `db`.  When `target` is non-null, stops as soon as the
  /// target head tuple is produced and returns whether it was found; when
  /// `out` is non-null, collects all head tuples.
  bool Run(const Database& db, const Tuple* target, Relation* out,
           Scratch* scratch) const;

 private:
  bool RunCommon(const Tuple* target, Relation* out, Scratch* scratch) const;
  void BuildIndex(size_t depth, Scratch* scratch) const;
  bool Search(size_t depth, Scratch* scratch) const;
  bool EmitHead(Scratch* scratch) const;
  bool ResolvePending(Scratch* scratch) const;
  bool CheckTriggers(size_t depth, const Scratch& scratch) const;
  uint64_t ProbeHash(const QueryPlan::Subgoal& plan,
                     const Scratch& scratch) const;

  QueryPlan plan_;
};

}  // namespace cqac

#endif  // CQAC_ENGINE_EVALUATE_H_
