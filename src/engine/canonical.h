#ifndef CQAC_ENGINE_CANONICAL_H_
#define CQAC_ENGINE_CANONICAL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/query.h"
#include "constraints/orders.h"
#include "engine/columnar.h"
#include "engine/database.h"
#include "engine/evaluate.h"
#include "engine/value_dict.h"

namespace cqac {

/// A canonical database of a query: the query's ordinary subgoals with
/// variables frozen to concrete rationals under some total order, together
/// with the bookkeeping needed to map values back to terms ("unfreezing").
struct CanonicalDatabase {
  Database db;

  /// The freezing assignment (query variable -> value).
  std::map<std::string, Rational> assignment;

  /// The frozen head tuple of the query.  Empty for boolean queries.
  Tuple frozen_head;

  /// Maps each value back to the representative term of its order block:
  /// the block's constant if it has one, otherwise its first variable.
  /// Values not in the map unfreeze to themselves (as constants).
  std::map<Rational, Term> unfreeze;

  /// Unfreezes a value to a term.
  Term Unfreeze(const Rational& value) const;

  /// Unfreezes a ground atom (e.g. a view tuple computed on `db`) back to
  /// an atom over the query's variables.
  Atom UnfreezeAtom(const Atom& ground) const;
};

/// Freezes `q`'s ordinary subgoals under `order`, which must cover every
/// variable of `q` (typically produced by ForEachTotalOrder over
/// `q.AllVariables()` and a superset of `q`'s constants).  The resulting
/// database ignores `q`'s comparisons; whether the order satisfies them is
/// the caller's concern (e.g. via AcSolver::SatisfiedBy or by evaluating
/// `q` on the result).
CanonicalDatabase FreezeQuery(const ConjunctiveQuery& q,
                              const TotalOrder& order);

/// The single canonical database of `q` that assigns every variable a
/// distinct value (Section 2.5 of the paper: "the canonical database of the
/// query Q when ignoring the ACs").  Fresh values are integers chosen above
/// all constants occurring in `q`.
CanonicalDatabase FreezeQueryDistinct(const ConjunctiveQuery& q);

/// Compiled canonical-database freezing for the containment hot loop: the
/// query's subgoals and head are lowered once to (relation id, value-slot)
/// form, and each Freeze call writes a total order's block values, as
/// dictionary codes, into a column-major ColumnarInstance without
/// rebuilding map/set structures.  After the first few calls no
/// allocation occurs per order.
///
/// Freezing is *incremental*: the row layout (which subgoal owns which row
/// of which relation) is fixed at construction, so consecutive Freeze
/// calls diff the new variable values against the previous order's and
/// rewrite, in place, only the rows whose variables moved.  Per-relation
/// change epochs let callers cache work derived from relations an order
/// change did not touch (see rewriting/view_tuples.h).  The produced
/// instance is a pure function of the current order — identical to what a
/// from-scratch FreezeFull yields — regardless of the call history.
///
/// Encodes exactly the tuples and frozen head FreezeQuery would (same
/// value scheme via TotalOrder::BlockValues, coded through dictionary());
/// the assignment and unfreeze maps are replaced by slot/block
/// accessors.  Not thread-safe; use one per thread.
class CanonicalFreezer {
 public:
  explicit CanonicalFreezer(const ConjunctiveQuery& q);

  /// Freezes under `order`, which must cover every variable of the query.
  /// The returned instance and frozen_head() stay valid until the next
  /// Freeze call.  Delta form: only rows touching changed variables are
  /// rewritten.
  const ColumnarInstance& Freeze(const TotalOrder& order);

  /// Freezes from scratch (every row rewritten), marking every relation
  /// changed.  Same result as Freeze; the reference for delta freezing
  /// and the "full" side of bench_phase1's delta-vs-full comparison.
  const ColumnarInstance& FreezeFull(const TotalOrder& order);

  /// The frozen head tuple of the last Freeze.  Empty for boolean queries.
  const Tuple& frozen_head() const { return frozen_head_; }

  /// The coded instance last produced by Freeze/FreezeFull: each frozen
  /// value's dictionary code, column-major, one row per subgoal.  This is
  /// what CodedEvaluator runs over.
  const ColumnarInstance& columnar() const { return columnar_; }

  /// The id of relation (`predicate`, `arity`) in columnar(), or nullopt
  /// when no subgoal of the query uses it (such a relation is empty on
  /// every canonical database).
  std::optional<uint32_t> FindRelation(const std::string& predicate,
                                       int arity) const;

  /// The dictionary coding this freezer's values.  Subgoal and head
  /// constants are interned at construction; block values are interned
  /// on first sight (forcing a recode) unless PrimeDictionary was called.
  const ValueDictionary& dictionary() const { return dict_; }

  /// frozen_head() in dictionary codes.
  const std::vector<uint32_t>& frozen_head_codes() const {
    return frozen_head_codes_;
  }

  /// Seeds the dictionary with every value any total order over at most
  /// `num_vars` variables and exactly `constants` can produce
  /// (SeedCanonicalValuePool), so no later Freeze ever triggers a
  /// mid-run rebuild — the steady-state zero-allocation guarantee of the
  /// coded path.  Call once, before the enumeration loop, with the
  /// run's merged constants (the same set handed to the order
  /// enumerator) and variable count.
  void PrimeDictionary(const std::vector<Rational>& constants,
                       size_t num_vars);

  /// Interns extra values (e.g. a prepared plan's constants) into the
  /// dictionary, recoding current state when anything was new.  Used by
  /// CodedEvaluator::BindTo.
  void AddDictionaryValues(const Rational* values, size_t n);

  /// Monotone counter: the number of Freeze/FreezeFull calls so far.
  uint64_t epoch() const { return epoch_; }

  /// The epoch at which relation `rel`'s rows last changed (0 = never).
  /// `rel` must be a relation id of columnar().
  uint64_t RelationEpoch(uint32_t rel) const { return rel_epochs_[rel]; }

  /// Slot map of the compiled query's variables (body and head variables;
  /// variables occurring only in comparisons have no slot).
  const std::unordered_map<std::string, uint32_t>& var_slots() const {
    return var_slots_;
  }
  /// Slot index -> variable name (deterministic iteration order).
  const std::vector<std::string>& slot_names() const { return slot_names_; }
  /// Slot index -> frozen value under the last order.
  const std::vector<Rational>& var_values() const { return var_values_; }
  /// Slot index -> index of the last order's block holding the variable.
  const std::vector<uint32_t>& var_blocks() const { return var_blocks_; }

  /// The last order's per-block values (strictly increasing) and
  /// representative terms (the block's constant, else its first variable).
  const std::vector<Rational>& block_values() const { return block_values_; }
  const std::vector<Term>& block_reps() const { return block_reps_; }

  /// Maps a value of the last frozen order back to its order block's
  /// representative term; values outside every block (e.g. constants
  /// introduced by a view head) unfreeze to themselves.  Same semantics as
  /// CanonicalDatabase::Unfreeze.
  Term UnfreezeValue(const Rational& value) const;

 private:
  struct CompiledTerm {
    bool is_const;
    uint32_t slot;   // variable slot when !is_const
    Rational value;  // constant value when is_const
    uint32_t code = 0;  // dictionary code of value (refreshed on rebuild)
  };
  struct CompiledSubgoal {
    uint32_t relation;
    uint32_t row;  // this subgoal's fixed row index within its relation
    std::vector<CompiledTerm> terms;
  };

  /// Refreshes block_values_/block_reps_/var_blocks_/var_values_ from
  /// `order`; when `track` is set, changed_ records which slots moved.
  /// Also resolves per-block and per-slot dictionary codes, growing the
  /// dictionary (and setting dict_rebuilt_) when a block value is new.
  void LoadOrder(const TotalOrder& order, bool track);
  void RebuildHead();
  /// Re-resolves subgoal/head constant codes after a dictionary rebuild.
  void RecodeConstTerms();
  /// Writes subgoal `sg`'s code row into the columnar instance.
  void WriteCodeRow(const CompiledSubgoal& sg);
  /// Rewrites all derived codes (slots, columnar rows, head) from the
  /// current values — used when the dictionary is rebuilt outside
  /// LoadOrder (PrimeDictionary/AddDictionaryValues after a Freeze).
  void RecodeAll();

  std::unordered_map<std::string, uint32_t> var_slots_;
  std::vector<std::string> slot_names_;
  std::vector<CompiledSubgoal> subgoals_;
  std::vector<CompiledTerm> head_;
  std::vector<std::pair<std::string, int>> relations_;  // id -> key
  std::vector<Rational> block_values_;
  std::vector<Term> block_reps_;
  std::vector<Rational> var_values_;  // slot -> value under current order
  std::vector<uint32_t> var_blocks_;  // slot -> block index
  std::vector<char> changed_;         // slot -> moved in the last delta?
  Tuple frozen_head_;
  uint64_t epoch_ = 0;
  std::vector<uint64_t> rel_epochs_;  // relation id -> last-changed epoch

  // Coded state.
  ValueDictionary dict_;
  ColumnarInstance columnar_;
  std::vector<uint32_t> block_codes_;  // block index -> code (last order)
  std::vector<uint32_t> var_codes_;    // slot -> code (last order)
  std::vector<uint32_t> frozen_head_codes_;
  bool dict_rebuilt_ = false;  // set by LoadOrder when a block value was new
};

}  // namespace cqac

#endif  // CQAC_ENGINE_CANONICAL_H_
