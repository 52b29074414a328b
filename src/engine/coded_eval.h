#ifndef CQAC_ENGINE_CODED_EVAL_H_
#define CQAC_ENGINE_CODED_EVAL_H_

#include <cstdint>
#include <vector>

#include "ast/comparison.h"
#include "engine/arena.h"
#include "engine/canonical.h"
#include "engine/database.h"
#include "engine/query_plan.h"

namespace cqac {

/// The coded columnar engine: executes a QueryPlan over a
/// CanonicalFreezer's dictionary-coded ColumnarInstance.
///
/// Where the row engine (PreparedQuery) walks `Rational` tuples pointer by
/// pointer, this engine works on dense `uint32_t` codes in column-major
/// order:
///
///   - comparisons (triggers, pending resolution) are single integer
///     compares — order-preserving codes make every CompOp code-exact;
///   - candidate selection per subgoal is a batched kernel: filter one
///     column against a bound code into a selection vector, then refine
///     the selection with the remaining entry columns;
///   - subgoals over relations big enough to repay a build get a flat
///     open-addressing index over their entry-column codes (chained row
///     lists, no std::unordered_map);
///   - all per-run scratch — binding arrays, selection vectors, index
///     tables — is carved from a bump Arena with a freeze → evaluate →
///     reset lifetime, so steady-state evaluation allocates nothing.
///
/// Results are identical to Evaluate/ComputesTuple over the canonical
/// database FreezeQuery builds for the same order: matched in
/// `match_frozen_head` mode, or decoded through the dictionary in collect
/// mode (codes preserve lexicographic tuple order, so the decoded
/// Relation is byte-identical).  testing::CheckEngineReferences and
/// columnar_differential_test hold it to that.
///
/// Not thread-safe; use one per thread, alongside its freezer.
class CodedEvaluator {
 public:
  /// `plan` must outlive the evaluator.
  explicit CodedEvaluator(const QueryPlan* plan) : plan_(plan) {}

  /// Relations with at least this many rows (and a nonempty entry-column
  /// signature) get a flat hash index; smaller ones use the selection
  /// kernels or a direct scan.  Tuned by bench_columnar's crossover
  /// sweep: canonical databases (rows = subgoal count) sit far below the
  /// gate, where scans win.
  static constexpr uint32_t kIndexGate = 32;

  /// Below this row count the per-row op loop beats materializing a
  /// selection vector.
  static constexpr uint32_t kFilterGate = 8;

  /// Resolves the plan against `freezer`: subgoal relation ids (stable
  /// for the freezer's lifetime) and the codes of every plan constant.
  /// Constants absent from the dictionary are added — which recodes the
  /// freezer — so bind before the run's first Freeze when possible.
  void BindTo(CanonicalFreezer* freezer);

  /// Evaluates over `freezer`'s current columnar instance; BindTo must
  /// have been called with this freezer.  In `match_frozen_head` mode,
  /// early-exits once the frozen head is produced (code compare) and
  /// returns whether it was; otherwise collects all decoded head tuples
  /// into `*out` and returns false (mirroring PreparedQuery::Run's
  /// collect-mode return).
  bool Run(const CanonicalFreezer& freezer, bool match_frozen_head,
           Relation* out);

  /// Arena high-water mark (diagnostics; stable in steady state).
  size_t arena_high_water() const { return arena_.high_water(); }

 private:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  enum class Strategy : uint8_t { kScan, kFilter, kIndex };

  /// Per-depth execution state, rebuilt (from the arena) each Run.
  struct DepthExec {
    uint32_t rows = 0;
    const uint32_t** cols = nullptr;  // column base pointers, arity of them
    Strategy strategy = Strategy::kScan;
    uint32_t* sel = nullptr;      // selection vector (kFilter), cap rows
    uint32_t* entry_code = nullptr;  // probe codes, one per entry col
    // Flat open-addressing index (kIndex): slots_ holds bucket heads
    // (row ids, kNone = empty), next_ chains rows with equal entry keys.
    uint32_t* slots = nullptr;
    uint32_t mask = 0;
    uint32_t* next = nullptr;
  };

  void ResolveConstants(CanonicalFreezer* freezer);
  void RefreshConstantCodes(const ValueDictionary& dict);
  void BuildIndex(DepthExec* ex, const QueryPlan::Subgoal& sg);
  bool Search(size_t depth);
  bool TryRow(size_t depth, uint32_t row);
  bool EmitHead();
  bool ResolvePending();
  bool CheckTriggers(size_t depth) const;
  uint32_t EntryKeyHash(const DepthExec& ex,
                        const QueryPlan::Subgoal& sg) const;
  bool RowMatchesEntry(const DepthExec& ex, const QueryPlan::Subgoal& sg,
                       uint32_t row) const;

  const QueryPlan* plan_;
  const CanonicalFreezer* bound_freezer_ = nullptr;
  uint64_t dict_epoch_ = 0;

  // Plan-constant resolution, refreshed when the dictionary epoch moves.
  std::vector<uint32_t> rel_ids_;          // per subgoal; kNone when absent
  std::vector<uint32_t> const_codes_;      // per plan constant slot
  std::vector<uint32_t> comp_lhs_code_;    // per comparison; kNone when var
  std::vector<uint32_t> comp_rhs_code_;
  std::vector<uint32_t> head_const_code_;  // per head term; kNone when var

  Arena arena_;
  // Per-run state (arena-backed pointers and run parameters).
  DepthExec* depths_ = nullptr;
  uint32_t* var_code_ = nullptr;
  uint8_t* bound_ = nullptr;
  uint32_t* extra_code_ = nullptr;
  uint8_t* extra_bound_ = nullptr;
  uint32_t* extra_touched_ = nullptr;
  uint32_t num_extra_touched_ = 0;
  int* unresolved_ = nullptr;
  uint32_t* head_code_ = nullptr;
  bool match_mode_ = false;
  // Frozen-head codes in match mode; may be null for a zero-arity head
  // (match_mode_ is the mode signal, not this pointer).
  const uint32_t* target_codes_ = nullptr;
  const ValueDictionary* dict_ = nullptr;
  Relation* out_ = nullptr;
  bool found_ = false;
  Tuple decode_row_;  // reused decode buffer (collect mode)
};

}  // namespace cqac

#endif  // CQAC_ENGINE_CODED_EVAL_H_
