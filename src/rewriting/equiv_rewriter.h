#ifndef CQAC_REWRITING_EQUIV_REWRITER_H_
#define CQAC_REWRITING_EQUIV_REWRITER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ast/query.h"
#include "constraints/orders.h"
#include "engine/query_plan.h"
#include "rewriting/explain.h"
#include "rewriting/minicon.h"
#include "rewriting/structure.h"
#include "rewriting/view_set.h"
#include "runtime/cancellation.h"

namespace cqac {

class MemoCache;   // runtime/memo_cache.h
class Phase1Memo;  // runtime/memo_cache.h

/// Options controlling the equivalent-rewriting algorithm.
struct RewriteOptions {
  /// How Phase 1 step 3.4 prunes the MCD buckets against the canonical
  /// database's view tuples.
  /// Only kFrozenMatch (the default) carries the paper's Lemma 2 — that
  /// the union of Pre-Rewritings contains the query — by construction.
  /// The weaker modes exist as ablations; with them the algorithm runs an
  /// extra final containment check and may (correctly) answer
  /// kNoRewriting on inputs where the default finds one, demonstrating
  /// that the paper's pruning step 3.4 is required for completeness-with-
  /// soundness, not merely for speed.
  enum class Pruning {
    /// No pruning: every MCD stays in every bucket.
    kNone,
    /// Literal Definition 2: keep an MCD iff its view tuple is a more
    /// relaxed form of some unfrozen view tuple of the database.
    kRelaxedForm,
    /// Definition 2 grounded on the canonical database (the default):
    /// keep an MCD iff its view tuple, with query variables frozen,
    /// matches a ground view tuple.
    kFrozenMatch,
  };
  Pruning pruning = Pruning::kFrozenMatch;

  /// Simplify expansions (forced equalities, redundant comparisons,
  /// folding) before the full Phase-2 containment check — the fallback
  /// taken when the order-pinned test does not settle a check (see
  /// CheckExpansionContained).  Equivalence-preserving; dramatically
  /// reduces the number of variables the full check enumerates.
  bool simplify_expansions = true;

  /// Independently verify the produced rewriting (both containment
  /// directions on the expansions) before returning it.
  bool verify = false;

  /// Compact the output union with the exact coalescing rules of
  /// rewriting/coalesce.h (merge adjacent comparison regions, drop
  /// subsumed disjuncts with equal bodies).  Off by default so the raw
  /// one-disjunct-per-canonical-database output matches the paper's
  /// presentation.
  bool coalesce_output = false;

  /// Greedily drop output disjuncts whose expansion is covered by the
  /// remaining disjuncts' expansions.  Produces the compact unions shown
  /// in the paper's examples; costs one union-containment check per
  /// disjunct.
  bool minimize_output = false;

  /// Share Phase-1 conclusions between canonical databases with equal
  /// structural fingerprints (same unfrozen view-tuple multiset and
  /// variable-to-block map): the pruning, combination check, and
  /// Pre-Rewriting body are computed once and replayed, with only the
  /// order-dependent comparisons rebuilt per database.  Results are
  /// byte-identical either way; only the phase1_memo_* counters and wall
  /// time change.  Treated as false when `explain` is set, so traces stay
  /// complete.
  bool phase1_dedup = true;

  /// Collect a per-canonical-database trace (RewriteResult::trace),
  /// including the paper's two-column tableau.  Costs memory and a little
  /// time; off by default.
  bool explain = false;

  /// Abort (outcome kAborted) once this many canonical databases of the
  /// query have been enumerated; -1 means no limit.
  int64_t max_canonical_databases = -1;

  /// Worker threads for the canonical-database fan-out and the Phase-2
  /// containment checks of the runtime/parallel_rewriter driver.  1 (the
  /// default; also any negative value) runs every task inline on the
  /// caller's thread; 0 means std::thread::hardware_concurrency(); any
  /// other value is the pool's thread count.  Results are byte-identical
  /// regardless of the value (with a memo cache, the work counter
  /// stats.phase2_orders may differ; see runtime/parallel_rewriter.h).
  int jobs = 1;

  /// Pins the execution tier chosen by the structural classifier
  /// (rewriting/structure.h): -1 (the default) routes automatically; 0 or
  /// 1 force that tier *when its eligibility precondition holds* and
  /// fall back to the general path otherwise, so a forced sweep over an
  /// arbitrary corpus stays sound.  A testing hook — tiers are
  /// byte-compatible on results, so forcing only changes speed and the
  /// tier/tier_reason surfaced in stats.  Part of the catalog plan
  /// signature: plans compiled under different forced tiers never alias.
  int force_tier = -1;

  /// Cooperative cancellation (runtime/cancellation.h), the mechanism
  /// behind per-request deadlines in the rewrite service.  When non-null,
  /// the driver polls the token at canonical-database and Phase-2
  /// containment-check boundaries, and finalize before each minimize step
  /// and before verify, and aborts with outcome kAborted and
  /// failure_reason "cancelled" as soon as it is set.  Abort latency is
  /// therefore bounded by one work unit (one ProcessCanonicalDatabase,
  /// CheckExpansionContained or minimize step), not by the whole run.
  /// The caller keeps ownership; the token must outlive Run().
  const CancellationToken* cancel = nullptr;
};

/// The failure_reason of a run aborted through RewriteOptions::cancel;
/// distinguishes cancellation from the database-budget abort, which
/// shares RewriteOutcome::kAborted.
inline constexpr const char kCancelledReason[] = "cancelled";

/// Counters describing the work one Run() performed.
struct RewriteStats {
  int64_t canonical_databases = 0;       // total orders enumerated
  int64_t kept_canonical_databases = 0;  // on which Q computes its head
  int64_t v0_variants = 0;               // exported view variants
  int64_t mcds_formed = 0;               // MCDs over Q0/V0 (formed once)
  int64_t mcds_kept_total = 0;           // sum over kept databases
  int64_t view_tuples_total = 0;         // sum of |T_i(V)|
  int64_t phase2_checks = 0;             // expansion containment checks
  int64_t phase2_orders = 0;             // orders visited by those checks
  int64_t phase1_memo_hits = 0;          // databases served from the memo
  int64_t phase1_memo_misses = 0;        // databases computed in full

  // Tier-engine counters (rewriting/structure.h).  The T1 grid hit/miss
  // split is schedule-dependent under the pool (like the phase1_memo
  // split) and excluded from differential signatures; both are zero on a
  // T0 run.
  int64_t tier1_grid_hits = 0;    // keep verdicts replayed from the cache
  int64_t tier1_grid_misses = 0;  // grid classes evaluated in full

  // Per-phase wall time, in nanoseconds of std::chrono::steady_clock.
  // Accumulated element-wise through Merge like every other field, so
  // inline and pooled runs aggregate them identically — the *values*
  // are wall-clock measurements and naturally vary run to run.  The
  // work-summed fields (freeze/phase1/phase2) add up per-unit durations
  // across all workers, so on a parallel run phase1_ns can exceed
  // enumeration_ns (total CPU time vs. elapsed time of the fan-out loop).
  int64_t enumeration_ns = 0;  // elapsed time of the Phase-1 loop/fan-out
  int64_t freeze_ns = 0;       // sum: delta freeze + keep-test, per database
  int64_t phase1_ns = 0;       // sum: full ProcessCanonicalDatabase calls
  int64_t phase2_ns = 0;       // sum: CheckExpansionContained calls

  /// Element-wise accumulation.  The driver builds its totals exclusively
  /// through Merge, so equal work yields equal counters regardless of
  /// thread count.
  void Merge(const RewriteStats& other);
};

/// Version of the one-line JSON records emitted by `cqacsh --json` (per
/// rewrite and per batch).  Bump on any field addition, removal, or
/// meaning change; the record shapes are documented in docs/SYNTAX.md.
/// v3: per-rewrite records gained `semantic_cache_hit`, batch records the
/// `catalog_*` counter block (catalog/view_catalog.h).
/// v4: per-rewrite records gained `tier` / `tier_reason` and the per-tier
/// counters `tier1_grid_hits` / `tier1_grid_misses` /
/// `tier2_jointree_evals`; batch records aggregate the same counters
/// (rewriting/structure.h).
/// v5: per-rewrite records gained `phase2_orders` and `trace_id` (the
/// request's 128-bit trace id, obs/request_context.h); the service's
/// `counters` object caught up with the per-rewrite shape (tier fields
/// included) and responses carry top-level `trace_id` / `tier`
/// (server/protocol.h, docs/SERVICE.md).
/// v6: `tier2_jointree_evals` removed from every record with the join-tree
/// tier; `tier` is 0 or 1.
inline constexpr int kStatsJsonSchemaVersion = 6;

enum class RewriteOutcome {
  kRewritingFound,
  kNoRewriting,
  kAborted,  // max_canonical_databases exceeded
};

/// The algorithm's answer.
struct RewriteResult {
  RewriteOutcome outcome = RewriteOutcome::kNoRewriting;

  /// The equivalent rewriting (union of CQACs over the view predicates);
  /// meaningful iff `outcome == kRewritingFound`.
  UnionQuery rewriting;

  /// True when options.verify was set and the verification passed.
  bool verified = false;

  /// Human-readable explanation for kNoRewriting / kAborted.
  std::string failure_reason;

  /// Per-database trace; populated iff options.explain.
  RewriteTrace trace;

  RewriteStats stats;

  /// True when a ViewCatalog's semantic result cache served this answer
  /// without running the algorithm (catalog/view_catalog.h).  The stats
  /// then replay the original run's counters verbatim — the
  /// configuration-invariant ones are provably what a fresh run would
  /// report; the wall times and memo splits are the original run's.
  bool from_semantic_cache = false;

  /// Epoch of the catalog that produced this result; 0 when the run did
  /// not go through a catalog.
  uint64_t catalog_epoch = 0;

  /// The execution tier the run was routed to (0 = general, 1 =
  /// semi-interval) and the classifier's explanation.
  /// Purely observational: tiers are byte-compatible on everything above.
  int tier = 0;
  std::string tier_reason;
};

// ---------------------------------------------------------------------------
// Work units.
//
// The algorithm decomposes into an immutable per-run context plus two kinds
// of independent, side-effect-free work units: one per canonical database
// (Phase 1 steps 2-3.7) and one per Pre-Rewriting (the Phase-2 containment
// check).  The driver in runtime/parallel_rewriter.cc schedules these units
// inline (jobs=1) or on a thread pool and merges their outcomes in one
// fixed order, which is what makes its output byte-identical across
// thread counts by construction.
// ---------------------------------------------------------------------------

/// The database-independent setup of one run (Section 3.2): the stripped
/// query Q0, the exported view variants V0, the MiniCon buckets over them,
/// and the constant pool of query and views.  Holds references to the
/// query/views/options, which must outlive it.  Immutable after
/// construction; safe to share across threads.
struct RewriteWork {
  RewriteWork(const ConjunctiveQuery& q, const ViewSet& v,
              const RewriteOptions& o)
      : query(q), views(v), options(o), query_plan(q) {}

  const ConjunctiveQuery& query;
  const ViewSet& views;
  const RewriteOptions& options;

  /// The query compiled for repeated evaluation (the per-canonical-database
  /// keep-test).  Immutable, so sharing across worker threads is safe;
  /// each thread runs it on its own CodedEvaluator.
  QueryPlan query_plan;

  /// Unique per prepared work instance; lets per-thread caches keyed on a
  /// RewriteWork (e.g. the canonical freezer in ProcessCanonicalDatabase)
  /// detect reuse of a stack address by a different run.
  uint64_t work_id = 0;

  ConjunctiveQuery q0;                        // query without comparisons
  std::vector<ConjunctiveQuery> v0_variants;  // exported view variants
  std::vector<Mcd> mcds;                      // buckets, formed once
  std::vector<Rational> constants;            // of query and views
  int num_subgoals = 0;

  // Relations over the MCD view tuples, derived once so the per-database
  // Pre-Rewriting assembly (dedup, fold-drop, sort) works on integers
  // instead of re-comparing atoms on every kept canonical database.
  std::vector<int> mcd_dup_of;  // i -> least j with an equal view tuple
  std::vector<int> mcd_rank;    // i -> rank of its tuple among distinct ones
  std::vector<char> mcd_folds;  // i * |mcds| + j -> tuple i folds onto j

  /// The structural routing decision for this (query, views, options)
  /// triple, resolved against options.force_tier (rewriting/structure.h).
  TierDecision tier;

  /// T1 only: keep-test verdicts keyed by grid class, shared by all
  /// workers of a run and, through a catalog plan, across requests.
  std::shared_ptr<GridVerdictCache> grid_cache;
};

/// Builds the shared setup.  Deterministic for fixed inputs.
RewriteWork PrepareRewriteWork(const ConjunctiveQuery& query,
                               const ViewSet& views,
                               const RewriteOptions& options);

/// Overload reusing per-view machinery compiled ahead of time by a
/// ViewCatalog (catalog/view_catalog.h): `precompiled_v0` is the exported
/// variants of all views flattened in view order, `view_constants` the
/// views' deduplicated constant pool — both exactly what the first
/// overload would derive, so the resulting work is identical to a cold
/// build.  Either pointer may be null to fall back to deriving that part.
RewriteWork PrepareRewriteWork(
    const ConjunctiveQuery& query, const ViewSet& views,
    const RewriteOptions& options,
    const std::vector<ConjunctiveQuery>* precompiled_v0,
    const std::vector<Rational>* view_constants);

/// The shortcut every entry point takes before building a RewriteWork: a
/// query whose comparisons are contradictory computes nothing, so the
/// empty union is an equivalent rewriting.  Returns that result (verified
/// when options.verify), or nullopt when the query's comparisons are
/// satisfiable.
std::optional<RewriteResult> RewriteUnsatisfiableQuery(
    const ConjunctiveQuery& query, const ViewSet& views,
    const RewriteOptions& options);

/// Folds a finished run's counters into the global metrics registry
/// (obs/metrics.h): rewrite.* counters plus the Phase-1 memo hit/miss
/// split.  No-op unless obs::MetricsActive(); called by the driver.
void RecordRewriteMetrics(const RewriteStats& stats);

/// What Phase 1 concluded about one canonical database.
struct DatabaseOutcome {
  enum class Status {
    kSkipped,  // the query does not compute its frozen head here
    kFailed,   // no view tuples, or no covering MCD combination: the
               // paper's "no rewriting exists" short-circuit
    kKept,     // produced a Pre-Rewriting
  };
  Status status = Status::kSkipped;

  /// This database's contribution to the run counters.  Does NOT count
  /// `canonical_databases` — enumeration is the scheduler's business.
  RewriteStats stats;

  /// The Pre-Rewriting PR_i' (view tuples plus projected order
  /// constraints); set iff status == kKept.
  std::optional<ConjunctiveQuery> pre_rewriting;

  /// Set iff status == kFailed.
  std::string failure_reason;

  /// Per-database trace; populated iff options.explain.
  CanonicalDatabaseTrace trace;
};

/// Phase 1 steps 2-3.7 for a single canonical database: freeze, keep-test,
/// view tuples, bucket pruning, MiniCon existence check, Pre-Rewriting
/// assembly.  Pure function of (work, order); no shared mutable state.
///
/// `memo`, when non-null, deduplicates the pruning / combination /
/// body-assembly work across canonical databases with equal structural
/// keys (see Phase1Entry in runtime/memo_cache.h).  The memo must belong
/// to this run — its entries index into work.mcds — and sharing it across
/// worker threads is safe.  Results are byte-identical with or without it.
DatabaseOutcome ProcessCanonicalDatabase(const RewriteWork& work,
                                         const TotalOrder& order,
                                         Phase1Memo* memo = nullptr);

/// What the Phase-2 containment check concluded about one Pre-Rewriting.
struct Phase2Outcome {
  bool contained = false;
  /// Canonical databases visited by the check's containment tests: the
  /// order-pinned test's (usually one) plus, on a full check, the full
  /// test's; a memo hit adds none for the full test.
  int64_t orders_enumerated = 0;
  /// The order-pinned test did not settle the check, so the full
  /// simplify + memo + canonical test ran (counted as phase2.full_checks).
  bool full_check = false;
  bool cache_hit = false;
  int64_t wall_ns = 0;  // elapsed time of this check (incl. memo probe)
};

/// Expands `pre` with respect to the views and tests containment in the
/// query.  The expansion E is collapsed by its forced equalities (an
/// unsatisfiable E is contained); then its order-pinned part E_S — the
/// atoms all of whose variables `pre`'s total order pins, with the
/// comparisons over them — is tested first: E ⊑ E_S by the identity
/// mapping, so E_S ⊑ query settles the check.  Otherwise the full test
/// runs on E (simplified when options.simplify_expansions).  When `memo`
/// is non-null the full test's verdict is memoized under a normalized
/// (expansion, query) key — the verdict is a pure function of that key,
/// so memoization never changes results, only `orders_enumerated`.
Phase2Outcome CheckExpansionContained(const RewriteWork& work,
                                      const ConjunctiveQuery& pre,
                                      MemoCache* memo);

/// The post-Phase-2 tail of the driver: coalescing, the weakened-pruning
/// Lemma-2 check, output minimization, and optional verification.  Sets
/// result->outcome / rewriting / verified / failure_reason.  Polls
/// work.options.cancel before each minimize step and before verify; a
/// set token ends the pass with kAborted and kCancelledReason.
void FinalizeFoundRewriting(const RewriteWork& work,
                            std::vector<ConjunctiveQuery> pre_rewritings,
                            RewriteResult* result);

/// The paper's sound and complete algorithm (Section 3) for finding an
/// equivalent rewriting of a CQAC query using CQAC views, in the language
/// of unions of CQACs.
///
/// Phase 1 enumerates the canonical databases of the query (total orders
/// of its variables and all constants of query and views), keeps those on
/// which the query computes its frozen head, and builds one Pre-Rewriting
/// per database from the MiniCon MCDs of the comparison-stripped query
/// over the exported view variants, pruned against the database's view
/// tuples.  Phase 2 attaches each database's order constraints, expands
/// with respect to the views, and keeps the whole answer only if every
/// expansion is contained in the query (the two-column tableau).
class EquivalentRewriter {
 public:
  /// `memo`, when given, caches Phase-2 containment verdicts across runs
  /// (see runtime/memo_cache.h); it may be shared between concurrent
  /// rewriters.  The rewriter does not own it.
  EquivalentRewriter(ConjunctiveQuery query, ViewSet views,
                     RewriteOptions options = {}, MemoCache* memo = nullptr)
      : query_(std::move(query)),
        views_(std::move(views)),
        options_(options),
        memo_(memo) {}

  /// Runs the algorithm through ParallelRewrite (inline when
  /// options.jobs == 1).  Deterministic for fixed inputs and identical for
  /// every thread count (modulo the memo-cache caveat in
  /// runtime/parallel_rewriter.h).
  RewriteResult Run();

 private:
  ConjunctiveQuery query_;
  ViewSet views_;
  RewriteOptions options_;
  MemoCache* memo_;
};

/// Convenience entry point with default options.
RewriteResult FindEquivalentRewriting(const ConjunctiveQuery& query,
                                      const ViewSet& views);

/// Independent equivalence check used for verification and tests:
/// expands `rewriting` with respect to `views` and tests both containment
/// directions against `query`.
bool RewritingIsEquivalent(const ConjunctiveQuery& query,
                           const UnionQuery& rewriting, const ViewSet& views);

}  // namespace cqac

#endif  // CQAC_REWRITING_EQUIV_REWRITER_H_
