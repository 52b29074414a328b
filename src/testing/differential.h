#ifndef CQAC_TESTING_DIFFERENTIAL_H_
#define CQAC_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rewriting/equiv_rewriter.h"
#include "testing/corpus.h"

namespace cqac {
namespace testing {

/// One point of the configuration lattice: a choice of scheduler,
/// memoization, catalog serving and execution tier.  Every point must
/// produce the same answer; the differential driver proves it per input.
/// (The production engines themselves are diffed against their
/// references by CheckEngineReferences below, not by lattice points.)
struct LatticeConfig {
  /// RewriteOptions::jobs — 1 runs the driver inline, anything else on
  /// its work-stealing pool.
  int jobs = 1;

  /// RewriteOptions::phase1_dedup — the Phase-1 fingerprint memo.
  bool phase1_dedup = true;

  /// RewriteOptions::verify — found rewritings are independently
  /// re-checked; the driver requires verified == true whenever this is on.
  bool verify = false;

  /// Serve the case through a freshly built ViewCatalog
  /// (catalog/view_catalog.h), running it twice so the second run replays
  /// from the semantic cache — the signature diffed against the baseline
  /// is the warm one, proving cached results are byte-identical.
  bool use_catalog = false;

  /// RewriteOptions::force_tier — pins the structural execution tier
  /// (rewriting/structure.h): -1 = auto routing, 0/1 forces that tier
  /// when the input is eligible (else general-path fallback).  The tier
  /// lattice points prove every tier's signature is byte-identical to the
  /// forced-general baseline.
  int force_tier = -1;

  /// E.g. "jobs=4 dedup tier1".
  std::string Name() const;

  /// The RewriteOptions this point runs under.
  RewriteOptions ToOptions() const;
};

/// The full lattice the fuzzer sweeps (10 points): serial vs parallel,
/// Phase-1 memo on/off, a verify-enabled semantic anchor, catalog
/// serving, and the forced tiers.  (Not the full cube: toggles are varied
/// one at a time against both schedulers, which still covers every
/// pairwise interaction they can have with the drivers.)
std::vector<LatticeConfig> FullConfigLattice();

/// The cheap subset for time-boxed smoke runs and corpus replay (7
/// points): serial baseline, parallel, no-dedup, verify, catalog, and
/// both forced tiers.
std::vector<LatticeConfig> SmokeConfigLattice();

/// The configuration-invariant projection of a RewriteResult.  Fields
/// excluded on purpose: stats.phase1_memo_hits/misses and the T1 grid
/// split (the very thing phase1_dedup toggles, and schedule-dependent),
/// the wall times, and trace (explain-only).  Everything here must be
/// byte-identical across the lattice — phase2_orders included, since no
/// Phase-2 verdict is ever cached.
struct RunSignature {
  RewriteOutcome outcome = RewriteOutcome::kNoRewriting;
  std::string rewriting;  // UnionQuery::ToString(), "" when not found
  std::string failure_reason;
  int64_t canonical_databases = 0;
  int64_t kept_canonical_databases = 0;
  int64_t v0_variants = 0;
  int64_t mcds_formed = 0;
  int64_t mcds_kept_total = 0;
  int64_t view_tuples_total = 0;
  int64_t phase2_checks = 0;
  int64_t phase2_orders = 0;

  bool operator==(const RunSignature& other) const;
  bool operator!=(const RunSignature& other) const {
    return !(*this == other);
  }

  /// Multi-line rendering for failure reports.
  std::string ToString() const;
};

/// Projects a result onto its invariant signature.
RunSignature SignatureOf(const RewriteResult& result);

/// Runs one lattice point on one case.
RewriteResult RunWithConfig(const FuzzCase& c, const LatticeConfig& config);

/// The verdict of a lattice sweep on one case.
struct DifferentialReport {
  bool ok = true;

  /// The signature every point must match (from the first config, the
  /// serial baseline).
  RunSignature baseline;
  RewriteResult baseline_result;

  /// Filled when ok is false: which config diverged and how.
  std::string divergent_config;
  std::string failure;
};

/// Runs every config on `c` and diffs the invariant signatures against
/// the first config's.  Also fails when a verify-enabled config reports a
/// found rewriting with verified == false.  Stops at the first
/// divergence.
DifferentialReport RunConfigLattice(const FuzzCase& c,
                                    const std::vector<LatticeConfig>& lattice);

/// Every distinct Pre-Rewriting Phase 1 builds for `work`'s query: one per
/// canonical database it keeps, in enumeration order.  Unlike the driver
/// it enumerates past a failing database, so every Phase-2 input the
/// query can produce is covered.
std::vector<ConjunctiveQuery> AllPreRewritings(const RewriteWork& work);

/// The Phase-2 verdict by the full path alone, the reference for
/// CheckExpansionContained: the canonical-database test on the simplified
/// expansion of `pre` (the raw expansion when it is unsatisfiable).
bool FullPathPhase2Verdict(const RewriteWork& work,
                           const ConjunctiveQuery& pre);

/// The verdict of CheckPhase2Verdicts on one case.
struct Phase2Report {
  bool ok = true;
  int64_t checks = 0;       // Pre-Rewritings checked
  int64_t full_checks = 0;  // of those, checks the order-pinned test left
  std::string failure;      // the first mismatch, when !ok
};

/// Runs CheckExpansionContained on every Pre-Rewriting of `c` (default
/// options) and compares each verdict with FullPathPhase2Verdict.  Stops
/// at the first mismatch.
Phase2Report CheckPhase2Verdicts(const FuzzCase& c);

/// The verdict of CheckUnitRedrive on one case.
struct RedriveReport {
  bool ok = true;
  std::string failure;  // the first mismatch, when !ok
};

/// Re-drives the rewriting of `c` (default options) through the public
/// work units, step for step as the driver runs them inline:
/// PrepareRewriteWork -> ForEachTotalOrder -> ProcessCanonicalDatabase
/// (with a run-local Phase1Memo when phase1_dedup is set) -> first-kept
/// dedup of the Pre-Rewritings by ToString() -> CheckExpansionContained
/// per Pre-Rewriting, in order -> FinalizeFoundRewriting ->
/// RenderJobResult.  This is the public work-unit contract a caller that
/// times the layers one by one relies on (perfbench's traced mode keeps
/// its own copy of the chain).  The work is prepared twice: cold, and on
/// a ViewCatalog's precompiled variants and constants.  A query with
/// unsatisfiable comparisons is answered with the empty union.  Diffs
/// each rendered text, and RunSignature, against ParallelRewrite at
/// jobs=1 and at jobs=4; stops at the first mismatch.
RedriveReport CheckUnitRedrive(const FuzzCase& c);

/// The verdict of CheckEngineReferences on one case.
struct EngineReport {
  bool ok = true;
  int64_t databases = 0;   // canonical databases of Q checked (Phase 1)
  int64_t expansions = 0;  // Pre-Rewriting expansions checked
  /// Reference order enumerations skipped because they would range over
  /// more than OracleOptions{}.max_order_terms terms.  Unchecked, never
  /// counted as a pass.
  int64_t unchecked = 0;
  std::string failure;  // the first mismatch, when !ok
};

/// Diffs the production engines of one case against the references in
/// testing/reference_engines.h, input by input (default options):
///
///   * Phase-1 keep test: for every total order of Q's variables and the
///     run's constants, ProcessCanonicalDatabase keeps the order exactly
///     when ComputesTuple(Q, FreezeQuery(Q, order).db, frozen_head);
///   * view tuples: on every kept database, the view-tuple total equals
///     ComputeViewTuples(views, FreezeQuery(Q, order)).total;
///
/// and for the expansion E of every Pre-Rewriting (AllPreRewritings):
///
///   * order enumeration: ForEachSatisfyingOrderPruned over E with
///     OrderSymmetry{} emits exactly the reference sequence, and with E's
///     InterchangeableVariableGroups its weighted count equals the
///     reference count;
///   * homomorphisms: ForEachContainmentMapping(Q, E) yields the same
///     mapping set as the reference search;
///   * Phase-2 containment: CqacContainedCanonical(E, Q) equals
///     ReferenceContainedCanonical(E, Q).
///
/// The E enumerations are skipped, and counted in `unchecked`, when E's
/// variables plus the constants exceed OracleOptions{}.max_order_terms.
/// Stops at the first mismatch.
EngineReport CheckEngineReferences(const FuzzCase& c);

}  // namespace testing
}  // namespace cqac

#endif  // CQAC_TESTING_DIFFERENTIAL_H_
