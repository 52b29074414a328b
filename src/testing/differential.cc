#include "testing/differential.h"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>
#include <string>

#include "catalog/view_catalog.h"
#include "containment/cqac_containment.h"
#include "containment/homomorphism.h"
#include "engine/canonical.h"
#include "engine/evaluate.h"
#include "rewriting/expansion.h"
#include "rewriting/view_tuples.h"
#include "runtime/memo_cache.h"
#include "testing/oracle.h"
#include "testing/reference_engines.h"

namespace cqac {
namespace testing {

std::string LatticeConfig::Name() const {
  std::ostringstream out;
  out << "jobs=" << jobs;
  if (phase1_dedup) out << " dedup";
  if (memo_cache) out << " memo";
  if (verify) out << " verify";
  if (use_catalog) out << " catalog";
  if (force_tier >= 0) out << " tier" << force_tier;
  return out.str();
}

RewriteOptions LatticeConfig::ToOptions() const {
  RewriteOptions options;
  options.jobs = jobs;
  options.phase1_dedup = phase1_dedup;
  options.verify = verify;
  options.force_tier = force_tier;
  return options;
}

std::vector<LatticeConfig> FullConfigLattice() {
  std::vector<LatticeConfig> lattice;
  // Serial baseline first: every other point diffs against it.
  lattice.push_back(LatticeConfig{});
  for (const int jobs : {1, 4}) {
    for (const bool dedup : {true, false}) {
      LatticeConfig c;
      c.jobs = jobs;
      c.phase1_dedup = dedup;
      if (jobs == 1 && dedup) continue;  // the baseline again
      lattice.push_back(c);
    }
    // The shared Phase-2 memo cache under both schedulers.
    LatticeConfig memo;
    memo.jobs = jobs;
    memo.memo_cache = true;
    lattice.push_back(memo);
  }
  LatticeConfig verify;  // semantic anchor
  verify.verify = true;
  lattice.push_back(verify);
  LatticeConfig catalog;  // catalog-served, replayed from the semantic cache
  catalog.use_catalog = true;
  lattice.push_back(catalog);
  LatticeConfig catalog_parallel;  // catalog plan under the parallel driver
  catalog_parallel.use_catalog = true;
  catalog_parallel.jobs = 4;
  lattice.push_back(catalog_parallel);
  // Tier lattice (rewriting/structure.h): forced-general anchor plus the
  // grid-cache tier, at jobs=1 and (its sharing is schedule-dependent)
  // jobs=4.  Ineligible inputs fall back to the general path, so every
  // point is sound on every case.
  LatticeConfig tier0;
  tier0.force_tier = 0;
  lattice.push_back(tier0);
  LatticeConfig tier1;
  tier1.force_tier = 1;
  lattice.push_back(tier1);
  LatticeConfig tier1_parallel;
  tier1_parallel.force_tier = 1;
  tier1_parallel.jobs = 4;
  lattice.push_back(tier1_parallel);
  return lattice;
}

std::vector<LatticeConfig> SmokeConfigLattice() {
  std::vector<LatticeConfig> lattice;
  lattice.push_back(LatticeConfig{});  // serial baseline
  LatticeConfig parallel;
  parallel.jobs = 4;
  parallel.memo_cache = true;
  lattice.push_back(parallel);
  LatticeConfig no_dedup;
  no_dedup.phase1_dedup = false;
  lattice.push_back(no_dedup);
  LatticeConfig verify;
  verify.verify = true;
  lattice.push_back(verify);
  LatticeConfig catalog;
  catalog.use_catalog = true;
  lattice.push_back(catalog);
  LatticeConfig tier0;  // forced-general path vs the auto-routed baseline
  tier0.force_tier = 0;
  lattice.push_back(tier0);
  LatticeConfig tier1;  // grid-cache tier vs the auto-routed baseline
  tier1.force_tier = 1;
  lattice.push_back(tier1);
  return lattice;
}

bool RunSignature::operator==(const RunSignature& other) const {
  return outcome == other.outcome && rewriting == other.rewriting &&
         failure_reason == other.failure_reason &&
         canonical_databases == other.canonical_databases &&
         kept_canonical_databases == other.kept_canonical_databases &&
         v0_variants == other.v0_variants &&
         mcds_formed == other.mcds_formed &&
         mcds_kept_total == other.mcds_kept_total &&
         view_tuples_total == other.view_tuples_total &&
         phase2_checks == other.phase2_checks;
}

std::string RunSignature::ToString() const {
  std::ostringstream out;
  out << "outcome=";
  switch (outcome) {
    case RewriteOutcome::kRewritingFound:
      out << "found";
      break;
    case RewriteOutcome::kNoRewriting:
      out << "none";
      break;
    case RewriteOutcome::kAborted:
      out << "aborted";
      break;
  }
  out << "\nrewriting=" << rewriting;
  out << "\nfailure_reason=" << failure_reason;
  out << "\ncanonical_databases=" << canonical_databases;
  out << "\nkept_canonical_databases=" << kept_canonical_databases;
  out << "\nv0_variants=" << v0_variants;
  out << "\nmcds_formed=" << mcds_formed;
  out << "\nmcds_kept_total=" << mcds_kept_total;
  out << "\nview_tuples_total=" << view_tuples_total;
  out << "\nphase2_checks=" << phase2_checks;
  return out.str();
}

RunSignature SignatureOf(const RewriteResult& result) {
  RunSignature sig;
  sig.outcome = result.outcome;
  if (result.outcome == RewriteOutcome::kRewritingFound) {
    sig.rewriting = result.rewriting.ToString();
  }
  sig.failure_reason = result.failure_reason;
  sig.canonical_databases = result.stats.canonical_databases;
  sig.kept_canonical_databases = result.stats.kept_canonical_databases;
  sig.v0_variants = result.stats.v0_variants;
  sig.mcds_formed = result.stats.mcds_formed;
  sig.mcds_kept_total = result.stats.mcds_kept_total;
  sig.view_tuples_total = result.stats.view_tuples_total;
  sig.phase2_checks = result.stats.phase2_checks;
  return sig;
}

RewriteResult RunWithConfig(const FuzzCase& c, const LatticeConfig& config) {
  if (config.use_catalog) {
    // Cold run populates the caches, warm run replays from the semantic
    // cache; returning the warm result makes the lattice diff prove the
    // replay is byte-identical to a fresh run.
    ViewCatalog catalog(c.views);
    (void)catalog.Rewrite(c.query, config.ToOptions());
    return catalog.Rewrite(c.query, config.ToOptions());
  }
  MemoCache memo(/*capacity=*/1 << 14, /*num_shards=*/4);
  EquivalentRewriter rewriter(c.query, c.views, config.ToOptions(),
                              config.memo_cache ? &memo : nullptr);
  return rewriter.Run();
}

DifferentialReport RunConfigLattice(
    const FuzzCase& c, const std::vector<LatticeConfig>& lattice) {
  DifferentialReport report;
  for (size_t i = 0; i < lattice.size(); ++i) {
    const LatticeConfig& config = lattice[i];
    RewriteResult result = RunWithConfig(c, config);
    if (config.verify && result.outcome == RewriteOutcome::kRewritingFound &&
        !result.verified) {
      report.ok = false;
      report.divergent_config = config.Name();
      report.failure =
          "verify-enabled config found a rewriting that failed its own "
          "verification:\n" +
          result.rewriting.ToString();
      return report;
    }
    const RunSignature sig = SignatureOf(result);
    if (i == 0) {
      report.baseline = sig;
      report.baseline_result = std::move(result);
      continue;
    }
    if (sig != report.baseline) {
      report.ok = false;
      report.divergent_config = config.Name();
      report.failure = "signature diverges from serial baseline\n--- baseline\n" +
                       report.baseline.ToString() + "\n--- " + config.Name() +
                       "\n" + sig.ToString();
      return report;
    }
  }
  return report;
}

namespace {

/// Appends `outcome`'s Pre-Rewriting to `pres` when the database was kept
/// and the Pre-Rewriting is new.
void CollectPreRewriting(DatabaseOutcome* outcome, std::set<std::string>* seen,
                         std::vector<ConjunctiveQuery>* pres) {
  if (outcome->status == DatabaseOutcome::Status::kKept &&
      seen->insert(outcome->pre_rewriting->ToString()).second) {
    pres->push_back(*std::move(outcome->pre_rewriting));
  }
}

}  // namespace

std::vector<ConjunctiveQuery> AllPreRewritings(const RewriteWork& work) {
  std::vector<ConjunctiveQuery> pres;
  std::set<std::string> seen;
  ForEachTotalOrder(
      work.query.AllVariables(), work.constants,
      [&](const TotalOrder& order) {
        DatabaseOutcome outcome = ProcessCanonicalDatabase(work, order);
        CollectPreRewriting(&outcome, &seen, &pres);
        return true;
      });
  return pres;
}

bool FullPathPhase2Verdict(const RewriteWork& work,
                           const ConjunctiveQuery& pre) {
  const ConjunctiveQuery expansion = Expand(pre, work.views);
  const std::optional<ConjunctiveQuery> simplified = SimplifyQuery(expansion);
  return CqacContainedCanonical(simplified.value_or(expansion), work.query);
}

Phase2Report CheckPhase2Verdicts(const FuzzCase& c) {
  Phase2Report report;
  const RewriteOptions options;
  const RewriteWork work = PrepareRewriteWork(c.query, c.views, options);
  for (const ConjunctiveQuery& pre : AllPreRewritings(work)) {
    const Phase2Outcome outcome =
        CheckExpansionContained(work, pre, /*memo=*/nullptr);
    ++report.checks;
    if (outcome.full_check) ++report.full_checks;
    const bool reference = FullPathPhase2Verdict(work, pre);
    if (outcome.contained != reference) {
      report.ok = false;
      report.failure = std::string("Phase-2 verdict ") +
                       (outcome.contained ? "contained" : "not contained") +
                       " differs from the full-path reference on " +
                       pre.ToString();
      return report;
    }
  }
  return report;
}

namespace {

/// Every mapping `engine` yields from `from` into `to`, rendered and
/// sorted: enumeration order may legitimately differ between engines,
/// the mapping set may not.
std::vector<std::string> SortedMappings(
    void (*engine)(const ConjunctiveQuery&, const ConjunctiveQuery&,
                   const std::function<bool(const Substitution&)>&),
    const ConjunctiveQuery& from, const ConjunctiveQuery& to) {
  std::vector<std::string> out;
  engine(from, to, [&out](const Substitution& s) {
    out.push_back(s.ToString());
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// Diffs the enumeration, mapping and containment engines on one
/// expansion `e` of a Pre-Rewriting against the references.  Returns the
/// first mismatch, or "" when all agree; sets `*unchecked` when the order
/// enumerations were over the size limit and skipped.
std::string CheckExpansionEngines(const ConjunctiveQuery& q,
                                  const ConjunctiveQuery& e,
                                  bool* unchecked) {
  const std::vector<std::string> production =
      SortedMappings(&ForEachContainmentMapping, q, e);
  const std::vector<std::string> reference =
      SortedMappings(&ForEachContainmentMappingReference, q, e);
  if (production != reference) {
    return "containment mappings from the query differ from the reference "
           "(" + std::to_string(production.size()) + " vs " +
           std::to_string(reference.size()) + ")";
  }

  std::vector<Rational> constants = e.Constants();
  for (const Rational& c : q.Constants()) {
    if (std::find(constants.begin(), constants.end(), c) == constants.end()) {
      constants.push_back(c);
    }
  }
  const std::vector<std::string> variables = e.AllVariables();
  if (static_cast<int>(variables.size() + constants.size()) >
      OracleOptions{}.max_order_terms) {
    *unchecked = true;
    return "";
  }

  std::vector<std::string> expected;
  ForEachSatisfyingOrderReference(variables, constants, e.comparisons(),
                                  [&expected](const TotalOrder& order) {
                                    expected.push_back(order.ToString());
                                    return true;
                                  });
  std::vector<std::string> pruned;
  bool unit_multiplicities = true;
  ForEachSatisfyingOrderPruned(
      variables, constants, e.comparisons(), OrderSymmetry{},
      [&](const TotalOrder& order, int64_t multiplicity) {
        unit_multiplicities &= multiplicity == 1;
        pruned.push_back(order.ToString());
        return true;
      });
  if (pruned != expected || !unit_multiplicities) {
    return "pruned order enumeration differs from the reference sequence "
           "(" + std::to_string(pruned.size()) + " vs " +
           std::to_string(expected.size()) + " orders)";
  }
  OrderSymmetry symmetry;
  symmetry.groups = InterchangeableVariableGroups(e);
  int64_t weighted = 0;
  ForEachSatisfyingOrderPruned(variables, constants, e.comparisons(),
                               symmetry,
                               [&weighted](const TotalOrder&, int64_t m) {
                                 weighted += m;
                                 return true;
                               });
  if (weighted != static_cast<int64_t>(expected.size())) {
    return "symmetry-reduced weighted order count " +
           std::to_string(weighted) + " differs from the reference count " +
           std::to_string(expected.size());
  }

  const bool contained = CqacContainedCanonical(e, q);
  if (contained != ReferenceContainedCanonical(e, q)) {
    return std::string("CqacContainedCanonical says ") +
           (contained ? "contained" : "not contained") +
           ", the reference canonical-database test disagrees";
  }
  return "";
}

}  // namespace

EngineReport CheckEngineReferences(const FuzzCase& c) {
  EngineReport report;
  const RewriteOptions options;
  const RewriteWork work = PrepareRewriteWork(c.query, c.views, options);
  const ConjunctiveQuery& q = work.query;

  // Phase 1: the coded keep test and view-tuple evaluator against the
  // row engine on FreezeQuery's database, one canonical database at a
  // time.  The same pass collects the Pre-Rewritings AllPreRewritings
  // would.
  std::vector<ConjunctiveQuery> pres;
  std::set<std::string> seen;
  ForEachTotalOrder(
      q.AllVariables(), work.constants, [&](const TotalOrder& order) {
        DatabaseOutcome outcome = ProcessCanonicalDatabase(work, order);
        const CanonicalDatabase cdb = FreezeQuery(q, order);
        ++report.databases;
        const bool kept = outcome.status != DatabaseOutcome::Status::kSkipped;
        if (kept != ComputesTuple(q, cdb.db, cdb.frozen_head)) {
          report.ok = false;
          report.failure = std::string("keep test ") +
                           (kept ? "kept" : "skipped") +
                           " canonical database [" + order.ToString() +
                           "], the reference disagrees";
          return false;
        }
        if (kept) {
          const int64_t total = ComputeViewTuples(work.views, cdb).total;
          if (outcome.stats.view_tuples_total != total) {
            report.ok = false;
            report.failure = "view-tuple total " +
                             std::to_string(outcome.stats.view_tuples_total) +
                             " on canonical database [" + order.ToString() +
                             "], the reference computes " +
                             std::to_string(total);
            return false;
          }
        }
        CollectPreRewriting(&outcome, &seen, &pres);
        return true;
      });
  if (!report.ok) return report;

  // Phase 2: every engine that decides a check, on each expansion.
  for (const ConjunctiveQuery& pre : pres) {
    const ConjunctiveQuery e = Expand(pre, work.views);
    ++report.expansions;
    bool unchecked = false;
    const std::string failure = CheckExpansionEngines(q, e, &unchecked);
    if (unchecked) ++report.unchecked;
    if (!failure.empty()) {
      report.ok = false;
      report.failure = failure + " on the expansion " + e.ToString() +
                       " of " + pre.ToString();
      return report;
    }
  }
  return report;
}

}  // namespace testing
}  // namespace cqac
