#include "testing/differential.h"

#include <sstream>

#include "catalog/view_catalog.h"
#include "containment/homomorphism.h"
#include "engine/coded_eval.h"
#include "runtime/memo_cache.h"

namespace cqac {
namespace testing {

std::string LatticeConfig::Name() const {
  std::ostringstream out;
  out << "jobs=" << jobs;
  if (phase1_dedup) out << " dedup";
  if (memo_cache) out << " memo";
  if (legacy_orders) out << " legacy-orders";
  if (legacy_homomorphism) out << " legacy-homomorphism";
  if (row_engine) out << " row-engine";
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
    // Engine toggles, one at a time, under both schedulers.
    LatticeConfig memo;
    memo.jobs = jobs;
    memo.memo_cache = true;
    lattice.push_back(memo);
    LatticeConfig orders;
    orders.jobs = jobs;
    orders.legacy_orders = true;
    lattice.push_back(orders);
    LatticeConfig hom;
    hom.jobs = jobs;
    hom.legacy_homomorphism = true;
    lattice.push_back(hom);
    // The columnar engine is the production default, so the plain
    // jobs=1 / jobs=4 points above already exercise columnar and
    // columnar_parallel; these force the retained row engine under the
    // same schedulers, pitting the two engines per input.
    LatticeConfig row;
    row.jobs = jobs;
    row.row_engine = true;
    lattice.push_back(row);
  }
  LatticeConfig both_legacy;  // the two legacy engines interacting
  both_legacy.legacy_orders = true;
  both_legacy.legacy_homomorphism = true;
  lattice.push_back(both_legacy);
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
  LatticeConfig legacy;
  legacy.legacy_orders = true;
  legacy.legacy_homomorphism = true;
  lattice.push_back(legacy);
  LatticeConfig row;  // retained row engine vs the columnar baseline
  row.row_engine = true;
  lattice.push_back(row);
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

ScopedEngineSelection::ScopedEngineSelection(const LatticeConfig& config)
    : saved_orders_(internal::SatisfyingOrderFallbackForcedForTest()),
      saved_homomorphism_(internal::LegacyContainmentMappingForcedForTest()),
      saved_row_engine_(internal::RowEngineForced()) {
  internal::ForceSatisfyingOrderFallbackForTest(config.legacy_orders);
  internal::ForceLegacyContainmentMappingForTest(config.legacy_homomorphism);
  internal::ForceRowEngineForTest(config.row_engine);
}

ScopedEngineSelection::~ScopedEngineSelection() {
  internal::ForceSatisfyingOrderFallbackForTest(saved_orders_);
  internal::ForceLegacyContainmentMappingForTest(saved_homomorphism_);
  internal::ForceRowEngineForTest(saved_row_engine_);
}

RewriteResult RunWithConfig(const FuzzCase& c, const LatticeConfig& config) {
  ScopedEngineSelection selection(config);
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

}  // namespace testing
}  // namespace cqac
