// Differential suite for structure-aware tiered execution: every tier's
// verdicts, rewritings, and invariant counters must be byte-identical to
// the forced-general path's (rewriting/structure.h).
//
// Two sweeps:
//   1. the tier lattice — auto-routed baseline, forced tier0, forced
//      tier1 (jobs=1 and jobs=4: the grid cache's sharing is
//      schedule-dependent) — over the full persistent corpus;
//   2. the same lattice over >= 500 generated cases alternating
//      semi-interval-only, comparison-free acyclic, and unrestricted
//      workloads, so the fast tier fires on both of its shapes and falls
//      back soundly elsewhere.
//
// The auto-routed baseline diffed against the forced-tier0 point IS the
// byte-compatibility proof: whatever tier the classifier picked, the
// signature must match the general path's.  Runs under the tsan label:
// the parallel point exercises the shared grid cache against the
// work-stealing driver.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/corpus.h"
#include "testing/differential.h"
#include "workload/generator.h"

namespace cqac {
namespace {

using testing::CorpusEntry;
using testing::DifferentialReport;
using testing::LatticeConfig;
using testing::LoadCorpusDir;
using testing::RunConfigLattice;

/// The tier-axis lattice.  The first point (auto routing) is the
/// baseline; tier0 supplies the general-path signature every fast tier
/// must reproduce.
std::vector<LatticeConfig> TierLattice() {
  std::vector<LatticeConfig> lattice;
  lattice.push_back(LatticeConfig{});  // auto-routed baseline
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

TEST(TierDifferentialTest, FullCorpusTierLattice) {
  std::string error;
  const auto corpus = LoadCorpusDir(CQAC_CORPUS_DIR, &error);
  ASSERT_TRUE(corpus.has_value()) << error;
  ASSERT_FALSE(corpus->empty());
  const std::vector<LatticeConfig> lattice = TierLattice();
  for (const CorpusEntry& entry : *corpus) {
    const DifferentialReport report = RunConfigLattice(entry.c, lattice);
    EXPECT_TRUE(report.ok) << entry.name << ": " << report.divergent_config
                           << "\n" << report.failure;
  }
}

/// Small tier-targeted workloads: cases 3k are semi-interval-only, 3k+1
/// comparison-free acyclic, 3k+2 unrestricted (so the var-var fallback
/// path is diffed too).  Kept tiny — at most 4 order terms — so 500 cases
/// times 4 lattice points stay well inside the test budget.
WorkloadConfig TierConfig(int i) {
  WorkloadConfig config;
  config.num_variables = 2 + i % 2;
  config.num_constants = i % 3 == 1 ? 0 : 1;
  config.num_subgoals = 2 + (i / 3) % 2;
  config.num_predicates = 2;
  config.num_query_comparisons = 1 + i % 2;
  config.num_views = 1 + i % 3;
  config.view_subgoals = 1 + i % 2;
  config.distractor_fraction = 0.25;
  config.semi_interval_only = i % 3 == 0;
  config.acyclic_only = i % 3 == 1;
  config.seed = 0x7162u + static_cast<uint64_t>(i);
  return config;
}

TEST(TierDifferentialTest, GeneratedCasesTierLattice) {
  const std::vector<LatticeConfig> lattice = TierLattice();
  constexpr int kCases = 500;
  for (int i = 0; i < kCases; ++i) {
    WorkloadGenerator generator(TierConfig(i));
    const WorkloadInstance instance = generator.Generate();
    const testing::FuzzCase c{instance.query, instance.views};
    const DifferentialReport report = RunConfigLattice(c, lattice);
    EXPECT_TRUE(report.ok)
        << "case " << i << " (" << report.divergent_config << ")\n"
        << "query: " << instance.query.ToString() << "\n"
        << report.failure;
    if (!report.ok) break;  // one shrunk-style report is enough
  }
}

}  // namespace
}  // namespace cqac
