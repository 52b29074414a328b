// Unit tests for the structural tier classifier, the forced-tier
// resolution, and the grid-class key construction (rewriting/structure.h).
// Every classifier boundary the tiers depend on gets a case: a single
// var-var comparison among semi-intervals, a var-var comparison on a
// view, zero comparisons, and unsatisfiable comparisons.

#include "rewriting/structure.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/orders.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/view_set.h"

namespace cqac {
namespace {

ViewSet Views(std::initializer_list<const char*> rules) {
  ViewSet views;
  for (const char* r : rules) views.Add(Parser::MustParseRule(r));
  return views;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// ClassifyStructure boundaries.

TEST(ClassifyStructureTest, SemiIntervalComparisonsRouteToTier1) {
  const TierDecision d = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), X < 5, Y > 2"),
      Views({"v0(A,B) :- p(A,B), A < 5"}));
  EXPECT_EQ(d.tier, ExecutionTier::kSemiInterval);
  EXPECT_TRUE(d.semi_interval_eligible);
  EXPECT_TRUE(Contains(d.reason, "semi-interval")) << d.reason;
}

TEST(ClassifyStructureTest, OneVarVarComparisonAmongSemiIntervalsBlocksTier1) {
  // Everything else is var-vs-const; the single X < Y must be named as
  // the blocker.
  const TierDecision d = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), X < 5, Y > 2, X < Y"),
      Views({"v0(A,B) :- p(A,B), A < 5"}));
  EXPECT_EQ(d.tier, ExecutionTier::kGeneral);
  EXPECT_FALSE(d.semi_interval_eligible);
  EXPECT_TRUE(Contains(d.reason, "X < Y")) << d.reason;
  EXPECT_TRUE(Contains(d.reason, "on the query")) << d.reason;
}

TEST(ClassifyStructureTest, VarVarComparisonOnViewBlocksTier1) {
  const TierDecision d = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), X < 5"),
      Views({"v0(A,B) :- p(A,B), A <= B"}));
  EXPECT_EQ(d.tier, ExecutionTier::kGeneral);
  EXPECT_FALSE(d.semi_interval_eligible);
  EXPECT_TRUE(Contains(d.reason, "on a view")) << d.reason;
}

TEST(ClassifyStructureTest, ComparisonFreeRoutesToTier1) {
  // Zero comparisons are vacuously semi-interval, acyclic body or not.
  for (const char* query :
       {"q(X) :- p(X,Y), r(Y)", "q(X) :- p(X,Y), p(Y,Z), p(Z,X)"}) {
    const TierDecision d = ClassifyStructure(
        Parser::MustParseRule(query),
        Views({"v0(A,B) :- p(A,B)", "v1(B) :- r(B)"}));
    EXPECT_EQ(d.tier, ExecutionTier::kSemiInterval) << query;
    EXPECT_TRUE(d.semi_interval_eligible) << query;
    EXPECT_TRUE(Contains(d.reason, "comparison-free")) << d.reason;
  }
}

TEST(ClassifyStructureTest, SemiIntervalViewComparisonKeepsTier1) {
  const TierDecision d = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y)"),
      Views({"v0(A,B) :- p(A,B), A < 5", "v1(B) :- r(B)"}));
  EXPECT_EQ(d.tier, ExecutionTier::kSemiInterval);
  EXPECT_TRUE(d.semi_interval_eligible);
  EXPECT_TRUE(Contains(d.reason, "var-vs-const")) << d.reason;
}

TEST(ClassifyStructureTest, UnsatisfiableSemiIntervalsStillClassifyTier1) {
  // Classification is purely syntactic; the rewriter's unsat shortcut
  // (tested below) fires before the tier machinery matters.
  const TierDecision d = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), X < 1, X > 2"),
      Views({"v0(A,B) :- p(A,B)"}));
  EXPECT_EQ(d.tier, ExecutionTier::kSemiInterval);
}

// ---------------------------------------------------------------------------
// ResolveTier: forcing honors eligibility, never overrides it.

TEST(ResolveTierTest, AutoPassesClassificationThrough) {
  const TierDecision classified = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y)"),
      Views({"v0(A,B) :- p(A,B)"}));
  const TierDecision d = ResolveTier(classified, -1);
  EXPECT_EQ(d.tier, classified.tier);
  EXPECT_EQ(d.reason, classified.reason);
}

TEST(ResolveTierTest, ForcedGeneralAlwaysApplies) {
  const TierDecision classified = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y)"),
      Views({"v0(A,B) :- p(A,B)"}));
  const TierDecision d = ResolveTier(classified, 0);
  EXPECT_EQ(d.tier, ExecutionTier::kGeneral);
  EXPECT_TRUE(Contains(d.reason, "forced tier0")) << d.reason;
  // Eligibility is reported unchanged: forcing routes, it does not
  // reclassify.
  EXPECT_TRUE(d.semi_interval_eligible);
}

TEST(ResolveTierTest, ForcedTierHonoredWhenEligible) {
  const TierDecision classified = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), X < 5"),
      Views({"v0(A,B) :- p(A,B)"}));
  EXPECT_EQ(ResolveTier(classified, 1).tier, ExecutionTier::kSemiInterval);
}

TEST(ResolveTierTest, IneligibleForcedTierFallsBackToGeneral) {
  // Var-var comparison: the fast tier may not apply, forced or not.
  const TierDecision classified = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), X < Y"),
      Views({"v0(A,B) :- p(A,B)"}));
  const TierDecision d = ResolveTier(classified, 1);
  EXPECT_EQ(d.tier, ExecutionTier::kGeneral);
  EXPECT_TRUE(Contains(d.reason, "falling back")) << d.reason;
  EXPECT_TRUE(Contains(d.reason, "X < Y")) << d.reason;
}

TEST(ResolveTierTest, RemovedTierTwoFallsBackToGeneral) {
  const TierDecision classified = ClassifyStructure(
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y)"),
      Views({"v0(A,B) :- p(A,B)"}));
  const TierDecision d = ResolveTier(classified, 2);
  EXPECT_EQ(d.tier, ExecutionTier::kGeneral);
  EXPECT_TRUE(Contains(d.reason, "unknown forced tier 2")) << d.reason;
}

// ---------------------------------------------------------------------------
// GridVerdictCache: the key is the grid class, nothing more.

TotalOrder MakeOrder(std::initializer_list<OrderBlock> blocks) {
  TotalOrder order;
  for (const OrderBlock& b : blocks) order.blocks.push_back(b);
  return order;
}

OrderBlock VarBlock(std::initializer_list<const char*> vars) {
  OrderBlock b;
  for (const char* v : vars) b.variables.emplace_back(v);
  return b;
}

OrderBlock ConstBlock(int value) {
  OrderBlock b;
  b.constant = Rational(value);
  return b;
}

TEST(GridVerdictCacheTest, IntraCellBlockRankIsQuotientedAway) {
  const GridVerdictCache cache({"X", "Y"});
  // X < Y < 5 and Y < X < 5: same partition, both blocks below the
  // constant — one grid class.
  std::string k1, k2;
  cache.BuildKey(
      MakeOrder({VarBlock({"X"}), VarBlock({"Y"}), ConstBlock(5)}), &k1);
  cache.BuildKey(
      MakeOrder({VarBlock({"Y"}), VarBlock({"X"}), ConstBlock(5)}), &k2);
  EXPECT_EQ(k1, k2);
}

TEST(GridVerdictCacheTest, CellCrossingChangesTheKey) {
  const GridVerdictCache cache({"X", "Y"});
  std::string below, above;
  cache.BuildKey(
      MakeOrder({VarBlock({"X"}), VarBlock({"Y"}), ConstBlock(5)}), &below);
  cache.BuildKey(
      MakeOrder({VarBlock({"X"}), ConstBlock(5), VarBlock({"Y"})}), &above);
  EXPECT_NE(below, above);
}

TEST(GridVerdictCacheTest, PartitionChangesTheKey) {
  const GridVerdictCache cache({"X", "Y"});
  std::string merged, split;
  cache.BuildKey(MakeOrder({VarBlock({"X", "Y"}), ConstBlock(5)}), &merged);
  cache.BuildKey(
      MakeOrder({VarBlock({"X"}), VarBlock({"Y"}), ConstBlock(5)}), &split);
  EXPECT_NE(merged, split);
}

TEST(GridVerdictCacheTest, VariableAtConstantSharesTheConstantCell) {
  const GridVerdictCache cache({"X"});
  // X = 5 (variable in the constant's block) vs X just below 5: distinct
  // cells, distinct keys.
  std::string at, below;
  OrderBlock pinned = ConstBlock(5);
  pinned.variables.emplace_back("X");
  cache.BuildKey(MakeOrder({pinned}), &at);
  cache.BuildKey(MakeOrder({VarBlock({"X"}), ConstBlock(5)}), &below);
  EXPECT_NE(at, below);
}

TEST(GridVerdictCacheTest, FirstWriterWins) {
  GridVerdictCache cache({"X"});
  std::string key;
  cache.BuildKey(MakeOrder({VarBlock({"X"}), ConstBlock(5)}), &key);
  EXPECT_FALSE(cache.Get(key).has_value());
  cache.Put(key, false);
  cache.Put(key, true);  // no-op: verdicts are pure functions of the key
  ASSERT_TRUE(cache.Get(key).has_value());
  EXPECT_FALSE(*cache.Get(key));
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: the rewriter reports the routed tier and its counters, and
// forced tiers return the identical rewriting.

RewriteResult RunWithForcedTier(const char* query, ViewSet views, int tier) {
  RewriteOptions options;
  options.force_tier = tier;
  EquivalentRewriter rewriter(Parser::MustParseRule(query), std::move(views),
                              options);
  return rewriter.Run();
}

TEST(TieredRewriteTest, SemiIntervalCaseRoutesToTier1AndMatchesGeneral) {
  const char* query = "q(A) :- p(A,B), A <= 5";
  const RewriteResult general =
      RunWithForcedTier(query, Views({"v0(A,B) :- p(A,B), A <= 5"}), 0);
  const RewriteResult routed =
      RunWithForcedTier(query, Views({"v0(A,B) :- p(A,B), A <= 5"}), -1);
  EXPECT_EQ(routed.tier, 1);
  EXPECT_EQ(general.tier, 0);
  EXPECT_EQ(routed.outcome, general.outcome);
  EXPECT_EQ(routed.rewriting.ToString(), general.rewriting.ToString());
  EXPECT_EQ(routed.stats.kept_canonical_databases,
            general.stats.kept_canonical_databases);
  // The grid cache actually ran: every enumerated order probed it.
  EXPECT_GT(routed.stats.tier1_grid_misses, 0);
  EXPECT_EQ(general.stats.tier1_grid_misses, 0);
}

TEST(TieredRewriteTest, ComparisonFreeCaseRoutesToTier1AndMatchesGeneral) {
  const char* query = "q(A) :- p(A,B), r(B)";
  const auto views = [] {
    return Views({"v0(A,B) :- p(A,B)", "v1(B) :- r(B)"});
  };
  const RewriteResult general = RunWithForcedTier(query, views(), 0);
  const RewriteResult routed = RunWithForcedTier(query, views(), -1);
  EXPECT_EQ(routed.tier, 1);
  EXPECT_EQ(routed.outcome, general.outcome);
  EXPECT_EQ(routed.rewriting.ToString(), general.rewriting.ToString());
  EXPECT_EQ(routed.stats.kept_canonical_databases,
            general.stats.kept_canonical_databases);
  EXPECT_GT(routed.stats.tier1_grid_misses, 0);
  EXPECT_EQ(general.stats.tier1_grid_misses, 0);
}

TEST(TieredRewriteTest, UnsatisfiableComparisonsShortCircuitAsTier0) {
  const RewriteResult result = RunWithForcedTier(
      "q(X) :- p(X,Y), X < 1, X > 2", Views({"v0(A,B) :- p(A,B)"}), -1);
  EXPECT_EQ(result.tier, 0);
  EXPECT_TRUE(Contains(result.tier_reason, "unsatisfiable"))
      << result.tier_reason;
}

}  // namespace
}  // namespace cqac
