#include "rewriting/coalesce.h"

#include "containment/cqac_containment.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/view_set.h"

namespace cqac {
namespace {

TEST(CoalesceTest, MergesLessThanWithEquals) {
  // The paper's Example 9 output compacts to A <= 8.
  const UnionQuery u = Parser::MustParseUnion(
      "q(A) :- v(A,A), A < 8.\n"
      "q(A) :- v(A,A), A = 8.");
  const UnionQuery c = CoalesceUnion(u);
  ASSERT_EQ(c.size(), 1);
  EXPECT_EQ(c.disjuncts()[0].ToString(), "q(A) :- v(A,A), A <= 8");
}

TEST(CoalesceTest, PreCancelledTokenStopsBeforeTheFirstMerge) {
  const UnionQuery u = Parser::MustParseUnion(
      "q(A) :- v(A,A), A < 8.\n"
      "q(A) :- v(A,A), A = 8.");
  CancellationToken token;
  token.Cancel();
  // No step runs; the union comes back uncompacted, still equivalent.
  EXPECT_EQ(CoalesceUnion(u, &token).size(), 2);
  CancellationToken live;
  EXPECT_EQ(CoalesceUnion(u, &live).size(), 1);
}

TEST(CoalesceTest, MergesGreaterThanWithEquals) {
  const UnionQuery u = Parser::MustParseUnion(
      "q(A) :- v(A), A > 3.\n"
      "q(A) :- v(A), A = 3.");
  const UnionQuery c = CoalesceUnion(u);
  ASSERT_EQ(c.size(), 1);
  EXPECT_EQ(c.disjuncts()[0].comparisons()[0].op(), CompOp::kGe);
}

TEST(CoalesceTest, ComplementaryPairVanishes) {
  const UnionQuery u = Parser::MustParseUnion(
      "q(P) :- free(P), P <= 0.\n"
      "q(P) :- free(P), P > 0.");
  const UnionQuery c = CoalesceUnion(u);
  ASSERT_EQ(c.size(), 1);
  EXPECT_TRUE(c.disjuncts()[0].comparisons().empty());
}

TEST(CoalesceTest, ThreeWayRegionCollapses) {
  // P < 0, P = 0, P > 0 covers everything.
  const UnionQuery u = Parser::MustParseUnion(
      "q(P) :- free(P), P < 0.\n"
      "q(P) :- free(P), P = 0.\n"
      "q(P) :- free(P), 0 < P.");
  const UnionQuery c = CoalesceUnion(u);
  ASSERT_EQ(c.size(), 1);
  EXPECT_TRUE(c.disjuncts()[0].comparisons().empty());
}

TEST(CoalesceTest, DifferentBodiesStayApart) {
  const UnionQuery u = Parser::MustParseUnion(
      "q(A) :- v1(A), A < 8.\n"
      "q(A) :- v2(A), A = 8.");
  EXPECT_EQ(CoalesceUnion(u).size(), 2);
}

TEST(CoalesceTest, BodyOrderIrrelevant) {
  const UnionQuery u = Parser::MustParseUnion(
      "q(A) :- v1(A), v2(A), A < 8.\n"
      "q(A) :- v2(A), v1(A), A = 8.");
  EXPECT_EQ(CoalesceUnion(u).size(), 1);
}

TEST(CoalesceTest, SubsumedRegionDropped) {
  const UnionQuery u = Parser::MustParseUnion(
      "q(A) :- v(A), A < 3.\n"
      "q(A) :- v(A), A < 8.");
  const UnionQuery c = CoalesceUnion(u);
  ASSERT_EQ(c.size(), 1);
  EXPECT_EQ(c.disjuncts()[0].comparisons()[0].ToString(), "A < 8");
}

TEST(CoalesceTest, UnsatisfiableDisjunctDropped) {
  const UnionQuery u = Parser::MustParseUnion(
      "q(A) :- v(A), A < 3, A > 4.\n"
      "q(A) :- v(A), A < 8.");
  EXPECT_EQ(CoalesceUnion(u).size(), 1);
}

TEST(CoalesceTest, DuplicatesDropped) {
  const UnionQuery u = Parser::MustParseUnion(
      "q(A) :- v(A), A < 8.\n"
      "q(A) :- v(A), A < 8.");
  EXPECT_EQ(CoalesceUnion(u).size(), 1);
}

TEST(CoalesceTest, FlippedOrientationRecognized) {
  const UnionQuery u = Parser::MustParseUnion(
      "q(A) :- v(A), A < 8.\n"
      "q(A) :- v(A), 8 <= A.");
  const UnionQuery c = CoalesceUnion(u);
  ASSERT_EQ(c.size(), 1);
  EXPECT_TRUE(c.disjuncts()[0].comparisons().empty());
}

TEST(CoalesceTest, MultiComparisonSetsMergeOnSingleDifference) {
  const UnionQuery u = Parser::MustParseUnion(
      "q(A,B) :- v(A,B), A < B, B < 5.\n"
      "q(A,B) :- v(A,B), A = B, B < 5.");
  const UnionQuery c = CoalesceUnion(u);
  ASSERT_EQ(c.size(), 1);
  EXPECT_EQ(c.disjuncts()[0].comparisons().size(), 2u);
}

TEST(CoalesceTest, NonAdjacentOperatorsKept) {
  // < and > cannot merge without != in the language.
  const UnionQuery u = Parser::MustParseUnion(
      "q(A) :- v(A), A < 8.\n"
      "q(A) :- v(A), A > 8.");
  EXPECT_EQ(CoalesceUnion(u).size(), 2);
}

TEST(CoalesceTest, SemanticsPreservedOnExample2) {
  const ConjunctiveQuery q = Parser::MustParseRule("q() :- p(X), X >= 0");
  const ViewSet views(Parser::MustParseProgram(
      "v1() :- p(X), X = 0.\n"
      "v2() :- p(X), X > 0."));
  RewriteOptions options;
  options.coalesce_output = true;
  options.verify = true;
  const RewriteResult result = EquivalentRewriter(q, views, options).Run();
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound);
  EXPECT_TRUE(result.verified);
}

TEST(CoalesceTest, RewriterOptionShrinksExample9) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(A) :- r(A), s(A,A), A <= 8");
  const ViewSet views(Parser::MustParseProgram(
      "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z."));
  RewriteOptions options;
  options.coalesce_output = true;
  options.minimize_output = true;
  options.verify = true;
  const RewriteResult result = EquivalentRewriter(q, views, options).Run();
  ASSERT_EQ(result.outcome, RewriteOutcome::kRewritingFound);
  EXPECT_TRUE(result.verified);
  ASSERT_EQ(result.rewriting.size(), 1);
  EXPECT_EQ(result.rewriting.disjuncts()[0].ToString(),
            "q(A) :- v(A,A), A <= 8");
}

}  // namespace
}  // namespace cqac
