#include "containment/cqac_containment.h"

#include <string>
#include <vector>

#include "containment/canonical_coverage.h"
#include "gtest/gtest.h"
#include "parser/parser.h"

namespace cqac {
namespace {

TEST(CqacContainmentTest, SelfContainmentWithComparisons) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X) :- a(X,Y), X < Y, Y < 7");
  EXPECT_TRUE(CqacContained(q, q));
  EXPECT_TRUE(CqacEquivalent(q, q));
}

TEST(CqacContainmentTest, TighterComparisonIsContained) {
  const ConjunctiveQuery tight = Parser::MustParseRule("q(X) :- a(X), X < 3");
  const ConjunctiveQuery loose = Parser::MustParseRule("q(X) :- a(X), X < 5");
  EXPECT_TRUE(CqacContained(tight, loose));
  EXPECT_FALSE(CqacContained(loose, tight));
}

TEST(CqacContainmentTest, OpenVersusClosedInterval) {
  const ConjunctiveQuery open = Parser::MustParseRule("q(X) :- a(X), X < 3");
  const ConjunctiveQuery closed =
      Parser::MustParseRule("q(X) :- a(X), X <= 3");
  EXPECT_TRUE(CqacContained(open, closed));
  EXPECT_FALSE(CqacContained(closed, open));
}

TEST(CqacContainmentTest, UnsatisfiableQueryContainedInAnything) {
  const ConjunctiveQuery empty =
      Parser::MustParseRule("q(X) :- a(X), X < 2, X > 3");
  const ConjunctiveQuery other = Parser::MustParseRule("q(X) :- b(X)");
  EXPECT_TRUE(CqacContained(empty, other));
  EXPECT_FALSE(CqacContained(other, empty));
}

TEST(CqacContainmentTest, ComparisonDerivedFromConstantPropagation) {
  // X = 3 in the body makes q1 equivalent to using the constant directly.
  const ConjunctiveQuery q1 = Parser::MustParseRule("q() :- p(X), X = 3");
  const ConjunctiveQuery q2 = Parser::MustParseRule("q() :- p(3)");
  EXPECT_TRUE(CqacContained(q1, q2));
  EXPECT_TRUE(CqacContained(q2, q1));
}

// The classical example where multiple containment mappings are needed:
// no single mapping witnesses the containment, but for every order one of
// the two mappings works.
TEST(CqacContainmentTest, MultipleMappingsNeeded) {
  const ConjunctiveQuery q1 = Parser::MustParseRule(
      "q() :- p(X), p(Y), X <= Y");
  const ConjunctiveQuery q2 = Parser::MustParseRule("q() :- p(Z)");
  EXPECT_TRUE(CqacContained(q1, q2));
}

TEST(CqacContainmentTest, CaseSplitOnOrderOfTwoVariables) {
  // q1 has no comparisons; q2 requires U <= V but the database can supply
  // either orientation of p's two attributes, so containment fails.
  const ConjunctiveQuery q1 = Parser::MustParseRule("q() :- p(X,Y)");
  const ConjunctiveQuery q2 = Parser::MustParseRule("q() :- p(U,V), U <= V");
  EXPECT_FALSE(CqacContained(q1, q2));
}

TEST(CqacContainmentTest, SymmetricBodyMakesCaseSplitWork) {
  // With both orientations present, some mapping works for every order:
  // this is the textbook example requiring the union of mappings.
  const ConjunctiveQuery q1 = Parser::MustParseRule("q() :- p(X,Y), p(Y,X)");
  const ConjunctiveQuery q2 = Parser::MustParseRule("q() :- p(U,V), U <= V");
  EXPECT_TRUE(CqacContained(q1, q2));
  EXPECT_FALSE(CqacContained(q2, q1));
}

TEST(CqacContainmentTest, PaperExample1RewritingExpansion) {
  // Q: q(X,X) :- a(X,X), b(X), X < 7.  Expansion of the rewriting via V1:
  // q(A,A) :- a(S,A), b(A), A <= S, S <= A, A < 7.  They are equivalent.
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X,X) :- a(X,X), b(X), X < 7");
  const ConjunctiveQuery exp = Parser::MustParseRule(
      "q(A,A) :- a(S,A), b(A), A <= S, S <= A, A < 7");
  EXPECT_TRUE(CqacContained(q, exp));
  EXPECT_TRUE(CqacContained(exp, q));
}

TEST(CqacContainmentTest, PaperExample1WrongViewNotEquivalent) {
  // With V2 (S < U instead of S <= U) the expansion is strictly contained.
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X,X) :- a(X,X), b(X), X < 7");
  const ConjunctiveQuery exp_v2 = Parser::MustParseRule(
      "q(A,A) :- a(S,A), b(A), A <= S, S < A, A < 7");
  // The V2 expansion's comparisons force A <= S < A: unsatisfiable, hence
  // contained in Q but certainly not containing it.
  EXPECT_TRUE(CqacContained(exp_v2, q));
  EXPECT_FALSE(CqacContained(q, exp_v2));
}

TEST(CqacContainmentTest, NotEqualVersusStrictSplit) {
  // X != Y with p symmetric closure: q1 requires a strict comparison both
  // ways.  Checks the solver's != handling through containment.
  const ConjunctiveQuery q1 =
      Parser::MustParseRule("q() :- p(X,Y), X < Y");
  const ConjunctiveQuery q2 =
      Parser::MustParseRule("q() :- p(U,V), U != V");
  EXPECT_TRUE(CqacContained(q1, q2));
  EXPECT_FALSE(CqacContained(q2, q1));
}

TEST(CqacContainmentTest, ConstantsOfContainingQueryMatter) {
  // q1: X < 10; q2: X < 10, X != 5.  The order X = 5 separates them, and
  // only shows up because q2's constant 5 joins the enumeration.
  const ConjunctiveQuery q1 = Parser::MustParseRule("q(X) :- a(X), X < 10");
  const ConjunctiveQuery q2 =
      Parser::MustParseRule("q(X) :- a(X), X < 10, X != 5");
  EXPECT_TRUE(CqacContained(q2, q1));
  EXPECT_FALSE(CqacContained(q1, q2));
}

TEST(CqacContainmentTest, StatsArePopulated) {
  const ConjunctiveQuery q = Parser::MustParseRule("q(X) :- a(X), X < 3");
  ContainmentStats stats;
  EXPECT_TRUE(CqacContainedCanonical(q, q, &stats));
  // One variable, one constant: of the 3 total orders only X < 3
  // satisfies the comparisons, and pruning visits exactly that one.
  EXPECT_EQ(stats.orders_enumerated, 1);
  EXPECT_EQ(stats.orders_satisfying, 1);
}

TEST(CqacContainmentInUnionTest, PaperExample2) {
  // Q: q() :- p(X), X >= 0 has no single-CQAC rewriting over
  // V1 (X = 0) and V2 (X > 0), but the union of both covers it.
  const ConjunctiveQuery q = Parser::MustParseRule("q() :- p(X), X >= 0");
  const ConjunctiveQuery v1_exp = Parser::MustParseRule("q() :- p(X), X = 0");
  const ConjunctiveQuery v2_exp = Parser::MustParseRule("q() :- p(X), X > 0");
  EXPECT_FALSE(CqacContained(q, v1_exp));
  EXPECT_FALSE(CqacContained(q, v2_exp));
  UnionQuery both;
  both.Add(v1_exp);
  both.Add(v2_exp);
  EXPECT_TRUE(CqacContainedInUnion(q, both));
  EXPECT_TRUE(UnionCqacContained(both, UnionQuery({q})));
  EXPECT_TRUE(UnionCqacEquivalent(UnionQuery({q}), both));
}

TEST(CqacContainmentInUnionTest, UnionDoesNotCoverGap) {
  const ConjunctiveQuery q = Parser::MustParseRule("q() :- p(X), X >= 0");
  UnionQuery gap;
  gap.Add(Parser::MustParseRule("q() :- p(X), X > 0"));
  gap.Add(Parser::MustParseRule("q() :- p(X), X > 1"));
  EXPECT_FALSE(CqacContainedInUnion(q, gap));
}

TEST(CqacContainmentInUnionTest, EmptyUnionOnlyContainsEmpty) {
  const ConjunctiveQuery sat = Parser::MustParseRule("q() :- p(X)");
  const ConjunctiveQuery unsat =
      Parser::MustParseRule("q() :- p(X), X < 0, X > 0");
  EXPECT_FALSE(CqacContainedInUnion(sat, UnionQuery()));
  EXPECT_TRUE(CqacContainedInUnion(unsat, UnionQuery()));
}

// The incremental coverage must give CqacContainedInUnion's verdict on
// the union added so far, after every Add.
TEST(CanonicalCoverageTest, MatchesUnionTestAfterEveryAdd) {
  struct Sequence {
    const char* query;
    std::vector<const char*> disjuncts;
  };
  const std::vector<Sequence> sequences = {
      {"q() :- p(X), X >= 0", {"q() :- p(X), X > 1", "q() :- p(X), X > 0",
                               "q() :- p(X), X = 0"}},
      {"q(X) :- a(X,Y), X < Y",
       {"q(X) :- a(X,Y), X < Y, Y < 5", "q(X) :- a(X,Y), X < 3",
        "q(X) :- a(X,Y), X < Y, Y >= 5"}},
      {"q(X) :- a(X,Y), a(Y,X)",
       {"q(X) :- a(X,X)", "q(X) :- a(X,Y), a(Y,X), X < Y",
        "q(X) :- a(X,Y), a(Y,X), X > Y", "q(X) :- a(X,Y), a(Y,X)"}},
      {"q(X,Y) :- a(X,Y), X <= Y",
       {"q(Y,X) :- a(Y,X), Y < X", "q(A,B) :- a(A,B), A = B"}},
  };
  for (const Sequence& seq : sequences) {
    const ConjunctiveQuery q = Parser::MustParseRule(seq.query);
    std::vector<Rational> pool;
    UnionQuery added;
    for (const char* d : seq.disjuncts) {
      for (const Rational& c : Parser::MustParseRule(d).Constants()) {
        pool.push_back(c);
      }
    }
    CanonicalCoverage coverage(q, pool);
    EXPECT_EQ(coverage.complete(), CqacContainedInUnion(q, added))
        << seq.query;
    for (const char* d : seq.disjuncts) {
      const ConjunctiveQuery disjunct = Parser::MustParseRule(d);
      coverage.Add(disjunct);
      added.Add(disjunct);
      EXPECT_EQ(coverage.complete(), CqacContainedInUnion(q, added))
          << seq.query << " after " << d;
    }
    EXPECT_TRUE(coverage.complete()) << seq.query;
  }
}

TEST(CanonicalCoverageTest, EmptyQueryIsCoveredFromTheStart) {
  const ConjunctiveQuery unsat =
      Parser::MustParseRule("q() :- p(X), X < 0, X > 0");
  EXPECT_TRUE(CanonicalCoverage(unsat, {}).complete());
  EXPECT_FALSE(
      CanonicalCoverage(Parser::MustParseRule("q() :- p(X)"), {}).complete());
}

// The two independent tests must agree on a diverse family of pairs.
struct ContainmentCase {
  const char* q1;
  const char* q2;
};

class CqacMethodsAgreeProperty
    : public ::testing::TestWithParam<ContainmentCase> {};

TEST_P(CqacMethodsAgreeProperty, CanonicalAndImplicationAgree) {
  const ConjunctiveQuery q1 = Parser::MustParseRule(GetParam().q1);
  const ConjunctiveQuery q2 = Parser::MustParseRule(GetParam().q2);
  EXPECT_EQ(CqacContainedCanonical(q1, q2), CqacContainedImplication(q1, q2))
      << q1.ToString() << "  vs  " << q2.ToString();
  EXPECT_EQ(CqacContainedCanonical(q2, q1), CqacContainedImplication(q2, q1))
      << q2.ToString() << "  vs  " << q1.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CqacMethodsAgreeProperty,
    ::testing::Values(
        ContainmentCase{"q(X) :- a(X), X < 3", "q(X) :- a(X), X < 5"},
        ContainmentCase{"q(X) :- a(X), X <= 3", "q(X) :- a(X), X < 3"},
        ContainmentCase{"q() :- p(X), p(Y), X <= Y", "q() :- p(Z)"},
        ContainmentCase{"q() :- p(X,Y), p(Y,X)", "q() :- p(U,V), U <= V"},
        ContainmentCase{"q() :- p(X,Y)", "q() :- p(U,V), U <= V"},
        ContainmentCase{"q(X,X) :- a(X,X), b(X), X < 7",
                        "q(A,A) :- a(S,A), b(A), A <= S, S <= A, A < 7"},
        ContainmentCase{"q() :- p(X), X = 3", "q() :- p(3)"},
        ContainmentCase{"q(X) :- a(X,Y), X < Y", "q(X) :- a(X,Y)"},
        ContainmentCase{"q(X) :- a(X,Y), X < Y", "q(X) :- a(X,Y), X <= Y"},
        ContainmentCase{"q() :- a(X,Y), a(Y,X), X <= Y",
                        "q() :- a(U,V), U <= V"},
        ContainmentCase{"q(X) :- a(X), X < 10, X != 5",
                        "q(X) :- a(X), X < 10"},
        ContainmentCase{"q() :- a(X,3)", "q() :- a(X,Y), X < Y"}));

}  // namespace
}  // namespace cqac
