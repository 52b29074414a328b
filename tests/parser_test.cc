#include "parser/parser.h"

#include "gtest/gtest.h"

namespace cqac {
namespace {

TEST(ParserTest, SimpleRule) {
  std::string error;
  auto q = Parser::ParseRule("q(X) :- a(X,Y), b(Y)", &error);
  ASSERT_TRUE(q.has_value()) << error;
  EXPECT_EQ(q->ToString(), "q(X) :- a(X,Y), b(Y)");
}

TEST(ParserTest, RuleWithComparisons) {
  auto q = Parser::ParseRule("q(X,X) :- a(X,X), b(X), X < 7");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->comparisons().size(), 1u);
  EXPECT_EQ(q->comparisons()[0].ToString(), "X < 7");
}

TEST(ParserTest, AllComparisonOperators) {
  auto q = Parser::ParseRule(
      "q(A,B) :- a(A,B), A < 1, A <= 2, A = 3, A != 4, A >= 5, A > 6, A == B");
  ASSERT_TRUE(q.has_value());
  ASSERT_EQ(q->comparisons().size(), 7u);
  EXPECT_EQ(q->comparisons()[0].op(), CompOp::kLt);
  EXPECT_EQ(q->comparisons()[1].op(), CompOp::kLe);
  EXPECT_EQ(q->comparisons()[2].op(), CompOp::kEq);
  EXPECT_EQ(q->comparisons()[3].op(), CompOp::kNe);
  EXPECT_EQ(q->comparisons()[4].op(), CompOp::kGe);
  EXPECT_EQ(q->comparisons()[5].op(), CompOp::kGt);
  EXPECT_EQ(q->comparisons()[6].op(), CompOp::kEq);  // `==` accepted.
}

TEST(ParserTest, BooleanHeadAndTrailingPeriod) {
  auto q = Parser::ParseRule("q() :- p(X), X >= 0.");
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(q->IsBoolean());
}

TEST(ParserTest, NumericConstants) {
  auto q = Parser::ParseRule("q(X) :- a(X, 3, -2, 2.5, -0.25)");
  ASSERT_TRUE(q.has_value());
  const auto& args = q->body()[0].args();
  EXPECT_EQ(args[1], Term::Constant(3));
  EXPECT_EQ(args[2], Term::Constant(-2));
  EXPECT_EQ(args[3], Term::Constant(Rational(5, 2)));
  EXPECT_EQ(args[4], Term::Constant(Rational(-1, 4)));
}

TEST(ParserTest, RationalLiteralRoundTripsToString) {
  // Rational::ToString emits num/den; the lexer must accept that form so
  // serialized queries reparse identically.
  auto q = Parser::ParseRule("q(X) :- a(X), X <= 5/2, -7/4 < X");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->comparisons()[0].ToString(), "X <= 5/2");
  EXPECT_EQ(q->comparisons()[1].ToString(), "-7/4 < X");
  auto again = Parser::ParseRule(q->ToString());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->ToString(), q->ToString());
}

TEST(ParserTest, ComparisonBetweenConstants) {
  auto q = Parser::ParseRule("q() :- a(X), 3 < 5");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->comparisons()[0].ToString(), "3 < 5");
}

TEST(ParserTest, ComparisonWithConstantOnLeft) {
  auto q = Parser::ParseRule("q(X) :- a(X), 5 > X");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->comparisons()[0].lhs(), Term::Constant(5));
  EXPECT_EQ(q->comparisons()[0].op(), CompOp::kGt);
}

TEST(ParserTest, CommentsAndWhitespace) {
  auto q = Parser::ParseRule(
      "% the running example\n"
      "q(X)  :-\n"
      "   a(X, Y),   % join\n"
      "   X < 7.\n");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->ToString(), "q(X) :- a(X,Y), X < 7");
}

TEST(ParserTest, PrimedVariableNames) {
  // The paper uses names like X2' in Example 3.
  auto q = Parser::ParseRule("q(X') :- a(X', X2')");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->HeadVariables(), (std::vector<std::string>{"X'"}));
}

TEST(ParserTest, ProgramWithMultipleRules) {
  auto rules = Parser::ParseProgram(
      "q(X) :- a(X,Y), X < 7.\n"
      "v1(T,U) :- a(S,T), b(U), T <= S, S <= U.\n"
      "v2(T,U) :- a(S,T), b(U), T <= S, S < U.");
  ASSERT_TRUE(rules.has_value());
  ASSERT_EQ(rules->size(), 3u);
  EXPECT_EQ((*rules)[1].name(), "v1");
  EXPECT_EQ((*rules)[2].comparisons()[1].op(), CompOp::kLt);
}

TEST(ParserTest, MustParseUnion) {
  const UnionQuery u = Parser::MustParseUnion(
      "r0() :- v1().\n"
      "r0() :- v2().");
  EXPECT_EQ(u.size(), 2);
}

TEST(ParserTest, ErrorOnLowercaseArgument) {
  std::string error;
  auto q = Parser::ParseRule("q(X) :- a(X, foo)", &error);
  EXPECT_FALSE(q.has_value());
  EXPECT_NE(error.find("constants must be numeric"), std::string::npos);
}

TEST(ParserTest, ErrorOnMissingTurnstile) {
  std::string error;
  auto q = Parser::ParseRule("q(X) a(X)", &error);
  EXPECT_FALSE(q.has_value());
  EXPECT_NE(error.find("':-'"), std::string::npos);
}

TEST(ParserTest, ErrorOnUnbalancedParen) {
  std::string error;
  auto q = Parser::ParseRule("q(X :- a(X)", &error);
  EXPECT_FALSE(q.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ParserTest, ErrorOnBareBang) {
  std::string error;
  auto q = Parser::ParseRule("q(X) :- a(X), X ! 3", &error);
  EXPECT_FALSE(q.has_value());
}

TEST(ParserTest, ErrorOnTrailingGarbage) {
  std::string error;
  auto q = Parser::ParseRule("q(X) :- a(X). garbage", &error);
  EXPECT_FALSE(q.has_value());
}

TEST(ParserTest, ErrorMentionsLineAndColumn) {
  std::string error;
  auto q = Parser::ParseRule("q(X) :-\n a(X,", &error);
  EXPECT_FALSE(q.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

// Malformed numeric literals are lexer errors reported at the literal's
// own position, never silently truncated or wrapped values.
TEST(ParserTest, MalformedLiteralsReportTheirPosition) {
  struct Row {
    const char* text;
    const char* message;
    const char* position;
  };
  const Row rows[] = {
      {"q(A) :- r(A), A < 1/0", "zero denominator in rational literal '1/0'",
       "line 1, column 19"},
      {"q(A) :- r(A),\n  A < -3/0", "zero denominator", "line 2, column 7"},
      {"q(A) :- r(A), A < 99999999999999999999",
       "numeric literal '99999999999999999999' does not fit",
       "line 1, column 19"},
      {"q(A) :- r(A, 9223372036854775808)", "does not fit",
       "line 1, column 14"},
      {"q(A) :- r(A), A < 1/99999999999999999999", "does not fit",
       "line 1, column 19"},
      {"q(A) :- r(A), A < 0.00000000000000000001", "does not fit",
       "line 1, column 19"},
      {"q(A) :- r(A), A < 9223372036854775807.5", "does not fit",
       "line 1, column 19"},
  };
  for (const Row& row : rows) {
    std::string error;
    EXPECT_FALSE(Parser::ParseRule(row.text, &error).has_value()) << row.text;
    EXPECT_NE(error.find(row.message), std::string::npos)
        << row.text << "\n" << error;
    EXPECT_NE(error.find(row.position), std::string::npos)
        << row.text << "\n" << error;
  }
  // The largest literals that fit still parse exactly.
  auto q = Parser::ParseRule(
      "q(A) :- r(A), A < 9223372036854775807, A > -9223372036854775807");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->comparisons()[0].ToString(), "A < 9223372036854775807");
  EXPECT_EQ(q->comparisons()[1].ToString(), "A > -9223372036854775807");
}

TEST(ParserTest, ErrorOnUpperCasePredicate) {
  std::string error;
  auto q = Parser::ParseRule("Q(X) :- a(X)", &error);
  EXPECT_FALSE(q.has_value());
}

TEST(ParserTest, RoundTripThroughToString) {
  const std::string text = "q(X,Y) :- a(X,Z), b(Z,Y), X < 5, Y >= 1/1";
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X,Y) :- a(X,Z), b(Z,Y), X < 5, Y >= 1");
  const ConjunctiveQuery again = Parser::MustParseRule(q.ToString());
  EXPECT_EQ(q, again);
  (void)text;
}

TEST(ParserTest, PaperExample1) {
  const std::vector<ConjunctiveQuery> rules = Parser::MustParseProgram(
      "q(X, X) :- a(X, X), b(X), X < 7.\n"
      "v1(T, U) :- a(S, T), b(U), T <= S, S <= U.\n"
      "v2(T, U) :- a(S, T), b(U), T <= S, S < U.");
  EXPECT_EQ(rules.size(), 3u);
}

}  // namespace
}  // namespace cqac
