// Data-integration scenario: sources described as views over a mediated
// schema.  Contrasts the two rewriting regimes the paper discusses:
//
//   * For plain conjunctive queries, maximally-contained rewritings come
//     from the classical algorithms — MiniCon and inverse rules, both
//     implemented here as substrates.
//   * Once arithmetic comparisons enter, single conjunctive rewritings can
//     stop existing while a *union* still covers the query exactly
//     (paper Example 2), which is where the paper's algorithm comes in.
//
// Build & run:  ./build/examples/data_integration

#include <cstdio>

#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/expansion.h"
#include "rewriting/inverse_rules.h"
#include "rewriting/minicon.h"

namespace {

using cqac::Parser;
using cqac::UnionQuery;
using cqac::ViewSet;

void PrintUnion(const char* title, const UnionQuery& u) {
  std::printf("%s (%d):\n", title, u.size());
  for (const cqac::ConjunctiveQuery& d : u.disjuncts()) {
    std::printf("  %s\n", d.ToString().c_str());
  }
}

}  // namespace

int main() {
  // Mediated schema: flight(from, to), train(from, to).
  // The user asks for two-leg flight connections.
  const cqac::ConjunctiveQuery query = Parser::MustParseRule(
      "q(X,Z) :- flight(X,Y), flight(Y,Z)");
  std::printf("mediated query: %s\n\n", query.ToString().c_str());

  // Three autonomous sources.
  const std::vector<cqac::ConjunctiveQuery> sources =
      Parser::MustParseProgram(
          "hub1(T,U) :- flight(T,U).\n"
          "hub2(T,U) :- flight(T,W), flight(W,U).\n"
          "rail(T,U) :- train(T,U).");
  for (const cqac::ConjunctiveQuery& s : sources) {
    std::printf("source: %s\n", s.ToString().c_str());
  }
  std::printf("\n");

  // Classical contained rewritings (open-world).
  const UnionQuery minicon = MiniConRewritings(query, sources);
  PrintUnion("MiniCon rewritings (one-to-one variant)", minicon);

  // The third classical route: inverse rules with Skolem terms.
  std::printf("\ninverse rules:\n");
  for (const cqac::InverseRule& rule :
       BuildInverseRules(ViewSet(sources))) {
    std::printf("  %s\n", rule.ToString().c_str());
  }
  cqac::Database extension;
  extension.Insert("hub1", {cqac::Rational(1), cqac::Rational(2)});
  extension.Insert("hub1", {cqac::Rational(2), cqac::Rational(3)});
  extension.Insert("hub2", {cqac::Rational(3), cqac::Rational(5)});
  std::printf("certain answers over {hub1(1,2), hub1(2,3), hub2(3,5)}: %s\n",
              AnswerViaInverseRules(query, ViewSet(sources), extension)
                  .ToString()
                  .c_str());

  // With comparisons, equivalence needs unions: paper Example 2 recast as
  // sources that split a price range.
  std::printf("\n--- comparisons require unions (paper Example 2) ---\n");
  const cqac::ConjunctiveQuery price_query =
      Parser::MustParseRule("q(P) :- offer(P,V), V >= 0");
  const ViewSet price_sources(Parser::MustParseProgram(
      "free(P) :- offer(P,V), V = 0.\n"
      "paid(P) :- offer(P,V), V > 0."));
  std::printf("query:  %s\n", price_query.ToString().c_str());
  for (const cqac::ConjunctiveQuery& s : price_sources.views()) {
    std::printf("source: %s\n", s.ToString().c_str());
  }

  cqac::RewriteOptions options;
  options.verify = true;
  options.minimize_output = true;
  options.coalesce_output = true;
  const cqac::RewriteResult result =
      cqac::EquivalentRewriter(price_query, price_sources, options).Run();
  if (result.outcome == cqac::RewriteOutcome::kRewritingFound) {
    std::printf("equivalent union rewriting (verified=%s):\n",
                result.verified ? "yes" : "NO");
    for (const cqac::ConjunctiveQuery& d : result.rewriting.disjuncts()) {
      std::printf("  %s\n", d.ToString().c_str());
    }
  } else {
    std::printf("no rewriting: %s\n", result.failure_reason.c_str());
  }

  // And the negative case: drop the `free` source and only a contained
  // rewriting remains; the equivalence test correctly fails.
  const ViewSet paid_only(
      Parser::MustParseProgram("paid(P) :- offer(P,V), V > 0."));
  const cqac::RewriteResult gap =
      cqac::EquivalentRewriter(price_query, paid_only).Run();
  std::printf(
      "\nwith only the paid source: %s\n",
      gap.outcome == cqac::RewriteOutcome::kNoRewriting
          ? "no equivalent rewriting (as expected; V = 0 is uncovered)"
          : "unexpected result");
  return 0;
}
