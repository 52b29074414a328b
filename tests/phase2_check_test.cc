// The Phase-2 check (CheckExpansionContained) decides most Pre-Rewritings
// on the order-pinned part of their expansion and falls back to the full
// simplify + canonical-database test otherwise.  Every verdict must equal
// the full path's: over every Pre-Rewriting of every corpus case, and on
// hand-written inputs for each branch of the check.

#ifndef CQAC_CORPUS_DIR
#error "CQAC_CORPUS_DIR must point at tests/corpus"
#endif

#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "testing/corpus.h"
#include "testing/differential.h"

namespace cqac {
namespace {

using testing::AllPreRewritings;
using testing::FullPathPhase2Verdict;

TEST(Phase2CheckTest, EveryCorpusVerdictMatchesTheFullPath) {
  std::string error;
  const std::optional<std::vector<testing::CorpusEntry>> corpus =
      testing::LoadCorpusDir(CQAC_CORPUS_DIR, &error);
  ASSERT_TRUE(corpus.has_value()) << error;
  int64_t contained = 0;
  int64_t not_contained = 0;
  for (const testing::CorpusEntry& entry : *corpus) {
    const RewriteOptions options;
    const RewriteWork work =
        PrepareRewriteWork(entry.c.query, entry.c.views, options);
    for (const ConjunctiveQuery& pre : AllPreRewritings(work)) {
      const Phase2Outcome outcome =
          CheckExpansionContained(work, pre);
      EXPECT_EQ(outcome.contained, FullPathPhase2Verdict(work, pre))
          << entry.name << ": " << pre.ToString();
      ++(outcome.contained ? contained : not_contained);
    }
  }
  // The table covers both verdicts, not only the cheap test's "yes".
  EXPECT_GT(contained, 0);
  EXPECT_GT(not_contained, 0);
}

struct HandCase {
  const char* name;
  const char* views;
  const char* query;
  const char* pre;
  bool contained;
  bool full_check;
};

// One case per branch of the check.
const HandCase kHandCases[] = {
    // The view's existential B is unpinned, so the pinned part is empty
    // and the check falls back.
    {"fallback", "v(A) :- r(A,B).", "q(A) :- r(A,B)", "q(A) :- v(A)", true,
     true},
    // The view demands A < 3, the Pre-Rewriting A > 5: the expansion
    // computes nothing and is contained without any containment test.
    {"unsatisfiable", "v(A) :- r(A), A < 3.", "q(A) :- r(A)",
     "q(A) :- v(A), A > 5", true, false},
    // The pinned part p(A) covers the head but lacks r(A,B), which the
    // query needs: the cheap test says no, the full test yes.
    {"unpinned_atom_needed", "v(A) :- p(A), r(A,B).",
     "q(A) :- p(A), r(A,B)", "q(A) :- v(A)", true, true},
    // Settled by the cheap test: the whole expansion is pinned.
    {"pinned", "v(A,B) :- r(A,B), A < B.", "q(A) :- r(A,B), A < B",
     "q(A) :- v(A,B), A < B", true, false},
    // Neither test finds containment: the view admits A = B.
    {"not_contained", "v(A,B) :- r(A,B), A <= B.", "q(A) :- r(A,B), A < B",
     "q(A) :- v(A,B), A = B", false, true},
};

// simplify_expansions governs only the fallback's input, never a verdict.
TEST(Phase2CheckTest, HandWrittenBranches) {
  for (const HandCase& c : kHandCases) {
    for (const bool simplify : {true, false}) {
      const ConjunctiveQuery query = Parser::MustParseRule(c.query);
      const ViewSet views(Parser::MustParseProgram(c.views));
      const ConjunctiveQuery pre = Parser::MustParseRule(c.pre);
      RewriteOptions options;
      options.simplify_expansions = simplify;
      const RewriteWork work = PrepareRewriteWork(query, views, options);
      const Phase2Outcome outcome =
          CheckExpansionContained(work, pre);
      EXPECT_EQ(outcome.contained, c.contained) << c.name << simplify;
      EXPECT_EQ(outcome.contained, FullPathPhase2Verdict(work, pre))
          << c.name << simplify;
      EXPECT_EQ(outcome.full_check, c.full_check) << c.name << simplify;
    }
  }
}

TEST(Phase2CheckTest, FullChecksCounterCountsFallbacks) {
  const ConjunctiveQuery query = Parser::MustParseRule("q(A) :- r(A,B)");
  const ViewSet views(Parser::MustParseProgram("v(A) :- r(A,B)."));
  const RewriteOptions options;
  const RewriteWork work = PrepareRewriteWork(query, views, options);
  const ConjunctiveQuery pre = Parser::MustParseRule("q(A) :- v(A)");

  obs::EnableMetrics(true);
  obs::Counter& full =
      obs::MetricsRegistry::Global().counter("phase2.full_checks");
  const int64_t before = full.value();
  (void)CheckExpansionContained(work, pre);
  EXPECT_EQ(full.value(), before + 1);
  obs::EnableMetrics(false);
  std::ostringstream text;
  obs::WritePrometheusText(text, obs::MetricsRegistry::Global());
  EXPECT_NE(text.str().find("cqac_phase2_full_checks_total"),
            std::string::npos);
}

}  // namespace
}  // namespace cqac
