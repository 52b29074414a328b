// Differential suite for the coded columnar engine, the only engine
// that evaluates canonical databases in production: every verdict and
// collected relation it produces must match the references built from
// FreezeQuery's map-based database and the row engine behind
// Evaluate/ComputesTuple.
//
// Three tiers:
//   1. CheckEngineReferences over the full persistent corpus: the Phase-1
//      keep test and view tuples per canonical database, and order
//      enumeration, containment mappings and the Phase-2 containment
//      verdict per Pre-Rewriting expansion;
//   2. containment verdict parity on >= 500 generated query pairs against
//      testing::ReferenceContainedCanonical;
//   3. collect-mode parity: per canonical database, the decoded columnar
//      output relation must equal Evaluate over FreezeQuery's database,
//      tuple for tuple.

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/orders.h"
#include "containment/cqac_containment.h"
#include "engine/canonical.h"
#include "engine/coded_eval.h"
#include "engine/evaluate.h"
#include "parser/parser.h"
#include "testing/corpus.h"
#include "testing/differential.h"
#include "testing/reference_engines.h"

namespace cqac {
namespace {

using testing::CorpusEntry;
using testing::EngineReport;
using testing::LoadCorpusDir;

TEST(ColumnarDifferentialTest, FullCorpusEngineReferences) {
  std::string error;
  const auto corpus = LoadCorpusDir(CQAC_CORPUS_DIR, &error);
  ASSERT_TRUE(corpus.has_value()) << error;
  ASSERT_FALSE(corpus->empty());
  int64_t databases = 0;
  int64_t expansions = 0;
  int64_t unchecked = 0;
  for (const CorpusEntry& entry : *corpus) {
    const EngineReport report = testing::CheckEngineReferences(entry.c);
    EXPECT_TRUE(report.ok) << entry.name << ": " << report.failure;
    databases += report.databases;
    expansions += report.expansions;
    unchecked += report.unchecked;
  }
  // The sweep must have compared something in each layer; skipped
  // enumerations are reported, never counted as checked.
  EXPECT_GT(databases, 0);
  EXPECT_GT(expansions, unchecked);
}

/// Deterministic random CQAC rules over a small shared vocabulary.  Kept
/// tiny on purpose: with <= 3 variables and <= 2 distinct constants the
/// order enumeration stays small, so 500+ pairs run in seconds while
/// still hitting every operator, constant pinning in subgoals, repeated
/// variables, boolean heads, and comparison-only variables.
class QueryGen {
 public:
  explicit QueryGen(uint32_t seed) : rng_(seed) {}

  /// One random rule with the requested head arity.  Head variables are
  /// drawn from the body so the rule is safe.
  ConjunctiveQuery Rule(int head_arity) {
    static const char* kVars[] = {"X", "Y", "Z"};
    static const char* kConsts[] = {"2", "5"};
    static const char* kOps[] = {"<", "<=", "=", "!=", ">=", ">"};
    // (predicate, arity) vocabulary shared by both sides of a pair.
    static const std::pair<const char*, int> kPreds[] = {
        {"p", 2}, {"r", 1}, {"s", 2}};

    std::vector<std::string> body_vars;
    std::ostringstream body;
    const int num_subgoals = 1 + Pick(3);
    for (int g = 0; g < num_subgoals; ++g) {
      const auto& [pred, arity] = kPreds[Pick(3)];
      if (g > 0) body << ", ";
      body << pred << "(";
      for (int a = 0; a < arity; ++a) {
        if (a > 0) body << ",";
        if (Pick(5) == 0) {
          body << kConsts[Pick(2)];
        } else {
          const char* v = kVars[Pick(3)];
          body_vars.push_back(v);
          body << v;
        }
      }
      body << ")";
    }
    std::sort(body_vars.begin(), body_vars.end());
    body_vars.erase(std::unique(body_vars.begin(), body_vars.end()),
                    body_vars.end());

    const int num_comparisons = Pick(3);
    for (int c = 0; c < num_comparisons; ++c) {
      // Left side a variable (possibly comparison-only), right side a
      // variable or a constant.
      body << ", " << kVars[Pick(3)] << " " << kOps[Pick(6)] << " ";
      if (Pick(2) == 0) {
        body << kConsts[Pick(2)];
      } else {
        body << kVars[Pick(3)];
      }
    }

    std::ostringstream rule;
    rule << "q(";
    for (int h = 0; h < head_arity; ++h) {
      if (h > 0) rule << ",";
      if (body_vars.empty()) {
        rule << kConsts[Pick(2)];
      } else {
        rule << body_vars[Pick(static_cast<int>(body_vars.size()))];
      }
    }
    rule << ") :- " << body.str();
    return Parser::MustParseRule(rule.str());
  }

 private:
  int Pick(int n) {
    return static_cast<int>(rng_() % static_cast<uint32_t>(n));
  }

  std::mt19937 rng_;
};

TEST(ColumnarDifferentialTest, GeneratedPairsVerdictParity) {
  QueryGen gen(/*seed=*/20060331);
  constexpr int kPairs = 500;
  for (int i = 0; i < kPairs; ++i) {
    const int head_arity = i % 3 == 0 ? 0 : 1;
    const ConjunctiveQuery q1 = gen.Rule(head_arity);
    const ConjunctiveQuery q2 = gen.Rule(head_arity);
    ASSERT_EQ(CqacContainedCanonical(q1, q2),
              testing::ReferenceContainedCanonical(q1, q2))
        << "pair " << i << "\n  q1: " << q1.ToString()
        << "\n  q2: " << q2.ToString();
  }
}

TEST(ColumnarDifferentialTest, GeneratedPairsCollectModeParity) {
  QueryGen gen(/*seed=*/8671);
  constexpr int kPairs = 120;
  for (int i = 0; i < kPairs; ++i) {
    const ConjunctiveQuery q1 = gen.Rule(1);
    const ConjunctiveQuery q2 = gen.Rule(1);

    std::vector<Rational> constants = q1.Constants();
    for (const Rational& c : q2.Constants()) {
      if (std::find(constants.begin(), constants.end(), c) ==
          constants.end()) {
        constants.push_back(c);
      }
    }

    CanonicalFreezer freezer(q1);
    const QueryPlan plan(q2);
    CodedEvaluator coded(&plan);
    freezer.PrimeDictionary(constants, q1.AllVariables().size());
    coded.BindTo(&freezer);

    int orders_checked = 0;
    ForEachSatisfyingOrderPruned(
        q1.AllVariables(), constants, q1.comparisons(), OrderSymmetry{},
        [&](const TotalOrder& order, int64_t) {
          freezer.Freeze(order);
          Relation col_out;
          coded.Run(freezer, /*match_frozen_head=*/false, &col_out);
          const Relation expected = Evaluate(q2, FreezeQuery(q1, order).db);
          EXPECT_EQ(expected.tuples(), col_out.tuples())
              << "pair " << i << " order " << orders_checked
              << "\n  q1: " << q1.ToString() << "\n  q2: " << q2.ToString();
          return ++orders_checked < 40;  // cap per pair, delta-freeze path
        });
    // Satisfying orders exist for satisfiable q1; unsatisfiable q1 rules
    // simply contribute zero databases, which is fine — the pair still
    // exercised freezer construction and binding.
  }
}

}  // namespace
}  // namespace cqac
