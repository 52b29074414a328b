// Tests for the compiled containment engine: the symbol interner, the
// trail-based binding store, and a differential check of the compiled
// mapping search against the reference string-substitution search on
// hundreds of generated query pairs.

#include <algorithm>
#include <string>
#include <vector>

#include "ast/interner.h"
#include "containment/binding_trail.h"
#include "containment/homomorphism.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "testing/reference_engines.h"
#include "workload/generator.h"

namespace cqac {
namespace {

ConjunctiveQuery Parse(const std::string& text) {
  return Parser::MustParseRule(text);
}

// ---------------------------------------------------------------------------
// SymbolInterner

TEST(SymbolInternerTest, RoundTripsNamesAndIds) {
  SymbolInterner interner;
  const std::vector<std::string> names = {"X", "Y", "p", "q", "_f0", "X1"};
  std::vector<uint32_t> ids;
  for (const std::string& name : names) ids.push_back(interner.Intern(name));
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(interner.NameOf(ids[i]), names[i]);
    EXPECT_EQ(interner.Find(names[i]), ids[i]);
    EXPECT_EQ(interner.Intern(names[i]), ids[i]) << "re-intern must be stable";
  }
  EXPECT_EQ(interner.size(), names.size());
}

TEST(SymbolInternerTest, IdsAreDenseInFirstInternOrder) {
  SymbolInterner interner;
  EXPECT_EQ(interner.Intern("A"), 0u);
  EXPECT_EQ(interner.Intern("B"), 1u);
  EXPECT_EQ(interner.Intern("A"), 0u);
  EXPECT_EQ(interner.Intern("C"), 2u);
}

TEST(SymbolInternerTest, FindOnUnknownReturnsNotFound) {
  SymbolInterner interner;
  interner.Intern("X");
  EXPECT_EQ(interner.Find("Y"), SymbolInterner::kNotFound);
}

TEST(SymbolInternerTest, ClearInvalidatesAndRestartsAtZero) {
  SymbolInterner interner;
  interner.Intern("X");
  interner.Intern("Y");
  interner.Clear();
  EXPECT_EQ(interner.size(), 0u);
  EXPECT_EQ(interner.Find("X"), SymbolInterner::kNotFound);
  EXPECT_EQ(interner.Intern("Z"), 0u);
}

// ---------------------------------------------------------------------------
// BindingTrail

TEST(BindingTrailTest, BindAndLookup) {
  BindingTrail trail;
  trail.Reset(4);
  EXPECT_FALSE(trail.IsBound(2));
  trail.Bind(2, 7);
  EXPECT_TRUE(trail.IsBound(2));
  EXPECT_EQ(trail.Get(2), 7);
  EXPECT_EQ(trail.Get(0), BindingTrail::kUnbound);
}

TEST(BindingTrailTest, UndoUnbindsNewestFirstBackToMark) {
  BindingTrail trail;
  trail.Reset(5);
  trail.Bind(0, 10);
  const size_t mark = trail.Mark();
  trail.Bind(3, 11);
  trail.Bind(1, 12);
  ASSERT_EQ(trail.trail().size(), 3u);
  // Trail records binding order, oldest first.
  EXPECT_EQ(trail.trail()[0], 0u);
  EXPECT_EQ(trail.trail()[1], 3u);
  EXPECT_EQ(trail.trail()[2], 1u);

  trail.UndoTo(mark);
  // Exactly the bindings after the mark are gone; the one before survives.
  EXPECT_FALSE(trail.IsBound(3));
  EXPECT_FALSE(trail.IsBound(1));
  EXPECT_TRUE(trail.IsBound(0));
  EXPECT_EQ(trail.Get(0), 10);
  EXPECT_EQ(trail.Mark(), mark);
}

TEST(BindingTrailTest, NestedMarksUndoInLifoOrder) {
  BindingTrail trail;
  trail.Reset(6);
  const size_t m0 = trail.Mark();
  trail.Bind(0, 1);
  const size_t m1 = trail.Mark();
  trail.Bind(1, 2);
  trail.Bind(2, 3);
  const size_t m2 = trail.Mark();
  trail.Bind(3, 4);

  trail.UndoTo(m2);
  EXPECT_TRUE(trail.IsBound(2));
  EXPECT_FALSE(trail.IsBound(3));
  trail.UndoTo(m1);
  EXPECT_TRUE(trail.IsBound(0));
  EXPECT_FALSE(trail.IsBound(1));
  trail.UndoTo(m0);
  EXPECT_FALSE(trail.IsBound(0));
  EXPECT_EQ(trail.trail().size(), 0u);
}

TEST(BindingTrailTest, ResetClearsBindingsAndTrail) {
  BindingTrail trail;
  trail.Reset(3);
  trail.Bind(0, 5);
  trail.Reset(2);
  EXPECT_EQ(trail.num_vars(), 2u);
  EXPECT_FALSE(trail.IsBound(0));
  EXPECT_TRUE(trail.trail().empty());
}

// ---------------------------------------------------------------------------
// Differential: compiled search vs the reference search

/// All mappings rendered and sorted, so enumeration order (which the
/// compiled engine's subgoal reordering legitimately changes) does not
/// matter, but the multiset of mappings must match exactly.
std::vector<std::string> SortedMappings(
    const std::function<void(const std::function<bool(const Substitution&)>&)>&
        for_each) {
  std::vector<std::string> out;
  for_each([&out](const Substitution& s) {
    out.push_back(s.ToString());
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameMappings(const ConjunctiveQuery& from,
                        const ConjunctiveQuery& to, const std::string& label) {
  const std::vector<std::string> compiled = SortedMappings(
      [&](const std::function<bool(const Substitution&)>& fn) {
        ForEachContainmentMapping(from, to, fn);
      });
  const std::vector<std::string> reference = SortedMappings(
      [&](const std::function<bool(const Substitution&)>& fn) {
        testing::ForEachContainmentMappingReference(from, to, fn);
      });
  EXPECT_EQ(compiled, reference) << label;
  EXPECT_EQ(FindContainmentMapping(from, to).has_value(), !reference.empty())
      << label;
  EXPECT_EQ(AllContainmentMappings(from, to).size(), reference.size())
      << label;
}

TEST(CompiledContainmentDifferentialTest, HandWrittenCornerCases) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      // Repeated variables and constants in both queries.
      {"q(X) :- p(X,X), p(X,3)", "q(Y) :- p(Y,Y), p(Y,3)"},
      // Different head predicates: no mappings at all.
      {"q(X) :- p(X,Y)", "r(A) :- p(A,B)"},
      // Multiple images per subgoal (fanout), shared variables.
      {"q(X) :- p(X,Y), p(Y,Z)", "q(A) :- p(A,A), p(A,B), p(B,C)"},
      // Constants that only exist on one side.
      {"q(X) :- p(X,5)", "q(A) :- p(A,7)"},
      // Boolean queries.
      {"q() :- p(X,Y), r(Y)", "q() :- p(A,B), r(B), r(C)"},
      // From-query bigger than to-query.
      {"q(X) :- p(X,Y), p(Y,Z), p(Z,W)", "q(A) :- p(A,A)"},
  };
  for (const auto& [from, to] : pairs) {
    ExpectSameMappings(Parse(from), Parse(to), from + "  vs  " + to);
  }
}

TEST(CompiledContainmentDifferentialTest, GeneratedWorkloadPairs) {
  // Every ordered pair drawn from {query} ∪ views of each generated
  // instance, across several workload shapes: comfortably more than 500
  // pairs, and the two engines must agree on every one.
  int pairs_checked = 0;
  for (int shape = 0; shape < 3; ++shape) {
    WorkloadConfig config;
    config.num_variables = 4 + shape;
    config.num_subgoals = 3 + shape;
    config.num_predicates = 2 + shape;  // fewer predicates -> more fanout
    config.num_views = 4;
    for (int seed = 0; seed < 8; ++seed) {
      config.seed = 100 * shape + seed;
      WorkloadGenerator generator(config);
      const WorkloadInstance instance = generator.Generate();
      std::vector<ConjunctiveQuery> queries;
      queries.push_back(instance.query);
      for (const ConjunctiveQuery& view : instance.views.views()) {
        queries.push_back(view);
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        for (size_t j = 0; j < queries.size(); ++j) {
          ExpectSameMappings(queries[i], queries[j],
                             "shape=" + std::to_string(shape) +
                                 " seed=" + std::to_string(config.seed) +
                                 " pair=(" + std::to_string(i) + "," +
                                 std::to_string(j) + ")");
          ++pairs_checked;
        }
      }
    }
  }
  EXPECT_GE(pairs_checked, 500);
}

TEST(CompiledContainmentTest, EarlyStopVisitsExactlyOneMapping) {
  const ConjunctiveQuery from = Parse("q(X) :- p(X,Y)");
  const ConjunctiveQuery to = Parse("q(A) :- p(A,B), p(A,C), p(A,D)");
  int visited = 0;
  ForEachContainmentMapping(from, to, [&visited](const Substitution&) {
    ++visited;
    return false;
  });
  EXPECT_EQ(visited, 1);
}

}  // namespace
}  // namespace cqac
