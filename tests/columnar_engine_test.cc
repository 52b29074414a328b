// Unit tests for the data-oriented evaluation core: the bump arena, the
// order-preserving value dictionary and its canonical-pool seeding, the
// column-major coded instance, and the coded evaluator's contract with
// the freezer.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/orders.h"
#include "containment/cqac_containment.h"
#include "engine/arena.h"
#include "engine/canonical.h"
#include "engine/coded_eval.h"
#include "engine/columnar.h"
#include "engine/evaluate.h"
#include "engine/value_dict.h"
#include "parser/parser.h"

namespace cqac {
namespace {

TEST(ArenaTest, ResetKeepsCapacityAndStopsAllocating) {
  Arena arena(/*initial_bytes=*/64);
  // First epoch overflows the tiny initial block several times.
  for (int i = 0; i < 8; ++i) arena.AllocateArray<uint64_t>(16);
  const size_t high_water = arena.high_water();
  EXPECT_GE(high_water, 8 * 16 * sizeof(uint64_t));
  // After one Reset the blocks are coalesced; the same working set now
  // fits in block 0 and the high-water mark no longer moves.
  arena.Reset();
  for (int epoch = 0; epoch < 3; ++epoch) {
    arena.Reset();
    for (int i = 0; i < 8; ++i) {
      uint64_t* p = arena.AllocateArray<uint64_t>(16);
      ASSERT_NE(p, nullptr);
      p[0] = 1;  // must be writable
    }
    EXPECT_EQ(arena.high_water(), high_water);
  }
}

TEST(ArenaTest, AlignmentIsRespected) {
  Arena arena(/*initial_bytes=*/128);
  arena.AllocateArray<uint8_t>(3);  // misalign the bump pointer
  uint64_t* p = arena.AllocateArray<uint64_t>(1);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(uint64_t), 0u);
  uint8_t* z = arena.AllocateZeroedArray<uint8_t>(16);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(z[i], 0);
}

TEST(ValueDictionaryTest, CodesAreSortedRanks) {
  ValueDictionary dict;
  dict.Add(Rational(5));
  dict.Add(Rational(1));
  dict.Add(Rational(7, 2));
  dict.Add(Rational(5));  // duplicate: staged once
  dict.Rebuild();
  ASSERT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.Find(Rational(1)), 0u);
  EXPECT_EQ(dict.Find(Rational(7, 2)), 1u);
  EXPECT_EQ(dict.Find(Rational(5)), 2u);
  EXPECT_EQ(dict.Value(1), Rational(7, 2));
  EXPECT_EQ(dict.Find(Rational(2)), ValueDictionary::kNotFound);
}

TEST(ValueDictionaryTest, RebuildRenumbersAndBumpsEpoch) {
  ValueDictionary dict;
  dict.Add(Rational(10));
  dict.Rebuild();
  const uint64_t epoch1 = dict.epoch();
  EXPECT_EQ(dict.Find(Rational(10)), 0u);
  // Inserting a smaller value shifts the existing rank.
  EXPECT_TRUE(dict.Add(Rational(3)));
  EXPECT_TRUE(dict.has_staged());
  dict.Rebuild();
  EXPECT_GT(dict.epoch(), epoch1);
  EXPECT_EQ(dict.Find(Rational(3)), 0u);
  EXPECT_EQ(dict.Find(Rational(10)), 1u);
  // Re-adding known values stages nothing and a Rebuild keeps the epoch.
  const uint64_t epoch2 = dict.epoch();
  EXPECT_FALSE(dict.Add(Rational(3)));
  dict.Rebuild();
  EXPECT_EQ(dict.epoch(), epoch2);
}

TEST(ValueDictionaryTest, CodeOrderMatchesValueOrderForEveryOp) {
  ValueDictionary dict;
  const std::vector<Rational> values = {Rational(-2), Rational(0),
                                        Rational(1, 3), Rational(1),
                                        Rational(9, 2), Rational(7)};
  for (const Rational& v : values) dict.Add(v);
  dict.Rebuild();
  for (const Rational& a : values) {
    for (const Rational& b : values) {
      const uint32_t ca = dict.Find(a);
      const uint32_t cb = dict.Find(b);
      EXPECT_EQ(a < b, ca < cb);
      EXPECT_EQ(a == b, ca == cb);
      EXPECT_EQ(a <= b, ca <= cb);
    }
  }
}

TEST(ValueDictionaryTest, SeededPoolCoversEveryBlockValue) {
  // Every value any satisfying order can surface must be findable after
  // seeding — the no-mid-run-rebuild property the coded engine's
  // steady-state zero-allocation claim rests on.
  const std::vector<std::vector<Rational>> constant_sets = {
      {},
      {Rational(4)},
      {Rational(2), Rational(8)},
      {Rational(0), Rational(1), Rational(10)}};
  const std::vector<std::string> variables = {"A", "B", "C"};
  for (const auto& constants : constant_sets) {
    ValueDictionary dict;
    SeedCanonicalValuePool(variables.size(), constants, &dict);
    dict.Rebuild();
    std::vector<Rational> block_values;
    ForEachSatisfyingOrderPruned(
        variables, constants, /*axioms=*/{}, OrderSymmetry{},
        [&](const TotalOrder& order, int64_t) {
          order.BlockValues(&block_values);
          for (const Rational& v : block_values) {
            EXPECT_NE(dict.Find(v), ValueDictionary::kNotFound)
                << "unseeded value " << v.ToString() << " with "
                << constants.size() << " constants";
          }
          return true;
        });
  }
}

TEST(ColumnarInstanceTest, ColumnMajorLayout) {
  ColumnarInstance inst;
  const uint32_t r0 = inst.AddRelation(/*arity=*/2, /*rows=*/3);
  const uint32_t r1 = inst.AddRelation(/*arity=*/1, /*rows=*/2);
  ASSERT_EQ(inst.NumRelations(), 2u);
  EXPECT_EQ(inst.Arity(r0), 2);
  EXPECT_EQ(inst.RowCount(r1), 2u);
  for (uint32_t row = 0; row < 3; ++row) {
    inst.Set(r0, row, 0, 10 + row);
    inst.Set(r0, row, 1, 20 + row);
  }
  inst.Set(r1, 0, 0, 7);
  inst.Set(r1, 1, 0, 8);
  // Columns are contiguous runs of RowCount codes.
  const uint32_t* col0 = inst.Column(r0, 0);
  const uint32_t* col1 = inst.Column(r0, 1);
  EXPECT_EQ(col1 - col0, 3);
  for (uint32_t row = 0; row < 3; ++row) {
    EXPECT_EQ(col0[row], 10 + row);
    EXPECT_EQ(col1[row], 20 + row);
    EXPECT_EQ(inst.At(r0, row, 1), 20 + row);
  }
  EXPECT_EQ(inst.Column(r1, 0)[1], 8u);
}

TEST(CodedEvaluatorTest, ZeroArityHeadMatchesFrozenHead) {
  // Regression: a boolean head has an empty frozen-head code vector whose
  // data() may be null; match mode must still be match mode.
  const ConjunctiveQuery q1 = Parser::MustParseRule("q() :- p(X), X = 3");
  const ConjunctiveQuery q2 = Parser::MustParseRule("q() :- p(3)");
  EXPECT_TRUE(CqacContained(q1, q2));
  EXPECT_TRUE(CqacContained(q2, q1));
}

TEST(CodedEvaluatorTest, MatchAndCollectAgreeWithEvaluate) {
  const ConjunctiveQuery q1 = Parser::MustParseRule(
      "q(X) :- e(X,Y), e(Y,Z), X < Z, Y < 5");
  const ConjunctiveQuery q2 = Parser::MustParseRule("q(A) :- e(A,B), A < 5");

  std::vector<Rational> constants = q1.Constants();
  CanonicalFreezer freezer(q1);
  const QueryPlan plan(q2);
  CodedEvaluator coded(&plan);
  freezer.PrimeDictionary(constants, q1.AllVariables().size());
  coded.BindTo(&freezer);

  int orders = 0;
  ForEachSatisfyingOrderPruned(
      q1.AllVariables(), constants, q1.comparisons(), OrderSymmetry{},
      [&](const TotalOrder& order, int64_t) {
        freezer.Freeze(order);
        const CanonicalDatabase cdb = FreezeQuery(q1, order);
        const bool coded_match =
            coded.Run(freezer, /*match_frozen_head=*/true, nullptr);
        EXPECT_EQ(ComputesTuple(q2, cdb.db, cdb.frozen_head), coded_match)
            << "order " << orders;
        Relation coded_out;
        coded.Run(freezer, /*match_frozen_head=*/false, &coded_out);
        EXPECT_EQ(Evaluate(q2, cdb.db).tuples(), coded_out.tuples())
            << "order " << orders;
        ++orders;
        return true;
      });
  EXPECT_GT(orders, 0);
}

TEST(CodedEvaluatorTest, SteadyStateArenaStopsGrowing) {
  const ConjunctiveQuery q1 =
      Parser::MustParseRule("q(X) :- e(X,Y), e(Y,Z), e(Z,W)");
  const ConjunctiveQuery q2 = Parser::MustParseRule("q(A) :- e(A,B)");
  CanonicalFreezer freezer(q1);
  const QueryPlan plan(q2);
  CodedEvaluator coded(&plan);
  freezer.PrimeDictionary(q1.Constants(), q1.AllVariables().size());
  coded.BindTo(&freezer);
  size_t high_water_after_first = 0;
  int orders = 0;
  ForEachSatisfyingOrderPruned(
      q1.AllVariables(), q1.Constants(), q1.comparisons(), OrderSymmetry{},
      [&](const TotalOrder& order, int64_t) {
        freezer.Freeze(order);
        coded.Run(freezer, /*match_frozen_head=*/true, nullptr);
        if (orders == 0) {
          high_water_after_first = coded.arena_high_water();
        } else {
          // Same plan, same instance shape: the arena never grows after
          // the first run.
          EXPECT_EQ(coded.arena_high_water(), high_water_after_first)
              << "order " << orders;
        }
        ++orders;
        return true;
      });
  EXPECT_GT(orders, 1);
}

}  // namespace
}  // namespace cqac
