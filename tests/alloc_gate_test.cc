// The zero-allocation gate: after warm-up, a freeze → coded-evaluate
// cycle over canonical databases performs no heap allocations at all.
// This is the structural property the data-oriented core was built for —
// the arena, the fixed-capacity columnar instance, and the seeded value
// dictionary exist so the steady state is pure pointer arithmetic — and
// this test keeps it from regressing one std::vector at a time.
//
// The counting allocator (testing/alloc_hook.h) replaces global operator
// new for this binary; under sanitizer builds it compiles out and the
// gate skips.

#include <vector>

#include <gtest/gtest.h>

#include "constraints/orders.h"
#include "engine/canonical.h"
#include "engine/coded_eval.h"
#include "engine/query_plan.h"
#include "parser/parser.h"
#include "testing/alloc_hook.h"

namespace cqac {
namespace {

TEST(AllocGateTest, SteadyStateFreezeAndEvaluateAllocatesNothing) {
  if (!testing::AllocCountingAvailable()) {
    GTEST_SKIP() << "counting allocator unavailable under sanitizers";
  }

  // A containment-shaped workload: enumerate q1's satisfying orders once
  // (enumeration may allocate; it is not under the gate), then replay
  // freeze + match-mode evaluation over the captured orders.
  const ConjunctiveQuery q1 = Parser::MustParseRule(
      "q(X) :- e(X,Y), e(Y,Z), e(Z,W), X < 5, Y < W");
  const ConjunctiveQuery q2 =
      Parser::MustParseRule("q(A) :- e(A,B), e(B,C), A < 5");

  CanonicalFreezer freezer(q1);
  const QueryPlan plan(q2);
  CodedEvaluator coded(&plan);
  freezer.PrimeDictionary(q1.Constants(), q1.AllVariables().size());
  coded.BindTo(&freezer);

  std::vector<TotalOrder> orders;
  ForEachSatisfyingOrderPruned(
      q1.AllVariables(), q1.Constants(), q1.comparisons(), OrderSymmetry{},
      [&](const TotalOrder& order, int64_t) {
        orders.push_back(order);
        return orders.size() < 64;
      });
  ASSERT_GT(orders.size(), 4u);

  // Warm-up: first pass grows the arena to its high-water mark, takes the
  // one-time full-freeze path, and faults in any lazily sized scratch.
  for (const TotalOrder& order : orders) {
    freezer.Freeze(order);
    coded.Run(freezer, /*match_frozen_head=*/true, nullptr);
  }

  // Steady state: two more full passes, each individually allocation-free.
  for (int pass = 0; pass < 2; ++pass) {
    const testing::AllocCounterScope scope;
    for (const TotalOrder& order : orders) {
      freezer.Freeze(order);
      coded.Run(freezer, /*match_frozen_head=*/true, nullptr);
    }
    EXPECT_EQ(scope.delta(), 0)
        << "pass " << pass << ": steady-state freeze+evaluate allocated";
  }
}

}  // namespace
}  // namespace cqac
