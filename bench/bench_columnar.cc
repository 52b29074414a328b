// The coded columnar engine on the canonical-database workloads the
// rewriter actually runs.  (The benchmark names keep their
// historical `_Columnar` suffix so new runs line up with the recorded
// results in results/; the `_Row` rows there measured the retired
// row-major canonical copy.)
//
//   - BM_Containment_Canonical_Columnar: full CqacContainedCanonical
//     over a chain query family (ordered-Bell-sized enumerations),
//     reporting satisfying_orders.
//   - BM_FreezeEvaluate_Columnar: the per-database inner loop in
//     isolation (enumeration excluded) — delta freeze plus match-mode
//     evaluation over a pre-collected order list.  Its allocs_per_iter
//     counter should read 0 in steady state (the alloc_gate_test
//     enforces the same property as a hard gate).
//   - BM_DictionaryBuild: ahead-of-time cost of seeding + ranking the
//     canonical value pool — the price paid once per RewriteWork for the
//     no-mid-run-rebuild guarantee.
//   - BM_IndexGateCrossover_Columnar: match-mode evaluation against a
//     single frozen chain database of `rows` subgoal tuples, sweeping
//     rows across the kFilterGate=8 and kIndexGate=32 strategy gates.
//
// tools/run_benches.sh columnar_engine records this binary's --json
// trajectory as results/BENCH_columnar_engine.json.

#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "benchmark/benchmark.h"
#include "constraints/orders.h"
#include "containment/cqac_containment.h"
#include "engine/canonical.h"
#include "engine/coded_eval.h"
#include "engine/query_plan.h"
#include "engine/value_dict.h"
#include "parser/parser.h"

namespace {

using cqac::CanonicalFreezer;
using cqac::CodedEvaluator;
using cqac::ConjunctiveQuery;
using cqac::ContainmentStats;
using cqac::OrderSymmetry;
using cqac::Parser;
using cqac::QueryPlan;
using cqac::Rational;
using cqac::TotalOrder;

/// q(X0) :- e(X0,X1), ..., e(X_{v-2},X_{v-1}), p(X0,X_{v-1}) — `v`
/// variables, ordered-Bell-many satisfying orders.
ConjunctiveQuery ChainQuery(int v, bool with_comparison) {
  std::ostringstream rule;
  rule << "q(X0) :- ";
  for (int i = 0; i + 1 < v; ++i) {
    rule << "e(X" << i << ",X" << i + 1 << "), ";
  }
  rule << "p(X0,X" << v - 1 << ")";
  if (with_comparison) rule << ", X0 < 8";
  return Parser::MustParseRule(rule.str());
}

void RunContainment(benchmark::State& state, bool with_comparison) {
  const int v = static_cast<int>(state.range(0));
  const ConjunctiveQuery q1 = ChainQuery(v, with_comparison);
  const ConjunctiveQuery q2 = Parser::MustParseRule(
      with_comparison ? "q(A) :- e(A,B), A < 8" : "q(A) :- e(A,B)");
  ContainmentStats stats;
  bool contained = false;
  const cqac::testing::AllocCounterScope allocs;
  for (auto _ : state) {
    stats = ContainmentStats{};
    contained = cqac::CqacContainedCanonical(q1, q2, &stats);
    benchmark::DoNotOptimize(contained);
  }
  cqac_bench::RecordAllocsPerIter(state, allocs);
  state.counters["contained"] = contained ? 1 : 0;
  state.counters["satisfying_orders"] =
      static_cast<double>(stats.orders_satisfying);
}

void BM_Containment_Canonical_Columnar(benchmark::State& state) {
  RunContainment(state, /*with_comparison=*/false);
}
BENCHMARK(BM_Containment_Canonical_Columnar)->DenseRange(3, 6);

/// q(X0) :- e(Xi,Xj) for all i != j — a complete digraph on `v`
/// variables, so the canonical database has v(v-1) e-rows and q2's chain
/// walk genuinely backtracks.  This is the workload class where
/// per-database evaluation (not freezing or enumeration) dominates.
ConjunctiveQuery DenseQuery(int v) {
  std::ostringstream rule;
  rule << "q(X0) :- ";
  bool first = true;
  for (int i = 0; i < v; ++i) {
    for (int j = 0; j < v; ++j) {
      if (i == j) continue;
      if (!first) rule << ", ";
      first = false;
      rule << "e(X" << i << ",X" << j << ")";
    }
  }
  return Parser::MustParseRule(rule.str());
}

void BM_Containment_Canonical_Dense_Columnar(benchmark::State& state) {
  const int v = static_cast<int>(state.range(0));
  const ConjunctiveQuery q1 = DenseQuery(v);
  const ConjunctiveQuery q2 =
      Parser::MustParseRule("q(A) :- e(A,B), e(B,C), e(C,D), e(D,E)");
  ContainmentStats stats;
  bool contained = false;
  const cqac::testing::AllocCounterScope allocs;
  for (auto _ : state) {
    stats = ContainmentStats{};
    contained = cqac::CqacContainedCanonical(q1, q2, &stats);
    benchmark::DoNotOptimize(contained);
  }
  cqac_bench::RecordAllocsPerIter(state, allocs);
  state.counters["contained"] = contained ? 1 : 0;
  state.counters["satisfying_orders"] =
      static_cast<double>(stats.orders_satisfying);
}

BENCHMARK(BM_Containment_Canonical_Dense_Columnar)->DenseRange(4, 5);

/// Wide canonical databases: the canonical-containment evaluation loop
/// (delta freeze + match-mode evaluation per satisfying order) over a q1
/// that is a strict chain of `rows` e-subgoals with a two-variable free
/// tail, q2 a five-step walk.  Order enumeration is hoisted out of the
/// timed region — it is shared, engine-independent work that at 30+
/// variables would otherwise drown the per-database numbers (the
/// end-to-end variants above keep it in).  Past rows = 32 the engine
/// probes a flat open-addressing table carved from the arena — the
/// regime the data-oriented core is built for.
void BM_Containment_Canonical_Wide_Columnar(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  std::ostringstream rule;
  rule << "q(X0) :- ";
  for (int i = 0; i < rows; ++i) {
    rule << (i > 0 ? ", " : "") << "e(X" << i << ",X" << i + 1 << ")";
  }
  // Chain the order axioms over all but the last two variables: the free
  // tail gives the enumeration a real (but pre-collected) order list and
  // makes every timed freeze a genuine delta patch.
  for (int i = 0; i + 2 < rows; ++i) {
    rule << ", X" << i << " < X" << i + 1;
  }
  const ConjunctiveQuery q1 = Parser::MustParseRule(rule.str());
  const ConjunctiveQuery q2 = Parser::MustParseRule(
      "q(A) :- e(A,B), e(B,C), e(C,D), e(D,E), e(E,F)");

  CanonicalFreezer freezer(q1);
  const QueryPlan plan(q2);
  CodedEvaluator coded(&plan);
  freezer.PrimeDictionary(q1.Constants(), q1.AllVariables().size());
  coded.BindTo(&freezer);

  std::vector<TotalOrder> orders;
  cqac::ForEachSatisfyingOrderPruned(
      q1.AllVariables(), q1.Constants(), q1.comparisons(), OrderSymmetry{},
      [&](const TotalOrder& order, int64_t) {
        orders.push_back(order);
        return orders.size() < 64;  // Plenty of databases, bounded setup.
      });

  int64_t matched = 0;
  for (const TotalOrder& order : orders) {  // Warm-up: arena high water.
    freezer.Freeze(order);
    matched += coded.Run(freezer, /*match_frozen_head=*/true, nullptr);
  }

  const cqac::testing::AllocCounterScope allocs;
  for (auto _ : state) {
    matched = 0;
    for (const TotalOrder& order : orders) {
      freezer.Freeze(order);
      matched += coded.Run(freezer, /*match_frozen_head=*/true, nullptr);
    }
    benchmark::DoNotOptimize(matched);
  }
  cqac_bench::RecordAllocsPerIter(state, allocs);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(orders.size()));
  state.counters["rows"] = rows;
  state.counters["satisfying_orders"] = static_cast<double>(orders.size());
  state.counters["matched"] = static_cast<double>(matched);
}

BENCHMARK(BM_Containment_Canonical_Wide_Columnar)
    ->RangeMultiplier(2)
    ->Range(32, 128);

void BM_Containment_Comparisons_Columnar(benchmark::State& state) {
  RunContainment(state, /*with_comparison=*/true);
}
BENCHMARK(BM_Containment_Comparisons_Columnar)->DenseRange(3, 6);

/// The inner loop in isolation: orders are pre-collected, each iteration
/// replays freeze + match-mode evaluation over the whole list.
void BM_FreezeEvaluate_Columnar(benchmark::State& state) {
  const int v = static_cast<int>(state.range(0));
  const ConjunctiveQuery q1 = ChainQuery(v, /*with_comparison=*/false);
  const ConjunctiveQuery q2 = Parser::MustParseRule("q(A) :- e(A,B)");

  CanonicalFreezer freezer(q1);
  const QueryPlan plan(q2);
  CodedEvaluator coded(&plan);
  freezer.PrimeDictionary(q1.Constants(), q1.AllVariables().size());
  coded.BindTo(&freezer);

  std::vector<TotalOrder> orders;
  cqac::ForEachSatisfyingOrderPruned(
      q1.AllVariables(), q1.Constants(), q1.comparisons(), OrderSymmetry{},
      [&](const TotalOrder& order, int64_t) {
        orders.push_back(order);
        return true;
      });

  // Warm-up pass: arena high-water mark, retained scratch capacities.
  int64_t matched = 0;
  for (const TotalOrder& order : orders) {
    freezer.Freeze(order);
    matched += coded.Run(freezer, /*match_frozen_head=*/true, nullptr);
  }

  const cqac::testing::AllocCounterScope allocs;
  for (auto _ : state) {
    matched = 0;
    for (const TotalOrder& order : orders) {
      freezer.Freeze(order);
      matched += coded.Run(freezer, /*match_frozen_head=*/true, nullptr);
    }
    benchmark::DoNotOptimize(matched);
  }
  cqac_bench::RecordAllocsPerIter(state, allocs);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(orders.size()));
  state.counters["satisfying_orders"] = static_cast<double>(orders.size());
  state.counters["matched"] = static_cast<double>(matched);
}

BENCHMARK(BM_FreezeEvaluate_Columnar)->DenseRange(4, 6);

/// Seeding + ranking the canonical value pool for `num_vars` variables
/// and three constants — the ahead-of-time price of the coded path.
void BM_DictionaryBuild(benchmark::State& state) {
  const size_t num_vars = static_cast<size_t>(state.range(0));
  const std::vector<Rational> constants = {Rational(2), Rational(8),
                                           Rational(20)};
  size_t pool = 0;
  for (auto _ : state) {
    cqac::ValueDictionary dict;
    cqac::SeedCanonicalValuePool(num_vars, constants, &dict);
    dict.Rebuild();
    pool = dict.size();
    benchmark::DoNotOptimize(pool);
  }
  state.counters["pool_size"] = static_cast<double>(pool);
}
BENCHMARK(BM_DictionaryBuild)->RangeMultiplier(2)->Range(4, 32);

/// One frozen chain database with `rows` e-tuples (X0 < X1 < ... pins a
/// single satisfying order); q2's second subgoal enters with its first
/// column bound, so the evaluator's per-depth strategy sweeps kScan →
/// kFilter → kIndex as rows crosses 8 and 32.
void BM_IndexGateCrossover_Columnar(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  std::ostringstream rule;
  rule << "q(X0) :- ";
  for (int i = 0; i < rows; ++i) {
    rule << (i > 0 ? ", " : "") << "e(X" << i << ",X" << i + 1 << ")";
  }
  for (int i = 0; i < rows; ++i) {
    rule << ", X" << i << " < X" << i + 1;
  }
  const ConjunctiveQuery q1 = Parser::MustParseRule(rule.str());
  const ConjunctiveQuery q2 =
      Parser::MustParseRule("q(A) :- e(A,B), e(B,C), e(C,D)");

  CanonicalFreezer freezer(q1);
  const QueryPlan plan(q2);
  CodedEvaluator coded(&plan);
  freezer.PrimeDictionary(q1.Constants(), q1.AllVariables().size());
  coded.BindTo(&freezer);

  bool frozen = false;
  cqac::ForEachSatisfyingOrderPruned(
      q1.AllVariables(), q1.Constants(), q1.comparisons(), OrderSymmetry{},
      [&](const TotalOrder& order, int64_t) {
        freezer.Freeze(order);
        frozen = true;
        return false;  // The chain admits exactly one order.
      });
  if (!frozen) {
    state.SkipWithError("no satisfying order");
    return;
  }

  bool matched = false;
  // Warm-up for the arena, then the timed evaluations.
  matched = coded.Run(freezer, /*match_frozen_head=*/true, nullptr);
  const cqac::testing::AllocCounterScope allocs;
  for (auto _ : state) {
    matched = coded.Run(freezer, /*match_frozen_head=*/true, nullptr);
    benchmark::DoNotOptimize(matched);
  }
  cqac_bench::RecordAllocsPerIter(state, allocs);
  state.counters["rows"] = rows;
  state.counters["matched"] = matched ? 1 : 0;
}

BENCHMARK(BM_IndexGateCrossover_Columnar)->RangeMultiplier(2)->Range(4, 256);

}  // namespace

CQAC_BENCH_MAIN()
