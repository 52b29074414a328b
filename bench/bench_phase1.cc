// Microbenchmark: the incremental Phase-1 pipeline.  Three layers are
// pinned separately so regressions localize:
//
//  * enumeration — nodes visited by the prefix-pruned satisfying-order
//    tree vs the naive enumerate-then-filter reference on the chained
//    workload (the bench_canonical /N family);
//  * freezing — delta Freeze (patch moved rows only) vs FreezeFull
//    (rewrite every row) over a full total-order sweep;
//  * end-to-end Phase 1 — PrepareRewriteWork + ProcessCanonicalDatabase
//    over every order of a generated workload, cold (no memo) and with
//    the fingerprint memo deduplicating structurally equal databases.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "benchmark/benchmark.h"
#include "constraints/orders.h"
#include "engine/canonical.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "runtime/memo_cache.h"
#include "testing/reference_engines.h"
#include "workload/generator.h"

namespace {

std::vector<std::string> Vars(int n) {
  std::vector<std::string> vars;
  for (int i = 0; i < n; ++i) vars.push_back("X" + std::to_string(i));
  return vars;
}

std::vector<cqac::Comparison> Chain(const std::vector<std::string>& vars) {
  std::vector<cqac::Comparison> axioms;
  for (size_t i = 0; i + 1 < vars.size(); ++i) {
    axioms.push_back(cqac::Comparison(cqac::Term::Variable(vars[i]),
                                      cqac::CompOp::kLt,
                                      cqac::Term::Variable(vars[i + 1])));
  }
  return axioms;
}

// The pruned enumeration tree on the fully chained axioms: one satisfying
// order, found after exactly one accepted placement per level.  Counters
// expose the visited/pruned split and the reference's node count for the
// same inputs (kept under the historical `legacy_nodes` key).
void BM_PrunedChainedOrders(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<std::string> vars = Vars(n);
  const std::vector<cqac::Comparison> axioms = Chain(vars);
  cqac::OrderEnumerationStats stats;
  for (auto _ : state) {
    stats = {};
    cqac::ForEachSatisfyingOrderPruned(
        vars, {}, axioms, cqac::OrderSymmetry{},
        [](const cqac::TotalOrder&, int64_t) { return true; }, &stats);
    benchmark::DoNotOptimize(stats);
  }
  cqac::OrderEnumerationStats reference;
  cqac::testing::ForEachSatisfyingOrderReference(
      vars, {}, axioms, [](const cqac::TotalOrder&) { return true; },
      &reference);
  state.counters["nodes_visited"] = static_cast<double>(stats.nodes_visited);
  state.counters["nodes_pruned"] = static_cast<double>(stats.nodes_pruned);
  state.counters["legacy_nodes"] = static_cast<double>(reference.nodes_visited);
  state.counters["orders"] = static_cast<double>(stats.orders_emitted);
}

// The enumerate-then-filter reference (testing/reference_engines.h) on
// the same chained axioms, so the two timing rows sit side by side in the
// console output.  The row keeps its historical `Legacy` name so runs
// line up with recorded results.
void BM_LegacyChainedOrders(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<std::string> vars = Vars(n);
  const std::vector<cqac::Comparison> axioms = Chain(vars);
  cqac::OrderEnumerationStats stats;
  for (auto _ : state) {
    stats = {};
    cqac::testing::ForEachSatisfyingOrderReference(
        vars, {}, axioms, [](const cqac::TotalOrder&) { return true; },
        &stats);
    benchmark::DoNotOptimize(stats);
  }
  state.counters["nodes_visited"] = static_cast<double>(stats.nodes_visited);
}

// Dense enough that refilling every row costs real work; the delta path
// additionally feeds the per-relation change epochs that let the view
// evaluator skip untouched relations (measured end to end below).
const char* const kFreezeQuery =
    "q(X0) :- r(X0, X1), r(X1, X2), r(X2, X3), r(X3, X4), s(X0, X2), "
    "s(X1, X3), s(X2, X4), t(X0, X3), t(X1, X4), t(X0, X4), u(X0, X1, "
    "X2, X3), u(X1, X2, X3, X4)";

// Delta freezing over a full sweep: consecutive orders differ in a few
// blocks, so most rows survive untouched.
void BM_DeltaFreezeSweep(benchmark::State& state) {
  const cqac::ConjunctiveQuery q = cqac::Parser::MustParseRule(kFreezeQuery);
  cqac::CanonicalFreezer freezer(q);
  int64_t orders = 0;
  for (auto _ : state) {
    orders = 0;
    cqac::ForEachTotalOrder(q.AllVariables(), {},
                            [&](const cqac::TotalOrder& order) {
                              benchmark::DoNotOptimize(freezer.Freeze(order));
                              ++orders;
                              return true;
                            });
  }
  state.counters["orders"] = static_cast<double>(orders);
}

// The reference path: rewrite every row on every order.
void BM_FullFreezeSweep(benchmark::State& state) {
  const cqac::ConjunctiveQuery q = cqac::Parser::MustParseRule(kFreezeQuery);
  cqac::CanonicalFreezer freezer(q);
  int64_t orders = 0;
  for (auto _ : state) {
    orders = 0;
    cqac::ForEachTotalOrder(
        q.AllVariables(), {}, [&](const cqac::TotalOrder& order) {
          benchmark::DoNotOptimize(freezer.FreezeFull(order));
          ++orders;
          return true;
        });
  }
  state.counters["orders"] = static_cast<double>(orders);
}

// End-to-end Phase 1 (no Phase-2 containment): every canonical database
// of the generated workload is processed, with no early failure exit so
// every run does identical work.  range(1) toggles the fingerprint memo.
void BM_Phase1Sweep(benchmark::State& state) {
  cqac::WorkloadConfig config;
  const int point = static_cast<int>(state.range(0));
  const bool use_memo = state.range(1) != 0;
  switch (point) {
    case 0:
      config.num_variables = 4;
      config.num_constants = 2;
      config.num_subgoals = 3;
      config.num_views = 4;
      break;
    case 1:
      config.num_variables = 5;
      config.num_constants = 2;
      config.num_subgoals = 4;
      config.num_views = 4;
      break;
    default:
      config.num_variables = 6;
      config.num_constants = 2;
      config.num_subgoals = 4;
      config.num_views = 5;
      break;
  }
  int64_t dbs = 0, kept = 0, hits = 0, misses = 0;
  for (auto _ : state) {
    dbs = kept = hits = misses = 0;
    for (int i = 0; i < 3; ++i) {
      config.seed = 1000 + i;
      cqac::WorkloadGenerator generator(config);
      const cqac::WorkloadInstance instance = generator.Generate();
      cqac::RewriteOptions options;
      const cqac::RewriteWork work = cqac::PrepareRewriteWork(
          instance.query, instance.views, options);
      cqac::Phase1Memo memo;
      cqac::ForEachTotalOrder(
          instance.query.AllVariables(), work.constants,
          [&](const cqac::TotalOrder& order) {
            ++dbs;
            const cqac::DatabaseOutcome out = cqac::ProcessCanonicalDatabase(
                work, order, use_memo ? &memo : nullptr);
            kept += out.stats.kept_canonical_databases;
            hits += out.stats.phase1_memo_hits;
            misses += out.stats.phase1_memo_misses;
            benchmark::DoNotOptimize(out);
            return true;
          });
    }
  }
  state.counters["canonical_dbs"] = static_cast<double>(dbs);
  state.counters["kept_dbs"] = static_cast<double>(kept);
  state.counters["memo_hits"] = static_cast<double>(hits);
  state.counters["memo_misses"] = static_cast<double>(misses);
}

BENCHMARK(BM_PrunedChainedOrders)
    ->DenseRange(3, 7)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LegacyChainedOrders)
    ->DenseRange(3, 7)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DeltaFreezeSweep)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullFreezeSweep)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Phase1Sweep)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

CQAC_BENCH_MAIN();
