// Differential and property tests for the incremental Phase-1 pipeline:
// the prefix-pruned satisfying-order enumeration (against the naive
// enumerate-then-filter reference), symmetry-orbit expansion, delta
// freezing, the indexed frozen-tuple matcher, and the fingerprint memo.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/orders.h"
#include "engine/canonical.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/view_tuples.h"
#include "runtime/memo_cache.h"
#include "testing/reference_engines.h"
#include "workload/generator.h"

namespace cqac {
namespace {

// ---------------------------------------------------------------------------
// Random AC patterns.

struct Pattern {
  std::vector<std::string> variables;
  std::vector<Rational> constants;
  std::vector<Comparison> axioms;
};

Pattern RandomPattern(std::mt19937* rng) {
  Pattern p;
  std::uniform_int_distribution<int> num_vars(2, 5);
  std::uniform_int_distribution<int> num_consts(0, 2);
  std::uniform_int_distribution<int> num_axioms(0, 5);
  const int v = num_vars(*rng);
  for (int i = 0; i < v; ++i) p.variables.push_back("X" + std::to_string(i));
  const int c = num_consts(*rng);
  for (int i = 0; i < c; ++i) p.constants.push_back(Rational(3 * i + 1));

  std::uniform_int_distribution<int> op_pick(0, 5);
  const CompOp ops[] = {CompOp::kLt, CompOp::kLe, CompOp::kEq,
                        CompOp::kNe, CompOp::kGe, CompOp::kGt};
  // Terms: the pattern's variables and constants, with a small chance of an
  // out-of-universe constant or variable to exercise the fallback path.
  auto term = [&]() -> Term {
    std::uniform_int_distribution<int> pick(0, v + c + 1);
    const int t = pick(*rng);
    if (t < v) return Term::Variable(p.variables[t]);
    if (t < v + c) return Term::Constant(p.constants[t - v]);
    std::uniform_int_distribution<int> kind(0, 9);
    if (kind(*rng) == 0) return Term::Variable("Z_out");
    if (kind(*rng) == 1) return Term::Constant(Rational(999));
    // Mostly stay in-universe so the fast path gets real coverage.
    std::uniform_int_distribution<int> again(0, v + c - 1);
    const int u = again(*rng);
    return u < v ? Term::Variable(p.variables[u])
                 : Term::Constant(p.constants[u - v]);
  };
  const int a = num_axioms(*rng);
  for (int i = 0; i < a; ++i) {
    p.axioms.push_back(Comparison(term(), ops[op_pick(*rng)], term()));
  }
  return p;
}

// ---------------------------------------------------------------------------
// Orbit expansion: all orders reachable from `order` by permuting, within
// each group, the members' names across the slots they occupy.

void Permutations(std::vector<std::string> members,
                  std::vector<std::vector<std::string>>* out) {
  std::sort(members.begin(), members.end());
  do {
    out->push_back(members);
  } while (std::next_permutation(members.begin(), members.end()));
}

std::vector<std::string> OrbitStrings(
    const TotalOrder& order, const std::vector<std::vector<std::string>>& groups) {
  // Positions (block, index-in-block) occupied by each group, in order.
  std::set<std::string> expanded;
  std::vector<std::vector<std::pair<size_t, size_t>>> slots(groups.size());
  std::map<std::string, size_t> group_of;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const std::string& m : groups[g]) group_of[m] = g;
  }
  for (size_t b = 0; b < order.blocks.size(); ++b) {
    for (size_t i = 0; i < order.blocks[b].variables.size(); ++i) {
      const auto it = group_of.find(order.blocks[b].variables[i]);
      if (it != group_of.end()) slots[it->second].push_back({b, i});
    }
  }
  // Cartesian product of per-group permutations, applied to a copy.
  std::vector<std::vector<std::vector<std::string>>> perms(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    std::vector<std::string> present;
    for (const auto& [b, i] : slots[g]) {
      present.push_back(order.blocks[b].variables[i]);
    }
    Permutations(present, &perms[g]);
  }
  std::vector<size_t> idx(groups.size(), 0);
  while (true) {
    TotalOrder variant = order;
    for (size_t g = 0; g < groups.size(); ++g) {
      for (size_t s = 0; s < slots[g].size(); ++s) {
        const auto& [b, i] = slots[g][s];
        variant.blocks[b].variables[i] = perms[g][idx[g]][s];
      }
    }
    // Canonicalize within-block member listing: block membership is a set,
    // but ToString renders insertion order, so sort each block's variables
    // for comparison purposes.
    for (OrderBlock& block : variant.blocks) {
      std::sort(block.variables.begin(), block.variables.end());
    }
    expanded.insert(variant.ToString());
    size_t g = 0;
    for (; g < groups.size(); ++g) {
      if (++idx[g] < perms[g].size()) break;
      idx[g] = 0;
    }
    if (g == groups.size()) break;
  }
  return std::vector<std::string>(expanded.begin(), expanded.end());
}

std::string CanonicalString(const TotalOrder& order) {
  TotalOrder copy = order;
  for (OrderBlock& block : copy.blocks) {
    std::sort(block.variables.begin(), block.variables.end());
  }
  return copy.ToString();
}

// Groups valid for *enumeration-level* symmetry in these tests: variables
// that appear in no axiom are interchangeable for the bare "is the order
// satisfying" verdict (the axioms cannot see them).
std::vector<std::vector<std::string>> AxiomFreeGroups(const Pattern& p) {
  std::set<std::string> in_axioms;
  for (const Comparison& c : p.axioms) {
    if (c.lhs().IsVariable()) in_axioms.insert(c.lhs().name());
    if (c.rhs().IsVariable()) in_axioms.insert(c.rhs().name());
  }
  std::vector<std::string> free_vars;
  for (const std::string& v : p.variables) {
    if (in_axioms.find(v) == in_axioms.end()) free_vars.push_back(v);
  }
  if (free_vars.size() < 2) return {};
  return {free_vars};
}

TEST(PrunedOrderDifferentialTest, MatchesLegacyOn500Patterns) {
  std::mt19937 rng(20260807);
  for (int round = 0; round < 500; ++round) {
    const Pattern p = RandomPattern(&rng);

    std::vector<std::string> reference;
    OrderEnumerationStats reference_stats;
    testing::ForEachSatisfyingOrderReference(
        p.variables, p.constants, p.axioms,
        [&reference](const TotalOrder& order) {
          reference.push_back(order.ToString());
          return true;
        },
        &reference_stats);

    // 1. Without symmetry: exactly the same sequence, in the same order.
    std::vector<std::string> pruned;
    OrderEnumerationStats pruned_stats;
    ForEachSatisfyingOrderPruned(
        p.variables, p.constants, p.axioms, OrderSymmetry{},
        [&pruned](const TotalOrder& order, int64_t mult) {
          EXPECT_EQ(mult, 1);
          pruned.push_back(order.ToString());
          return true;
        },
        &pruned_stats);
    ASSERT_EQ(pruned, reference) << "round " << round;
    EXPECT_EQ(pruned_stats.orders_weighted, reference_stats.orders_weighted);
    EXPECT_LE(pruned_stats.nodes_visited, reference_stats.nodes_visited);

    // 2. With symmetry: orbit expansion reproduces the reference multiset and
    // every multiplicity equals its orbit size.  Skipped for patterns with
    // out-of-universe axiom terms: the fallback path deliberately ignores
    // symmetry (every order is emitted with multiplicity 1).
    bool in_universe = true;
    for (const Comparison& c : p.axioms) {
      for (const Term* t : {&c.lhs(), &c.rhs()}) {
        if (t->IsVariable()) {
          in_universe &= std::find(p.variables.begin(), p.variables.end(),
                                   t->name()) != p.variables.end();
        } else {
          in_universe &= std::find(p.constants.begin(), p.constants.end(),
                                   t->value()) != p.constants.end();
        }
      }
    }
    if (!in_universe) continue;
    OrderSymmetry symmetry;
    symmetry.groups = AxiomFreeGroups(p);
    std::vector<std::string> expanded;
    int64_t weighted = 0;
    ForEachSatisfyingOrderPruned(
        p.variables, p.constants, p.axioms, symmetry,
        [&](const TotalOrder& order, int64_t mult) {
          const std::vector<std::string> orbit =
              OrbitStrings(order, symmetry.groups);
          EXPECT_EQ(static_cast<int64_t>(orbit.size()), mult)
              << "round " << round << " order " << order.ToString();
          expanded.insert(expanded.end(), orbit.begin(), orbit.end());
          weighted += mult;
          return true;
        });
    std::vector<std::string> reference_canonical;
    testing::ForEachSatisfyingOrderReference(
        p.variables, p.constants, p.axioms,
        [&reference_canonical](const TotalOrder& order) {
          reference_canonical.push_back(CanonicalString(order));
          return true;
        });
    std::sort(expanded.begin(), expanded.end());
    std::sort(reference_canonical.begin(), reference_canonical.end());
    ASSERT_EQ(expanded, reference_canonical) << "round " << round;
    EXPECT_EQ(weighted, static_cast<int64_t>(reference.size()));
  }
}

TEST(PrunedOrderDifferentialTest, EarlyStopIsHonored) {
  std::mt19937 rng(7);
  for (int round = 0; round < 50; ++round) {
    const Pattern p = RandomPattern(&rng);
    int64_t total = 0;
    ForEachSatisfyingOrderPruned(
        p.variables, p.constants, p.axioms, OrderSymmetry{},
        [&total](const TotalOrder&, int64_t) { return ++total < 3; });
    int64_t reference_total = 0;
    testing::ForEachSatisfyingOrderReference(
        p.variables, p.constants, p.axioms,
        [&reference_total](const TotalOrder&) { return ++reference_total < 3; });
    EXPECT_EQ(total, reference_total);
  }
}

TEST(PrunedOrderTest, ChainPrunesAtLeastFiveFold) {
  // The bench_canonical chained workload: X0 < X1 < ... < X4.  The naive
  // tree has 1+1+3+13+75+541 = 634 nodes; the pruned tree admits exactly
  // one placement per level.
  std::vector<std::string> vars;
  std::vector<Comparison> axioms;
  for (int i = 0; i < 5; ++i) vars.push_back("X" + std::to_string(i));
  for (int i = 0; i + 1 < 5; ++i) {
    axioms.push_back(Comparison(Term::Variable(vars[i]), CompOp::kLt,
                                Term::Variable(vars[i + 1])));
  }
  OrderEnumerationStats reference_stats;
  testing::ForEachSatisfyingOrderReference(
      vars, {}, axioms, [](const TotalOrder&) { return true; },
      &reference_stats);
  OrderEnumerationStats pruned_stats;
  ForEachSatisfyingOrderPruned(
      vars, {}, axioms, OrderSymmetry{},
      [](const TotalOrder&, int64_t) { return true; }, &pruned_stats);
  EXPECT_EQ(reference_stats.nodes_visited, 634);
  EXPECT_EQ(reference_stats.orders_emitted, 1);
  EXPECT_EQ(pruned_stats.orders_emitted, 1);
  EXPECT_EQ(pruned_stats.nodes_visited, 6);
  EXPECT_GE(reference_stats.nodes_visited, 5 * pruned_stats.nodes_visited);
}

TEST(PrunedOrderTest, TransitiveClosurePrunesImpliedViolations) {
  // X < Y, Y < Z: placing Z before X violates only the *implied* X < Z.
  // The closure catches it at Z's placement; count stays well below the
  // direct-checks-only tree.
  const std::vector<std::string> vars = {"X", "Z", "Y"};
  const std::vector<Comparison> axioms = {
      Comparison(Term::Variable("X"), CompOp::kLt, Term::Variable("Y")),
      Comparison(Term::Variable("Y"), CompOp::kLt, Term::Variable("Z"))};
  OrderEnumerationStats stats;
  std::vector<std::string> orders;
  ForEachSatisfyingOrderPruned(
      vars, {}, axioms, OrderSymmetry{},
      [&orders](const TotalOrder& order, int64_t) {
        orders.push_back(order.ToString());
        return true;
      },
      &stats);
  ASSERT_EQ(orders, std::vector<std::string>{"X < Y < Z"});
  // Root + X + {Z after X} + {Y between}: the X-Z-inverted subtree dies at
  // Z's placement, before Y is ever tried.
  EXPECT_EQ(stats.nodes_visited, 4);
}

TEST(PrunedOrderTest, UnsatisfiableAxiomsEmitNothing) {
  const std::vector<std::string> vars = {"X", "Y"};
  const std::vector<Comparison> cases[] = {
      {Comparison(Term::Variable("X"), CompOp::kLt, Term::Variable("X"))},
      {Comparison(Term::Variable("X"), CompOp::kLt, Term::Variable("Y")),
       Comparison(Term::Variable("Y"), CompOp::kLt, Term::Variable("X"))},
      {Comparison(Term::Constant(Rational(3)), CompOp::kGt,
                  Term::Constant(Rational(5)))},
      {Comparison(Term::Variable("X"), CompOp::kLe,
                  Term::Constant(Rational(1))),
       Comparison(Term::Variable("X"), CompOp::kGe,
                  Term::Constant(Rational(2)))}};
  for (const auto& axioms : cases) {
    std::vector<Rational> constants;
    for (const Comparison& c : axioms) {
      if (c.lhs().IsConstant()) constants.push_back(c.lhs().value());
      if (c.rhs().IsConstant()) constants.push_back(c.rhs().value());
    }
    int64_t emitted = 0;
    ForEachSatisfyingOrderPruned(
        vars, constants, axioms, OrderSymmetry{},
        [&emitted](const TotalOrder&, int64_t) {
          ++emitted;
          return true;
        });
    EXPECT_EQ(emitted, 0);
  }
}

TEST(InterchangeableVariableGroupsTest, FindsStructuralAutomorphisms) {
  // Y and Z both appear once in the same position of the same predicate;
  // W is pinned by the head, V by a comparison.
  const ConjunctiveQuery q = Parser::MustParseRule(
      "q(W) :- r(W, Y), r(W, Z), s(V), V < 5");
  const auto groups = InterchangeableVariableGroups(q);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<std::string>{"Y", "Z"}));
}

TEST(InterchangeableVariableGroupsTest, PositionMattersForSwaps) {
  // Swapping X and Y maps r(X, Y) to r(Y, X), which is a different atom:
  // no group.  (This is the soundness case: [X][Y] and [Y][X] can get
  // different verdicts from a second query comparing the two columns.)
  const ConjunctiveQuery q = Parser::MustParseRule("q() :- r(X, Y)");
  EXPECT_TRUE(InterchangeableVariableGroups(q).empty());
  // But two independent atoms over distinct unary predicates are NOT
  // interchangeable either: p(X), s(Y) swapped gives p(Y), s(X).
  const ConjunctiveQuery q2 = Parser::MustParseRule("q() :- p(X), s(Y)");
  EXPECT_TRUE(InterchangeableVariableGroups(q2).empty());
  // Same predicate, same column: interchangeable.
  const ConjunctiveQuery q3 = Parser::MustParseRule("q() :- p(X), p(Y)");
  const auto groups = InterchangeableVariableGroups(q3);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<std::string>{"X", "Y"}));
}

TEST(InterchangeableVariableGroupsTest, TransitivityViaSharedPartner) {
  const ConjunctiveQuery q = Parser::MustParseRule("q() :- p(A), p(B), p(C)");
  const auto groups = InterchangeableVariableGroups(q);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<std::string>{"A", "B", "C"}));
}

// ---------------------------------------------------------------------------
// Delta freezing: a freezer that patches rows in place across an arbitrary
// order walk must produce the same instance a from-scratch refill does.

std::string SerializeInstance(const CanonicalFreezer& freezer) {
  const ColumnarInstance& inst = freezer.columnar();
  std::string s;
  for (uint32_t rel = 0; rel < inst.NumRelations(); ++rel) {
    s += "rel" + std::to_string(rel) + ":";
    // Rows are multiset-semantics but the freezer's row layout is fixed,
    // so even the row order must agree.  Each cell shows its code and the
    // value the code decodes to, so a stale code after a dictionary
    // recode shows up too.
    for (uint32_t r = 0; r < inst.RowCount(rel); ++r) {
      s += "(";
      for (int a = 0; a < inst.Arity(rel); ++a) {
        const uint32_t code = inst.At(rel, r, a);
        s += std::to_string(code) + "=" +
             freezer.dictionary().Value(code).ToString() + ",";
      }
      s += ")";
    }
    s += ";";
  }
  s += "head:(";
  for (const Rational& v : freezer.frozen_head()) s += v.ToString() + ",";
  s += ")";
  return s;
}

TEST(DeltaFreezeTest, MatchesFullFreezeAcrossFullEnumeration) {
  const std::vector<ConjunctiveQuery> queries = {
      Parser::MustParseRule("q(X) :- r(X, Y), s(Y, Z), X < 3"),
      Parser::MustParseRule("q() :- p(A), p(B), r(A, B)"),
      Parser::MustParseRule("q(U, V) :- e(U, W), e(W, V), f(W)"),
  };
  for (const ConjunctiveQuery& q : queries) {
    CanonicalFreezer delta(q);
    CanonicalFreezer full(q);
    const std::vector<Rational> constants = q.Constants();
    int64_t orders = 0;
    ForEachTotalOrder(q.AllVariables(), constants,
                      [&](const TotalOrder& order) {
                        delta.Freeze(order);
                        full.FreezeFull(order);
                        EXPECT_EQ(SerializeInstance(delta),
                                  SerializeInstance(full))
                            << q.ToString() << " on " << order.ToString();
                        return ++orders < 2000;
                      });
    EXPECT_GT(orders, 0);
  }
}

TEST(DeltaFreezeTest, PurityAfterArbitraryJumps) {
  // The delta path must be a function of the current order only: revisit
  // orders in a shuffled sequence and require byte-equal instances on the
  // repeat visit.
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X) :- r(X, Y), s(Y, Z), t(Z, W)");
  const std::vector<TotalOrder> orders =
      EnumerateTotalOrders(q.AllVariables(), {});
  CanonicalFreezer delta(q);
  std::map<std::string, std::string> first_visit;
  std::vector<size_t> sequence;
  std::mt19937 rng(42);
  std::uniform_int_distribution<size_t> pick(0, orders.size() - 1);
  for (int i = 0; i < 500; ++i) sequence.push_back(pick(rng));
  for (const size_t i : sequence) {
    delta.Freeze(orders[i]);
    const std::string s = SerializeInstance(delta);
    const auto [it, inserted] =
        first_visit.emplace(orders[i].ToString(), s);
    if (!inserted) {
      EXPECT_EQ(it->second, s) << "revisit of " << orders[i].ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Indexed frozen-tuple matcher: verdict-identical to the per-tuple
// MatchesFrozenViewTuple scan on every canonical database.

TEST(FrozenTupleMatcherTest, MatchesLegacyScanOnWorkload) {
  WorkloadConfig config;
  config.num_variables = 4;
  config.num_constants = 2;
  config.num_subgoals = 3;
  config.num_views = 4;
  config.seed = 1000;
  const WorkloadInstance instance = WorkloadGenerator(config).Generate();
  const RewriteOptions options;
  const RewriteWork work =
      PrepareRewriteWork(instance.query, instance.views, options);
  ASSERT_FALSE(work.mcds.empty());

  CanonicalFreezer freezer(instance.query);
  ViewTupleEvaluator evaluator(instance.views);
  std::vector<Atom> mcd_tuples;
  for (const Mcd& mcd : work.mcds) mcd_tuples.push_back(mcd.view_tuple);
  FrozenTupleMatcher matcher(mcd_tuples, freezer);

  int64_t orders = 0;
  ForEachTotalOrder(
      instance.query.AllVariables(), work.constants,
      [&](const TotalOrder& order) {
        // Legacy path: map-based database, per-tuple scan.
        const CanonicalDatabase cdb = FreezeQuery(instance.query, order);
        const ViewTuples tuples = ComputeViewTuples(instance.views, cdb);
        // New path: delta freeze, epoch-gated evaluation, indexed probe.
        freezer.Freeze(order);
        evaluator.Refresh(freezer);
        EXPECT_EQ(evaluator.total(), tuples.total) << order.ToString();
        matcher.BindDatabase(evaluator);
        for (size_t m = 0; m < work.mcds.size(); ++m) {
          EXPECT_EQ(matcher.Matches(m),
                    MatchesFrozenViewTuple(work.mcds[m].view_tuple, tuples,
                                           cdb))
              << "mcd " << m << " on " << order.ToString();
        }
        return ++orders < 400;
      });
  EXPECT_GT(orders, 0);
}

// ---------------------------------------------------------------------------
// Fingerprint memo: byte-identical results, exhaustive hit+miss coverage.

void ExpectSameResultModuloMemoCounters(const RewriteResult& off,
                                        const RewriteResult& on) {
  EXPECT_EQ(off.outcome, on.outcome);
  EXPECT_EQ(off.failure_reason, on.failure_reason);
  ASSERT_EQ(off.rewriting.size(), on.rewriting.size());
  for (size_t i = 0; i < off.rewriting.disjuncts().size(); ++i) {
    EXPECT_EQ(off.rewriting.disjuncts()[i].ToString(),
              on.rewriting.disjuncts()[i].ToString());
  }
  EXPECT_EQ(off.stats.canonical_databases, on.stats.canonical_databases);
  EXPECT_EQ(off.stats.kept_canonical_databases,
            on.stats.kept_canonical_databases);
  EXPECT_EQ(off.stats.v0_variants, on.stats.v0_variants);
  EXPECT_EQ(off.stats.mcds_formed, on.stats.mcds_formed);
  EXPECT_EQ(off.stats.mcds_kept_total, on.stats.mcds_kept_total);
  EXPECT_EQ(off.stats.view_tuples_total, on.stats.view_tuples_total);
  EXPECT_EQ(off.stats.phase2_checks, on.stats.phase2_checks);
  EXPECT_EQ(off.stats.phase2_orders, on.stats.phase2_orders);
}

TEST(Phase1MemoTest, DedupOnAndOffAreByteIdentical) {
  WorkloadConfig config;
  config.num_variables = 4;
  config.num_constants = 2;
  config.num_subgoals = 3;
  config.num_views = 4;
  for (uint64_t seed = 1000; seed < 1003; ++seed) {
    config.seed = seed;
    const WorkloadInstance instance = WorkloadGenerator(config).Generate();
    RewriteOptions off_options;
    off_options.phase1_dedup = false;
    RewriteOptions on_options;
    on_options.phase1_dedup = true;
    const RewriteResult off =
        EquivalentRewriter(instance.query, instance.views, off_options).Run();
    const RewriteResult on =
        EquivalentRewriter(instance.query, instance.views, on_options).Run();
    ExpectSameResultModuloMemoCounters(off, on);
    EXPECT_EQ(off.stats.phase1_memo_hits, 0);
    EXPECT_EQ(off.stats.phase1_memo_misses, 0);
    // Every database past the keep-test either hits or misses the memo,
    // except a no-view-tuples short-circuit (which ends the run).
    if (on.outcome == RewriteOutcome::kRewritingFound) {
      EXPECT_EQ(on.stats.phase1_memo_hits + on.stats.phase1_memo_misses,
                on.stats.kept_canonical_databases)
          << "seed " << seed;
      EXPECT_GT(on.stats.phase1_memo_hits, 0) << "seed " << seed;
    }
  }
}

TEST(Phase1MemoTest, ParallelRunSharesOneMemoAndStaysIdentical) {
  WorkloadConfig config;
  config.num_variables = 4;
  config.num_constants = 2;
  config.num_subgoals = 3;
  config.num_views = 4;
  config.seed = 1001;
  const WorkloadInstance instance = WorkloadGenerator(config).Generate();
  RewriteOptions serial_options;
  serial_options.phase1_dedup = false;
  RewriteOptions parallel_options;
  parallel_options.phase1_dedup = true;
  parallel_options.jobs = 4;
  const RewriteResult serial =
      EquivalentRewriter(instance.query, instance.views, serial_options).Run();
  const RewriteResult parallel =
      EquivalentRewriter(instance.query, instance.views, parallel_options)
          .Run();
  ExpectSameResultModuloMemoCounters(serial, parallel);
  // The hit/miss *split* races (first writer wins), but the total is the
  // number of databases that consulted the memo.
  if (parallel.outcome == RewriteOutcome::kRewritingFound) {
    EXPECT_EQ(
        parallel.stats.phase1_memo_hits + parallel.stats.phase1_memo_misses,
        parallel.stats.kept_canonical_databases);
  }
}

TEST(Phase1MemoTest, ExplainBypassesTheMemo) {
  const ConjunctiveQuery q =
      Parser::MustParseRule("q(X) :- r(X, Y), X < 5");
  ViewSet views;
  views.Add(Parser::MustParseRule("v(A, B) :- r(A, B)"));
  RewriteOptions options;
  options.explain = true;
  options.phase1_dedup = true;
  const RewriteResult result = EquivalentRewriter(q, views, options).Run();
  EXPECT_EQ(result.stats.phase1_memo_hits, 0);
  EXPECT_EQ(result.stats.phase1_memo_misses, 0);
  EXPECT_FALSE(result.trace.databases.empty());
}

TEST(Phase1MemoTest, VerifyOnHitNeverReturnsAForeignEntry) {
  // Same fingerprint can only collide across distinct keys by luck; force
  // the issue by storing under one key and probing with another that maps
  // to the same shard bucket only if the fingerprints truly collide (they
  // will not, but the Get must key-compare regardless).
  Phase1Memo memo;
  Phase1Entry entry;
  entry.key = "alpha";
  entry.combination_exists = true;
  entry.mcds_kept = 3;
  memo.Put(FingerprintPhase1Key("alpha"), entry);
  Phase1Entry out;
  EXPECT_TRUE(memo.Get(FingerprintPhase1Key("alpha"), "alpha", &out));
  EXPECT_EQ(out.mcds_kept, 3);
  // Probing the *right* fingerprint with the *wrong* key must miss.
  EXPECT_FALSE(memo.Get(FingerprintPhase1Key("alpha"), "beta", &out));
  const Phase1MemoStats stats = memo.Stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
}

TEST(Phase1MemoTest, CapacityBoundsResidentEntries) {
  Phase1Memo memo(/*capacity=*/32, /*num_shards=*/4);
  for (int i = 0; i < 1000; ++i) {
    Phase1Entry entry;
    entry.key = "key" + std::to_string(i);
    memo.Put(FingerprintPhase1Key(entry.key), entry);
  }
  EXPECT_LE(memo.size(), 32u);
  const Phase1MemoStats stats = memo.Stats();
  EXPECT_EQ(stats.insertions + stats.evictions, 1000);
}

TEST(Phase1MemoTest, ConcurrentHammerKeepsEntriesConsistent) {
  // Exercised under tsan via the test's label.  Writers race on a small
  // key universe; first-writer-wins means every Get must observe the
  // deterministic payload derived from the key, never a torn mix.
  Phase1Memo memo(/*capacity=*/256, /*num_shards=*/4);
  constexpr int kKeys = 64;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<int64_t> verified{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(t);
      std::uniform_int_distribution<int> pick(0, kKeys - 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = pick(rng);
        const std::string key = "db-key-" + std::to_string(k);
        const Phase1Fingerprint fp = FingerprintPhase1Key(key);
        Phase1Entry out;
        if (memo.Get(fp, key, &out)) {
          // Payload is a pure function of the key for every writer.
          EXPECT_EQ(out.key, key);
          EXPECT_EQ(out.mcds_kept, k);
          ASSERT_EQ(out.body_mcds.size(), 1u);
          EXPECT_EQ(out.body_mcds[0], k);
          verified.fetch_add(1, std::memory_order_relaxed);
        } else {
          Phase1Entry entry;
          entry.key = key;
          entry.combination_exists = (k % 2) == 0;
          entry.mcds_kept = k;
          entry.body_mcds = {k};
          entry.body_vars = {"X" + std::to_string(k)};
          memo.Put(fp, entry);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(verified.load(), 0);
  EXPECT_LE(memo.size(), 256u);
  const Phase1MemoStats stats = memo.Stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread);
}

}  // namespace
}  // namespace cqac
