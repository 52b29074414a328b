#include "containment/cqac_containment.h"

#include <algorithm>
#include <utility>

#include "constraints/ac_solver.h"
#include "constraints/orders.h"
#include "containment/canonical_coverage.h"
#include "containment/homomorphism.h"
#include "containment/normalization.h"
#include "engine/canonical.h"
#include "engine/coded_eval.h"
#include "engine/query_plan.h"

namespace cqac {

namespace {

void MergeConstants(const std::vector<Rational>& extra,
                    std::vector<Rational>* into) {
  for (const Rational& c : extra) {
    if (std::find(into->begin(), into->end(), c) == into->end()) {
      into->push_back(c);
    }
  }
}

/// The substitution that collapses each variable of `order` to its block's
/// representative term.
Substitution CollapseByOrder(const TotalOrder& order) {
  Substitution s;
  for (const OrderBlock& block : order.blocks) {
    const Term rep = block.Representative();
    for (const std::string& v : block.variables) {
      const Term var = Term::Variable(v);
      if (var != rep) s.Bind(v, rep);
    }
  }
  return s;
}

}  // namespace

bool CqacContainedCanonical(const ConjunctiveQuery& q1,
                            const ConjunctiveQuery& q2,
                            ContainmentStats* stats) {
  if (!AcSolver::IsSatisfiable(q1.comparisons())) return true;  // q1 empty.
  if (q1.head().arity() != q2.head().arity()) return false;

  std::vector<Rational> constants = q1.Constants();
  MergeConstants(q2.Constants(), &constants);

  // Compile both sides once: q1's subgoals freeze into a coded instance
  // per order, q2 runs as a compiled plan on the coded columnar engine.
  // The dictionary is primed with every value the enumeration can
  // surface, so each order costs a delta freeze plus an all-integer
  // evaluation with zero heap allocations.  Head arities match, so the
  // engine's arity precheck cannot fire.
  CanonicalFreezer freezer(q1);
  const QueryPlan plan(q2);
  CodedEvaluator coded(&plan);
  freezer.PrimeDictionary(constants, q1.AllVariables().size());
  coded.BindTo(&freezer);

  // Prefix-pruned, symmetry-reduced enumeration: swapping two
  // interchangeable q1 variables maps each canonical database to an
  // identical one, so the per-order verdict is constant on every orbit
  // and one representative decides it.
  OrderSymmetry symmetry;
  symmetry.groups = InterchangeableVariableGroups(q1);

  bool contained = true;
  OrderEnumerationStats enum_stats;
  ForEachSatisfyingOrderPruned(
      q1.AllVariables(), constants, q1.comparisons(), symmetry,
      [&](const TotalOrder& order, int64_t multiplicity) {
        if (stats != nullptr) {
          ++stats->orders_enumerated;
          stats->orders_satisfying += multiplicity;
        }
        freezer.Freeze(order);
        if (!coded.Run(freezer, /*match_frozen_head=*/true, nullptr)) {
          contained = false;
          return false;  // Counterexample found; stop enumerating.
        }
        return true;
      },
      stats != nullptr ? &enum_stats : nullptr);
  if (stats != nullptr) {
    stats->nodes_visited += enum_stats.nodes_visited;
    stats->nodes_pruned += enum_stats.nodes_pruned;
  }
  return contained;
}

bool CqacContainedImplication(const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2,
                              ContainmentStats* stats) {
  if (!AcSolver::IsSatisfiable(q1.comparisons())) return true;
  if (q1.head().arity() != q2.head().arity()) return false;

  std::vector<Rational> constants = q1.Constants();
  MergeConstants(q2.Constants(), &constants);

  bool contained = true;
  ForEachSatisfyingOrder(
      q1.AllVariables(), constants, q1.comparisons(),
      [&](const TotalOrder& order) {
        if (stats != nullptr) {
          ++stats->orders_enumerated;
          ++stats->orders_satisfying;
        }
        const std::map<std::string, Rational> assignment =
            order.ToAssignment();
        // Collapse q1 by the order's equalities and look for a containment
        // mapping from q2 whose comparison image holds under the order.
        const ConjunctiveQuery q1_collapsed =
            q1.ApplySubstitution(CollapseByOrder(order));
        bool some_mapping_works = false;
        ForEachContainmentMapping(
            q2, q1_collapsed, [&](const Substitution& mu) {
              std::vector<Comparison> image;
              image.reserve(q2.comparisons().size());
              for (const Comparison& c : q2.comparisons()) {
                image.push_back(mu.Apply(c));
              }
              if (AcSolver::SatisfiedBy(image, assignment)) {
                some_mapping_works = true;
                return false;  // Stop mapping enumeration.
              }
              return true;
            });
        if (!some_mapping_works) {
          contained = false;
          return false;
        }
        return true;
      });
  return contained;
}

bool CqacContainedNormalized(const ConjunctiveQuery& q1,
                             const ConjunctiveQuery& q2,
                             ContainmentStats* stats) {
  if (!AcSolver::IsSatisfiable(q1.comparisons())) return true;
  if (q1.head().arity() != q2.head().arity()) return false;

  const ConjunctiveQuery q1n = NormalizeQuery(q1);
  const ConjunctiveQuery q2n = NormalizeQuery(q2.RenameVariables("_m"));

  std::vector<Rational> constants = q1.Constants();
  MergeConstants(q2.Constants(), &constants);

  bool contained = true;
  ForEachSatisfyingOrder(
      q1n.AllVariables(), constants, q1n.comparisons(),
      [&](const TotalOrder& order) {
        if (stats != nullptr) {
          ++stats->orders_enumerated;
          ++stats->orders_satisfying;
        }
        const std::map<std::string, Rational> assignment =
            order.ToAssignment();
        // Pin every q1n variable to its value; a mapping works when its
        // comparison image admits values for q2's leftover existential
        // variables.
        std::vector<Comparison> pinned;
        for (const auto& [var, value] : assignment) {
          pinned.push_back(Comparison(Term::Variable(var), CompOp::kEq,
                                      Term::Constant(value)));
        }
        const ConjunctiveQuery q1_collapsed =
            q1n.ApplySubstitution(CollapseByOrder(order));
        bool some_mapping_works = false;
        ForEachContainmentMapping(
            q2n, q1_collapsed, [&](const Substitution& mu) {
              std::vector<Comparison> combined = pinned;
              for (const Comparison& c : q2n.comparisons()) {
                combined.push_back(mu.Apply(c));
              }
              if (AcSolver::IsSatisfiable(combined)) {
                some_mapping_works = true;
                return false;
              }
              return true;
            });
        if (!some_mapping_works) {
          contained = false;
          return false;
        }
        return true;
      });
  return contained;
}

bool CqacContainedSingleMapping(const ConjunctiveQuery& q1,
                                const ConjunctiveQuery& q2) {
  if (!AcSolver::IsSatisfiable(q1.comparisons())) return true;
  if (q1.head().arity() != q2.head().arity()) return false;
  bool found = false;
  ForEachContainmentMapping(q2, q1, [&](const Substitution& mu) {
    std::vector<Comparison> image;
    image.reserve(q2.comparisons().size());
    for (const Comparison& c : q2.comparisons()) image.push_back(mu.Apply(c));
    if (AcSolver::ImpliesAll(q1.comparisons(), image)) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

bool IsLeftSemiInterval(const ConjunctiveQuery& q) {
  for (const Comparison& raw : q.comparisons()) {
    Comparison c = raw;
    if (c.rhs().IsVariable() && c.lhs().IsConstant()) c = c.Flipped();
    if (!c.lhs().IsVariable() || !c.rhs().IsConstant()) return false;
    if (c.op() != CompOp::kLt && c.op() != CompOp::kLe &&
        c.op() != CompOp::kEq) {
      return false;
    }
  }
  return true;
}

bool CqacContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return CqacContainedCanonical(q1, q2);
}

bool CqacEquivalent(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return CqacContained(q1, q2) && CqacContained(q2, q1);
}

bool CqacContainedInUnion(const ConjunctiveQuery& q, const UnionQuery& u,
                          ContainmentStats* stats) {
  if (!AcSolver::IsSatisfiable(q.comparisons())) return true;

  std::vector<Rational> constants = q.Constants();
  for (const ConjunctiveQuery& disjunct : u.disjuncts()) {
    MergeConstants(disjunct.Constants(), &constants);
  }
  CanonicalDatabases databases(q, std::move(constants));
  for (const ConjunctiveQuery& disjunct : u.disjuncts()) {
    databases.AddQuery(disjunct);
  }

  bool contained = true;
  OrderEnumerationStats enum_stats;
  databases.ForEachOrbit(
      [&](const TotalOrder& order, int64_t multiplicity) {
        if (stats != nullptr) {
          ++stats->orders_enumerated;
          stats->orders_satisfying += multiplicity;
        }
        if (!databases.ComputedBySome(order)) {
          contained = false;
          return false;
        }
        return true;
      },
      stats != nullptr ? &enum_stats : nullptr);
  if (stats != nullptr) {
    stats->nodes_visited += enum_stats.nodes_visited;
    stats->nodes_pruned += enum_stats.nodes_pruned;
  }
  return contained;
}

bool UnionCqacContained(const UnionQuery& p, const UnionQuery& q) {
  for (const ConjunctiveQuery& pi : p.disjuncts()) {
    if (!CqacContainedInUnion(pi, q)) return false;
  }
  return true;
}

bool UnionCqacEquivalent(const UnionQuery& p, const UnionQuery& q) {
  return UnionCqacContained(p, q) && UnionCqacContained(q, p);
}

}  // namespace cqac
