#include "testing/reference_engines.h"

#include <algorithm>
#include <optional>

#include "constraints/ac_solver.h"
#include "containment/homomorphism.h"
#include "engine/canonical.h"
#include "engine/evaluate.h"

namespace cqac {
namespace testing {

namespace {

bool SearchMappings(const ConjunctiveQuery& from, const ConjunctiveQuery& to,
                    size_t next_subgoal, const Substitution& current,
                    const std::function<bool(const Substitution&)>& fn) {
  if (next_subgoal == from.body().size()) return fn(current);
  const Atom& subgoal = from.body()[next_subgoal];
  for (const Atom& target : to.body()) {
    std::optional<Substitution> extended =
        UnifyAtomOnto(subgoal, target, current);
    if (!extended.has_value()) continue;
    if (!SearchMappings(from, to, next_subgoal + 1, *extended, fn)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void ForEachSatisfyingOrderReference(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants,
    const std::vector<Comparison>& axioms,
    const std::function<bool(const TotalOrder&)>& fn,
    OrderEnumerationStats* stats) {
  OrderEnumerationStats local;
  if (stats == nullptr) stats = &local;
  std::vector<Rational> sorted_constants = constants;
  std::sort(sorted_constants.begin(), sorted_constants.end());
  sorted_constants.erase(
      std::unique(sorted_constants.begin(), sorted_constants.end()),
      sorted_constants.end());
  TotalOrder base;
  for (const Rational& c : sorted_constants) {
    OrderBlock block;
    block.constant = c;
    base.blocks.push_back(block);
  }
  std::function<bool(size_t, TotalOrder*)> insert = [&](size_t next,
                                                        TotalOrder* order) {
    ++stats->nodes_visited;
    if (next == variables.size()) {
      if (!AcSolver::SatisfiedBy(axioms, order->ToAssignment())) return true;
      ++stats->orders_emitted;
      ++stats->orders_weighted;
      return fn(*order);
    }
    const std::string& var = variables[next];
    for (size_t b = 0; b < order->blocks.size(); ++b) {
      order->blocks[b].variables.push_back(var);
      const bool keep_going = insert(next + 1, order);
      order->blocks[b].variables.pop_back();
      if (!keep_going) return false;
    }
    OrderBlock fresh;
    fresh.variables.push_back(var);
    for (size_t gap = 0; gap <= order->blocks.size(); ++gap) {
      order->blocks.insert(order->blocks.begin() + gap, fresh);
      const bool keep_going = insert(next + 1, order);
      order->blocks.erase(order->blocks.begin() + gap);
      if (!keep_going) return false;
    }
    return true;
  };
  insert(0, &base);
}

void ForEachContainmentMappingReference(
    const ConjunctiveQuery& from, const ConjunctiveQuery& to,
    const std::function<bool(const Substitution&)>& fn) {
  std::optional<Substitution> seed =
      UnifyAtomOnto(from.head(), to.head(), Substitution());
  if (!seed.has_value()) return;
  SearchMappings(from, to, 0, *seed, fn);
}

bool ReferenceContainedCanonical(const ConjunctiveQuery& q1,
                                 const ConjunctiveQuery& q2) {
  std::vector<Rational> constants = q1.Constants();
  for (const Rational& c : q2.Constants()) constants.push_back(c);
  bool contained = true;
  ForEachSatisfyingOrderReference(
      q1.AllVariables(), constants, q1.comparisons(),
      [&](const TotalOrder& order) {
        const CanonicalDatabase cdb = FreezeQuery(q1, order);
        contained = ComputesTuple(q2, cdb.db, cdb.frozen_head);
        return contained;
      });
  return contained;
}

}  // namespace testing
}  // namespace cqac
