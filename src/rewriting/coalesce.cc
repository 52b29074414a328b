#include "rewriting/coalesce.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "constraints/ac_solver.h"

namespace cqac {

namespace {

/// Sorted copy of a comparison list (canonical set representation).
std::vector<Comparison> Sorted(std::vector<Comparison> comps) {
  std::sort(comps.begin(), comps.end());
  return comps;
}

/// If `a OR b` (same term pair) collapses to one comparison or to "true",
/// returns the merged list contribution: nullopt = no rule applies;
/// an empty optional vector element convention is avoided by returning a
/// pair (applies, merged or drop).
struct MergeOutcome {
  bool applies = false;
  bool drop = false;          // The disjunction is a tautology.
  Comparison merged;          // Valid when applies && !drop.
};

MergeOutcome MergePair(const Comparison& a, const Comparison& raw_b) {
  MergeOutcome out;
  Comparison b = raw_b;
  if (!(b.lhs() == a.lhs() && b.rhs() == a.rhs())) {
    b = b.Flipped();
    if (!(b.lhs() == a.lhs() && b.rhs() == a.rhs())) return out;
  }
  const CompOp x = a.op();
  const CompOp y = b.op();
  auto is = [&](CompOp p, CompOp q) {
    return (x == p && y == q) || (x == q && y == p);
  };
  // Identical operators: plain duplicate.
  if (x == y) {
    out.applies = true;
    out.merged = a;
    return out;
  }
  // Disjunctions that weaken to a single operator.
  if (is(CompOp::kLt, CompOp::kEq) || is(CompOp::kLt, CompOp::kLe) ||
      is(CompOp::kLe, CompOp::kEq)) {
    out.applies = true;
    out.merged = Comparison(a.lhs(), CompOp::kLe, a.rhs());
    return out;
  }
  if (is(CompOp::kGt, CompOp::kEq) || is(CompOp::kGt, CompOp::kGe) ||
      is(CompOp::kGe, CompOp::kEq)) {
    out.applies = true;
    out.merged = Comparison(a.lhs(), CompOp::kGe, a.rhs());
    return out;
  }
  // Complementary pairs: the disjunction is true over a total order.
  if (is(CompOp::kLt, CompOp::kGe) || is(CompOp::kLe, CompOp::kGt) ||
      is(CompOp::kLe, CompOp::kGe) || is(CompOp::kEq, CompOp::kNe)) {
    out.applies = true;
    out.drop = true;
    return out;
  }
  // `< OR >` would need `!=`, which the rewriting language avoids.
  return out;
}

/// Tries to merge two comparison sets that differ in exactly one element.
std::optional<std::vector<Comparison>> TryMergeSets(
    const std::vector<Comparison>& a, const std::vector<Comparison>& b) {
  if (a.size() != b.size()) return std::nullopt;
  // Find the symmetric difference.
  std::vector<Comparison> only_a, only_b, common;
  for (const Comparison& c : a) {
    if (std::find(b.begin(), b.end(), c) == b.end()) {
      only_a.push_back(c);
    } else {
      common.push_back(c);
    }
  }
  for (const Comparison& c : b) {
    if (std::find(a.begin(), a.end(), c) == a.end()) only_b.push_back(c);
  }
  if (only_a.size() != 1 || only_b.size() != 1) return std::nullopt;
  const MergeOutcome outcome = MergePair(only_a[0], only_b[0]);
  if (!outcome.applies) return std::nullopt;
  if (!outcome.drop) common.push_back(outcome.merged);
  return Sorted(std::move(common));
}

}  // namespace

UnionQuery CoalesceUnion(const UnionQuery& u,
                         const CancellationToken* cancel) {
  // Group by (head, sorted body).
  struct Group {
    Atom head;
    std::vector<Atom> body;
    std::vector<std::vector<Comparison>> comp_sets;
  };
  std::map<std::string, Group> groups;
  for (const ConjunctiveQuery& d : u.disjuncts()) {
    std::vector<Atom> body = d.body();
    std::sort(body.begin(), body.end());
    std::string key = d.head().ToString();
    for (const Atom& a : body) key += "|" + a.ToString();
    Group& g = groups[key];
    if (g.comp_sets.empty()) {
      g.head = d.head();
      g.body = body;
    }
    g.comp_sets.push_back(Sorted(d.comparisons()));
  }

  UnionQuery out;
  for (auto& [key, group] : groups) {
    (void)key;
    std::vector<std::vector<Comparison>>& sets = group.comp_sets;
    bool changed = true;
    while (changed && (cancel == nullptr || !cancel->cancelled())) {
      changed = false;
      // Drop exact duplicates and unsatisfiable members.
      for (size_t i = 0; i < sets.size() && !changed; ++i) {
        if (!AcSolver::IsSatisfiable(sets[i])) {
          sets.erase(sets.begin() + i);
          changed = true;
          break;
        }
        for (size_t j = i + 1; j < sets.size(); ++j) {
          if (sets[i] == sets[j]) {
            sets.erase(sets.begin() + j);
            changed = true;
            break;
          }
        }
      }
      if (changed) continue;
      // Subsumption: i's region inside j's.
      for (size_t i = 0; i < sets.size() && !changed; ++i) {
        for (size_t j = 0; j < sets.size(); ++j) {
          if (i == j) continue;
          if (AcSolver::ImpliesAll(sets[i], sets[j])) {
            sets.erase(sets.begin() + i);
            changed = true;
            break;
          }
        }
      }
      if (changed) continue;
      // Single-difference merges.
      for (size_t i = 0; i < sets.size() && !changed; ++i) {
        for (size_t j = i + 1; j < sets.size(); ++j) {
          std::optional<std::vector<Comparison>> merged =
              TryMergeSets(sets[i], sets[j]);
          if (merged.has_value()) {
            sets.erase(sets.begin() + j);
            sets[i] = AcSolver::RemoveRedundant(*std::move(merged));
            std::sort(sets[i].begin(), sets[i].end());
            changed = true;
            break;
          }
        }
      }
    }
    for (std::vector<Comparison>& comps : sets) {
      out.Add(ConjunctiveQuery(group.head, group.body, std::move(comps)));
    }
  }
  return out;
}

}  // namespace cqac
