#include "rewriting/enumeration.h"

#include <algorithm>
#include <functional>
#include <set>

#include "constraints/ac_solver.h"
#include "constraints/orders.h"
#include "containment/canonical_coverage.h"
#include "containment/cqac_containment.h"
#include "rewriting/expansion.h"

namespace cqac {

namespace {

/// All candidate view atoms over the term pool, for every view.
std::vector<Atom> CandidateAtoms(const ViewSet& views,
                                 const std::vector<Term>& pool) {
  std::vector<Atom> out;
  for (const ConjunctiveQuery& view : views.views()) {
    const int arity = view.head().arity();
    if (arity > 0 && pool.empty()) continue;
    // Odometer over pool^arity (one empty atom when arity is 0).
    std::vector<int> idx(arity, 0);
    for (;;) {
      std::vector<Term> args;
      args.reserve(arity);
      for (int i = 0; i < arity; ++i) args.push_back(pool[idx[i]]);
      out.push_back(Atom(view.name(), std::move(args)));
      int pos = arity - 1;
      while (pos >= 0 && ++idx[pos] == static_cast<int>(pool.size())) {
        idx[pos--] = 0;
      }
      if (pos < 0) break;
    }
  }
  return out;
}

}  // namespace

EnumerationResult EnumerateEquivalentRewriting(const ConjunctiveQuery& query,
                                               const ViewSet& views,
                                               EnumerationOptions options) {
  EnumerationResult result;

  if (!AcSolver::IsSatisfiable(query.comparisons())) {
    result.found = true;  // The empty union rewrites the empty query.
    return result;
  }

  // Term pool: the query's variables, fresh variables, and all constants.
  std::vector<Term> pool;
  for (const std::string& v : query.AllVariables()) {
    pool.push_back(Term::Variable(v));
  }
  for (int i = 0; i < options.max_fresh_variables; ++i) {
    pool.push_back(Term::Variable("_g" + std::to_string(i)));
  }
  std::vector<Rational> constants = query.Constants();
  for (const Rational& c : views.Constants()) {
    if (std::find(constants.begin(), constants.end(), c) == constants.end()) {
      constants.push_back(c);
    }
  }
  for (const Rational& c : constants) pool.push_back(Term::Constant(c));

  const std::vector<Atom> atoms = CandidateAtoms(views, pool);

  // Accumulated disjuncts that individually pass the containment check,
  // and the query's canonical databases none of their expansions covers
  // yet.  The pool of constants is closed: candidate atoms and order
  // comparisons take theirs from `constants`, expansion brings in only
  // view constants (all in `constants`), and simplification substitutes
  // only terms already present.  So the incremental coverage decides what
  // CqacContainedInUnion(query, <accepted expansions>) would.
  std::vector<ConjunctiveQuery> accepted;
  std::set<std::string> accepted_keys;
  CanonicalCoverage coverage(query, constants);

  // Enumerate bodies: nonempty subsets of `atoms` of size <= max_subgoals,
  // in increasing size (lexicographic index vectors, no repeats).
  std::vector<int> chosen;
  const int n = static_cast<int>(atoms.size());

  // Recursive lambda over combination indices.
  bool done = false;
  std::function<void(int)> explore = [&](int start) {
    if (done) return;
    if (!chosen.empty()) {
      ++result.candidate_bodies;
      if (options.max_candidates >= 0 &&
          result.candidate_bodies > options.max_candidates) {
        result.budget_exhausted = true;
        done = true;
        return;
      }
      std::vector<Atom> body;
      body.reserve(chosen.size());
      for (int i : chosen) body.push_back(atoms[i]);
      ConjunctiveQuery candidate(query.head(), body);
      // Quick safety filter: every head variable must occur in the body.
      bool safe = true;
      {
        std::set<std::string> body_vars;
        for (const Atom& a : body) {
          for (const Term& t : a.args()) {
            if (t.IsVariable()) body_vars.insert(t.name());
          }
        }
        for (const std::string& hv : query.HeadVariables()) {
          if (body_vars.count(hv) == 0) {
            safe = false;
            break;
          }
        }
      }
      if (safe) {
        // Complete the candidate with every total order of its variables.
        ForEachTotalOrder(
            candidate.AllVariables(), constants,
            [&](const TotalOrder& order) {
              ++result.candidate_disjuncts;
              ConjunctiveQuery disjunct(
                  candidate.head(), candidate.body(),
                  order.ProjectedComparisons(candidate.AllVariables()));
              const ConjunctiveQuery expansion =
                  Expand(disjunct, views);
              const std::optional<ConjunctiveQuery> simplified =
                  SimplifyQuery(expansion);
              if (!simplified.has_value()) return true;  // Computes nothing.
              ++result.containment_checks;
              if (!CqacContainedCanonical(*simplified, query)) return true;
              if (accepted_keys.insert(disjunct.ToString()).second) {
                accepted.push_back(disjunct);
                // Does the union now cover the query?
                ++result.containment_checks;
                coverage.Add(*simplified);
                if (coverage.complete()) {
                  result.found = true;
                  done = true;
                  return false;
                }
              }
              return true;
            });
        if (done) return;
      }
    }
    if (static_cast<int>(chosen.size()) == options.max_subgoals) return;
    for (int i = start; i < n && !done; ++i) {
      chosen.push_back(i);
      explore(i + 1);
      chosen.pop_back();
    }
  };
  explore(0);

  if (result.found) {
    result.rewriting = UnionQuery(std::move(accepted));
  }
  return result;
}

}  // namespace cqac
