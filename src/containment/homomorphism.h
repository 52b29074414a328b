#ifndef CQAC_CONTAINMENT_HOMOMORPHISM_H_
#define CQAC_CONTAINMENT_HOMOMORPHISM_H_

#include <functional>
#include <optional>
#include <vector>

#include "ast/query.h"
#include "ast/substitution.h"

namespace cqac {

/// Containment mappings (Chandra & Merlin).  A containment mapping from
/// query `from` to query `to` maps each variable of `from` to a variable
/// or constant of `to` and each constant to itself, such that the head of
/// `from` maps onto the head of `to` and every ordinary subgoal of `from`
/// maps onto some ordinary subgoal of `to`.  Comparison subgoals are
/// ignored here; CQAC containment layers an implication check on top.

/// Finds one containment mapping from `from` to `to`, or nullopt.
std::optional<Substitution> FindContainmentMapping(const ConjunctiveQuery& from,
                                                   const ConjunctiveQuery& to);

/// Enumerates every containment mapping from `from` to `to`, invoking `fn`
/// for each; stops early when `fn` returns false.
void ForEachContainmentMapping(
    const ConjunctiveQuery& from, const ConjunctiveQuery& to,
    const std::function<bool(const Substitution&)>& fn);

/// All containment mappings from `from` to `to` (materialized).
std::vector<Substitution> AllContainmentMappings(const ConjunctiveQuery& from,
                                                 const ConjunctiveQuery& to);

/// Extends `base` so that `s.Apply(from) == to` for two same-predicate,
/// same-arity atoms, mapping variables of `from` to the corresponding
/// terms of `to`.  Returns nullopt when predicates/arities differ, a
/// constant of `from` meets a different term of `to`, or a variable of
/// `from` would need two different images.
std::optional<Substitution> UnifyAtomOnto(const Atom& from, const Atom& to,
                                          Substitution base);

}  // namespace cqac

#endif  // CQAC_CONTAINMENT_HOMOMORPHISM_H_
