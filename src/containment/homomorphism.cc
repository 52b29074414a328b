#include "containment/homomorphism.h"

#include <algorithm>

#include "containment/binding_trail.h"
#include "containment/compiled_query.h"

namespace cqac {

std::optional<Substitution> UnifyAtomOnto(const Atom& from, const Atom& to,
                                          Substitution base) {
  if (from.predicate() != to.predicate() || from.arity() != to.arity()) {
    return std::nullopt;
  }
  for (int i = 0; i < from.arity(); ++i) {
    const Term& f = from.args()[i];
    const Term& t = to.args()[i];
    if (f.IsConstant()) {
      if (f != t) return std::nullopt;
      continue;
    }
    if (const Term* bound = base.Find(f.name()); bound != nullptr) {
      if (*bound != t) return std::nullopt;
    } else {
      base.Bind(f.name(), t);
    }
  }
  return base;
}

namespace {

/// Compiled containment-mapping search.  Lowers both queries to interned
/// flat form once per check, then backtracks over `from`'s subgoals with:
///   - a trail-based binding store (O(1) bind/lookup, undo-on-backtrack,
///     no allocation per search node) instead of copied Substitution maps;
///   - per-subgoal candidate lists holding only same-predicate/same-arity
///     `to`-atoms whose constant positions already match;
///   - most-constrained-first subgoal ordering: subgoals whose arguments
///     are constants or already-bound variables run first, so conflicts
///     prune near the root.
/// The string Substitution is reconstructed from the trail only for the
/// mappings actually yielded.
class MappingSearch {
 public:
  void Run(const ConjunctiveQuery& from, const ConjunctiveQuery& to,
           const std::function<bool(const Substitution&)>& fn) {
    ctx_.CompileForContainment(from, to);
    const CompiledQuery& cf = ctx_.from();
    const CompiledQuery& ct = ctx_.to();

    trail_.Reset(ctx_.num_from_vars());

    // Seed: the head of `from` must map exactly onto the head of `to`.
    if (cf.head.predicate != ct.head.predicate ||
        cf.head.arity() != ct.head.arity()) {
      return;
    }
    if (!UnifySpan(cf.ArgsOf(cf.head), ct.ArgsOf(ct.head), cf.head.arity())) {
      return;
    }

    BuildCandidates(cf, ct);
    PlanOrder(cf);
    Search(0, fn);
  }

 private:
  /// Unifies `n` from-codes against `n` to-codes under the trail.  On
  /// failure the caller is responsible for undoing to its mark.
  bool UnifySpan(const int32_t* from_args, const int32_t* to_args, int n) {
    for (int i = 0; i < n; ++i) {
      const int32_t f = from_args[i];
      const int32_t t = to_args[i];
      if (IsConstCode(f)) {
        // Shared constant pool: code equality is term equality, and a
        // to-variable code never equals a constant code (tag bit).
        if (f != t) return false;
        continue;
      }
      const uint32_t v = VarOfCode(f);
      const int32_t bound = trail_.Get(v);
      if (bound == BindingTrail::kUnbound) {
        trail_.Bind(v, t);
      } else if (bound != t) {
        return false;
      }
    }
    return true;
  }

  /// candidates_[g] = indices of `to` body atoms with `from` subgoal `g`'s
  /// predicate and arity whose constant positions match.
  void BuildCandidates(const CompiledQuery& cf, const CompiledQuery& ct) {
    candidates_.assign(cf.body.size(), {});
    for (size_t g = 0; g < cf.body.size(); ++g) {
      const CompiledAtom& fa = cf.body[g];
      const int32_t* fargs = cf.ArgsOf(fa);
      std::vector<int>& list = candidates_[g];
      for (size_t t = 0; t < ct.body.size(); ++t) {
        const CompiledAtom& ta = ct.body[t];
        if (ta.predicate != fa.predicate || ta.arity() != fa.arity()) continue;
        const int32_t* targs = ct.ArgsOf(ta);
        bool constants_match = true;
        for (int i = 0; i < fa.arity(); ++i) {
          if (IsConstCode(fargs[i]) && fargs[i] != targs[i]) {
            constants_match = false;
            break;
          }
        }
        if (constants_match) list.push_back(static_cast<int>(t));
      }
    }
  }

  /// Greedy most-constrained-first order over `from`'s subgoals: highest
  /// count of constant-or-bound argument positions first (head variables
  /// start bound via the seed), breaking ties toward the shorter candidate
  /// list, then toward the original subgoal index (determinism).
  void PlanOrder(const CompiledQuery& cf) {
    const size_t n = cf.body.size();
    order_.clear();
    order_.reserve(n);
    scheduled_bound_.assign(ctx_.num_from_vars(), 0);
    for (uint32_t v = 0; v < ctx_.num_from_vars(); ++v) {
      if (trail_.IsBound(v)) scheduled_bound_[v] = 1;
    }
    chosen_.assign(n, 0);
    for (size_t step = 0; step < n; ++step) {
      int best = -1;
      int best_score = -1;
      size_t best_fanout = 0;
      for (size_t g = 0; g < n; ++g) {
        if (chosen_[g]) continue;
        const CompiledAtom& atom = cf.body[g];
        const int32_t* args = cf.ArgsOf(atom);
        int score = 0;
        for (int i = 0; i < atom.arity(); ++i) {
          if (IsConstCode(args[i]) || scheduled_bound_[VarOfCode(args[i])]) {
            ++score;
          }
        }
        const size_t fanout = candidates_[g].size();
        if (score > best_score ||
            (score == best_score && fanout < best_fanout)) {
          best = static_cast<int>(g);
          best_score = score;
          best_fanout = fanout;
        }
      }
      chosen_[best] = 1;
      order_.push_back(best);
      const CompiledAtom& atom = cf.body[best];
      const int32_t* args = cf.ArgsOf(atom);
      for (int i = 0; i < atom.arity(); ++i) {
        if (!IsConstCode(args[i])) scheduled_bound_[VarOfCode(args[i])] = 1;
      }
    }
  }

  /// Returns false when enumeration was stopped by `fn`.
  bool Search(size_t pos, const std::function<bool(const Substitution&)>& fn) {
    if (pos == order_.size()) return Yield(fn);
    const CompiledQuery& cf = ctx_.from();
    const CompiledQuery& ct = ctx_.to();
    const CompiledAtom& fa = cf.body[order_[pos]];
    const int32_t* fargs = cf.ArgsOf(fa);
    for (const int t : candidates_[order_[pos]]) {
      const size_t mark = trail_.Mark();
      if (UnifySpan(fargs, ct.ArgsOf(ct.body[t]), fa.arity())) {
        if (!Search(pos + 1, fn)) return false;
      }
      trail_.UndoTo(mark);
    }
    return true;
  }

  /// Reconstructs the string substitution from the trail for a complete
  /// mapping and hands it to `fn`.
  bool Yield(const std::function<bool(const Substitution&)>& fn) {
    Substitution s;
    for (const uint32_t v : trail_.trail()) {
      const int32_t code = trail_.Get(v);
      s.Bind(ctx_.FromVarName(v),
             IsConstCode(code)
                 ? Term::Constant(ctx_.ConstValue(ConstOfCode(code)))
                 : Term::Variable(ctx_.ToVarName(VarOfCode(code))));
    }
    return fn(s);
  }

  CompileContext ctx_;
  BindingTrail trail_;
  std::vector<std::vector<int>> candidates_;
  std::vector<int> order_;
  std::vector<char> scheduled_bound_;
  std::vector<char> chosen_;
};

}  // namespace

void ForEachContainmentMapping(
    const ConjunctiveQuery& from, const ConjunctiveQuery& to,
    const std::function<bool(const Substitution&)>& fn) {
  MappingSearch().Run(from, to, fn);
}

std::optional<Substitution> FindContainmentMapping(
    const ConjunctiveQuery& from, const ConjunctiveQuery& to) {
  std::optional<Substitution> found;
  ForEachContainmentMapping(from, to,
                            [&found](const Substitution& s) {
                              found = s;
                              return false;  // Stop at the first mapping.
                            });
  return found;
}

std::vector<Substitution> AllContainmentMappings(const ConjunctiveQuery& from,
                                                 const ConjunctiveQuery& to) {
  std::vector<Substitution> out;
  ForEachContainmentMapping(from, to, [&out](const Substitution& s) {
    out.push_back(s);
    return true;
  });
  return out;
}

}  // namespace cqac
