#include "constraints/orders.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>

#include "constraints/ac_solver.h"

namespace cqac {

Term OrderBlock::Representative() const {
  if (constant.has_value()) return Term::Constant(*constant);
  return Term::Variable(variables.front());
}

void TotalOrder::BlockValues(std::vector<Rational>* out) const {
  const int n = static_cast<int>(blocks.size());
  std::vector<Rational>& values = *out;
  values.resize(n);

  // Positions of the blocks that carry constants; their values are fixed.
  // (Constants appear in ascending order, so the values below are strictly
  // increasing across blocks.)
  int first = -1;
  int last = -1;
  for (int i = 0; i < n; ++i) {
    if (blocks[i].constant.has_value()) {
      values[i] = *blocks[i].constant;
      if (first < 0) first = i;
      last = i;
    }
  }

  if (first < 0) {
    for (int i = 0; i < n; ++i) values[i] = Rational(i + 1);
    return;
  }
  // Before the first constant: integers descending below it.
  for (int i = 0; i < first; ++i) {
    values[i] = values[first] - Rational(first - i);
  }
  // Between consecutive constants: evenly spaced rationals (density).
  int lo = first;
  for (int hi = first + 1; hi <= last; ++hi) {
    if (!blocks[hi].constant.has_value()) continue;
    const int gap = hi - lo - 1;
    const Rational span = values[hi] - values[lo];
    for (int i = lo + 1; i < hi; ++i) {
      values[i] = values[lo] + span * Rational(i - lo, gap + 1);
    }
    lo = hi;
  }
  // After the last constant: integers ascending above it.
  for (int i = last + 1; i < n; ++i) {
    values[i] = values[last] + Rational(i - last);
  }
}

std::map<std::string, Rational> TotalOrder::ToAssignment() const {
  std::vector<Rational> values;
  BlockValues(&values);
  std::map<std::string, Rational> assignment;
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (const std::string& v : blocks[i].variables) {
      assignment.emplace(v, values[i]);
    }
  }
  return assignment;
}

std::vector<Comparison> TotalOrder::ToComparisons() const {
  std::vector<Comparison> out;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const Term rep = blocks[i].Representative();
    for (const std::string& v : blocks[i].variables) {
      const Term t = Term::Variable(v);
      if (t != rep) out.push_back(Comparison(t, CompOp::kEq, rep));
    }
    if (i + 1 < blocks.size()) {
      out.push_back(
          Comparison(rep, CompOp::kLt, blocks[i + 1].Representative()));
    }
  }
  return out;
}

std::vector<Comparison> TotalOrder::ProjectedComparisons(
    const std::vector<std::string>& keep_vars) const {
  std::vector<Comparison> out;
  std::optional<Term> prev_rep;
  for (const OrderBlock& block : blocks) {
    OrderBlock restricted;
    restricted.constant = block.constant;
    for (const std::string& v : block.variables) {
      if (std::find(keep_vars.begin(), keep_vars.end(), v) !=
          keep_vars.end()) {
        restricted.variables.push_back(v);
      }
    }
    if (restricted.variables.empty() && !restricted.constant.has_value()) {
      continue;  // Block invisible after projection.
    }
    const Term rep = restricted.Representative();
    for (const std::string& v : restricted.variables) {
      const Term t = Term::Variable(v);
      if (t != rep) out.push_back(Comparison(t, CompOp::kEq, rep));
    }
    if (prev_rep.has_value() &&
        !(prev_rep->IsConstant() && rep.IsConstant())) {
      out.push_back(Comparison(*prev_rep, CompOp::kLt, rep));
    }
    prev_rep = rep;
  }
  return out;
}

std::string TotalOrder::ToString() const {
  std::string out;
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (i > 0) out += " < ";
    const OrderBlock& block = blocks[i];
    bool first = true;
    for (const std::string& v : block.variables) {
      if (!first) out += " = ";
      first = false;
      out += v;
    }
    if (block.constant.has_value()) {
      if (!first) out += " = ";
      out += block.constant->ToString();
    }
  }
  return out;
}

namespace {

/// Recursively inserts `variables[next..]` into `order`, calling `fn` on
/// every completed order.  Returns false once `fn` asks to stop.
bool InsertRemaining(const std::vector<std::string>& variables, size_t next,
                     TotalOrder* order,
                     const std::function<bool(const TotalOrder&)>& fn) {
  if (next == variables.size()) return fn(*order);
  const std::string& var = variables[next];
  // Option 1: join each existing block.  Indexed loop: deeper recursion
  // levels insert and erase blocks, which invalidates references.
  for (size_t b = 0; b < order->blocks.size(); ++b) {
    order->blocks[b].variables.push_back(var);
    if (!InsertRemaining(variables, next + 1, order, fn)) return false;
    order->blocks[b].variables.pop_back();
  }
  // Option 2: open a new block in each gap.
  OrderBlock fresh;
  fresh.variables.push_back(var);
  for (size_t gap = 0; gap <= order->blocks.size(); ++gap) {
    order->blocks.insert(order->blocks.begin() + gap, fresh);
    if (!InsertRemaining(variables, next + 1, order, fn)) return false;
    order->blocks.erase(order->blocks.begin() + gap);
  }
  return true;
}

}  // namespace

void ForEachTotalOrder(const std::vector<std::string>& variables,
                       const std::vector<Rational>& constants,
                       const std::function<bool(const TotalOrder&)>& fn) {
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
  InsertRemaining(variables, 0, &base, fn);
}

std::vector<TotalOrder> EnumerateTotalOrders(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants) {
  std::vector<TotalOrder> out;
  ForEachTotalOrder(variables, constants, [&out](const TotalOrder& order) {
    out.push_back(order);
    return true;
  });
  return out;
}

namespace {

std::vector<Rational> SortedUniqueConstants(
    const std::vector<Rational>& constants) {
  std::vector<Rational> sorted = constants;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return sorted;
}

TotalOrder BaseOrder(const std::vector<Rational>& sorted_constants) {
  TotalOrder base;
  for (const Rational& c : sorted_constants) {
    OrderBlock block;
    block.constant = c;
    base.blocks.push_back(block);
  }
  return base;
}

int64_t SatMul(int64_t a, int64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<int64_t>::max() / b) {
    return std::numeric_limits<int64_t>::max();
  }
  return a * b;
}

/// C(n, k), saturating.  The running product is exactly divisible by `i`
/// at every step (it is C(n-k+i, i) * i!/i! in disguise).
int64_t Binomial(int64_t n, int64_t k) {
  int64_t r = 1;
  for (int64_t i = 1; i <= k; ++i) {
    const int64_t factor = n - k + i;
    if (r > std::numeric_limits<int64_t>::max() / factor) {
      return std::numeric_limits<int64_t>::max();
    }
    r = r * factor / i;
  }
  return r;
}

/// The prefix-pruned enumeration tree behind ForEachSatisfyingOrder and
/// ForEachSatisfyingOrderPruned.
///
/// Emits exactly the satisfying orders the naive enumerate-then-filter
/// reference would (testing::ForEachSatisfyingOrderReference), in the
/// same sequence, modulo the symmetry reduction: pruning only removes
/// subtrees containing no satisfying leaf, and symmetry only collapses
/// orbits whose members the caller declared equivalent.
///
/// The key invariant making prefix checks sound: once two terms are both
/// placed, their relative order (<, =, >) never changes anywhere in the
/// subtree — blocks are never merged, and a gap insertion only shifts
/// positions uniformly.  So every axiom is decided permanently the moment
/// its second endpoint is placed, and a violated axiom kills the entire
/// subtree before it is built.  To also cut placements that only *implied*
/// constraints forbid (X < Y, Y < Z placed as Z..X with Y still pending),
/// the axioms are closed under transitivity across variables and constants
/// at compile time, and the closure's constraints are checked positionally
/// the same way.
///
/// Symmetry reduction: for each group of interchangeable variables the
/// tree only generates placements in which the group's members sit at
/// nondecreasing block positions (in group order).  Each emitted order
/// represents its whole orbit; the orbit size — the multinomial of the
/// group's per-block occupancy — is reported as the multiplicity.
class PrunedOrderEnumerator {
 public:
  PrunedOrderEnumerator(const std::vector<std::string>& variables,
                        const std::vector<Rational>& sorted_constants,
                        const std::vector<Comparison>& axioms,
                        const OrderSymmetry& symmetry,
                        OrderEnumerationStats* stats)
      : variables_(variables), axioms_(axioms), stats_(stats) {
    Compile(sorted_constants, axioms, symmetry);
  }

  void Run(TotalOrder* order,
           const std::function<bool(const TotalOrder&, int64_t)>& fn) {
    if (impossible_) return;
    if (incomplete_) {
      InsertFallback(0, order, fn);
      return;
    }
    ++stats_->nodes_visited;  // Root: the constants-only base order.
    Insert(0, order, fn);
  }

 private:
  static constexpr int kUnplaced = -1;
  static constexpr int kNotTracked = -1;
  static constexpr int kNoGroup = -1;

  enum class CheckOp { kLt, kLe, kNe };

  /// One positional constraint `lhs op rhs` between tracked-variable slots
  /// and/or constant slots, checked when its last endpoint is placed.
  struct PositionalCheck {
    bool lhs_is_var;
    bool rhs_is_var;
    int lhs;
    int rhs;
    CheckOp op;
  };

  void Compile(const std::vector<Rational>& sorted_constants,
               const std::vector<Comparison>& axioms,
               const OrderSymmetry& symmetry) {
    auto var_slot = [this](const std::string& name) -> int {
      auto [it, inserted] =
          var_ids_.emplace(name, static_cast<int>(var_block_.size()));
      if (inserted) var_block_.push_back(kUnplaced);
      return it->second;
    };
    // Resolve every axiom term to a tracked-variable or constant slot.
    struct Side {
      bool is_var;
      int slot;
    };
    auto compile_term = [&](const Term& t) -> Side {
      if (t.IsVariable()) return {true, var_slot(t.name())};
      const auto it = std::lower_bound(sorted_constants.begin(),
                                       sorted_constants.end(), t.value());
      if (it == sorted_constants.end() || *it != t.value()) {
        // Contract violation (axiom constant outside `constants`): the
        // position encoding cannot represent it.
        incomplete_ = true;
        return {false, 0};
      }
      return {false, static_cast<int>(it - sorted_constants.begin())};
    };
    struct RawAxiom {
      Side lhs;
      Side rhs;
      CompOp op;
    };
    std::vector<RawAxiom> raw;
    raw.reserve(axioms.size());
    for (const Comparison& c : axioms) {
      raw.push_back({compile_term(c.lhs()), compile_term(c.rhs()), c.op()});
    }
    // Which tracked variable (if any) each insertion step places.  A
    // tracked variable outside `variables` would never be placed, leaving
    // its axioms undecidable by position.
    insertion_var_.assign(variables_.size(), kNotTracked);
    for (size_t i = 0; i < variables_.size(); ++i) {
      const auto it = var_ids_.find(variables_[i]);
      if (it != var_ids_.end()) insertion_var_[i] = it->second;
    }
    {
      std::vector<bool> placed_ever(var_block_.size(), false);
      for (const int slot : insertion_var_) {
        if (slot != kNotTracked) placed_ever[slot] = true;
      }
      for (size_t s = 0; s < placed_ever.size(); ++s) {
        if (!placed_ever[s]) incomplete_ = true;
      }
    }
    if (incomplete_) return;  // Fallback path; nothing below applies.

    // Transitive closure over terms (tracked variables, then constants).
    // rel[i][j]: 0 none, 1 `i <= j`, 2 `i < j`.  kEq contributes both
    // directions; kNe is not transitive and stays a direct check.
    const int v = static_cast<int>(var_block_.size());
    const int t = v + static_cast<int>(sorted_constants.size());
    std::vector<uint8_t> rel(static_cast<size_t>(t) * t, 0);
    auto at = [&rel, t](int i, int j) -> uint8_t& { return rel[i * t + j]; };
    auto seed = [&](int i, int j, uint8_t strength) {
      if (at(i, j) < strength) at(i, j) = strength;
    };
    auto term_id = [v](const Side& s) { return s.is_var ? s.slot : v + s.slot; };
    std::vector<PositionalCheck> ne_checks;
    for (const RawAxiom& a : raw) {
      const int i = term_id(a.lhs);
      const int j = term_id(a.rhs);
      switch (a.op) {
        case CompOp::kLt: seed(i, j, 2); break;
        case CompOp::kLe: seed(i, j, 1); break;
        case CompOp::kEq: seed(i, j, 1); seed(j, i, 1); break;
        case CompOp::kGe: seed(j, i, 1); break;
        case CompOp::kGt: seed(j, i, 2); break;
        case CompOp::kNe:
          if (i == j) {
            impossible_ = true;  // X != X or c != c.
            return;
          }
          ne_checks.push_back(
              {a.lhs.is_var, a.rhs.is_var, a.lhs.slot, a.rhs.slot, CheckOp::kNe});
          break;
      }
    }
    // The constants' own order is part of every total order.
    for (int i = 0; i + 1 < static_cast<int>(sorted_constants.size()); ++i) {
      seed(v + i, v + i + 1, 2);
    }
    for (int k = 0; k < t; ++k) {
      for (int i = 0; i < t; ++i) {
        if (at(i, k) == 0) continue;
        for (int j = 0; j < t; ++j) {
          if (at(k, j) == 0) continue;
          seed(i, j, std::max(at(i, k), at(k, j)) == 2 ? 2 : 1);
        }
      }
    }
    for (int i = 0; i < t; ++i) {
      if (at(i, i) == 2) {
        impossible_ = true;  // Axioms imply x < x: no satisfying order.
        return;
      }
    }
    // Closure constraints between two constants are decided now (their
    // block positions are fixed); the rest become positional checks.
    for (int i = 0; i < t; ++i) {
      for (int j = 0; j < t; ++j) {
        if (i == j || at(i, j) == 0) continue;
        const bool strict = at(i, j) == 2;
        if (i >= v && j >= v) {
          const int ci = i - v;
          const int cj = j - v;
          if (strict ? !(ci < cj) : !(ci <= cj)) {
            impossible_ = true;
            return;
          }
          continue;
        }
        checks_.push_back({i < v, j < v, i < v ? i : i - v, j < v ? j : j - v,
                           strict ? CheckOp::kLt : CheckOp::kLe});
      }
    }
    checks_.insert(checks_.end(), ne_checks.begin(), ne_checks.end());
    // Per-variable incident check lists: a check fires when its last
    // variable endpoint is placed.
    incident_.resize(v);
    for (size_t idx = 0; idx < checks_.size(); ++idx) {
      const PositionalCheck& c = checks_[idx];
      if (c.lhs_is_var) incident_[c.lhs].push_back(static_cast<int>(idx));
      if (c.rhs_is_var && !(c.lhs_is_var && c.lhs == c.rhs)) {
        incident_[c.rhs].push_back(static_cast<int>(idx));
      }
    }
    // Constant blocks start at positions 0..k-1 of the base order and
    // shift as variable blocks open before them.
    const_block_.resize(sorted_constants.size());
    for (size_t i = 0; i < sorted_constants.size(); ++i) {
      const_block_[i] = static_cast<int>(i);
    }
    // Symmetry groups: keep members that are enumerated here and carry no
    // axiom (tracked members would make orbit outcomes diverge).
    insertion_group_.assign(variables_.size(), kNoGroup);
    for (const std::vector<std::string>& group : symmetry.groups) {
      std::vector<size_t> steps;
      for (size_t i = 0; i < variables_.size(); ++i) {
        if (insertion_var_[i] != kNotTracked) continue;
        if (std::find(group.begin(), group.end(), variables_[i]) !=
            group.end()) {
          steps.push_back(i);
        }
      }
      if (steps.size() < 2) continue;
      const int gid = static_cast<int>(group_stack_.size());
      for (const size_t step : steps) insertion_group_[step] = gid;
      group_stack_.emplace_back();
    }
  }

  /// All positional checks incident to `slot` whose endpoints are both
  /// placed.  Called with `slot` freshly placed, so each axiom is
  /// evaluated exactly when it becomes decidable.
  bool PlacementOk(int slot) const {
    for (const int idx : incident_[slot]) {
      const PositionalCheck& c = checks_[idx];
      const int i = c.lhs_is_var ? var_block_[c.lhs] : const_block_[c.lhs];
      if (i == kUnplaced) continue;
      const int j = c.rhs_is_var ? var_block_[c.rhs] : const_block_[c.rhs];
      if (j == kUnplaced) continue;
      bool ok = false;
      switch (c.op) {
        case CheckOp::kLt: ok = i < j; break;
        case CheckOp::kLe: ok = i <= j; break;
        case CheckOp::kNe: ok = i != j; break;
      }
      if (!ok) return false;
    }
    return true;
  }

  /// Orbit size of the current complete placement: per group, the
  /// multinomial coefficient of its per-block occupancy counts.
  int64_t Multiplicity() const {
    int64_t m = 1;
    for (const std::vector<int>& stack : group_stack_) {
      if (stack.size() < 2) continue;
      int64_t cum = 0;
      size_t i = 0;
      while (i < stack.size()) {
        size_t j = i;
        while (j < stack.size() && stack[j] == stack[i]) ++j;
        const int64_t run = static_cast<int64_t>(j - i);
        cum += run;
        m = SatMul(m, Binomial(cum, run));
        i = j;
      }
    }
    return m;
  }

  bool Insert(size_t next, TotalOrder* order,
              const std::function<bool(const TotalOrder&, int64_t)>& fn) {
    if (next == variables_.size()) {
      const int64_t mult = Multiplicity();
      ++stats_->orders_emitted;
      stats_->orders_weighted += mult;
      return fn(*order, mult);
    }
    const std::string& var = variables_[next];
    const int tracked = insertion_var_[next];
    const int gid = insertion_group_[next];
    const int prev = gid != kNoGroup && !group_stack_[gid].empty()
                         ? group_stack_[gid].back()
                         : kUnplaced;
    // Option 1: join an existing block.  Canonical representatives place
    // group members at nondecreasing positions, so blocks before the
    // group's previous member are skipped wholesale.
    size_t b = 0;
    if (prev != kUnplaced) {
      b = static_cast<size_t>(prev);
      stats_->nodes_symmetry_skipped += prev;
    }
    for (; b < order->blocks.size(); ++b) {
      if (tracked != kNotTracked) {
        var_block_[tracked] = static_cast<int>(b);
        if (!PlacementOk(tracked)) {
          var_block_[tracked] = kUnplaced;
          ++stats_->nodes_pruned;
          continue;
        }
      }
      order->blocks[b].variables.push_back(var);
      if (gid != kNoGroup) group_stack_[gid].push_back(static_cast<int>(b));
      ++stats_->nodes_visited;
      const bool keep_going = Insert(next + 1, order, fn);
      if (gid != kNoGroup) group_stack_[gid].pop_back();
      order->blocks[b].variables.pop_back();
      if (tracked != kNotTracked) var_block_[tracked] = kUnplaced;
      if (!keep_going) return false;
    }
    // Option 2: open a new block in a gap (strictly after the group's
    // previous member: the new singleton block must not precede it).
    OrderBlock fresh;
    fresh.variables.push_back(var);
    size_t gap = 0;
    if (prev != kUnplaced) {
      gap = static_cast<size_t>(prev) + 1;
      stats_->nodes_symmetry_skipped += prev + 1;
    }
    for (; gap <= order->blocks.size(); ++gap) {
      ShiftUp(static_cast<int>(gap));
      if (tracked != kNotTracked) {
        var_block_[tracked] = static_cast<int>(gap);
        if (!PlacementOk(tracked)) {
          var_block_[tracked] = kUnplaced;
          ShiftDown(static_cast<int>(gap));
          ++stats_->nodes_pruned;
          continue;
        }
      }
      order->blocks.insert(order->blocks.begin() + gap, fresh);
      if (gid != kNoGroup) group_stack_[gid].push_back(static_cast<int>(gap));
      ++stats_->nodes_visited;
      const bool keep_going = Insert(next + 1, order, fn);
      if (gid != kNoGroup) group_stack_[gid].pop_back();
      order->blocks.erase(order->blocks.begin() + gap);
      if (tracked != kNotTracked) var_block_[tracked] = kUnplaced;
      ShiftDown(static_cast<int>(gap));
      if (!keep_going) return false;
    }
    return true;
  }

  /// Reference behavior for axioms the positional encoding cannot
  /// represent: solver-based prefix pruning, solver-verified leaves, no
  /// symmetry reduction (multiplicity 1).
  bool InsertFallback(size_t next, TotalOrder* order,
                      const std::function<bool(const TotalOrder&, int64_t)>& fn) {
    combined_ = axioms_;
    const std::vector<Comparison> placed = order->ToComparisons();
    combined_.insert(combined_.end(), placed.begin(), placed.end());
    if (!AcSolver::IsSatisfiable(combined_)) {
      ++stats_->nodes_pruned;
      return true;
    }
    ++stats_->nodes_visited;
    if (next == variables_.size()) {
      if (!AcSolver::SatisfiedBy(axioms_, order->ToAssignment())) return true;
      ++stats_->orders_emitted;
      ++stats_->orders_weighted;
      return fn(*order, 1);
    }
    const std::string& var = variables_[next];
    for (size_t b = 0; b < order->blocks.size(); ++b) {
      order->blocks[b].variables.push_back(var);
      const bool keep_going = InsertFallback(next + 1, order, fn);
      order->blocks[b].variables.pop_back();
      if (!keep_going) return false;
    }
    OrderBlock fresh;
    fresh.variables.push_back(var);
    for (size_t gap = 0; gap <= order->blocks.size(); ++gap) {
      order->blocks.insert(order->blocks.begin() + gap, fresh);
      const bool keep_going = InsertFallback(next + 1, order, fn);
      order->blocks.erase(order->blocks.begin() + gap);
      if (!keep_going) return false;
    }
    return true;
  }

  /// A new block opened at `gap`: every tracked placement at or after it
  /// moves up one position.  (kUnplaced is negative, so it never shifts.)
  void ShiftUp(int gap) {
    for (int& b : var_block_) {
      if (b >= gap) ++b;
    }
    for (int& b : const_block_) {
      if (b >= gap) ++b;
    }
    for (std::vector<int>& stack : group_stack_) {
      for (int& b : stack) {
        if (b >= gap) ++b;
      }
    }
  }

  /// Inverse of ShiftUp after the block at `gap` is removed.
  void ShiftDown(int gap) {
    for (int& b : var_block_) {
      if (b > gap) --b;
    }
    for (int& b : const_block_) {
      if (b > gap) --b;
    }
    for (std::vector<int>& stack : group_stack_) {
      for (int& b : stack) {
        if (b > gap) --b;
      }
    }
  }

  const std::vector<std::string>& variables_;
  const std::vector<Comparison>& axioms_;
  OrderEnumerationStats* stats_;
  std::map<std::string, int> var_ids_;
  std::vector<PositionalCheck> checks_;
  std::vector<std::vector<int>> incident_;  // tracked variable -> check idxs
  std::vector<int> var_block_;    // tracked variable -> block, or kUnplaced
  std::vector<int> const_block_;  // constant slot -> block (always placed)
  std::vector<int> insertion_var_;
  std::vector<int> insertion_group_;  // insertion step -> group, or kNoGroup
  std::vector<std::vector<int>> group_stack_;  // placed members' positions
  bool incomplete_ = false;
  bool impossible_ = false;
  std::vector<Comparison> combined_;
};

}  // namespace

void ForEachSatisfyingOrderPruned(
    const std::vector<std::string>& variables,
    const std::vector<Rational>& constants,
    const std::vector<Comparison>& axioms, const OrderSymmetry& symmetry,
    const std::function<bool(const TotalOrder&, int64_t)>& fn,
    OrderEnumerationStats* stats) {
  OrderEnumerationStats local;
  if (stats == nullptr) stats = &local;
  const std::vector<Rational> sorted_constants =
      SortedUniqueConstants(constants);
  TotalOrder base = BaseOrder(sorted_constants);
  PrunedOrderEnumerator(variables, sorted_constants, axioms, symmetry, stats)
      .Run(&base, fn);
}

void ForEachSatisfyingOrder(const std::vector<std::string>& variables,
                            const std::vector<Rational>& constants,
                            const std::vector<Comparison>& axioms,
                            const std::function<bool(const TotalOrder&)>& fn) {
  ForEachSatisfyingOrderPruned(
      variables, constants, axioms, OrderSymmetry{},
      [&fn](const TotalOrder& order, int64_t) { return fn(order); });
}

std::vector<std::vector<std::string>> InterchangeableVariableGroups(
    const ConjunctiveQuery& query) {
  // Candidates: body variables that appear in neither the head nor any
  // comparison.  (A head or comparison occurrence makes a swap observable.)
  std::set<std::string> excluded;
  for (const Term& t : query.head().args()) {
    if (t.IsVariable()) excluded.insert(t.name());
  }
  for (const Comparison& c : query.comparisons()) {
    if (c.lhs().IsVariable()) excluded.insert(c.lhs().name());
    if (c.rhs().IsVariable()) excluded.insert(c.rhs().name());
  }
  std::vector<std::string> candidates;
  for (const std::string& v : query.BodyVariables()) {
    if (excluded.find(v) == excluded.end()) candidates.push_back(v);
  }
  if (candidates.size() < 2) return {};

  auto body_strings = [&query](const std::string* u, const std::string* v) {
    std::vector<std::string> atoms;
    atoms.reserve(query.body().size());
    for (const Atom& a : query.body()) {
      std::vector<Term> args;
      args.reserve(a.args().size());
      for (const Term& t : a.args()) {
        if (u != nullptr && t.IsVariable() && t.name() == *u) {
          args.push_back(Term::Variable(*v));
        } else if (u != nullptr && t.IsVariable() && t.name() == *v) {
          args.push_back(Term::Variable(*u));
        } else {
          args.push_back(t);
        }
      }
      atoms.push_back(Atom(a.predicate(), std::move(args)).ToString());
    }
    std::sort(atoms.begin(), atoms.end());
    return atoms;
  };
  const std::vector<std::string> base = body_strings(nullptr, nullptr);

  // Union-find over candidates: transpositions compose, so pairwise swap
  // invariance extends to every permutation within a class.
  std::vector<int> parent(candidates.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (size_t i = 0; i < candidates.size(); ++i) {
    for (size_t j = i + 1; j < candidates.size(); ++j) {
      if (find(static_cast<int>(i)) == find(static_cast<int>(j))) continue;
      if (body_strings(&candidates[i], &candidates[j]) == base) {
        parent[find(static_cast<int>(i))] = find(static_cast<int>(j));
      }
    }
  }
  std::map<int, std::vector<std::string>> classes;
  for (size_t i = 0; i < candidates.size(); ++i) {
    classes[find(static_cast<int>(i))].push_back(candidates[i]);
  }
  std::vector<std::vector<std::string>> groups;
  for (auto& [root, members] : classes) {
    if (members.size() >= 2) groups.push_back(std::move(members));
  }
  // Deterministic group order: by first member (members are already in
  // BodyVariables order).
  std::sort(groups.begin(), groups.end());
  return groups;
}

int64_t CountTotalOrders(int num_variables) {
  if (num_variables < 0) return 0;
  // Fubini numbers: a(n) = sum_{k=1..n} C(n,k) a(n-k), a(0) = 1.
  std::vector<int64_t> a(num_variables + 1, 0);
  a[0] = 1;
  for (int n = 1; n <= num_variables; ++n) {
    // Binomial row C(n, k) computed incrementally.
    int64_t binom = 1;
    int64_t total = 0;
    for (int k = 1; k <= n; ++k) {
      binom = binom * (n - k + 1) / k;
      const int64_t term = binom * a[n - k];
      if (term < 0 || total > std::numeric_limits<int64_t>::max() - term) {
        return std::numeric_limits<int64_t>::max();
      }
      total += term;
    }
    a[n] = total;
  }
  return a[num_variables];
}

}  // namespace cqac
