#include "engine/coded_eval.h"

#include <algorithm>

namespace cqac {

namespace {

/// Order-preserving codes make every CompOp a plain integer compare.
inline bool EvalCodeOp(uint32_t a, CompOp op, uint32_t b) {
  switch (op) {
    case CompOp::kLt:
      return a < b;
    case CompOp::kLe:
      return a <= b;
    case CompOp::kEq:
      return a == b;
    case CompOp::kNe:
      return a != b;
    case CompOp::kGe:
      return a >= b;
    case CompOp::kGt:
      return a > b;
  }
  return false;
}

inline uint32_t MixCode(uint32_t h, uint32_t code) {
  return h ^ (code + 0x9e3779b9u + (h << 6) + (h >> 2));
}

/// Selection kernel: appends to `sel` (branchlessly) the row ids whose
/// `col` code equals `code`; returns the selection size.
inline uint32_t FilterEq(const uint32_t* col, uint32_t n, uint32_t code,
                         uint32_t* sel) {
  uint32_t m = 0;
  for (uint32_t i = 0; i < n; ++i) {
    sel[m] = i;
    m += col[i] == code ? 1u : 0u;
  }
  return m;
}

/// Refinement kernel: compacts `sel` in place to the rows whose `col`
/// code equals `code`; returns the new selection size.
inline uint32_t RefineEq(const uint32_t* col, uint32_t code, uint32_t* sel,
                         uint32_t n) {
  uint32_t m = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    sel[m] = r;
    m += col[r] == code ? 1u : 0u;
  }
  return m;
}

}  // namespace

void CodedEvaluator::BindTo(CanonicalFreezer* freezer) {
  if (bound_freezer_ != freezer) {
    bound_freezer_ = freezer;
    rel_ids_.clear();
    rel_ids_.reserve(plan_->subgoals.size());
    for (const QueryPlan::Subgoal& sg : plan_->subgoals) {
      rel_ids_.push_back(
          freezer->FindRelation(sg.predicate, sg.arity).value_or(kNone));
    }
  }
  ResolveConstants(freezer);
}

void CodedEvaluator::ResolveConstants(CanonicalFreezer* freezer) {
  // Every constant the plan can mention — subgoal positions, comparison
  // sides, head terms — joins the dictionary so the hot loop never sees
  // an uncoded value.  (Bind-time allocation is fine; Run-time is not.)
  std::vector<Rational> all = plan_->constants;
  for (const QueryPlan::ComparisonRef& c : plan_->comparisons) {
    if (c.lhs.is_const) all.push_back(c.lhs.value);
    if (c.rhs.is_const) all.push_back(c.rhs.value);
  }
  for (const QueryPlan::TermRef& t : plan_->head) {
    if (t.is_const) all.push_back(t.value);
  }
  if (!all.empty()) freezer->AddDictionaryValues(all.data(), all.size());
  RefreshConstantCodes(freezer->dictionary());
}

void CodedEvaluator::RefreshConstantCodes(const ValueDictionary& dict) {
  const_codes_.resize(plan_->constants.size());
  for (size_t i = 0; i < plan_->constants.size(); ++i) {
    const_codes_[i] = dict.Find(plan_->constants[i]);
  }
  comp_lhs_code_.resize(plan_->comparisons.size());
  comp_rhs_code_.resize(plan_->comparisons.size());
  for (size_t c = 0; c < plan_->comparisons.size(); ++c) {
    const QueryPlan::ComparisonRef& comp = plan_->comparisons[c];
    comp_lhs_code_[c] = comp.lhs.is_const ? dict.Find(comp.lhs.value) : kNone;
    comp_rhs_code_[c] = comp.rhs.is_const ? dict.Find(comp.rhs.value) : kNone;
  }
  head_const_code_.resize(plan_->head.size());
  for (size_t i = 0; i < plan_->head.size(); ++i) {
    const QueryPlan::TermRef& t = plan_->head[i];
    head_const_code_[i] = t.is_const ? dict.Find(t.value) : kNone;
  }
  dict_epoch_ = dict.epoch();
}

bool CodedEvaluator::Run(const CanonicalFreezer& freezer,
                         bool match_frozen_head, Relation* out) {
  const ColumnarInstance& inst = freezer.columnar();
  dict_ = &freezer.dictionary();
  // A mid-run dictionary rebuild (unseeded value) renumbers codes; the
  // cached constant codes follow.  Lookups only — no allocation.
  if (dict_->epoch() != dict_epoch_) RefreshConstantCodes(*dict_);
  if (match_frozen_head &&
      freezer.frozen_head_codes().size() != plan_->head.size()) {
    return false;
  }
  match_mode_ = match_frozen_head;
  target_codes_ =
      match_frozen_head ? freezer.frozen_head_codes().data() : nullptr;
  out_ = out;
  found_ = false;

  // Carve all per-run scratch from the arena: after the first few runs
  // the arena is at its high-water mark and Reset + carving is pure
  // pointer arithmetic — zero heap traffic per canonical database.
  arena_.Reset();
  const size_t nsub = plan_->subgoals.size();
  depths_ = arena_.AllocateArray<DepthExec>(nsub);
  var_code_ = arena_.AllocateArray<uint32_t>(plan_->num_vars);
  bound_ = arena_.AllocateZeroedArray<uint8_t>(plan_->num_vars);
  extra_code_ = arena_.AllocateArray<uint32_t>(plan_->num_vars);
  extra_bound_ = arena_.AllocateZeroedArray<uint8_t>(plan_->num_vars);
  extra_touched_ = arena_.AllocateArray<uint32_t>(plan_->num_vars);
  num_extra_touched_ = 0;
  unresolved_ = arena_.AllocateArray<int>(plan_->pending.size());
  head_code_ = arena_.AllocateArray<uint32_t>(plan_->head.size());

  for (size_t d = 0; d < nsub; ++d) {
    DepthExec& ex = depths_[d];
    ex = DepthExec{};
    const QueryPlan::Subgoal& sg = plan_->subgoals[d];
    const uint32_t rel = rel_ids_[d];
    if (rel == kNone) continue;  // Absent relation: zero candidates.
    ex.rows = inst.RowCount(rel);
    ex.cols = arena_.AllocateArray<const uint32_t*>(sg.arity);
    for (int c = 0; c < sg.arity; ++c) ex.cols[c] = inst.Column(rel, c);
    if (sg.entry_cols.empty() || ex.rows < kFilterGate) {
      ex.strategy = Strategy::kScan;
    } else if (ex.rows >= kIndexGate) {
      ex.strategy = Strategy::kIndex;
      ex.entry_code = arena_.AllocateArray<uint32_t>(sg.entry_cols.size());
      BuildIndex(&ex, sg);
    } else {
      ex.strategy = Strategy::kFilter;
      ex.sel = arena_.AllocateArray<uint32_t>(ex.rows);
      ex.entry_code = arena_.AllocateArray<uint32_t>(sg.entry_cols.size());
    }
  }
  if (CheckTriggers(0)) Search(0);
  return found_;
}

uint32_t CodedEvaluator::EntryKeyHash(const DepthExec& ex,
                                      const QueryPlan::Subgoal& sg) const {
  uint32_t h = 0;
  for (size_t i = 0; i < sg.entry_cols.size(); ++i) {
    h = MixCode(h, ex.entry_code[i]);
  }
  return h;
}

bool CodedEvaluator::RowMatchesEntry(const DepthExec& ex,
                                     const QueryPlan::Subgoal& sg,
                                     uint32_t row) const {
  for (size_t i = 0; i < sg.entry_cols.size(); ++i) {
    if (ex.cols[sg.entry_cols[i]][row] != ex.entry_code[i]) return false;
  }
  return true;
}

void CodedEvaluator::BuildIndex(DepthExec* ex, const QueryPlan::Subgoal& sg) {
  uint32_t size = 4;
  while (size < ex->rows * 2) size <<= 1;
  ex->mask = size - 1;
  ex->slots = arena_.AllocateArray<uint32_t>(size);
  std::fill(ex->slots, ex->slots + size, kNone);
  ex->next = arena_.AllocateArray<uint32_t>(ex->rows);

  auto rows_equal = [&](uint32_t a, uint32_t b) {
    for (const uint32_t col : sg.entry_cols) {
      if (ex->cols[col][a] != ex->cols[col][b]) return false;
    }
    return true;
  };
  // Insert in reverse so chains (head = last insert) come out in
  // ascending row order — the visit order of the scan path.
  for (uint32_t r = ex->rows; r-- > 0;) {
    uint32_t h = 0;
    for (const uint32_t col : sg.entry_cols) {
      h = MixCode(h, ex->cols[col][r]);
    }
    uint32_t i = h & ex->mask;
    for (;;) {
      const uint32_t head = ex->slots[i];
      if (head == kNone) {
        ex->next[r] = kNone;
        ex->slots[i] = r;
        break;
      }
      if (rows_equal(head, r)) {
        ex->next[r] = head;
        ex->slots[i] = r;
        break;
      }
      i = (i + 1) & ex->mask;
    }
  }
}

bool CodedEvaluator::CheckTriggers(size_t depth) const {
  for (const int c : plan_->triggers[depth]) {
    const QueryPlan::ComparisonRef& comp = plan_->comparisons[c];
    const uint32_t a =
        comp.lhs.is_const ? comp_lhs_code_[c] : var_code_[comp.lhs.var];
    const uint32_t b =
        comp.rhs.is_const ? comp_rhs_code_[c] : var_code_[comp.rhs.var];
    if (!EvalCodeOp(a, comp.op, b)) return false;
  }
  return true;
}

bool CodedEvaluator::TryRow(size_t depth, uint32_t row) {
  const QueryPlan::Subgoal& sg = plan_->subgoals[depth];
  const DepthExec& ex = depths_[depth];
  bool ok = true;
  for (int i = 0; i < sg.arity && ok; ++i) {
    const QueryPlan::Op& op = sg.ops[i];
    const uint32_t v = ex.cols[i][row];
    switch (op.kind) {
      case QueryPlan::Op::kConst:
        ok = const_codes_[op.slot] == v;
        break;
      case QueryPlan::Op::kBind:
        var_code_[op.slot] = v;
        bound_[op.slot] = 1;
        break;
      case QueryPlan::Op::kCheck:
        ok = var_code_[op.slot] == v;
        break;
    }
  }
  bool keep_going = true;
  if (ok && CheckTriggers(depth + 1)) keep_going = Search(depth + 1);
  for (const uint32_t v : sg.bind_vars) bound_[v] = 0;
  return keep_going;
}

bool CodedEvaluator::Search(size_t depth) {
  if (depth == plan_->subgoals.size()) return EmitHead();
  const QueryPlan::Subgoal& sg = plan_->subgoals[depth];
  DepthExec& ex = depths_[depth];

  switch (ex.strategy) {
    case Strategy::kScan:
      for (uint32_t r = 0; r < ex.rows; ++r) {
        if (!TryRow(depth, r)) return false;
      }
      return true;

    case Strategy::kFilter: {
      for (size_t i = 0; i < sg.entry_cols.size(); ++i) {
        const QueryPlan::Op& op = sg.ops[sg.entry_cols[i]];
        ex.entry_code[i] = op.kind == QueryPlan::Op::kConst
                               ? const_codes_[op.slot]
                               : var_code_[op.slot];
      }
      uint32_t n =
          FilterEq(ex.cols[sg.entry_cols[0]], ex.rows, ex.entry_code[0],
                   ex.sel);
      for (size_t i = 1; i < sg.entry_cols.size() && n > 0; ++i) {
        n = RefineEq(ex.cols[sg.entry_cols[i]], ex.entry_code[i], ex.sel, n);
      }
      for (uint32_t k = 0; k < n; ++k) {
        if (!TryRow(depth, ex.sel[k])) return false;
      }
      return true;
    }

    case Strategy::kIndex: {
      for (size_t i = 0; i < sg.entry_cols.size(); ++i) {
        const QueryPlan::Op& op = sg.ops[sg.entry_cols[i]];
        ex.entry_code[i] = op.kind == QueryPlan::Op::kConst
                               ? const_codes_[op.slot]
                               : var_code_[op.slot];
      }
      uint32_t i = EntryKeyHash(ex, sg) & ex.mask;
      while (ex.slots[i] != kNone) {
        const uint32_t head = ex.slots[i];
        if (RowMatchesEntry(ex, sg, head)) {
          for (uint32_t r = head; r != kNone; r = ex.next[r]) {
            if (!TryRow(depth, r)) return false;
          }
          return true;
        }
        i = (i + 1) & ex.mask;
      }
      return true;
    }
  }
  return true;
}

bool CodedEvaluator::ResolvePending() {
  uint32_t n = 0;
  for (const int c : plan_->pending) unresolved_[n++] = c;
  auto lookup = [this](const QueryPlan::TermRef& t, uint32_t const_code,
                       uint32_t* out) {
    if (t.is_const) {
      *out = const_code;
      return true;
    }
    if (bound_[t.var]) {
      *out = var_code_[t.var];
      return true;
    }
    if (extra_bound_[t.var]) {
      *out = extra_code_[t.var];
      return true;
    }
    return false;
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (uint32_t i = 0; i < n;) {
      const int c = unresolved_[i];
      const QueryPlan::ComparisonRef& comp = plan_->comparisons[c];
      uint32_t a, b;
      const bool has_a = lookup(comp.lhs, comp_lhs_code_[c], &a);
      const bool has_b = lookup(comp.rhs, comp_rhs_code_[c], &b);
      if (has_a && has_b) {
        if (!EvalCodeOp(a, comp.op, b)) return false;
        unresolved_[i] = unresolved_[--n];
        progress = true;
        continue;
      }
      if (comp.op == CompOp::kEq && (has_a || has_b)) {
        // Bind the undetermined side (necessarily a variable).  Equality
        // propagation is confluent, so the removal order (swap-with-last
        // here, order-preserving erase in the row engine) cannot change
        // the outcome.
        const QueryPlan::TermRef& unbound = has_a ? comp.rhs : comp.lhs;
        extra_bound_[unbound.var] = 1;
        extra_code_[unbound.var] = has_a ? a : b;
        extra_touched_[num_extra_touched_++] = unbound.var;
        unresolved_[i] = unresolved_[--n];
        progress = true;
        continue;
      }
      ++i;
    }
  }
  return n == 0;
}

bool CodedEvaluator::EmitHead() {
  // Reset ResolvePending's equality-derived bindings from the previous
  // leaf.
  for (uint32_t i = 0; i < num_extra_touched_; ++i) {
    extra_bound_[extra_touched_[i]] = 0;
  }
  num_extra_touched_ = 0;
  if (!plan_->pending.empty() && !ResolvePending()) return true;
  const size_t n = plan_->head.size();
  for (size_t i = 0; i < n; ++i) {
    const QueryPlan::TermRef& t = plan_->head[i];
    if (t.is_const) {
      head_code_[i] = head_const_code_[i];
    } else if (bound_[t.var]) {
      head_code_[i] = var_code_[t.var];
    } else if (extra_bound_[t.var]) {
      head_code_[i] = extra_code_[t.var];
    } else {
      return true;  // Unsafe head: emit nothing.
    }
  }
  if (match_mode_) {
    if (std::equal(head_code_, head_code_ + n, target_codes_)) {
      found_ = true;
      return false;  // Early exit.
    }
    return true;
  }
  if (out_ != nullptr) {
    // Codes preserve lexicographic tuple order, so decoded rows land in
    // the Relation's std::set exactly where the row engine's would.
    decode_row_.clear();
    for (size_t i = 0; i < n; ++i) {
      decode_row_.push_back(dict_->Value(head_code_[i]));
    }
    out_->Insert(decode_row_);
  }
  return true;
}

}  // namespace cqac
