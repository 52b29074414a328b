#include "engine/canonical.h"

#include <algorithm>

#include "obs/metrics.h"

namespace cqac {

Term CanonicalDatabase::Unfreeze(const Rational& value) const {
  auto it = unfreeze.find(value);
  return it == unfreeze.end() ? Term::Constant(value) : it->second;
}

Atom CanonicalDatabase::UnfreezeAtom(const Atom& ground) const {
  std::vector<Term> args;
  args.reserve(ground.args().size());
  for (const Term& t : ground.args()) {
    args.push_back(t.IsConstant() ? Unfreeze(t.value()) : t);
  }
  return Atom(ground.predicate(), std::move(args));
}

namespace {

CanonicalDatabase FreezeWithAssignment(
    const ConjunctiveQuery& q, std::map<std::string, Rational> assignment,
    std::map<Rational, Term> unfreeze) {
  CanonicalDatabase result;
  result.assignment = std::move(assignment);
  result.unfreeze = std::move(unfreeze);
  auto freeze_term = [&result](const Term& t) -> Rational {
    return t.IsConstant() ? t.value() : result.assignment.at(t.name());
  };
  for (const Atom& atom : q.body()) {
    Tuple tuple;
    tuple.reserve(atom.args().size());
    for (const Term& t : atom.args()) tuple.push_back(freeze_term(t));
    result.db.Insert(atom.predicate(), std::move(tuple));
  }
  result.frozen_head.reserve(q.head().args().size());
  for (const Term& t : q.head().args()) {
    result.frozen_head.push_back(freeze_term(t));
  }
  return result;
}

}  // namespace

CanonicalDatabase FreezeQuery(const ConjunctiveQuery& q,
                              const TotalOrder& order) {
  std::map<std::string, Rational> assignment = order.ToAssignment();
  std::map<Rational, Term> unfreeze;
  for (const OrderBlock& block : order.blocks) {
    Rational value;
    if (block.constant.has_value()) {
      value = *block.constant;
    } else if (!block.variables.empty()) {
      value = assignment.at(block.variables.front());
    } else {
      continue;
    }
    unfreeze.emplace(value, block.Representative());
  }
  return FreezeWithAssignment(q, std::move(assignment), std::move(unfreeze));
}

CanonicalFreezer::CanonicalFreezer(const ConjunctiveQuery& q) {
  auto compile_term = [this](const Term& t) {
    CompiledTerm ct;
    ct.is_const = t.IsConstant();
    if (ct.is_const) {
      ct.value = t.value();
      ct.slot = 0;
    } else {
      const auto [it, inserted] = var_slots_.emplace(
          t.name(), static_cast<uint32_t>(var_slots_.size()));
      if (inserted) slot_names_.push_back(t.name());
      ct.slot = it->second;
    }
    return ct;
  };
  std::vector<uint32_t> rows_per_relation;
  subgoals_.reserve(q.body().size());
  for (const Atom& atom : q.body()) {
    CompiledSubgoal sg;
    const std::optional<uint32_t> rel =
        FindRelation(atom.predicate(), atom.arity());
    if (rel.has_value()) {
      sg.relation = *rel;
    } else {
      sg.relation = static_cast<uint32_t>(relations_.size());
      relations_.emplace_back(atom.predicate(), atom.arity());
      rows_per_relation.push_back(0);
    }
    sg.row = rows_per_relation[sg.relation]++;
    sg.terms.reserve(atom.args().size());
    for (const Term& t : atom.args()) sg.terms.push_back(compile_term(t));
    subgoals_.push_back(std::move(sg));
  }
  head_.reserve(q.head().args().size());
  for (const Term& t : q.head().args()) head_.push_back(compile_term(t));
  var_values_.resize(var_slots_.size());
  var_blocks_.resize(var_slots_.size());
  var_codes_.resize(var_slots_.size());
  rel_epochs_.resize(relations_.size(), 0);

  // Fixed row capacity per relation (one row per owning subgoal).
  // Subgoal/head constants join the dictionary now; block values join via
  // PrimeDictionary or on first sight.
  for (uint32_t rel = 0; rel < relations_.size(); ++rel) {
    columnar_.AddRelation(relations_[rel].second, rows_per_relation[rel]);
  }
  for (const CompiledSubgoal& sg : subgoals_) {
    for (const CompiledTerm& t : sg.terms) {
      if (t.is_const) dict_.Add(t.value);
    }
  }
  for (const CompiledTerm& t : head_) {
    if (t.is_const) dict_.Add(t.value);
  }
  dict_.Rebuild();
  RecodeConstTerms();
}

std::optional<uint32_t> CanonicalFreezer::FindRelation(
    const std::string& predicate, int arity) const {
  for (uint32_t rel = 0; rel < relations_.size(); ++rel) {
    if (relations_[rel].second == arity && relations_[rel].first == predicate) {
      return rel;
    }
  }
  return std::nullopt;
}

void CanonicalFreezer::RecodeConstTerms() {
  for (CompiledSubgoal& sg : subgoals_) {
    for (CompiledTerm& t : sg.terms) {
      if (t.is_const) t.code = dict_.Find(t.value);
    }
  }
  for (CompiledTerm& t : head_) {
    if (t.is_const) t.code = dict_.Find(t.value);
  }
}

void CanonicalFreezer::WriteCodeRow(const CompiledSubgoal& sg) {
  for (size_t k = 0; k < sg.terms.size(); ++k) {
    const CompiledTerm& t = sg.terms[k];
    columnar_.Set(sg.relation, sg.row, static_cast<int>(k),
                  t.is_const ? t.code : var_codes_[t.slot]);
  }
}

void CanonicalFreezer::RecodeAll() {
  RecodeConstTerms();
  if (epoch_ == 0) return;  // Nothing frozen yet; nothing derived to fix.
  for (size_t b = 0; b < block_values_.size(); ++b) {
    block_codes_[b] = dict_.Find(block_values_[b]);
  }
  for (size_t s = 0; s < var_values_.size(); ++s) {
    var_codes_[s] = dict_.Find(var_values_[s]);
  }
  for (const CompiledSubgoal& sg : subgoals_) WriteCodeRow(sg);
  frozen_head_codes_.clear();
  for (const CompiledTerm& t : head_) {
    frozen_head_codes_.push_back(t.is_const ? t.code : var_codes_[t.slot]);
  }
}

void CanonicalFreezer::PrimeDictionary(const std::vector<Rational>& constants,
                                       size_t num_vars) {
  SeedCanonicalValuePool(num_vars, constants, &dict_);
  if (dict_.has_staged()) {
    dict_.Rebuild();
    RecodeAll();
  }
}

void CanonicalFreezer::AddDictionaryValues(const Rational* values, size_t n) {
  bool any_new = false;
  for (size_t i = 0; i < n; ++i) any_new |= dict_.Add(values[i]);
  if (any_new) {
    dict_.Rebuild();
    RecodeAll();
  }
}

void CanonicalFreezer::LoadOrder(const TotalOrder& order, bool track) {
  order.BlockValues(&block_values_);
  block_reps_.clear();
  block_reps_.reserve(order.blocks.size());
  if (track) changed_.assign(var_values_.size(), 0);
  for (size_t b = 0; b < order.blocks.size(); ++b) {
    block_reps_.push_back(order.blocks[b].Representative());
    for (const std::string& v : order.blocks[b].variables) {
      const auto it = var_slots_.find(v);
      if (it == var_slots_.end()) continue;
      var_blocks_[it->second] = static_cast<uint32_t>(b);
      const Rational& value = block_values_[b];
      if (track) {
        if (var_values_[it->second] != value) {
          var_values_[it->second] = value;
          changed_[it->second] = 1;
        }
      } else {
        var_values_[it->second] = value;
      }
    }
  }

  // Resolve block codes; a miss means an unseeded value surfaced, so the
  // dictionary grows and every cached code (constant terms, columnar
  // rows) must be re-derived.  Primed runs never take this branch after
  // construction.
  dict_rebuilt_ = false;
  block_codes_.resize(block_values_.size());
  bool missing = false;
  for (size_t b = 0; b < block_values_.size(); ++b) {
    block_codes_[b] = dict_.Find(block_values_[b]);
    missing |= block_codes_[b] == ValueDictionary::kNotFound;
  }
  if (missing) {
    for (const Rational& v : block_values_) dict_.Add(v);
    dict_.Rebuild();
    RecodeConstTerms();
    for (size_t b = 0; b < block_values_.size(); ++b) {
      block_codes_[b] = dict_.Find(block_values_[b]);
    }
    dict_rebuilt_ = true;
  }
  for (size_t s = 0; s < var_blocks_.size(); ++s) {
    var_codes_[s] = block_codes_[var_blocks_[s]];
  }
}

void CanonicalFreezer::RebuildHead() {
  frozen_head_.clear();
  frozen_head_codes_.clear();
  for (const CompiledTerm& t : head_) {
    frozen_head_.push_back(t.is_const ? t.value : var_values_[t.slot]);
    frozen_head_codes_.push_back(t.is_const ? t.code : var_codes_[t.slot]);
  }
}

const ColumnarInstance& CanonicalFreezer::Freeze(const TotalOrder& order) {
  if (epoch_ == 0) return FreezeFull(order);
  LoadOrder(order, /*track=*/true);
  ++epoch_;
  int64_t rewritten = 0;
  for (const CompiledSubgoal& sg : subgoals_) {
    bool touched = false;
    for (const CompiledTerm& t : sg.terms) {
      if (!t.is_const && changed_[t.slot]) {
        touched = true;
        break;
      }
    }
    if (!touched) {
      // Untouched rows keep their values, but a mid-run dictionary
      // rebuild renumbers every code, so their coded rows go stale.
      if (dict_rebuilt_) WriteCodeRow(sg);
      continue;
    }
    WriteCodeRow(sg);
    rel_epochs_[sg.relation] = epoch_;
    ++rewritten;
  }
  RebuildHead();
  if (obs::MetricsActive()) {
    // How much the delta form saves: rows actually rewritten vs the
    // full-refreeze row count tracked in FreezeFull.
    static obs::Counter& delta_rows =
        obs::MetricsRegistry::Global().counter("freezer.delta_rows");
    delta_rows.Add(rewritten);
  }
  return columnar_;
}

const ColumnarInstance& CanonicalFreezer::FreezeFull(const TotalOrder& order) {
  LoadOrder(order, /*track=*/false);
  ++epoch_;
  for (const CompiledSubgoal& sg : subgoals_) WriteCodeRow(sg);
  for (uint64_t& e : rel_epochs_) e = epoch_;
  RebuildHead();
  if (obs::MetricsActive()) {
    static obs::Counter& full =
        obs::MetricsRegistry::Global().counter("freezer.full_freezes");
    full.Add(1);
    static obs::Counter& rows =
        obs::MetricsRegistry::Global().counter("freezer.full_rows");
    rows.Add(static_cast<int64_t>(subgoals_.size()));
  }
  return columnar_;
}

Term CanonicalFreezer::UnfreezeValue(const Rational& value) const {
  const auto it =
      std::lower_bound(block_values_.begin(), block_values_.end(), value);
  if (it != block_values_.end() && *it == value) {
    return block_reps_[it - block_values_.begin()];
  }
  return Term::Constant(value);
}

CanonicalDatabase FreezeQueryDistinct(const ConjunctiveQuery& q) {
  // Fresh integer values strictly above every constant in the query, so no
  // accidental collisions with constants occur.
  Rational base(1);
  for (const Rational& c : q.Constants()) {
    if (c >= base) base = c + Rational(1);
  }
  std::map<std::string, Rational> assignment;
  std::map<Rational, Term> unfreeze;
  int offset = 0;
  for (const std::string& v : q.AllVariables()) {
    const Rational value = base + Rational(offset++);
    assignment.emplace(v, value);
    unfreeze.emplace(value, Term::Variable(v));
  }
  return FreezeWithAssignment(q, std::move(assignment), std::move(unfreeze));
}

}  // namespace cqac
