#include "rewriting/structure.h"

#include <algorithm>
#include <functional>

namespace cqac {

namespace {

/// Cheap name signature for GridVerdictCache's single-probe lookup table.
inline size_t NameSlot(const std::string& name) {
  const size_t len = name.size();
  const unsigned char first = len != 0 ? name.front() : 0;
  const unsigned char last = len != 0 ? name.back() : 0;
  return (first * 131 + last * 31 + len) & 255;
}

/// The first comparison with variables on both sides, or nullptr.
const Comparison* FirstVarVarComparison(const ConjunctiveQuery& q) {
  for (const Comparison& c : q.comparisons()) {
    if (c.lhs().IsVariable() && c.rhs().IsVariable()) return &c;
  }
  return nullptr;
}

bool ComparisonFree(const ConjunctiveQuery& query, const ViewSet& views) {
  if (!query.comparisons().empty()) return false;
  for (const ConjunctiveQuery& v : views.views()) {
    if (!v.comparisons().empty()) return false;
  }
  return true;
}

}  // namespace

const char* TierName(ExecutionTier tier) {
  switch (tier) {
    case ExecutionTier::kGeneral:
      return "tier0";
    case ExecutionTier::kSemiInterval:
      return "tier1";
  }
  return "tier?";
}

TierDecision ClassifyStructure(const ConjunctiveQuery& query,
                               const ViewSet& views) {
  TierDecision d;

  const Comparison* query_var_var = FirstVarVarComparison(query);
  const Comparison* view_var_var = nullptr;
  for (const ConjunctiveQuery& v : views.views()) {
    if ((view_var_var = FirstVarVarComparison(v)) != nullptr) break;
  }
  d.semi_interval_eligible =
      query_var_var == nullptr && view_var_var == nullptr;

  if (d.semi_interval_eligible) {
    d.tier = ExecutionTier::kSemiInterval;
    if (ComparisonFree(query, views)) {
      d.reason =
          "comparison-free query and views (vacuously semi-interval): "
          "keep-test verdicts cached per constant-grid class";
    } else {
      d.reason =
          "every comparison on the query and views is var-vs-const "
          "(semi-interval): keep-test verdicts cached per constant-grid "
          "class";
    }
  } else {
    d.tier = ExecutionTier::kGeneral;
    const Comparison* blocker =
        query_var_var != nullptr ? query_var_var : view_var_var;
    d.reason = "variable-variable comparison " + blocker->ToString() +
               (query_var_var != nullptr ? " on the query"
                                         : " on a view") +
               " blocks the semi-interval tier";
  }
  return d;
}

TierDecision ResolveTier(const TierDecision& classified, int force_tier) {
  if (force_tier < 0) return classified;
  TierDecision d = classified;
  switch (force_tier) {
    case 0:
      d.tier = ExecutionTier::kGeneral;
      d.reason = "forced tier0 (--force-tier 0)";
      return d;
    case 1:
      if (classified.semi_interval_eligible) {
        d.tier = ExecutionTier::kSemiInterval;
        d.reason = "forced tier1 (--force-tier 1; semi-interval eligible)";
      } else {
        d.tier = ExecutionTier::kGeneral;
        d.reason = "forced tier1 ineligible (" + classified.reason +
                   "); falling back to the general path";
      }
      return d;
    default:
      d.tier = ExecutionTier::kGeneral;
      d.reason = "unknown forced tier " + std::to_string(force_tier) +
                 "; falling back to the general path";
      return d;
  }
}

GridVerdictCache::GridVerdictCache(const std::vector<std::string>& variables) {
  var_index_.reserve(variables.size());
  for (const std::string& v : variables) {
    var_index_.emplace_back(v, static_cast<int>(var_index_.size()));
  }
  std::sort(var_index_.begin(), var_index_.end());
  std::fill(lookup_, lookup_ + kLookupSlots, -1);
  for (size_t i = 0; i < var_index_.size(); ++i) {
    lookup_[NameSlot(var_index_[i].first)] = static_cast<int>(i);
  }
  shards_.reserve(kNumShards);
  for (int i = 0; i < kNumShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void GridVerdictCache::BuildKey(const TotalOrder& order,
                                std::string* key) const {
  // Fixed-length binary key: one (canonical block id, grid cell) byte pair
  // per registered variable, in registration order.  Canonical block ids
  // are assigned by first appearance while scanning variables in
  // registration order, so two orders collide exactly when they induce the
  // same variable partition with each block in the same grid cell —
  // intra-cell block rank never reaches the key.  Constant-only blocks are
  // identical across all orders and add nothing.
  const size_t n = var_index_.size();
  thread_local std::vector<int> cell_of, block_of, canon;
  cell_of.assign(n, -1);
  block_of.assign(n, -1);
  canon.assign(n + 1, -1);
  int constants_seen = 0;
  int block_seq = 0;
  for (const OrderBlock& b : order.blocks) {
    int cell;
    if (b.constant.has_value()) {
      cell = 2 * constants_seen + 1;
      ++constants_seen;
    } else {
      cell = 2 * constants_seen;
    }
    if (b.variables.empty()) continue;
    for (const std::string& v : b.variables) {
      int index = -1;
      const int probe = lookup_[NameSlot(v)];
      if (probe >= 0 && var_index_[probe].first == v) {
        index = var_index_[probe].second;
      } else {
        const auto it = std::lower_bound(
            var_index_.begin(), var_index_.end(), v,
            [](const std::pair<std::string, int>& e, const std::string& name) {
              return e.first < name;
            });
        if (it == var_index_.end() || it->first != v) continue;
        index = it->second;
      }
      cell_of[index] = cell;
      block_of[index] = block_seq;
    }
    ++block_seq;
  }
  key->clear();
  int next_id = 0;
  for (size_t i = 0; i < n; ++i) {
    const int seq = block_of[i];
    int id = -1;
    if (seq >= 0) {
      if (canon[seq] < 0) canon[seq] = next_id++;
      id = canon[seq];
    }
    key->push_back(static_cast<char>('A' + id + 1));
    key->push_back(static_cast<char>('A' + cell_of[i] + 1));
  }
}

GridVerdictCache::Shard& GridVerdictCache::ShardFor(
    const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % kNumShards];
}

std::optional<bool> GridVerdictCache::Get(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.verdicts.find(key);
  if (it == shard.verdicts.end()) return std::nullopt;
  return it->second;
}

void GridVerdictCache::Put(const std::string& key, bool kept) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.verdicts.emplace(key, kept);
}

size_t GridVerdictCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->verdicts.size();
  }
  return total;
}

}  // namespace cqac
