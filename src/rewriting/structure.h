#ifndef CQAC_REWRITING_STRUCTURE_H_
#define CQAC_REWRITING_STRUCTURE_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/query.h"
#include "constraints/orders.h"
#include "rewriting/view_set.h"

namespace cqac {

/// Structure-aware tiered execution: a classifier inspects the (query,
/// views) pair before Phase 1 and routes the run to the cheapest engine
/// whose completeness argument applies.  Every tier is byte-compatible
/// with the general path on verdicts, rewritings, and the invariant
/// counters of the differential RunSignature — tiers change how fast the
/// answer is computed, never what it is.
///
///  * T0 (general): the unmodified doubly exponential pipeline.
///  * T1 (semi-interval): every comparison on the query and the views is
///    `var op const` (Afrati & Damigos: containment escapes the general
///    canonical-database blowup on this fragment).  The keep-test verdict
///    of a canonical database then depends only on the order's *grid
///    class* — the partition of variables into blocks plus each block's
///    cell relative to the sorted constant grid (below / at / between /
///    above), ignoring how blocks are ranked within a cell — so verdicts
///    are cached per class and the factorial intra-cell block sweep is
///    paid once per class instead of once per order.  Comparison-free
///    inputs are vacuously semi-interval and route here too.
enum class ExecutionTier {
  kGeneral = 0,
  kSemiInterval = 1,
};

/// "tier0" / "tier1".
const char* TierName(ExecutionTier tier);

/// The classifier's verdict for one (query, views) pair.
struct TierDecision {
  ExecutionTier tier = ExecutionTier::kGeneral;

  /// Human-readable routing explanation, surfaced as `tier_reason` in
  /// stats/JSON: why this tier fired, or which structural feature blocked
  /// the faster one (the first variable-variable comparison, a forced-tier
  /// fallback).
  std::string reason;

  /// Raw eligibility, independent of the final routing: used by
  /// ResolveTier to honor or reject a forced tier.
  bool semi_interval_eligible = false;
};

/// Classifies the pair structurally (no forcing): T1 when every
/// comparison on the query and the views is variable-vs-constant
/// (vacuously so when there are none), else T0.
TierDecision ClassifyStructure(const ConjunctiveQuery& query,
                               const ViewSet& views);

/// Applies a `--force-tier` request to a classified decision.  Forcing is
/// a testing hook, never a soundness override: a forced tier applies only
/// when its eligibility precondition holds, otherwise the run falls back
/// to T0 and the reason says so — which makes a forced-tier sweep over an
/// arbitrary corpus sound by construction.  `force_tier` < 0 means auto.
TierDecision ResolveTier(const TierDecision& classified, int force_tier);

/// The T1 keep-test verdict cache, keyed by grid class.
///
/// Soundness (why the verdict is a pure function of the key): fix two
/// orders O1, O2 with the same variable partition and the same cell per
/// block.  The block-wise value map phi (block b's value under O1 ->
/// block b's value under O2) is a bijection on the frozen values that
/// fixes every constant, maps O1's canonical database exactly onto O2's,
/// and maps O1's frozen head to O2's.  Every query comparison is
/// `var op const`, whose truth under an assignment depends only on the
/// variable's cell — preserved by phi.  So h is a witness embedding for
/// O1 iff phi∘h is one for O2, and the keep-test verdicts coincide.
/// (Intra-cell block rank is exactly what the key quotients away: phi
/// need not be order-preserving between two variable blocks of one cell,
/// and no `var op const` comparison can tell them apart.)  A var-var
/// comparison would break the argument — which is the T1 boundary.
///
/// Concurrency: sharded insert-only maps behind mutexes, shared by the
/// parallel driver's workers and, via the catalog plan, across requests.
/// Verdicts are pure functions of their key, so sharing never changes
/// results; only the hit/miss split is schedule-dependent (excluded from
/// the differential RunSignature, like the Phase-1 memo counters).
class GridVerdictCache {
 public:
  /// `variables` is the enumeration's variable universe
  /// (query.AllVariables()), fixing the variable -> index encoding.
  explicit GridVerdictCache(const std::vector<std::string>& variables);

  GridVerdictCache(const GridVerdictCache&) = delete;
  GridVerdictCache& operator=(const GridVerdictCache&) = delete;

  /// Serializes `order`'s grid class into `*key` (cleared first): one
  /// (canonical block id, cell) byte pair per variable in registration
  /// order, where the k-th constant block is cell 2k+1 and a variable-only
  /// block between the k-th and (k+1)-th constants is cell 2k.  Canonical
  /// block ids are numbered by first appearance over the registration
  /// order, so any two orders of one class build byte-equal keys no matter
  /// how their blocks are ranked within a cell.
  void BuildKey(const TotalOrder& order, std::string* key) const;

  /// The cached keep verdict for `key`, or nullopt.
  std::optional<bool> Get(const std::string& key) const;

  /// Records `kept` for `key` (first writer wins; later puts are no-ops,
  /// which is fine — the verdict is a pure function of the key).
  void Put(const std::string& key, bool kept);

  /// Distinct grid classes recorded so far.
  size_t size() const;

 private:
  static constexpr int kNumShards = 8;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, bool> verdicts;
  };

  Shard& ShardFor(const std::string& key) const;

  /// Name -> registration index, sorted by name: BuildKey runs one lookup
  /// per variable per order, and a binary search over a handful of short
  /// names beats hashing each name from scratch.
  std::vector<std::pair<std::string, int>> var_index_;

  /// Single-probe accelerator in front of the binary search: slot
  /// (cheap signature of the name) holds the position in `var_index_` of
  /// the last registered name with that signature; a verify-compare
  /// rejects collisions and falls back to the search.  BuildKey runs on
  /// every canonical database of a tier-1 sweep, so the constant factor
  /// of the name lookup is the cache's overhead floor.
  static constexpr size_t kLookupSlots = 256;
  int lookup_[kLookupSlots];
  mutable std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace cqac

#endif  // CQAC_REWRITING_STRUCTURE_H_
