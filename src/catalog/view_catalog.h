#ifndef CQAC_CATALOG_VIEW_CATALOG_H_
#define CQAC_CATALOG_VIEW_CATALOG_H_

// Ahead-of-time view compilation and cross-request caching.
//
// Production traffic is many queries against a mostly-fixed view set, yet
// the classic EquivalentRewriter re-derives every piece of per-view
// machinery — interned symbols, exported V0 variants, per-view AC
// closures, the views' constant pool — on every call, and containment
// with ACs is Pi^p_2-hard, so each re-derivation feeds a doubly
// exponential algorithm.  A ViewCatalog compiles a ViewSet exactly once
// and is then shared read-only across threads and requests:
//
//  * compiled view data: a SymbolInterner holding every predicate and
//    variable of the views, the exported V0 variants flattened in view
//    order, the deduplicated ascending view-constant pool, and each
//    view's AC closure (satisfiability + forced equalities);
//  * a catalog-scoped containment MemoCache, persistent across requests;
//  * a plan cache: per (query, semantic options) a prepared RewriteWork —
//    compiled query plan, MiniCon buckets, MCD relations — plus a persistent
//    catalog-scoped Phase-1 fingerprint memo.  A plan's stable work_id
//    also keeps the per-thread freezer/evaluator/matcher caches inside
//    ProcessCanonicalDatabase warm between requests, which is how the
//    prepared view-tuple evaluators are reused;
//  * an alpha-normalized semantic result cache in front of it all: the
//    NormalizedQueryKey of the query plus the result-relevant options
//    maps to the finished rewriting, so a repeated query — even one that
//    merely alpha-renames a cached one — short-circuits the entire
//    algorithm at parse+render cost.  Replayed results carry the original
//    run's configuration-invariant counters, so rendered output is
//    byte-identical to a fresh run.
//
// Invalidation is by epoch bump: catalogs are immutable, every
// construction draws a fresh strictly increasing epoch from a global
// counter, and "changing the views" means building (or looking up) a new
// catalog — typically through a CatalogRegistry — whose caches start
// empty.  In-flight requests keep their shared_ptr to the old epoch.
//
// Thread safety: the compiled view data is immutable; the caches are
// internally synchronized.  Rewrite() may be called concurrently from any
// number of threads.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ast/interner.h"
#include "ast/query.h"
#include "ast/substitution.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/view_set.h"
#include "runtime/memo_cache.h"

namespace cqac {

class ThreadPool;

struct CatalogOptions {
  /// Capacity of the catalog-scoped Phase-2 containment MemoCache.
  size_t containment_cache_capacity = 1 << 16;

  /// Compiled query plans kept (LRU).  A plan is a prepared RewriteWork
  /// plus its persistent Phase-1 memo; evicting one only costs a rebuild.
  size_t plan_capacity = 64;

  /// Semantic result entries kept (LRU).
  size_t semantic_capacity = 1 << 12;

  /// The alpha-normalized result cache.  Off, every request still reuses
  /// the compiled views, plans, and both memos; results are byte-identical
  /// either way (the corpus replay test asserts it), so this exists for
  /// ablation and the config lattice, not as a safety valve.
  bool semantic_cache = true;
};

/// One view's AC closure, computed once at catalog build.
struct ViewClosure {
  /// False when the view's comparisons are contradictory: the view
  /// computes nothing on any database.
  bool satisfiable = true;

  /// Equalities the comparisons force (variable -> representative or
  /// constant); empty when none or unsatisfiable.
  Substitution forced_equalities;
};

/// Point-in-time counters of one catalog.
struct CatalogStats {
  uint64_t epoch = 0;
  int views = 0;
  int64_t v0_variants = 0;
  int64_t plans_built = 0;
  int64_t plan_hits = 0;
  int64_t semantic_hits = 0;
  int64_t semantic_misses = 0;
  MemoCacheStats containment;
};

class ViewCatalog {
 public:
  explicit ViewCatalog(ViewSet views, CatalogOptions options = {});

  ViewCatalog(const ViewCatalog&) = delete;
  ViewCatalog& operator=(const ViewCatalog&) = delete;

  const ViewSet& views() const { return views_; }
  const CatalogOptions& options() const { return options_; }

  /// Strictly increasing across every catalog built in this process; the
  /// invalidation token surfaced in stats, server responses, and logs.
  uint64_t epoch() const { return epoch_; }

  /// Every predicate and variable name of the views, interned at build.
  const SymbolInterner& interner() const { return interner_; }

  /// The exported V0 variants of all views, flattened in view order —
  /// exactly what PrepareRewriteWork would derive per call.
  const std::vector<ConjunctiveQuery>& v0_variants() const {
    return v0_variants_;
  }

  /// views().Constants(), computed once (ascending, deduplicated).
  const std::vector<Rational>& view_constants() const {
    return view_constants_;
  }

  /// AC closure of views().views()[i].
  const ViewClosure& closure(int i) const {
    return closures_[static_cast<size_t>(i)];
  }

  /// The catalog-scoped Phase-2 containment memo, shared by every request
  /// served through this catalog.
  MemoCache& containment_memo() { return containment_memo_; }

  /// Serves one request through the catalog.  Semantically identical to
  /// `EquivalentRewriter(query, views(), options, &containment_memo()).Run()`
  /// — outcome, rewriting, failure reason, and the configuration-invariant
  /// stats are byte-identical — but compiled view data, plans, the
  /// Phase-1 memo, and the semantic cache are reused across calls.
  ///
  /// Driver-level options are honored per request: `jobs` selects inline
  /// or pooled execution (`pool`, when non-null, supplies the threads for
  /// jobs > 1), `cancel` and `max_canonical_databases` bound the run, and
  /// `phase1_dedup` gates use of the persistent Phase-1 memo.  Explain
  /// runs bypass every cache so traces stay complete; aborted or
  /// cancelled runs are never cached.
  RewriteResult Rewrite(const ConjunctiveQuery& query,
                        const RewriteOptions& options,
                        ThreadPool* pool = nullptr);

  CatalogStats Stats() const;

 private:
  struct CatalogPlan;
  struct SemanticEntry;

  std::shared_ptr<const CatalogPlan> GetOrBuildPlan(
      const ConjunctiveQuery& query, const RewriteOptions& options,
      const std::string& plan_sig);
  std::optional<RewriteResult> ProbeSemantic(const std::string& key,
                                             const ConjunctiveQuery& query);
  void StoreSemantic(const std::string& key, const ConjunctiveQuery& query,
                     const RewriteResult& result);

  const CatalogOptions options_;
  const ViewSet views_;
  const uint64_t epoch_;

  SymbolInterner interner_;
  std::vector<ConjunctiveQuery> v0_variants_;
  std::vector<Rational> view_constants_;
  std::vector<ViewClosure> closures_;

  MemoCache containment_memo_;

  mutable std::mutex plan_mu_;
  std::list<std::pair<std::string, std::shared_ptr<const CatalogPlan>>>
      plans_;  // front = most recent

  mutable std::mutex semantic_mu_;
  std::list<std::pair<std::string, std::shared_ptr<const SemanticEntry>>>
      semantic_;  // front = most recent

  std::atomic<int64_t> plans_built_{0};
  std::atomic<int64_t> plan_hits_{0};
  std::atomic<int64_t> semantic_hits_{0};
  std::atomic<int64_t> semantic_misses_{0};
};

/// Canonical fingerprint of a view set: the concatenated rendered views.
/// Two sets with equal fingerprints define the same catalog.
std::string FingerprintViewSet(const ViewSet& views);

/// Aggregate counters over a registry's resident catalogs plus its own.
struct CatalogRegistryStats {
  int64_t catalogs_built = 0;  // lifetime, including evicted ones
  int catalogs_resident = 0;
  uint64_t latest_epoch = 0;  // max epoch among resident catalogs
  int64_t plans_built = 0;
  int64_t plan_hits = 0;
  int64_t semantic_hits = 0;
  int64_t semantic_misses = 0;
  MemoCacheStats containment;
};

/// A small LRU of catalogs keyed by view-set fingerprint, so long-lived
/// drivers (the batch driver, the server) serve every distinct view set
/// they see through one shared catalog.  Thread-safe; builds happen
/// outside the lock and a concurrent duplicate build resolves to the
/// first inserted catalog.
class CatalogRegistry {
 public:
  explicit CatalogRegistry(size_t capacity = 8, CatalogOptions options = {});

  CatalogRegistry(const CatalogRegistry&) = delete;
  CatalogRegistry& operator=(const CatalogRegistry&) = delete;

  /// The resident catalog for `views`, building (and possibly evicting)
  /// if absent.  The returned pointer stays valid after eviction.
  std::shared_ptr<ViewCatalog> GetOrBuild(const ViewSet& views);

  /// The resident catalog for `views`, or nullptr.
  std::shared_ptr<ViewCatalog> Find(const ViewSet& views) const;

  size_t size() const;
  int64_t catalogs_built() const {
    return built_.load(std::memory_order_relaxed);
  }

  CatalogRegistryStats Stats() const;

 private:
  const size_t capacity_;
  const CatalogOptions options_;
  mutable std::mutex mu_;
  std::list<std::pair<std::string, std::shared_ptr<ViewCatalog>>>
      lru_;  // front = most recent
  std::atomic<int64_t> built_{0};
};

}  // namespace cqac

#endif  // CQAC_CATALOG_VIEW_CATALOG_H_
