#ifndef CQAC_RUNTIME_MEMO_CACHE_H_
#define CQAC_RUNTIME_MEMO_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/query.h"

namespace cqac {

/// Aggregated counters of a MemoCache.
struct MemoCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
};

/// A sharded, mutex-striped LRU cache of boolean verdicts keyed by
/// normalized strings — in this codebase, containment-check verdicts
/// keyed by ContainmentMemoKey.
///
/// Shards are selected by key hash; each shard holds its own mutex, LRU
/// list, and counters, so concurrent lookups from the rewriting runtime's
/// worker threads stripe across `num_shards` locks instead of serializing
/// on one.  Verdicts are pure functions of their normalized key, so
/// sharing a cache across threads (or across jobs in the batch driver)
/// never changes results — only how much work is repeated.
class MemoCache {
 public:
  /// `capacity` is the total entry budget, split evenly across shards
  /// (minimum 1 per shard).
  explicit MemoCache(size_t capacity = 1 << 16, int num_shards = 16);

  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  /// The cached verdict for `key`, refreshing its recency; nullopt on
  /// miss.
  std::optional<bool> Get(const std::string& key);

  /// Inserts (or refreshes) `key`, evicting the shard's least recently
  /// used entry when the shard is full.
  void Put(const std::string& key, bool value);

  /// Counters summed over all shards.
  MemoCacheStats Stats() const;

  /// Entries currently resident, summed over all shards.
  size_t size() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Shard {
    std::mutex mu;
    // Front = most recently used.  The map points into the list.
    std::list<std::pair<std::string, bool>> lru;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, bool>>::iterator>
        index;
    MemoCacheStats stats;
  };

  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// A 128-bit structural fingerprint (two independently seeded 64-bit
/// mixes) of a Phase-1 memo key.  Fingerprints index the Phase1Memo
/// shards; entries always carry the full key and a hit is only declared
/// after the keys compare equal — never trust the hash alone.
struct Phase1Fingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const Phase1Fingerprint& a,
                         const Phase1Fingerprint& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
};

/// Fingerprints a Phase-1 memo key (deterministic across runs/platforms).
Phase1Fingerprint FingerprintPhase1Key(const std::string& key);

/// What Phase 1 concluded about one canonical database, keyed by the
/// database's structural key: the unfrozen view-tuple multiset plus the
/// variable -> block-representative map.  Canonical databases with equal
/// keys provably keep the same MCD set, pass or fail the combination
/// check together, and assemble the same Pre-Rewriting body — so the
/// conclusion is shared and only the order-dependent comparisons are
/// rebuilt per database.
struct Phase1Entry {
  std::string key;  // full key, compared on every hit
  bool combination_exists = false;
  int64_t mcds_kept = 0;
  /// Surviving MCD indices (deduplicated, fold-dropped, sorted by tuple
  /// rank) and the body's variables in first-occurrence order; valid only
  /// within the run (RewriteWork) that produced them, which is why a
  /// Phase1Memo must never outlive or be shared across runs.
  std::vector<int> body_mcds;
  std::vector<std::string> body_vars;
};

/// A sharded, insert-only memo from canonical-database fingerprints to
/// Phase-1 conclusions, shared by the worker threads of one rewriting
/// run.  Entries are verified on hit (full key comparison) and the first
/// writer wins; inserts beyond the capacity are dropped — the memo is an
/// accelerator, never a source of truth.  Unlike MemoCache, entries are
/// meaningful only within a single run: keys do not identify the query or
/// views, so a Phase1Memo is created per run and discarded with it.
class Phase1Memo {
 public:
  explicit Phase1Memo(size_t capacity = 1 << 16, int num_shards = 16);

  Phase1Memo(const Phase1Memo&) = delete;
  Phase1Memo& operator=(const Phase1Memo&) = delete;

  /// Copies the entry for (`fp`, `key`) into `*out`; false on miss.
  bool Get(const Phase1Fingerprint& fp, const std::string& key,
           Phase1Entry* out);

  /// Inserts `entry` (whose key must fingerprint to `fp`) unless an equal
  /// entry exists or the shard is full.
  void Put(const Phase1Fingerprint& fp, Phase1Entry entry);

  /// Counters summed over all shards (evictions counts dropped inserts).
  MemoCacheStats Stats() const;

  size_t size() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, Phase1Entry>>>
        buckets;  // fp.lo -> [(fp.hi, entry)]
    size_t entries = 0;
    MemoCacheStats stats;
  };

  Shard& ShardFor(const Phase1Fingerprint& fp);

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// A canonical key for a query: atoms and comparisons rendered with every
/// variable renamed to its first-occurrence index (`?0`, `?1`, ...), so
/// alpha-equivalent queries — equal up to a consistent renaming of
/// variables — produce equal keys.  Head predicate names are dropped
/// (containment ignores them); body predicate names are kept.
std::string NormalizedQueryKey(const ConjunctiveQuery& q);

/// The memo key for the containment check `q1 ⊑ q2`: the two normalized
/// keys joined with a direction marker.  The two queries are closed
/// formulas, so they are normalized independently.
std::string ContainmentMemoKey(const ConjunctiveQuery& q1,
                               const ConjunctiveQuery& q2);

namespace internal {

/// Test-only fingerprint narrowing: with `bits` in [1, 64], every
/// Phase-1 fingerprint keeps only the low `bits` bits of each 64-bit
/// half, so distinct keys collide constantly; 0 (the default) restores
/// the full 128 bits.  Natural 128-bit collisions are unobservable in a
/// test's lifetime — this hook is how the verify-on-hit path gets real
/// coverage.  Relaxed atomic: flip only between runs.
void SetPhase1FingerprintBitsForTest(int bits);
int Phase1FingerprintBitsForTest();

/// Test-only fault injection: while disabled, Phase1Memo::Get trusts the
/// fingerprint alone and skips the full-key compare — exactly the wrong-
/// reuse bug verify-on-hit exists to prevent.  Combined with fingerprint
/// narrowing (cqacfuzz --inject-fault memo), the differential harness
/// must detect the resulting disagreement and shrink it; that detection
/// is the acceptance test for the whole fuzzing subsystem.
void SetPhase1MemoVerifyOnHitForTest(bool enabled);
bool Phase1MemoVerifyOnHitForTest();

}  // namespace internal

}  // namespace cqac

#endif  // CQAC_RUNTIME_MEMO_CACHE_H_
