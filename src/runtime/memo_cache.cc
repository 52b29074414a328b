#include "runtime/memo_cache.h"

#include <atomic>
#include <functional>
#include <utility>

#include "ast/comparison.h"

namespace cqac {

// ---------------------------------------------------------------------------
// MemoCache
// ---------------------------------------------------------------------------

MemoCache::MemoCache(size_t capacity, int num_shards) {
  if (num_shards < 1) num_shards = 1;
  per_shard_capacity_ = capacity / static_cast<size_t>(num_shards);
  if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

MemoCache::Shard& MemoCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>()(key) % shards_.size()];
}

const MemoCache::Shard& MemoCache::ShardFor(const std::string& key) const {
  return *shards_[std::hash<std::string>()(key) % shards_.size()];
}

std::optional<bool> MemoCache::Get(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return std::nullopt;
  }
  ++shard.stats.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void MemoCache::Put(const std::string& key, bool value) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
  shard.lru.emplace_front(key, value);
  shard.index.emplace(key, shard.lru.begin());
  ++shard.stats.insertions;
}

MemoCacheStats MemoCache::Stats() const {
  MemoCacheStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.insertions += shard->stats.insertions;
    total.evictions += shard->stats.evictions;
  }
  return total;
}

size_t MemoCache::size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Phase1Memo
// ---------------------------------------------------------------------------

namespace {

/// splitmix64 finalizer: full-avalanche 64-bit mix.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over `key` with a seed, finalized through Mix64.
uint64_t HashKey(const std::string& key, uint64_t seed) {
  uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace

namespace internal {

namespace {
std::atomic<int> g_fingerprint_bits{0};
std::atomic<bool> g_verify_on_hit{true};
}  // namespace

void SetPhase1FingerprintBitsForTest(int bits) {
  if (bits < 0) bits = 0;
  if (bits > 64) bits = 64;
  g_fingerprint_bits.store(bits, std::memory_order_relaxed);
}

int Phase1FingerprintBitsForTest() {
  return g_fingerprint_bits.load(std::memory_order_relaxed);
}

void SetPhase1MemoVerifyOnHitForTest(bool enabled) {
  g_verify_on_hit.store(enabled, std::memory_order_relaxed);
}

bool Phase1MemoVerifyOnHitForTest() {
  return g_verify_on_hit.load(std::memory_order_relaxed);
}

}  // namespace internal

Phase1Fingerprint FingerprintPhase1Key(const std::string& key) {
  Phase1Fingerprint fp;
  fp.hi = HashKey(key, 0x5851f42d4c957f2dULL);
  fp.lo = HashKey(key, 0x14057b7ef767814fULL);
  const int bits = internal::Phase1FingerprintBitsForTest();
  if (bits > 0 && bits < 64) {
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    fp.hi &= mask;
    fp.lo &= mask;
  }
  return fp;
}

Phase1Memo::Phase1Memo(size_t capacity, int num_shards) {
  if (num_shards < 1) num_shards = 1;
  per_shard_capacity_ = capacity / static_cast<size_t>(num_shards);
  if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Phase1Memo::Shard& Phase1Memo::ShardFor(const Phase1Fingerprint& fp) {
  return *shards_[fp.lo % shards_.size()];
}

bool Phase1Memo::Get(const Phase1Fingerprint& fp, const std::string& key,
                     Phase1Entry* out) {
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.buckets.find(fp.lo);
  if (it != shard.buckets.end()) {
    // The verify-on-hit key compare can only be skipped by the test-only
    // fault-injection hook; cqacfuzz --inject-fault memo proves the
    // harness catches the wrong reuse that skipping it permits.
    const bool verify = internal::Phase1MemoVerifyOnHitForTest();
    for (const auto& [hi, entry] : it->second) {
      // Verify-on-hit: a 128-bit collision of distinct keys must stay a
      // miss, never a wrong answer.
      if (hi == fp.hi && (!verify || entry.key == key)) {
        ++shard.stats.hits;
        *out = entry;
        return true;
      }
    }
  }
  ++shard.stats.misses;
  return false;
}

void Phase1Memo::Put(const Phase1Fingerprint& fp, Phase1Entry entry) {
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& bucket = shard.buckets[fp.lo];
  for (const auto& [hi, existing] : bucket) {
    if (hi == fp.hi && existing.key == entry.key) return;  // First wins.
  }
  if (shard.entries >= per_shard_capacity_) {
    ++shard.stats.evictions;  // Dropped insert; the memo stays bounded.
    return;
  }
  bucket.emplace_back(fp.hi, std::move(entry));
  ++shard.entries;
  ++shard.stats.insertions;
}

MemoCacheStats Phase1Memo::Stats() const {
  MemoCacheStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.insertions += shard->stats.insertions;
    total.evictions += shard->stats.evictions;
  }
  return total;
}

size_t Phase1Memo::size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Key normalization
// ---------------------------------------------------------------------------

namespace {

/// Renames variables to ?0, ?1, ... in first-occurrence order.
class VariableNormalizer {
 public:
  void AppendTerm(const Term& t, std::string* out) {
    if (t.IsConstant()) {
      *out += t.value().ToString();
      return;
    }
    auto [it, inserted] = ids_.emplace(t.name(), ids_.size());
    *out += '?';
    *out += std::to_string(it->second);
  }

 private:
  std::unordered_map<std::string, size_t> ids_;
};

}  // namespace

std::string NormalizedQueryKey(const ConjunctiveQuery& q) {
  VariableNormalizer norm;
  std::string key;
  key.reserve(64);
  // Head: arity and argument pattern only; the predicate name carries no
  // containment semantics.
  key += '(';
  for (const Term& t : q.head().args()) {
    norm.AppendTerm(t, &key);
    key += ',';
  }
  key += ')';
  for (const Atom& a : q.body()) {
    key += a.predicate();
    key += '(';
    for (const Term& t : a.args()) {
      norm.AppendTerm(t, &key);
      key += ',';
    }
    key += ')';
  }
  key += '|';
  for (const Comparison& c : q.comparisons()) {
    norm.AppendTerm(c.lhs(), &key);
    key += CompOpToString(c.op());
    norm.AppendTerm(c.rhs(), &key);
    key += ';';
  }
  return key;
}

std::string ContainmentMemoKey(const ConjunctiveQuery& q1,
                               const ConjunctiveQuery& q2) {
  std::string key = NormalizedQueryKey(q1);
  key += "<=";
  key += NormalizedQueryKey(q2);
  return key;
}

}  // namespace cqac
