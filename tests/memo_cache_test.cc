#include "runtime/memo_cache.h"

#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "parser/parser.h"

namespace cqac {
namespace {

TEST(MemoCacheTest, GetMissThenHit) {
  MemoCache cache(16, 1);
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", true);
  cache.Put("b", false);
  ASSERT_TRUE(cache.Get("a").has_value());
  EXPECT_TRUE(*cache.Get("a"));
  ASSERT_TRUE(cache.Get("b").has_value());
  EXPECT_FALSE(*cache.Get("b"));
  EXPECT_EQ(cache.size(), 2u);

  const MemoCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 4);
  EXPECT_EQ(stats.insertions, 2);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(MemoCacheTest, EvictsLeastRecentlyUsed) {
  // One shard so the capacity and recency order are exact.
  MemoCache cache(2, 1);
  cache.Put("a", true);
  cache.Put("b", true);
  ASSERT_TRUE(cache.Get("a").has_value());  // "a" is now most recent
  cache.Put("c", true);                     // evicts "b"
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Stats().evictions, 1);
}

TEST(MemoCacheTest, PutRefreshesExistingKey) {
  MemoCache cache(2, 1);
  cache.Put("a", true);
  cache.Put("b", true);
  cache.Put("a", false);  // refresh, not insert: no eviction
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Stats().evictions, 0);
  ASSERT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(*cache.Get("a"));
}

TEST(MemoCacheTest, ShardsSplitCapacity) {
  MemoCache cache(64, 16);
  EXPECT_EQ(cache.num_shards(), 16);
  // Insert plenty of keys: residency never exceeds the total budget.
  for (int i = 0; i < 1000; ++i) {
    cache.Put("key" + std::to_string(i), i % 2 == 0);
  }
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GT(cache.Stats().evictions, 0);
}

TEST(MemoCacheTest, ConcurrentAccessIsSafe) {
  MemoCache cache(1024, 16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key = "k" + std::to_string((t * 131 + i) % 200);
        if (auto hit = cache.Get(key); !hit.has_value()) {
          cache.Put(key, true);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const MemoCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, 2000);
  EXPECT_LE(cache.size(), 200u);
}

TEST(NormalizedQueryKeyTest, AlphaEquivalentQueriesShareKeys) {
  const ConjunctiveQuery q1 =
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y), X <= 5");
  const ConjunctiveQuery q2 =
      Parser::MustParseRule("h(A) :- p(A,B), r(B), A <= 5");
  EXPECT_EQ(NormalizedQueryKey(q1), NormalizedQueryKey(q2));
}

TEST(NormalizedQueryKeyTest, DistinguishesStructure) {
  const ConjunctiveQuery q1 =
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y)");
  const ConjunctiveQuery swapped =
      Parser::MustParseRule("q(X) :- p(Y,X), r(Y)");
  const ConjunctiveQuery different_constant =
      Parser::MustParseRule("q(X) :- p(X,Y), r(Y), X <= 5");
  const ConjunctiveQuery collapsed =
      Parser::MustParseRule("q(X) :- p(X,X), r(X)");
  EXPECT_NE(NormalizedQueryKey(q1), NormalizedQueryKey(swapped));
  EXPECT_NE(NormalizedQueryKey(q1), NormalizedQueryKey(different_constant));
  EXPECT_NE(NormalizedQueryKey(q1), NormalizedQueryKey(collapsed));
}

TEST(NormalizedQueryKeyTest, ContainmentKeyIsDirectional) {
  const ConjunctiveQuery q1 = Parser::MustParseRule("q(X) :- p(X,Y)");
  const ConjunctiveQuery q2 = Parser::MustParseRule("q(X) :- p(X,Y), r(Y)");
  EXPECT_NE(ContainmentMemoKey(q1, q2), ContainmentMemoKey(q2, q1));
  EXPECT_EQ(ContainmentMemoKey(q1, q2), ContainmentMemoKey(q1, q2));
}

}  // namespace
}  // namespace cqac
