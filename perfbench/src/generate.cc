// Pool generation (perfbench --generate <workload>): draws each workload's
// requests once, renders their answers through the cold one-shot path,
// cross-checks found rewritings with the brute-force oracle and writes
// perfbench/data/<workload>.jsonl.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "catalog/view_catalog.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "runtime/batch_driver.h"
#include "runtime/memo_cache.h"
#include "runtime/parallel_rewriter.h"
#include "testing/oracle.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Oracle budget: rewritings with more disjuncts than this, or whose check
// runs longer than kOracleSeconds, are recorded as oracle=unchecked.
constexpr size_t kOracleMaxDisjuncts = 64;
constexpr int kOracleSeconds = 10;

enum class OracleResult { kChecked, kUnchecked, kRefuted };

/// Runs the brute-force oracle in a child process so a check that blows
/// its time budget can be abandoned.
OracleResult RunOracle(const cqac::testing::FuzzCase& c,
                       const cqac::UnionQuery& rewriting) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const cqac::testing::OracleVerdict v =
        cqac::testing::CheckRewritingWithOracle(c, rewriting);
    if (!v.ok) std::fprintf(stderr, "oracle: %s\n", v.failure.c_str());
    std::fflush(nullptr);
    ::_exit(!v.ok ? 1 : v.checked ? 0 : 2);
  }
  if (pid < 0) return OracleResult::kUnchecked;
  const int64_t deadline = NowNs() + int64_t{kOracleSeconds} * 1000000000;
  int status = 0;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (NowNs() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return OracleResult::kUnchecked;
    }
    ::usleep(2000);
  }
  if (!WIFEXITED(status)) return OracleResult::kUnchecked;
  switch (WEXITSTATUS(status)) {
    case 0: return OracleResult::kChecked;
    case 1: return OracleResult::kRefuted;
    default: return OracleResult::kUnchecked;
  }
}

enum Shape { kGeneral, kSemiInterval, kAcyclic };
const char* const kShapeNames[] = {"general", "semi", "acyclic"};

cqac::WorkloadConfig GridConfig(int vars_plus_consts, int views, Shape shape,
                                uint64_t seed) {
  cqac::WorkloadConfig c;
  c.num_constants = shape == kAcyclic ? 0 : 1;
  c.num_variables = vars_plus_consts - c.num_constants;
  // Enough subgoals for every variable to occur (bench/bench_fig4b.cc).
  c.num_subgoals = std::max(3, c.num_variables - 1);
  c.view_subgoals = 2;
  c.num_views = views;
  c.semi_interval_only = shape == kSemiInterval;
  c.acyclic_only = shape == kAcyclic;
  c.seed = seed;
  return c;
}

std::string ViewLines(const cqac::ViewSet& views) {
  std::string s;
  for (const cqac::ConjunctiveQuery& v : views.views()) {
    s += "view " + v.ToString() + "\n";
  }
  return s;
}

std::string JobText(const cqac::ConjunctiveQuery& q, const cqac::ViewSet& v) {
  return ViewLines(v) + "query " + q.ToString() + "\n";
}

cqac::ConjunctiveQuery Rename(const cqac::ConjunctiveQuery& q,
                              const std::function<std::string(size_t,
                                                              const std::string&)>& name) {
  cqac::Substitution s;
  const std::vector<std::string> vars = q.AllVariables();
  for (size_t i = 0; i < vars.size(); ++i) {
    s.Bind(vars[i], cqac::Term::Variable(name(i, vars[i])));
  }
  return q.ApplySubstitution(s);
}

struct Answer {
  Expected expected;
  double cost_ms = 0;
  bool ok = true;  // false: the oracle refuted the answer
};

/// Renders `job` (views from `catalog` when given) through the one-shot
/// path, times it, and oracle-checks a found rewriting.
Answer Solve(const std::string& job_text, const cqac::ViewSet* catalog) {
  Answer a;
  cqac::BatchJob job = cqac::ParseJobBlock(job_text);
  if (!job.error.empty()) {
    std::fprintf(stderr, "generate: job does not parse: %s\n%s",
                 job.error.c_str(), job_text.c_str());
    a.ok = false;
    return a;
  }
  if (catalog != nullptr) job.views = *catalog;
  cqac::RewriteOptions options;
  options.jobs = 1;
  std::vector<double> ms;
  cqac::RewriteResult result;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = NowNs();
    result = cqac::EquivalentRewriter(*job.query, job.views, options).Run();
    const std::string rendered = cqac::RenderJobResult(0, job, result, false);
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    a.expected.text = rendered;
    if (ms.back() > 300) break;
  }
  a.cost_ms = Median(ms);
  a.expected = MakeExpected(a.expected.text, "n/a");
  if (a.expected.outcome != "found") return a;
  if (static_cast<size_t>(result.rewriting.size()) > kOracleMaxDisjuncts) {
    a.expected.oracle = "unchecked";
    return a;
  }
  const OracleResult v =
      RunOracle(cqac::testing::FuzzCase{*job.query, job.views},
                result.rewriting);
  if (v == OracleResult::kRefuted) {
    std::fprintf(stderr, "generate: oracle refutes the answer to\n%s",
                 job_text.c_str());
    a.ok = false;
  }
  a.expected.oracle = v == OracleResult::kChecked ? "checked" : "unchecked";
  return a;
}

/// Adds four spellings of one request: the draw itself and three whose
/// variables all carry the same prefix, so the variables keep their
/// relative order and every spelling does the same work.  With
/// `check_parallel`, the parallel driver must render the same bytes.
bool AddVariants(Pool* pool, const std::string& id_prefix, int base,
                 const std::string& group, const cqac::ConjunctiveQuery& query,
                 const cqac::ViewSet& views, bool check_parallel) {
  for (int k = 0; k < 4; ++k) {
    const std::string prefix =
        k == 0 ? "" : std::string("W") + static_cast<char>('a' + k);
    const auto name = [&](size_t, const std::string& v) { return prefix + v; };
    cqac::ViewSet renamed_views;
    for (const cqac::ConjunctiveQuery& v : views.views()) {
      renamed_views.Add(Rename(v, name));
    }
    PoolEntry e;
    e.id = id_prefix + std::to_string(base) + "v" + std::to_string(k);
    e.group = group;
    e.base = base;
    e.variant = k;
    e.job = JobText(Rename(query, name), renamed_views);
    const Answer a = Solve(e.job, nullptr);
    if (!a.ok) return false;
    if (check_parallel) {
      const cqac::BatchJob job = cqac::ParseJobBlock(e.job);
      cqac::RewriteOptions options;
      options.jobs = 4;
      const std::string parallel = cqac::RenderJobResult(
          0, job, cqac::ParallelRewrite(*job.query, job.views, options),
          false);
      if (parallel != a.expected.text) {
        std::fprintf(stderr, "generate: parallel answer differs for %s\n",
                     e.id.c_str());
        return false;
      }
    }
    e.cost_ms = a.cost_ms;
    e.expected["self"] = a.expected;
    std::fprintf(stderr, "%s %-22s %9.2f ms %s %s\n", e.id.c_str(),
                 group.c_str(), e.cost_ms, a.expected.outcome.c_str(),
                 a.expected.oracle.c_str());
    pool->entries.push_back(std::move(e));
  }
  return true;
}

bool GenerateFig4(Pool* pool) {
  // One draw per cell of a bounded Fig. 4 grid: views 2, 5 and 8 x
  // variables + constants 4-6 x three shapes.  Every third view count keeps
  // a pass near 10 s, so a run times each request three times.
  int cell = 0;
  for (int vc = 4; vc <= 6; ++vc) {
    for (int views = 2; views <= 8; views += 3) {
      for (int shape = kGeneral; shape <= kAcyclic; ++shape, ++cell) {
        // The seed a full views 2-8 grid gives this cell.
        const uint64_t grid_index = ((vc - 4) * 7 + (views - 2)) * 3 + shape;
        const cqac::WorkloadConfig config =
            GridConfig(vc, views, static_cast<Shape>(shape),
                       0xf1640000ULL + 2 * grid_index);
        const cqac::WorkloadInstance inst =
            cqac::WorkloadGenerator(config).Generate();
        const std::string group = "vc=" + std::to_string(vc) + " views=" +
                                  std::to_string(views) + " " +
                                  kShapeNames[shape];
        if (!AddVariants(pool, "f", cell, group, inst.query, inst.views,
                         /*check_parallel=*/false)) {
          return false;
        }
      }
    }
  }
  return true;
}

bool GenerateChain(Pool* pool) {
  using cqac::Parser;
  // bench/bench_tiers.cc's comparison-free acyclic chain (tier 2) and dense
  // semi-interval query (tier 1).
  cqac::ViewSet acyclic_views;
  acyclic_views.Add(Parser::MustParseRule("w0(A,B,C) :- e0(A,B), e1(B,C)"));
  acyclic_views.Add(Parser::MustParseRule("w1(C,D,E) :- e2(C,D), e3(D,E)"));
  acyclic_views.Add(Parser::MustParseRule("w2(E,F) :- e4(E,F)"));
  if (!AddVariants(pool, "c", 0, "acyclic-chain",
                   Parser::MustParseRule("q(X0,X5) :- e0(X0,X1), e1(X1,X2), "
                                         "e2(X2,X3), e3(X3,X4), e4(X4,X5)"),
                   acyclic_views, /*check_parallel=*/true)) {
    return false;
  }
  cqac::ViewSet semi_views;
  semi_views.Add(Parser::MustParseRule("v0(A,B,C) :- r(A,B), r(B,C), A < 10"));
  semi_views.Add(Parser::MustParseRule("v1(A,B) :- r(A,B)"));
  if (!AddVariants(
          pool, "c", 1, "semi-interval",
          Parser::MustParseRule(
              "q(X0) :- r(X0,X1), r(X1,X2), r(X2,X3), r(X3,X4), r(X0,X2), "
              "r(X1,X3), r(X2,X4), r(X0,X3), r(X1,X4), r(X0,X4), X0 < 10, "
              "X1 < 10, X2 >= 10, X3 >= 10, X4 >= 10"),
          semi_views, /*check_parallel=*/true)) {
    return false;
  }
  // Two general draws with 6 terms (5 variables + 1 constant, all 4683
  // orders) that have rewritings, the first two such draws in seed order
  // whose one-shot cost is between 0.3 and 1.5 s.
  int found = 0;
  for (uint64_t seed = 0xc4a10000ULL; found < 2 && seed < 0xc4a10400ULL;
       ++seed) {
    const int views = 3 + static_cast<int>(seed % 4);
    const cqac::WorkloadInstance inst =
        cqac::WorkloadGenerator(GridConfig(6, views, kGeneral, seed)).Generate();
    cqac::RewriteOptions options;
    options.jobs = 1;
    const int64_t t0 = NowNs();
    const cqac::RewriteResult r =
        cqac::EquivalentRewriter(inst.query, inst.views, options).Run();
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    if (r.outcome != cqac::RewriteOutcome::kRewritingFound ||
        r.stats.canonical_databases != 4683 || ms < 300 || ms > 1500) {
      continue;
    }
    if (!AddVariants(pool, "c", 2 + found,
                     "general-6term-" + Hex64(seed).substr(8), inst.query,
                     inst.views, /*check_parallel=*/true)) {
      return false;
    }
    ++found;
  }
  return found == 2;
}

/// A catalog serves an alpha-renamed repeat of a found query by renaming
/// the rewriting it stored for whichever variant it saw first.  That is
/// the same query as the variant's own answer, but not always the same
/// text (disjunct order and spelling follow the first variant), so every
/// such replay is recorded as an accepted alternative rendering.  Also
/// checks that a catalog miss renders exactly the cold one-shot answer.
bool AddCacheReplays(PoolEntry* variants, const std::string& tag,
                     const cqac::ViewSet& views) {
  if (variants[0].expected.at(tag).outcome != "found") return true;
  cqac::RewriteOptions options;
  options.jobs = 1;
  for (int first = 0; first < 4; ++first) {
    cqac::ViewCatalog catalog(views);
    for (int k = 0; k < 4; ++k) {
      const int v = (first + k) % 4;
      const cqac::BatchJob job = cqac::ParseJobBlock(variants[v].job);
      const cqac::RewriteResult r = catalog.Rewrite(*job.query, options);
      const std::string text = cqac::RenderJobResult(0, job, r, false);
      Expected& want = variants[v].expected.at(tag);
      if (Same(want, text)) continue;
      if (!r.from_semantic_cache) {
        std::fprintf(stderr, "generate: catalog miss differs from cold for %s\n",
                     variants[v].id.c_str());
        return false;
      }
      if (static_cast<size_t>(r.rewriting.size()) <= kOracleMaxDisjuncts &&
          RunOracle(cqac::testing::FuzzCase{*job.query, views}, r.rewriting) ==
              OracleResult::kRefuted) {
        std::fprintf(stderr, "generate: oracle refutes a replay for %s\n",
                     variants[v].id.c_str());
        return false;
      }
      want.alternatives.emplace(Fnv64(text), text.size());
    }
  }
  return true;
}

bool GenerateServed(Pool* pool) {
  const auto catalog = [](uint64_t seed, int views) {
    cqac::WorkloadConfig c = GridConfig(5, views, kGeneral, seed);
    return cqac::WorkloadGenerator(c).Generate().views;
  };
  // Each catalog is a draw's views plus two base relations exported
  // whole, as a mediator exports its sources: queries over those two
  // relations rewrite, the rest are mostly refuted early in Phase 1.
  cqac::ViewSet a = catalog(0x5e2aULL, 6);
  a.Add(cqac::Parser::MustParseRule("va0(X,Y) :- p0(X,Y)"));
  a.Add(cqac::Parser::MustParseRule("va1(X,Y) :- p1(X,Y)"));
  cqac::ViewSet b = catalog(0x5e2bULL, 5);
  b.Add(cqac::Parser::MustParseRule("vb1(X,Y) :- p1(X,Y)"));
  b.Add(cqac::Parser::MustParseRule("vb2(X,Y) :- p2(X,Y)"));
  pool->catalogs["A"] = ViewLines(a);
  pool->catalogs["B"] = ViewLines(b);

  // 288 base queries, several times the catalog's 64-plan LRU: draws with
  // 3 or 4 variables + constants, every shape, skipping any draw that is
  // alpha-equivalent to an earlier one (the semantic cache would treat the
  // two as one query).  A fixed shuffle then sets their Zipf rank.
  std::vector<cqac::ConjunctiveQuery> bases;
  std::set<std::string> keys;
  for (uint64_t idx = 0; bases.size() < 288; ++idx) {
    const int vc = 3 + static_cast<int>(idx % 2);
    const Shape shape = static_cast<Shape>((idx / 2) % 3);
    cqac::ConjunctiveQuery q =
        cqac::WorkloadGenerator(GridConfig(vc, 3, shape, 0x5e000000ULL + idx))
            .Generate()
            .query;
    if (keys.insert(cqac::NormalizedQueryKey(q)).second) {
      bases.push_back(std::move(q));
    }
  }
  SplitMix rng(0x5eedULL);
  Shuffle(&bases, &rng);

  const std::string letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  for (size_t rank = 0; rank < bases.size(); ++rank) {
    // Variant 0 is the draw; variants 1-3 rename its variables to
    // seed-permuted letters, so repeats are alpha-renamed.
    for (int k = 0; k < 4; ++k) {
      std::string perm = letters;
      SplitMix prng(rank * 16 + static_cast<uint64_t>(k));
      for (size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[prng.Below(i)]);
      }
      const auto name = [&](size_t i, const std::string& v) {
        return k == 0 ? v : std::string(1, perm[i]);
      };
      PoolEntry e;
      e.id = "s" + std::to_string(rank) + "v" + std::to_string(k);
      e.group = "rank" + std::to_string(rank);
      e.base = static_cast<int>(rank);
      e.variant = k;
      e.job = "query " + Rename(bases[rank], name).ToString() + "\n";
      const Answer on_a = Solve(e.job, &a);
      const Answer on_b = Solve(e.job, &b);
      if (!on_a.ok || !on_b.ok) return false;
      e.cost_ms = on_a.cost_ms;
      e.expected["A"] = on_a.expected;
      e.expected["B"] = on_b.expected;
      std::fprintf(stderr, "%s %8.2f ms A:%s/%s B:%s/%s\n", e.id.c_str(),
                   e.cost_ms, on_a.expected.outcome.c_str(),
                   on_a.expected.oracle.c_str(),
                   on_b.expected.outcome.c_str(),
                   on_b.expected.oracle.c_str());
      pool->entries.push_back(std::move(e));
    }
    PoolEntry* variants = &pool->entries[pool->entries.size() - 4];
    if (!AddCacheReplays(variants, "A", a) ||
        !AddCacheReplays(variants, "B", b)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int GeneratePool(const std::string& workload, const std::string& data_dir,
                 const std::string& generated_at) {
  Pool pool;
  pool.workload = workload;
  pool.generated_at = generated_at;
  bool ok = false;
  if (workload == "fig4-cold") {
    ok = GenerateFig4(&pool);
  } else if (workload == "chain-parallel") {
    ok = GenerateChain(&pool);
  } else if (workload == "served-mixed") {
    ok = GenerateServed(&pool);
  } else {
    std::fprintf(stderr, "generate: unknown workload %s\n", workload.c_str());
    return 2;
  }
  if (!ok) return 1;
  std::string error;
  if (!SavePool(data_dir + "/" + workload + ".jsonl", pool, &error)) {
    std::fprintf(stderr, "generate: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
