// Tests of the rewriting driver: a jobs=1 run (inline on the caller's
// thread) and pooled runs must be byte-identical for every thread count
// and task interleaving, and the first failing canonical database must
// cancel outstanding work (the paper's "some D_i has no MCR => no
// rewriting exists" short-circuit).

#include "runtime/parallel_rewriter.h"

#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "parser/parser.h"
#include "rewriting/equiv_rewriter.h"
#include "rewriting/explain.h"
#include "runtime/memo_cache.h"
#include "runtime/thread_pool.h"
#include "workload/generator.h"

namespace cqac {
namespace {

void ExpectStatsEqual(const RewriteStats& a, const RewriteStats& b) {
  EXPECT_EQ(a.canonical_databases, b.canonical_databases);
  EXPECT_EQ(a.kept_canonical_databases, b.kept_canonical_databases);
  EXPECT_EQ(a.v0_variants, b.v0_variants);
  EXPECT_EQ(a.mcds_formed, b.mcds_formed);
  EXPECT_EQ(a.mcds_kept_total, b.mcds_kept_total);
  EXPECT_EQ(a.view_tuples_total, b.view_tuples_total);
  EXPECT_EQ(a.phase2_checks, b.phase2_checks);
  EXPECT_EQ(a.phase2_orders, b.phase2_orders);
}

void ExpectResultsEqual(const RewriteResult& serial,
                        const RewriteResult& parallel,
                        const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(serial.outcome, parallel.outcome);
  EXPECT_EQ(serial.failure_reason, parallel.failure_reason);
  EXPECT_EQ(serial.verified, parallel.verified);
  EXPECT_EQ(serial.rewriting.ToString(), parallel.rewriting.ToString());
  ExpectStatsEqual(serial.stats, parallel.stats);
}

TEST(ParallelRewriterTest, MergeIsElementwiseSum) {
  RewriteStats a;
  a.canonical_databases = 3;
  a.phase2_orders = 7;
  RewriteStats b;
  b.canonical_databases = 2;
  b.kept_canonical_databases = 1;
  a.Merge(b);
  EXPECT_EQ(a.canonical_databases, 5);
  EXPECT_EQ(a.kept_canonical_databases, 1);
  EXPECT_EQ(a.phase2_orders, 7);
}

/// The ~50 generated instances the determinism sweeps run over.  Half
/// get only distractor views (unrelated to the query), so the sweeps
/// exercise the no-rewriting early-exit path too.
WorkloadInstance SweepInstance(uint64_t seed) {
  WorkloadConfig config;
  config.num_variables = 3;
  config.num_constants = 1;
  config.num_subgoals = 2;
  config.num_views = 3;
  config.view_subgoals = 2;
  config.distractor_fraction = seed % 2 == 0 ? 0.25 : 1.0;
  config.seed = seed;
  WorkloadGenerator generator(config);
  return generator.Generate();
}

// jobs=1 and 2/4/8-thread runs over ~50 generated instances produce
// identical RewriteResults.
TEST(ParallelRewriterTest, DeterministicAcrossThreadCountsOnWorkloads) {
  int found = 0;
  int failed = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const WorkloadInstance instance = SweepInstance(seed);

    RewriteOptions options;
    options.jobs = 1;
    const RewriteResult serial =
        EquivalentRewriter(instance.query, instance.views, options).Run();
    if (serial.outcome == RewriteOutcome::kRewritingFound) {
      ++found;
    } else {
      ++failed;
    }

    for (int jobs : {2, 4, 8}) {
      const RewriteResult parallel =
          ParallelRewrite(instance.query, instance.views, options);
      static_cast<void>(jobs);
      RewriteOptions parallel_options = options;
      parallel_options.jobs = jobs;
      const RewriteResult via_rewriter =
          EquivalentRewriter(instance.query, instance.views, parallel_options)
              .Run();
      ExpectResultsEqual(serial, parallel,
                         "seed=" + std::to_string(seed) + " direct");
      ExpectResultsEqual(
          serial, via_rewriter,
          "seed=" + std::to_string(seed) + " jobs=" + std::to_string(jobs));
    }
  }
  // The workload must exercise both outcomes, or the test proves little.
  EXPECT_GT(found, 0);
  EXPECT_GT(failed, 0);
}

// A cqacd worker calls the driver with jobs=1 and the pool it runs on.
// From inside the only worker of a one-thread pool that call must run
// inline (queueing a task behind itself would deadlock) and match a
// pool-less run exactly: answer, trace and counters.
TEST(ParallelRewriterTest, InlineRunInsideTheOnlyPoolWorker) {
  ThreadPool pool(1);
  int runs = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const WorkloadInstance instance = SweepInstance(seed);
    if (RewriteUnsatisfiableQuery(instance.query, instance.views, {})) {
      continue;  // The driver's callers take this shortcut first.
    }
    for (const bool explain : {false, true}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   (explain ? " explain" : ""));
      RewriteOptions options;
      options.jobs = 1;
      options.explain = explain;
      // One work per run: a shared work would share its grid cache and
      // shift the tier-1 hit/miss split between the two runs.
      const RewriteWork alone_work =
          PrepareRewriteWork(instance.query, instance.views, options);
      const RewriteWork nested_work =
          PrepareRewriteWork(instance.query, instance.views, options);

      ParallelRewriteReport alone_report;
      const RewriteResult alone = ParallelRewritePrepared(
          alone_work, options, /*memo=*/nullptr, /*pool=*/nullptr,
          &alone_report);

      RewriteResult nested;
      ParallelRewriteReport nested_report;
      std::promise<void> finished;
      pool.Submit([&] {
        nested = ParallelRewritePrepared(nested_work, options,
                                         /*memo=*/nullptr, &pool,
                                         &nested_report);
        finished.set_value();
      });
      ASSERT_EQ(finished.get_future().wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << "jobs=1 inside the pool's only worker deadlocked";

      ExpectResultsEqual(alone, nested, "nested");
      EXPECT_EQ(alone.tier, nested.tier);
      EXPECT_EQ(alone.tier_reason, nested.tier_reason);
      EXPECT_EQ(alone.stats.phase1_memo_hits, nested.stats.phase1_memo_hits);
      EXPECT_EQ(alone.stats.phase1_memo_misses,
                nested.stats.phase1_memo_misses);
      EXPECT_EQ(alone.stats.tier1_grid_hits, nested.stats.tier1_grid_hits);
      EXPECT_EQ(alone.stats.tier1_grid_misses,
                nested.stats.tier1_grid_misses);
      EXPECT_EQ(TableauToString(alone.trace), TableauToString(nested.trace));
      EXPECT_EQ(alone.trace.databases.size(), nested.trace.databases.size());
      for (const ParallelRewriteReport* report :
           {&alone_report, &nested_report}) {
        EXPECT_EQ(report->jobs, 1);
        EXPECT_EQ(report->tasks_stolen, 0);
      }
      EXPECT_EQ(nested_report.db_tasks_total, alone_report.db_tasks_total);
      EXPECT_EQ(nested_report.db_tasks_cancelled, 0);
      ++runs;
    }
  }
  EXPECT_GT(runs, 0);
}

// The explain trace (the paper's two-column tableau) is part of the
// determinism contract too.
TEST(ParallelRewriterTest, DeterministicExplainTrace) {
  for (uint64_t seed : {3u, 11u, 29u}) {
    WorkloadConfig config;
    config.num_variables = 3;
    config.num_constants = 1;
    config.num_subgoals = 2;
    config.num_views = 2;
    config.seed = seed;
    WorkloadGenerator generator(config);
    const WorkloadInstance instance = generator.Generate();

    RewriteOptions options;
    options.explain = true;
    options.jobs = 1;
    const RewriteResult serial =
        EquivalentRewriter(instance.query, instance.views, options).Run();
    options.jobs = 4;
    const RewriteResult parallel =
        EquivalentRewriter(instance.query, instance.views, options).Run();
    ExpectResultsEqual(serial, parallel, "seed=" + std::to_string(seed));
    EXPECT_EQ(TableauToString(serial.trace), TableauToString(parallel.trace));
  }
}

// Rewriting options that exercise the post-Phase-2 tail (coalescing,
// minimization, verification) must also match.
TEST(ParallelRewriterTest, DeterministicWithOutputOptions) {
  const ConjunctiveQuery query = Parser::MustParseRule(
      "q(A) :- r(A), s(A,A), A <= 8");
  const ViewSet views(Parser::MustParseProgram(
      "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z."));

  RewriteOptions options;
  options.coalesce_output = true;
  options.minimize_output = true;
  options.verify = true;
  options.jobs = 1;
  const RewriteResult serial = EquivalentRewriter(query, views, options).Run();
  options.jobs = 4;
  const RewriteResult parallel =
      EquivalentRewriter(query, views, options).Run();
  ExpectResultsEqual(serial, parallel, "paper example");
  EXPECT_EQ(serial.outcome, RewriteOutcome::kRewritingFound);
  EXPECT_TRUE(serial.verified);
}

// A guaranteed-failing canonical database (views over a predicate foreign
// to the query produce no tuples anywhere) must cancel outstanding tasks,
// observable via the scheduling report — and still reproduce the serial
// answer, which stops at the FIRST failing database.
TEST(ParallelRewriterTest, FailingDatabaseCancelsOutstandingTasks) {
  const ConjunctiveQuery query = Parser::MustParseRule(
      "q(X) :- p0(X,Y), p0(Y,Z), p0(Z,W)");
  const ViewSet views(
      Parser::MustParseProgram("v(A) :- z9(A,B)."));

  RewriteOptions options;
  options.jobs = 1;
  const RewriteResult serial = EquivalentRewriter(query, views, options).Run();
  ASSERT_EQ(serial.outcome, RewriteOutcome::kNoRewriting);
  // The serial loop dies on the very first canonical database.
  EXPECT_EQ(serial.stats.canonical_databases, 1);

  options.jobs = 4;
  ParallelRewriteReport report;
  const RewriteResult parallel = ParallelRewrite(
      query, views, options, /*memo=*/nullptr, /*pool=*/nullptr, &report);
  ExpectResultsEqual(serial, parallel, "cancellation");

  // 4 variables => 75 canonical databases, but the driver streams them
  // through a bounded window and stops enumerating once the first
  // failure merges, so the fan-out may stop short of 75; the first
  // failure cancels (almost) everything fanned out behind it.
  EXPECT_GT(report.db_tasks_total, 0);
  EXPECT_LE(report.db_tasks_total, 75);
  EXPECT_GT(report.db_tasks_cancelled, 0);
  EXPECT_EQ(report.db_tasks_executed + report.db_tasks_cancelled,
            report.db_tasks_total);
  EXPECT_LT(report.db_tasks_executed, report.db_tasks_total);
}

// The serial abort semantics (budget counts the abort-triggering
// database) must hold in parallel as well.
TEST(ParallelRewriterTest, AbortBudgetParity) {
  WorkloadConfig config;
  config.num_variables = 4;
  config.num_constants = 1;
  config.seed = 5;
  WorkloadGenerator generator(config);
  const WorkloadInstance instance = generator.Generate();

  RewriteOptions options;
  options.max_canonical_databases = 10;
  options.jobs = 1;
  const RewriteResult serial =
      EquivalentRewriter(instance.query, instance.views, options).Run();
  options.jobs = 4;
  const RewriteResult parallel =
      EquivalentRewriter(instance.query, instance.views, options).Run();
  ExpectResultsEqual(serial, parallel, "abort");
  if (serial.outcome == RewriteOutcome::kAborted) {
    EXPECT_EQ(serial.stats.canonical_databases, 11);
  }
}

// A shared memo cache never changes answers, and a second identical run
// is served from it.  Only full Phase-2 checks touch the memo, so the
// input is one whose check the order-pinned test cannot settle: the
// view's existential B leaves no pinned atom covering the head.
TEST(ParallelRewriterTest, SharedMemoCacheIsTransparent) {
  const ConjunctiveQuery query = Parser::MustParseRule("q(A) :- r(A,B)");
  const ViewSet views(Parser::MustParseProgram("v(A) :- r(A,B)."));

  RewriteOptions options;
  options.jobs = 2;
  MemoCache memo;
  ThreadPool pool(2);

  ParallelRewriteReport first_report;
  const RewriteResult first =
      ParallelRewrite(query, views, options, &memo, &pool, &first_report);
  ParallelRewriteReport second_report;
  const RewriteResult second =
      ParallelRewrite(query, views, options, &memo, &pool, &second_report);

  EXPECT_EQ(first.outcome, RewriteOutcome::kRewritingFound);
  EXPECT_EQ(first.rewriting.ToString(), second.rewriting.ToString());
  EXPECT_EQ(second.outcome, first.outcome);
  EXPECT_EQ(first_report.cache_hits, 0);
  EXPECT_GT(first_report.cache_misses, 0);
  EXPECT_GT(second_report.cache_hits, 0);
  EXPECT_EQ(second_report.cache_misses, 0);
  // A memo hit enumerates no orders, and this input's check runs no
  // order-pinned test; everything else about the result is unchanged.
  EXPECT_EQ(second.stats.phase2_checks, first.stats.phase2_checks);
  EXPECT_EQ(second.stats.phase2_orders, 0);
}

// jobs=0 resolves to hardware concurrency and still matches serial.
TEST(ParallelRewriterTest, HardwareConcurrencyDefault) {
  const ConjunctiveQuery query = Parser::MustParseRule(
      "q(A) :- r(A), s(A,A), A <= 8");
  const ViewSet views(Parser::MustParseProgram(
      "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z."));

  RewriteOptions options;
  options.jobs = 1;
  const RewriteResult serial = EquivalentRewriter(query, views, options).Run();
  options.jobs = 0;
  const RewriteResult parallel =
      EquivalentRewriter(query, views, options).Run();
  ExpectResultsEqual(serial, parallel, "jobs=0");
}

// A token cancelled before Run() aborts both drivers at the first poll
// with the dedicated "cancelled" reason — the mechanism the rewrite
// service's per-request deadlines build on.
TEST(ParallelRewriterTest, PreCancelledTokenAbortsSerialAndParallel) {
  const ConjunctiveQuery query = Parser::MustParseRule(
      "q(A) :- r(A), s(A,A), A <= 8");
  const ViewSet views(Parser::MustParseProgram(
      "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z."));

  CancellationToken token;
  token.Cancel();
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    RewriteOptions options;
    options.jobs = jobs;
    options.cancel = &token;
    const RewriteResult result =
        EquivalentRewriter(query, views, options).Run();
    EXPECT_EQ(result.outcome, RewriteOutcome::kAborted);
    EXPECT_EQ(result.failure_reason, kCancelledReason);
  }
}

// An unset token changes nothing: results stay byte-identical to runs
// with no token at all.
TEST(ParallelRewriterTest, UnsetTokenIsInert) {
  const ConjunctiveQuery query = Parser::MustParseRule(
      "q(A) :- r(A), s(A,A), A <= 8");
  const ViewSet views(Parser::MustParseProgram(
      "v(Y,Z) :- r(X), s(Y,Z), Y <= X, X <= Z."));

  CancellationToken token;
  for (const int jobs : {1, 4}) {
    RewriteOptions plain;
    plain.jobs = jobs;
    RewriteOptions with_token = plain;
    with_token.cancel = &token;
    const RewriteResult a = EquivalentRewriter(query, views, plain).Run();
    const RewriteResult b =
        EquivalentRewriter(query, views, with_token).Run();
    ExpectResultsEqual(a, b, "jobs=" + std::to_string(jobs));
  }
}

}  // namespace
}  // namespace cqac
