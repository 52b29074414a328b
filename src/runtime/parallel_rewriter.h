#ifndef CQAC_RUNTIME_PARALLEL_REWRITER_H_
#define CQAC_RUNTIME_PARALLEL_REWRITER_H_

#include <cstdint>

#include "rewriting/equiv_rewriter.h"

namespace cqac {

class MemoCache;
class ThreadPool;

/// Scheduling telemetry of one ParallelRewrite call — how the fan-out and
/// the cooperative cancellation behaved.  Unlike RewriteStats (which,
/// absent a memo cache, is byte-identical for every thread count by
/// construction), these counters describe the execution itself and
/// legitimately vary run to run: a canceled task is work the early-abort
/// saved.  A jobs=1 run reports jobs == 1 and tasks_stolen == 0.
struct ParallelRewriteReport {
  int jobs = 0;  // worker threads used

  int64_t db_tasks_total = 0;      // canonical databases fanned out
  int64_t db_tasks_executed = 0;   // ran to completion
  int64_t db_tasks_cancelled = 0;  // skipped by the cancellation token

  int64_t phase2_tasks_total = 0;
  int64_t phase2_tasks_executed = 0;
  int64_t phase2_tasks_cancelled = 0;

  // Full Phase-2 checks (Phase2Outcome::full_check) served from the memo
  // or computed; checks the order-pinned test settles are neither.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;

  int64_t tasks_stolen = 0;  // pool-level: tasks taken from a sibling queue
};

/// The rewriting driver — the only one: Phase 1's per-canonical-database
/// work units and Phase 2's per-Pre-Rewriting containment checks are
/// fanned out over a work-stealing thread pool, per-task RewriteStats are
/// merged in enumeration order, and a prefix-cancellation token aborts all
/// in-flight work past the first failing database (the paper's "some D_i
/// has no MCR => no rewriting exists" short-circuit).  When
/// ThreadPool::ResolveJobs(options.jobs) == 1 every task runs inline on
/// the caller's thread instead, through the same ordered merge, and any
/// `pool` argument is ignored — so a pool worker may call the driver with
/// jobs=1 and its own pool without deadlocking.
///
/// Deterministic by construction: with `memo == nullptr` the result —
/// outcome, rewriting, failure reason, trace, and stats — is
/// byte-identical for every thread count and task interleaving.  See
/// docs/ALGORITHM.md ("Parallel runtime") for the argument.  With a memo
/// cache the *answer* (outcome, rewriting, failure reason, trace) is
/// still byte-identical — verdicts are pure functions of their keys — but
/// the work counter `stats.phase2_orders` is not: a cached verdict
/// enumerates no orders in the full test, and which checks hit depends
/// on the cache's prior contents and, under a shared cache, on
/// scheduling (two threads can race the same key to a double miss).  The
/// same applies to `report->cache_hits/misses`.
///
/// `options.jobs` selects the thread count (0 = hardware concurrency).
/// For jobs > 1, a supplied `pool` is used instead of building one, and
/// the pool may be shared with other concurrent work.  `memo`, when
/// non-null, memoizes Phase-2 containment verdicts.  `report`, when
/// non-null, receives scheduling telemetry.  A query with unsatisfiable
/// comparisons takes the RewriteUnsatisfiableQuery shortcut.
RewriteResult ParallelRewrite(const ConjunctiveQuery& query,
                              const ViewSet& views,
                              const RewriteOptions& options,
                              MemoCache* memo = nullptr,
                              ThreadPool* pool = nullptr,
                              ParallelRewriteReport* report = nullptr);

/// The same driver over a prebuilt work context, used by a ViewCatalog to
/// run many requests over one compiled RewriteWork.  `driver` supplies
/// the scheduling knobs (jobs, cancel, max_canonical_databases,
/// phase1_dedup); phase semantics come from work.options.  `phase1_memo`,
/// when non-null, must belong to `work` and may persist across calls;
/// when null a run-local memo is created per driver.phase1_dedup.  The
/// caller must have taken the RewriteUnsatisfiableQuery shortcut.
RewriteResult ParallelRewritePrepared(const RewriteWork& work,
                                      const RewriteOptions& driver,
                                      MemoCache* memo = nullptr,
                                      ThreadPool* pool = nullptr,
                                      ParallelRewriteReport* report = nullptr,
                                      Phase1Memo* phase1_memo = nullptr);

}  // namespace cqac

#endif  // CQAC_RUNTIME_PARALLEL_REWRITER_H_
