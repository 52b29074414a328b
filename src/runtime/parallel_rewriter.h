#ifndef CQAC_RUNTIME_PARALLEL_REWRITER_H_
#define CQAC_RUNTIME_PARALLEL_REWRITER_H_

#include <cstddef>
#include <cstdint>

#include "rewriting/equiv_rewriter.h"

namespace cqac {

class ThreadPool;

/// Scheduling telemetry of one ParallelRewrite call — how the fan-out and
/// the cooperative cancellation behaved.  Unlike RewriteStats (which is
/// byte-identical for every thread count by construction), these
/// counters describe the execution itself and legitimately vary run to
/// run: a canceled task is work the early-abort saved.  A jobs=1 run
/// reports jobs == 1 and tasks_stolen == 0.
struct ParallelRewriteReport {
  int jobs = 0;  // worker threads used

  int64_t db_tasks_total = 0;      // canonical databases fanned out
  int64_t db_tasks_executed = 0;   // ran to completion
  int64_t db_tasks_cancelled = 0;  // skipped by the cancellation token

  int64_t phase2_tasks_total = 0;
  int64_t phase2_tasks_executed = 0;
  int64_t phase2_tasks_cancelled = 0;

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
/// Deterministic by construction: the result — outcome, rewriting,
/// failure reason, trace, and every work counter, stats.phase2_orders
/// included — is byte-identical for every thread count and task
/// interleaving.  No Phase-2 verdict is cached, so every check that runs
/// does the same work on every schedule.  Only the wall times and the
/// Phase-1 memo and T1 grid hit/miss splits vary: which worker takes a
/// shared key's miss races, while their totals do not.  See
/// docs/ALGORITHM.md ("Parallel runtime") for the argument.
///
/// `options.jobs` selects the thread count (0 = hardware concurrency).
/// For jobs > 1, a supplied `pool` is used instead of building one, and
/// the pool may be shared with other concurrent work.  `report`, when
/// non-null, receives scheduling telemetry.  A query with unsatisfiable
/// comparisons takes the RewriteUnsatisfiableQuery shortcut.
RewriteResult ParallelRewrite(const ConjunctiveQuery& query,
                              const ViewSet& views,
                              const RewriteOptions& options,
                              ThreadPool* pool = nullptr,
                              ParallelRewriteReport* report = nullptr);

/// Kept only until a benchmark change drops it: the signature that took a
/// Phase-2 memo, called with nullptr in that position by perfbench.
inline RewriteResult ParallelRewrite(const ConjunctiveQuery& query,
                                     const ViewSet& views,
                                     const RewriteOptions& options,
                                     std::nullptr_t, ThreadPool* pool,
                                     ParallelRewriteReport* report) {
  return ParallelRewrite(query, views, options, pool, report);
}

/// The same driver over a prebuilt work context, used by a ViewCatalog to
/// run many requests over one compiled RewriteWork.  `driver` supplies
/// the scheduling knobs (jobs, cancel, max_canonical_databases,
/// phase1_dedup); phase semantics come from work.options.  `phase1_memo`,
/// when non-null, must belong to `work` and may persist across calls;
/// when null a run-local memo is created per driver.phase1_dedup.  The
/// caller must have taken the RewriteUnsatisfiableQuery shortcut.
RewriteResult ParallelRewritePrepared(const RewriteWork& work,
                                      const RewriteOptions& driver,
                                      ThreadPool* pool = nullptr,
                                      ParallelRewriteReport* report = nullptr,
                                      Phase1Memo* phase1_memo = nullptr);

}  // namespace cqac

#endif  // CQAC_RUNTIME_PARALLEL_REWRITER_H_
