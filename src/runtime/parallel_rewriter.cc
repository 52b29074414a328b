#include "runtime/parallel_rewriter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "constraints/orders.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/cancellation.h"
#include "runtime/memo_cache.h"
#include "runtime/thread_pool.h"

namespace cqac {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Countdown latch: the main thread blocks until every fanned-out task
/// has called Done (whether it executed or was cancelled).  The mutex
/// also publishes the tasks' writes to their result slots.
class Latch {
 public:
  explicit Latch(int64_t count) : remaining_(count) {}

  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t remaining_;
};

/// One canonical database's slot in the Phase-1 sliding window.  The
/// slot for enumeration index i is slots[i % window]; `done` is guarded
/// by the window mutex, which also publishes the task's `outcome` write
/// to the merging thread.
struct DbSlot {
  TotalOrder order;
  bool done = false;
  DatabaseOutcome outcome;
};

/// One Pre-Rewriting's slot in the Phase-2 fan-out.
struct Phase2Slot {
  bool executed = false;
  Phase2Outcome outcome;
};

/// After a run, folds the scheduling counters into the global metrics
/// registry.  `RecordRewriteMetrics` handles the RewriteStats; this adds
/// what only the driver knows.
void RecordParallelMetrics(const ParallelRewriteReport& report) {
  if (!obs::MetricsActive()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.counter("parallel.db_tasks_executed").Add(report.db_tasks_executed);
  reg.counter("parallel.db_tasks_cancelled").Add(report.db_tasks_cancelled);
  reg.counter("parallel.phase2_tasks_executed")
      .Add(report.phase2_tasks_executed);
  reg.counter("parallel.phase2_tasks_cancelled")
      .Add(report.phase2_tasks_cancelled);
  reg.counter("threadpool.tasks_stolen").Add(report.tasks_stolen);
  reg.counter("memo_cache.hits").Add(report.cache_hits);
  reg.counter("memo_cache.misses").Add(report.cache_misses);
}

RewriteResult ParallelRewritePreparedImpl(const RewriteWork& work,
                                          const RewriteOptions& options,
                                          MemoCache* memo, ThreadPool* pool,
                                          ParallelRewriteReport* report,
                                          Phase1Memo* external_p1_memo) {
  RewriteResult result;
  const bool explain = work.options.explain;

  // jobs=1 runs every task inline on the caller's thread, even when a pool
  // is passed in: a pool worker calling with its own pool must not block
  // on tasks queued behind itself.  The inline path builds no pool, no
  // std::function tasks and no order slots, and it replays outcomes
  // through the same merge as the fan-out, so both schedules produce the
  // same result by construction.
  const bool run_inline = ThreadPool::ResolveJobs(options.jobs) == 1;
  std::unique_ptr<ThreadPool> owned_pool;
  if (run_inline) {
    pool = nullptr;
  } else if (pool == nullptr) {
    owned_pool =
        std::make_unique<ThreadPool>(ThreadPool::ResolveJobs(options.jobs));
    pool = owned_pool.get();
  }
  report->jobs = run_inline ? 1 : pool->num_threads();
  const int64_t stolen_before = run_inline ? 0 : pool->tasks_stolen();

  result.stats.v0_variants = static_cast<int64_t>(work.v0_variants.size());
  result.stats.mcds_formed = static_cast<int64_t>(work.mcds.size());
  result.tier = static_cast<int>(work.tier.tier);
  result.tier_reason = work.tier.reason;

  // One Phase-1 memo per run unless the caller passed a catalog-scoped
  // one, shared by every worker (sharded; first writer wins).  Which
  // worker takes the miss for a given structural key races, so the
  // per-database hit/miss *split* can differ between schedules — but
  // every replayed conclusion is verified against the full key, so
  // outcomes, Pre-Rewritings, and the hit+miss total are byte-identical
  // to the inline run.
  std::optional<Phase1Memo> phase1_memo;
  if (external_p1_memo == nullptr && options.phase1_dedup && !explain) {
    phase1_memo.emplace();
  }
  Phase1Memo* const p1_memo =
      external_p1_memo != nullptr
          ? external_p1_memo
          : (phase1_memo ? &*phase1_memo : nullptr);

  // --- Phase 1: one task per canonical database, streamed ---
  //
  // The number of total orders is factorial in |variables| + |constants|,
  // so orders are streamed with O(1) memory.  Materializing the whole
  // worklist before submitting could OOM before any task runs when no
  // database budget is set, so the fan-out keeps only a bounded window of
  // orders in flight: the main thread enumerates lazily, submits index i
  // into ring slot i % window, and merges completed slots in enumeration
  // order to free them for reuse.  The inline path merges each outcome as
  // soon as it is computed.  Either way the run aborts upon *enumerating*
  // database max+1, after fully processing the first max.
  const int64_t window =
      run_inline
          ? 0
          : std::max<int64_t>(static_cast<int64_t>(pool->num_threads()) * 8,
                              64);
  std::vector<DbSlot> db_slots(static_cast<size_t>(window));
  std::mutex win_mu;
  std::condition_variable win_cv;
  PrefixCancel db_cancel;
  std::atomic<int64_t> db_executed{0};
  // Steady-clock time of the first observed failure, or 0; lets the
  // drain below report how long cancellation took to quiesce the pool.
  std::atomic<int64_t> first_fail_ns{0};

  std::vector<ConjunctiveQuery> pre_rewritings;
  std::set<std::string> pre_rewriting_keys;
  int64_t submitted = 0;  // tasks run inline or handed to the pool
  int64_t merged = 0;     // outcomes replayed into the result, in order
  bool failed = false;
  bool abort_pending = false;
  const CancellationToken* const cancel = options.cancel;

  // Folds one database's outcome into the result, in enumeration order:
  // stats, trace, dedup, first-failure capture.
  const auto replay = [&](DatabaseOutcome& outcome) {
    ++result.stats.canonical_databases;
    result.stats.Merge(outcome.stats);
    if (explain) result.trace.databases.push_back(std::move(outcome.trace));
    if (outcome.status == DatabaseOutcome::Status::kFailed) {
      failed = true;
      result.failure_reason = std::move(outcome.failure_reason);
    } else if (outcome.status == DatabaseOutcome::Status::kKept &&
               pre_rewriting_keys.insert(outcome.pre_rewriting->ToString())
                   .second) {
      pre_rewritings.push_back(*std::move(outcome.pre_rewriting));
    }
  };

  // Waits for the task at enumeration index `merged` and frees its slot.
  // When `replay_it` is set, first replays the outcome; after a failure
  // the remaining in-flight slots are drained without replaying, exactly
  // as the inline loop never reaches them.
  const auto consume_next = [&](bool replay_it) {
    DbSlot& slot = db_slots[static_cast<size_t>(merged % window)];
    {
      std::unique_lock<std::mutex> lock(win_mu);
      win_cv.wait(lock, [&] { return slot.done; });
      slot.done = false;
    }
    ++merged;
    if (replay_it) replay(slot.outcome);
    slot.outcome = DatabaseOutcome();
  };

  const int64_t enumerate_t0 = NowNs();
  {
    CQAC_TRACE_SPAN("phase1.enumerate");
    int64_t enumerated = 0;
    ForEachTotalOrder(
        work.query.AllVariables(), work.constants,
        [&](const TotalOrder& order) {
          if (cancel != nullptr && cancel->cancelled()) return false;
          ++enumerated;
          if (options.max_canonical_databases >= 0 &&
              enumerated > options.max_canonical_databases) {
            abort_pending = true;
            return false;
          }
          if (run_inline) {
            DatabaseOutcome outcome =
                ProcessCanonicalDatabase(work, order, p1_memo);
            db_executed.fetch_add(1, std::memory_order_relaxed);
            ++submitted;
            ++merged;
            replay(outcome);
            return !failed;
          }
          // Reusing ring slot i % window requires its previous occupant
          // (index i - window) to have been merged first.
          while (submitted - merged >= window) {
            consume_next(/*replay_it=*/true);
            if (failed) return false;
          }
          const int64_t i = submitted;
          db_slots[static_cast<size_t>(i % window)].order = order;
          pool->Submit([&, i] {
            DbSlot& slot = db_slots[static_cast<size_t>(i % window)];
            // First failing D_i cancels everything past it; work at or
            // below the cutoff must still run so the merge reproduces
            // the in-order prefix (see PrefixCancel).
            if (db_cancel.ShouldRun(i) &&
                (cancel == nullptr || !cancel->cancelled())) {
              slot.outcome =
                  ProcessCanonicalDatabase(work, slot.order, p1_memo);
              db_executed.fetch_add(1, std::memory_order_relaxed);
              if (slot.outcome.status == DatabaseOutcome::Status::kFailed) {
                db_cancel.FailAt(i);
                if (obs::MetricsActive()) {
                  int64_t expected = 0;
                  first_fail_ns.compare_exchange_strong(
                      expected, NowNs(), std::memory_order_relaxed);
                }
              }
            }
            // Notify while holding the lock: the merging thread owns
            // win_cv's stack frame and may destroy it the moment it can
            // observe `done`, which the lock delays until the notify has
            // returned.
            std::lock_guard<std::mutex> lock(win_mu);
            slot.done = true;
            win_cv.notify_all();
          });
          ++submitted;
          return true;
        });

    // Replay the tail in order; after a failure only drain, never replay —
    // every submitted task must finish before its captured state dies.
    while (merged < submitted) consume_next(/*replay_it=*/!failed);
  }
  result.stats.enumeration_ns = NowNs() - enumerate_t0;

  report->db_tasks_total = submitted;
  report->db_tasks_executed = db_executed.load();
  report->db_tasks_cancelled = submitted - report->db_tasks_executed;
  if (pool != nullptr) {
    report->tasks_stolen = pool->tasks_stolen() - stolen_before;
    if (obs::MetricsActive()) {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      reg.gauge("threadpool.max_queue_depth").Max(pool->max_queue_depth());
      const int64_t fail_ns = first_fail_ns.load(std::memory_order_relaxed);
      if (fail_ns != 0) {
        reg.histogram("parallel.cancel_drain_ns").Observe(NowNs() - fail_ns);
      }
    }
  }

  // The cancellation re-check must precede every other verdict: a task
  // that observed the token mid-flight skipped its database, so any
  // conclusion drawn from the merged outcomes would be built on partial
  // work.  The token is monotonic, so re-checking here catches a cancel
  // that landed after the last enumeration callback.
  if (cancel != nullptr && cancel->cancelled()) {
    result.outcome = RewriteOutcome::kAborted;
    result.failure_reason = kCancelledReason;
    return result;
  }
  if (failed) {
    result.outcome = RewriteOutcome::kNoRewriting;
    return result;
  }
  if (abort_pending) {
    // The abort-triggering database counts as enumerated.
    ++result.stats.canonical_databases;
    result.outcome = RewriteOutcome::kAborted;
    result.failure_reason = "canonical database budget exceeded";
    return result;
  }
  if (pre_rewritings.empty()) {
    // The query computes its head on no canonical database: impossible
    // for a satisfiable safe query, but guard anyway.
    result.outcome = RewriteOutcome::kNoRewriting;
    result.failure_reason = "query computes its head on no canonical database";
    return result;
  }

  // --- Phase 2: one containment check per Pre-Rewriting ---

  const int64_t num_pres = static_cast<int64_t>(pre_rewritings.size());
  report->phase2_tasks_total = num_pres;
  std::vector<Phase2Slot> p2_slots(static_cast<size_t>(num_pres));
  PrefixCancel p2_cancel;
  std::atomic<int64_t> p2_executed{0};
  std::atomic<int64_t> p2_first_fail_ns{0};
  const auto run_check = [&](int64_t i) {
    if (!p2_cancel.ShouldRun(i) ||
        (cancel != nullptr && cancel->cancelled())) {
      return;
    }
    Phase2Slot& slot = p2_slots[static_cast<size_t>(i)];
    slot.outcome = CheckExpansionContained(work, pre_rewritings[i], memo);
    slot.executed = true;
    p2_executed.fetch_add(1, std::memory_order_relaxed);
    if (!slot.outcome.contained) {
      p2_cancel.FailAt(i);
      if (pool != nullptr && obs::MetricsActive()) {
        int64_t expected = 0;
        p2_first_fail_ns.compare_exchange_strong(expected, NowNs(),
                                                 std::memory_order_relaxed);
      }
    }
  };
  if (run_inline) {
    for (int64_t i = 0; i < num_pres; ++i) {
      run_check(i);
      // A skipped (cancelled) check reads as not contained.
      if (!p2_slots[static_cast<size_t>(i)].outcome.contained) break;
    }
  } else {
    Latch latch(num_pres);
    for (int64_t i = 0; i < num_pres; ++i) {
      pool->Submit([&, i] {
        run_check(i);
        latch.Done();
      });
    }
    latch.Wait();
    if (obs::MetricsActive()) {
      const int64_t fail_ns = p2_first_fail_ns.load(std::memory_order_relaxed);
      if (fail_ns != 0) {
        obs::MetricsRegistry::Global()
            .histogram("parallel.cancel_drain_ns")
            .Observe(NowNs() - fail_ns);
      }
    }
    report->tasks_stolen = pool->tasks_stolen() - stolen_before;
  }
  report->phase2_tasks_executed = p2_executed.load();
  report->phase2_tasks_cancelled = num_pres - report->phase2_tasks_executed;

  // Same ordering argument as after Phase 1: a token observed by any
  // Phase-2 task means some slots hold no verdict.
  if (cancel != nullptr && cancel->cancelled()) {
    result.outcome = RewriteOutcome::kAborted;
    result.failure_reason = kCancelledReason;
    return result;
  }

  std::map<std::string, bool> phase2_verdicts;
  bool phase2_failed = false;
  for (int64_t i = 0; i < num_pres; ++i) {
    const Phase2Slot& slot = p2_slots[static_cast<size_t>(i)];
    ++result.stats.phase2_checks;
    result.stats.phase2_orders += slot.outcome.orders_enumerated;
    result.stats.phase2_ns += slot.outcome.wall_ns;
    if (slot.outcome.cache_hit) {
      ++report->cache_hits;
    } else if (slot.outcome.full_check) {
      ++report->cache_misses;
    }
    if (explain) {
      phase2_verdicts[pre_rewritings[i].ToString()] = slot.outcome.contained;
    }
    if (!slot.outcome.contained) {
      result.outcome = RewriteOutcome::kNoRewriting;
      result.failure_reason = "expansion not contained in the query: " +
                              pre_rewritings[i].ToString();
      phase2_failed = true;
      break;
    }
  }
  if (explain) {
    for (CanonicalDatabaseTrace& db : result.trace.databases) {
      if (db.status != "ok") continue;
      auto it = phase2_verdicts.find(db.pre_rewriting);
      if (it == phase2_verdicts.end()) continue;  // Unchecked after failure.
      db.expansion_contained = it->second;
      if (it->second) {
        result.trace.left_column.push_back(db.order);
      } else {
        db.status = "phase2-failed";
        result.trace.right_column.push_back(db.order);
      }
    }
  }
  if (phase2_failed) return result;

  FinalizeFoundRewriting(work, std::move(pre_rewritings), &result);
  return result;
}

RewriteResult ParallelRewriteImpl(const ConjunctiveQuery& query,
                                  const ViewSet& views,
                                  const RewriteOptions& options,
                                  MemoCache* memo, ThreadPool* pool,
                                  ParallelRewriteReport* report) {
  if (std::optional<RewriteResult> empty =
          RewriteUnsatisfiableQuery(query, views, options)) {
    return *std::move(empty);
  }
  const RewriteWork work = PrepareRewriteWork(query, views, options);
  return ParallelRewritePreparedImpl(work, options, memo, pool, report,
                                     /*external_p1_memo=*/nullptr);
}

}  // namespace

RewriteResult ParallelRewrite(const ConjunctiveQuery& query,
                              const ViewSet& views,
                              const RewriteOptions& options, MemoCache* memo,
                              ThreadPool* pool,
                              ParallelRewriteReport* report) {
  ParallelRewriteReport local_report;
  if (report == nullptr) report = &local_report;
  RewriteResult result =
      ParallelRewriteImpl(query, views, options, memo, pool, report);
  RecordRewriteMetrics(result.stats);
  RecordParallelMetrics(*report);
  return result;
}

RewriteResult ParallelRewritePrepared(const RewriteWork& work,
                                      const RewriteOptions& driver,
                                      MemoCache* memo, ThreadPool* pool,
                                      ParallelRewriteReport* report,
                                      Phase1Memo* phase1_memo) {
  ParallelRewriteReport local_report;
  if (report == nullptr) report = &local_report;
  RewriteResult result = ParallelRewritePreparedImpl(work, driver, memo, pool,
                                                     report, phase1_memo);
  RecordRewriteMetrics(result.stats);
  RecordParallelMetrics(*report);
  return result;
}

}  // namespace cqac
