#ifndef CQAC_RUNTIME_THREAD_POOL_H_
#define CQAC_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/task_queue.h"

namespace cqac {

/// A fixed-size thread pool with one work-stealing TaskQueue per worker.
///
/// Submit() distributes tasks round-robin across the per-worker queues
/// (or onto the submitting worker's own queue when called from inside the
/// pool, so recursively spawned work stays local).  An idle worker drains
/// its own queue oldest-first, then scans the other queues in ring order
/// stealing newest-first (see TaskQueue for why the ends are assigned this
/// way), then sleeps on a condition variable until new work arrives.
///
/// The destructor drains every queue — all submitted tasks run — and then
/// joins the workers, so a pool can be destroyed immediately after its
/// last Submit without losing work.
class ThreadPool {
 public:
  using Task = TaskQueue::Task;

  /// `num_threads` resolves through ResolveJobs: 0 means
  /// std::thread::hardware_concurrency() (at least 1), a negative count 1.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.  Thread-safe; callable from inside pool tasks.
  void Submit(Task task);

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Tasks executed so far (monotonic; approximate while running).
  int64_t tasks_executed() const { return executed_.load(); }

  /// Tasks obtained by stealing from another worker's queue.
  int64_t tasks_stolen() const { return stolen_.load(); }

  /// Highest number of submitted-but-not-started tasks observed at any
  /// Submit (monotonic; approximate while running).
  int64_t max_queue_depth() const { return max_depth_.load(); }

  /// Resolves a user-facing jobs count: 0 -> hardware concurrency (at
  /// least 1), a negative count -> 1, any other count unchanged.
  static int ResolveJobs(int jobs);

  /// Largest worker-thread count any user-facing jobs flag accepts.  A
  /// pool of more threads than this is a configuration mistake, not a
  /// workload: each worker owns a queue and a stack, and every idle
  /// worker scans all queues when stealing.
  static constexpr int kMaxJobs = 4096;

  /// The one parser behind every jobs flag (`cqacsh --jobs`, the shell's
  /// `rewrite jobs=N`, `cqacd --jobs`): a base-10 non-negative integer
  /// with no trailing garbage, at most kMaxJobs (0 = hardware
  /// concurrency).  On failure returns false and, when `error` is
  /// non-null, sets it to a complete "--flag needs ..."-style reason
  /// without the flag name.
  static bool ParseJobsFlag(const std::string& text, int* jobs,
                            std::string* error = nullptr);

 private:
  void WorkerLoop(int worker_index);

  /// Pops from the worker's own queue or steals from a sibling.
  bool NextTask(int worker_index, Task* task);

  std::vector<std::unique_ptr<TaskQueue>> queues_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_;
  // Submitted, not yet started.  Incremented under mu_ (after the push)
  // so the transition is serialized with the workers' wait predicate;
  // may be transiently negative when a worker pops a task before its
  // submitter's increment.
  std::atomic<int64_t> pending_{0};
  std::atomic<bool> stopping_{false};

  std::atomic<uint64_t> next_queue_{0};
  std::atomic<int64_t> executed_{0};
  std::atomic<int64_t> stolen_{0};
  std::atomic<int64_t> max_depth_{0};
};

}  // namespace cqac

#endif  // CQAC_RUNTIME_THREAD_POOL_H_
