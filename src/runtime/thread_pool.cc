#include "runtime/thread_pool.h"

#include <cstdlib>
#include <utility>

namespace cqac {

namespace {

/// Index of the queue owned by the current thread, when it is a pool
/// worker; -1 on external threads.  Thread-local so recursive Submit from
/// inside a task lands on the submitter's own queue.
thread_local int tls_worker_index = -1;
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

int ThreadPool::ResolveJobs(int jobs) {
  if (jobs != 0) return jobs > 0 ? jobs : 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool ThreadPool::ParseJobsFlag(const std::string& text, int* jobs,
                               std::string* error) {
  // Strict: digits only, no sign, no surrounding whitespace (strtol
  // alone would accept " 3", which a flag or `jobs=` value never is).
  bool digits_only = !text.empty();
  for (const char c : text) {
    if (c < '0' || c > '9') {
      digits_only = false;
      break;
    }
  }
  char* end = nullptr;
  const long value =
      digits_only ? std::strtol(text.c_str(), &end, 10) : -1;
  if (!digits_only || end == text.c_str() || *end != '\0' || value < 0) {
    if (error != nullptr) {
      *error = "needs a non-negative integer, got '" + text + "'";
    }
    return false;
  }
  if (value > kMaxJobs) {
    if (error != nullptr) {
      *error = "accepts at most " + std::to_string(kMaxJobs) +
               " worker threads, got '" + text + "'";
    }
    return false;
  }
  *jobs = static_cast<int>(value);
  return true;
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = ResolveJobs(num_threads);
  queues_.reserve(n);
  for (int i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<TaskQueue>());
  }
  threads_.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true);
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(Task task) {
  int target;
  if (tls_worker_pool == this && tls_worker_index >= 0) {
    target = tls_worker_index;
  } else {
    target = static_cast<int>(next_queue_.fetch_add(1) % queues_.size());
  }
  queues_[target]->Push(std::move(task));
  {
    // The increment must be serialized with the workers' predicate
    // evaluation (which runs under mu_): done outside the lock, it can
    // land between a worker's predicate check and its block in
    // cv_.wait, and the notify below is lost — with every worker asleep
    // the task would never run.  Pushing first means a woken worker
    // always finds the task.
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t depth = pending_.fetch_add(1) + 1;
    if (depth > max_depth_.load(std::memory_order_relaxed)) {
      // mu_ serializes Submits, so a plain store cannot lose a larger
      // concurrent value.
      max_depth_.store(depth, std::memory_order_relaxed);
    }
  }
  cv_.notify_one();
}

bool ThreadPool::NextTask(int worker_index, Task* task) {
  if (queues_[worker_index]->TryPop(task)) return true;
  const int n = static_cast<int>(queues_.size());
  for (int i = 1; i < n; ++i) {
    const int victim = (worker_index + i) % n;
    if (queues_[victim]->TrySteal(task)) {
      stolen_.fetch_add(1);
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(int worker_index) {
  tls_worker_index = worker_index;
  tls_worker_pool = this;
  Task task;
  for (;;) {
    if (NextTask(worker_index, &task)) {
      pending_.fetch_sub(1);
      // Count before running: callers learn of completion through the
      // task's own side effects (a latch, a cv), so the increment must
      // happen-before the body for tasks_executed() to read exact once
      // the last task has signalled.
      executed_.fetch_add(1);
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return pending_.load() > 0 || stopping_.load();
    });
    // On shutdown keep draining until every queue is empty: tasks
    // submitted before (or during) destruction all run.
    if (stopping_.load() && pending_.load() == 0) return;
  }
}

}  // namespace cqac
