// Fixed-size worker pool: the one sanctioned home for raw threads.
//
// Every figure and table in this repository must be bit-reproducible, so
// concurrency is deliberately boring: a fixed set of workers draining one
// FIFO queue, no work stealing, no detached threads. Callers make each
// task fully self-contained (own simulator, own meter, own RNG stream) and
// collect results by index, never by completion order — that is what lets
// harness::ParallelSweep promise thread-count-independent output. The
// tgi-lint `raw-thread` rule bans std::thread / std::jthread / std::async
// everywhere else so TSan coverage of the tree stays meaningful.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace tgi::util {

/// A fixed set of worker threads draining a FIFO task queue.
///
/// Semantics:
///  - submit() enqueues a task; tasks start in submission order (FIFO) but
///    may complete in any order.
///  - wait() blocks until every submitted task has finished; if any task
///    threw, wait() rethrows the first exception (by submission-completion
///    order of capture) and swallows the rest.
///  - The destructor drains the queue (it waits for completion; it does
///    not cancel), so a pool can be used scoped without an explicit wait.
///  - A pool of size 1 executes tasks in exact submission order on one
///    worker — the serial execution, just off the calling thread.
class ThreadPool {
 public:
  /// Observation hook bracketing every task: called as
  /// hook(worker, task, true) on the worker thread immediately before the
  /// task body runs and hook(worker, task, false) immediately after (the
  /// end call fires even when the task throws). `task` is the submission
  /// sequence number (0-based FIFO order), so under parallel_for it equals
  /// the loop index. The hook runs outside the pool lock and must be
  /// thread-safe; it is observation-only and must not submit work. A
  /// throwing hook is handled like a throwing task: the pool drains and
  /// wait() rethrows the first error (a begin-hook throw skips that task's
  /// body; a task error outranks the same task's end-hook error).
  using TaskHook = std::function<void(std::size_t worker, std::size_t task,
                                      bool begin)>;

  /// Spawns `threads` workers. Precondition: threads >= 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Installs (or clears, with an empty hook) the task hook. Precondition:
  /// no task has been submitted yet — the hook is part of the pool's
  /// configuration, not a mid-flight toggle.
  void set_task_hook(TaskHook hook);

  /// Enqueues one task. Precondition: task is callable (non-null).
  void submit(std::function<void()> task);

  /// Blocks until all submitted tasks completed; rethrows the first
  /// exception captured from a task, if any.
  void wait();

  [[nodiscard]] std::size_t thread_count() const { return thread_count_; }

  /// The process-default worker count: the TGI_THREADS environment
  /// variable when set to a positive integer, otherwise
  /// std::thread::hardware_concurrency() (clamped to >= 1).
  [[nodiscard]] static std::size_t default_thread_count();

 private:
  struct State;  // mutex/cv/queue bundle (defined in thread_pool.cpp)
  std::unique_ptr<State> state_;
  std::size_t thread_count_ = 0;
};

/// Runs fn(0) .. fn(count-1) across the pool and blocks until all are
/// done; rethrows the first task exception. fn must be safe to invoke
/// concurrently for distinct indices.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// Maps index -> job(index) over a temporary pool of `threads` workers
/// (0 = default_thread_count()), collecting results BY INDEX so the output
/// is identical for every thread count. threads <= 1 runs inline on the
/// calling thread. job must be self-contained per index.
template <typename Job>
auto parallel_map(std::size_t count, Job&& job, std::size_t threads = 0)
    -> std::vector<decltype(job(std::size_t{0}))> {
  using Result = decltype(job(std::size_t{0}));
  std::vector<Result> results(count);
  if (threads == 0) threads = ThreadPool::default_thread_count();
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) results[i] = job(i);
    return results;
  }
  ThreadPool pool(threads < count ? threads : count);
  parallel_for(pool, count, [&](std::size_t i) { results[i] = job(i); });
  return results;
}

}  // namespace tgi::util
