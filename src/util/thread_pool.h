// Fixed-size worker pool and the one fan-out primitive built on it.
//
// Parallelism lives at the row level only: callers that own many
// independent units of work (the model row blocks of a pooled validation,
// stream or calibration pass, trainer shards and their per-parameter
// gradient reduction) split them into tasks and run them with
// RunTasksAndWait, or, for StreamingValidator's bounded slot loop, Submit
// directly. Tensor kernels never fan out; they run serially on whichever
// thread calls them. The pool is created once per process
// (GlobalThreadPool) so fan-out does not pay thread start-up cost.

#ifndef DQUAG_UTIL_THREAD_POOL_H_
#define DQUAG_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dquag {

/// A minimal fixed-size worker pool. It has no pool-wide "wait until idle":
/// every caller waits on its own completion latch, so one caller's tasks
/// never hold up another's.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  bool shutting_down_ = false;
};

/// Process-wide pool shared by all row-level fan-out.
ThreadPool& GlobalThreadPool();

/// True when the calling thread is a pool worker executing a task. Fan-out
/// code uses this to degrade to serial execution instead of submitting
/// nested work and waiting on the pool from inside it.
bool InsidePoolWorker();

/// Runs fn(i) for i in [0, count) as `count` tasks on `pool` and waits on a
/// private latch, so completion never depends on other submitters' work.
/// Runs inline when count <= 1, the pool has a single thread, or the caller
/// is itself a pool worker (nested fan-out would wait on the pool from
/// inside it).
void RunTasksAndWait(ThreadPool& pool, int64_t count,
                     const std::function<void(int64_t)>& fn);

}  // namespace dquag

#endif  // DQUAG_UTIL_THREAD_POOL_H_
