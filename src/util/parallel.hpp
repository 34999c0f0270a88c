// Deterministic fan-out of independent tasks over a fixed-size worker
// pool — the parallel campaign runner's execution backbone.
//
// The pool is one mutex guarding a batch descriptor plus two condition
// variables (work available / batch drained). It is intentionally *not*
// a general task scheduler: one batch of n index-addressed tasks runs at
// a time, workers claim indices dynamically, and the caller blocks until
// the batch drains. Determinism is the caller's contract — each task must
// touch only its own isolated state (its own simulator, RNG stream,
// metrics registry) and write results into its own pre-allocated slot, so
// the merged output is byte-identical regardless of thread count or
// scheduling order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spider::util {

class WorkerPool {
 public:
  /// Spawns `threads` (>= 1) workers. The pool is fixed-size for its
  /// whole lifetime; the destructor joins them.
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t thread_count() const { return threads_.size(); }

  /// Runs fn(0), ..., fn(n-1) across the pool and blocks until every
  /// index has completed. Indices are claimed dynamically (work-stealing
  /// by index), so long cells do not serialize behind short ones. The
  /// first exception thrown by any task is rethrown here after the batch
  /// drains. Not reentrant: one batch at a time per pool.
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers wait: batch or stop
  std::condition_variable done_cv_;  ///< caller waits: batch drained
  std::vector<std::thread> threads_;
  // Current batch (guarded by mutex_).
  const std::function<void(std::size_t)>* batch_fn_ = nullptr;
  std::size_t batch_n_ = 0;     ///< batch size
  std::size_t next_ = 0;        ///< next unclaimed index
  std::size_t remaining_ = 0;   ///< claimed-but-unfinished + unclaimed
  std::exception_ptr error_;    ///< first task failure of the batch
  bool stop_ = false;
};

/// Convenience entry point for `--jobs`-style call sites: `jobs <= 1` (or
/// a trivial batch) runs the plain serial loop on the calling thread —
/// bit-for-bit the pre-pool behavior with zero threading machinery —
/// while `jobs > 1` drives a temporary WorkerPool of min(jobs, n)
/// threads.
void parallel_for_each(std::size_t jobs, std::size_t n,
                       const std::function<void(std::size_t)>& fn);

}  // namespace spider::util
