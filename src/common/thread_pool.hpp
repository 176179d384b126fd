// Small reusable thread pool for the model layer's embarrassingly parallel
// loops (placement search, batch prediction, T_overlap training). One pool
// owns its workers for its whole lifetime, so per-search thread spawn cost is
// paid once; parallel_for hands out indices through an atomic counter and the
// calling thread participates, so a pool of size 1 degenerates to the plain
// serial loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gpuhms {

class ThreadPool {
 public:
  // num_threads <= 0 selects default_threads(). Size counts the calling
  // thread: a pool of size N spawns N-1 workers.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  // Runs fn(worker, index) for every index in [0, n), distributing indices
  // over the workers plus the calling thread; returns when all n calls
  // finished. `worker` is in [0, size()) and unique per concurrent caller of
  // fn (the calling thread is worker 0) — index per-worker scratch with it.
  // fn must not recursively call parallel_for on the same pool.
  //
  // Exception safety: a throwing fn does NOT terminate the process. The
  // first exception (in completion order) is captured, the job's remaining
  // indices are abandoned via an internal cancellation flag, and the
  // exception is rethrown on the calling thread once every worker has left
  // the job. The pool stays fully usable for subsequent parallel_for calls.
  // Which indices ran before cancellation is unspecified — callers that need
  // partial results must track completion themselves.
  void parallel_for(std::size_t n,
                    const std::function<void(int, std::size_t)>& fn);

  // GPUHMS_THREADS env var when set, else
  // std::thread::hardware_concurrency(). The env value must be a positive
  // integer with no trailing junk; malformed values ("abc", "4x", "-2", "")
  // fall back to the hardware default with a single stderr warning per
  // process.
  static int default_threads();

 private:
  // Claim indices for the current job until it is exhausted or cancelled.
  void drain(int worker, const std::function<void(int, std::size_t)>& fn,
             std::size_t n);

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a new job
  std::condition_variable done_cv_;   // parallel_for waits for completion
  std::vector<std::thread> workers_;
  const std::function<void(int, std::size_t)>* job_ = nullptr;
  std::size_t job_n_ = 0;
  // Bumped by every worker once per index, so it sits alone on its cache
  // line: no other field of the pool, nor any object beside it, shares it.
  alignas(64) std::atomic<std::size_t> next_{0};
  // Set when a task threw: remaining claims of the current job are skipped.
  alignas(64) std::atomic<bool> job_cancelled_{false};
  std::exception_ptr first_error_;  // guarded by mu_
  std::size_t inflight_ = 0;  // indices claimed but not yet finished
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  int size_ = 1;
};

}  // namespace gpuhms
