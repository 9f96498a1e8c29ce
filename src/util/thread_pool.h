// A fixed-size worker pool for data-parallel work whose results are
// order-independent. Its one user is bench_incarnation's serial vs
// parallel bulk-incarnation ablation.
//
// The distributed-system behaviour itself, staged-file checksums
// included, runs on the deterministic discrete-event kernel (src/sim);
// nothing in the library submits work to a pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace unicore::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 selects hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future observes its completion and
  /// propagates exceptions.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Applies `fn(i)` for i in [0, n) across the pool and waits for all.
  /// Exceptions from any invocation are rethrown (first one wins; after a
  /// failure the remaining indexes are skipped). The calling thread
  /// participates in the work, so this is safe to call from inside a
  /// worker task — even on a fully saturated pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace unicore::util
