#include "dmv/par/par.hpp"

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

namespace dmv::par {

namespace {

// Set while this thread executes a pool task. Nested parallel calls
// (e.g. a parallel metric pass inside a parallel binding sweep) run
// serially inline instead of re-entering the single-job pool.
thread_local bool in_pool_task = false;

int env_default_threads() {
  if (const char* env = std::getenv("DMV_NUM_THREADS")) {
    const char* end = env + std::strlen(env);
    int value = 0;
    const auto [last, error] = std::from_chars(env, end, value);
    if (error == std::errc() && last == end && value >= 1 &&
        value <= kMaxThreads) {
      return value;
    }
  }
  return hardware_threads();
}

std::atomic<int>& thread_knob() {
  static std::atomic<int> knob{env_default_threads()};
  return knob;
}

std::atomic<std::uint64_t>& busy_fallback_count() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

// Persistent pool. Workers are spawned lazily on first parallel call and
// park on a condition variable between jobs; one job at a time (the
// analysis passes never nest parallel regions). The calling thread
// participates in draining the task counter, so `threads` total threads
// work on a job with `threads - 1` workers.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  /// Runs every task on the workers and the calling thread, then returns
  /// true; returns false WITHOUT running anything when another thread's
  /// job holds the pool: the single-job pool never queues, so a concurrent
  /// caller degrades to its serial fallback instead of blocking for the
  /// whole foreign job (interactive p99 over throughput).
  bool run(std::size_t count, const std::function<void(std::size_t)>& task) {
    std::unique_lock<std::mutex> run_lock(run_mutex_, std::try_to_lock);
    if (!run_lock.owns_lock()) {
      busy_fallback_count().fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    ensure_workers(num_threads() - 1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      task_ = &task;
      count_ = count;
      next_.store(0, std::memory_order_relaxed);
      completed_.store(0, std::memory_order_relaxed);
      error_ = nullptr;
      ++generation_;
    }
    work_ready_.notify_all();
    drain();
    {
      // Wait for completion AND for every worker to leave drain(): a
      // straggler from this job must not observe the next job's reset
      // counter mid-flight.
      std::unique_lock<std::mutex> lock(mutex_);
      job_done_.wait(lock, [&] {
        return completed_.load(std::memory_order_acquire) == count_ &&
               draining_ == 0;
      });
      task_ = nullptr;
      if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
    }
    return true;
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  void ensure_workers(int target) {
    while (static_cast<int>(workers_.size()) < target) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_ready_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      // The job finished before this worker woke: run() cleared task_
      // under the lock after its last drain, and the next job may already
      // be resetting count_/next_ — joining now would race with it.
      if (task_ == nullptr) continue;
      ++draining_;
      lock.unlock();
      drain();
      lock.lock();
      if (--draining_ == 0) job_done_.notify_all();
    }
  }

  // Pulls task indices until the counter runs dry. Shared by workers and
  // the calling thread.
  void drain() {
    in_pool_task = true;
    for (;;) {
      const std::size_t index =
          next_.fetch_add(1, std::memory_order_relaxed);
      if (index >= count_) {
        in_pool_task = false;
        return;
      }
      try {
        (*task_)(index);
      } catch (...) {
        // Keep the lowest-index failure: the one the serial fallback
        // raises, whatever order the tasks finished in.
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_ || index < error_index_) {
          error_ = std::current_exception();
          error_index_ = index;
        }
      }
      if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == count_) {
        std::lock_guard<std::mutex> lock(mutex_);
        job_done_.notify_all();
      }
    }
  }

  std::mutex run_mutex_;  ///< Serializes whole jobs.
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> completed_{0};
  std::exception_ptr error_;
  std::size_t error_index_ = 0;  ///< Task that threw error_.
  std::uint64_t generation_ = 0;
  int draining_ = 0;  ///< Workers currently inside drain().
  bool stop_ = false;
};

}  // namespace

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int num_threads() { return thread_knob().load(std::memory_order_relaxed); }

void set_num_threads(int threads) {
  thread_knob().store(threads < 1 ? hardware_threads() : threads,
                      std::memory_order_relaxed);
}

ThreadScope::ThreadScope(int threads) : previous_(num_threads()) {
  set_num_threads(threads);
}

ThreadScope::~ThreadScope() { set_num_threads(previous_); }

bool in_parallel_region() { return in_pool_task; }

std::uint64_t busy_fallbacks() {
  return busy_fallback_count().load(std::memory_order_relaxed);
}

namespace detail {

void run_tasks(std::size_t count,
               const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  if (count == 1 || num_threads() <= 1 || in_pool_task) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  if (!Pool::instance().run(count, task)) {
    // Pool busy: serial in-order fallback, bit-identical by contract.
    for (std::size_t i = 0; i < count; ++i) task(i);
  }
}

}  // namespace detail

}  // namespace dmv::par
