#pragma once

// Minimal deterministic parallelism layer.
//
// The interactive loop of the paper (drag a slider, re-simulate, redraw)
// needs every derived metric to recompute at interactive rates, and the
// metric passes are embarrassingly parallel over trace events. This
// module provides the one scheduling idiom they all share: split a range
// into contiguous blocks, process blocks on a persistent thread pool, and
// combine per-block results IN BLOCK ORDER.
//
// Determinism contract: the block partition of `parallel_reduce` depends
// only on (n, grain) — never on the thread count — and the join runs
// sequentially in ascending block order on the calling thread. A caller
// whose per-block work is a pure function of its input range therefore
// gets bit-identical results at any thread count, including the serial
// fallback. `parallel_for` gives the weaker (and cheaper) guarantee that
// every index is visited exactly once; use it only when writes are
// disjoint per block. Errors follow the same rule: when several blocks
// or tasks throw, the caller sees the exception of the lowest-index one,
// which is the one the serial fallback raises.
//
// The pool is deliberately work-stealing-free: blocks are handed out from
// a single atomic counter. The analysis passes produce a few dozen
// coarse, similar-sized blocks, where stealing buys nothing.
//
// Nesting: parallel_for/parallel_reduce called from INSIDE a pool task
// run serially inline on that worker — no new tasks are enqueued, so
// outer-level parallelism (e.g. run_streaming simulating one plan chunk
// per task) cannot deadlock the pool or perturb the inner passes' block
// partitions.
//
// Ownership: the pool is a process-global singleton, lazily started and
// joined at exit; callers never manage threads. The free functions are
// safe to call from any thread, but set_num_threads/ThreadScope mutate a
// global knob — tests that change it should not run concurrently.
//
// Thread count: `DMV_NUM_THREADS` (environment) seeds the global knob,
// `set_num_threads` overrides it at runtime, and a value of 1 bypasses
// the pool entirely (serial fallback, no synchronization).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace dmv::par {

/// Number of hardware threads (>= 1; hardware_concurrency with fallback).
int hardware_threads();

/// Largest thread count DMV_NUM_THREADS and `dmv_serve --threads` accept.
inline constexpr int kMaxThreads = 1024;

/// Current global thread-count knob. Defaults to DMV_NUM_THREADS if it
/// is a whole decimal integer in [1, kMaxThreads], otherwise to
/// hardware_threads().
int num_threads();

/// Sets the global thread count. Values < 1 select hardware_threads().
void set_num_threads(int threads);

/// RAII scope guard: sets the thread count, restores the old value on
/// destruction. Handy for the serial-vs-parallel determinism tests.
class ThreadScope {
 public:
  explicit ThreadScope(int threads);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int previous_;
};

/// True while the calling thread is executing a pool task. Parallel
/// constructs called here fall back to serial inline execution, so
/// callers that pay a fixed cost to SET UP parallelism (e.g. the chunked
/// trace planner) can skip it up front.
bool in_parallel_region();

/// Number of parallel jobs that ran serially inline because the pool was
/// busy with another caller's job. The single-job pool never queues: a
/// second concurrent caller (e.g. one serve session while another is
/// simulating) immediately degrades to the serial fallback — which is
/// bit-identical by the determinism contract — instead of blocking for
/// the whole foreign job. Monotonic process-global counter; the serving
/// layer surfaces it in stats as a contention signal.
std::uint64_t busy_fallbacks();

namespace detail {

/// Runs task(0) .. task(count - 1) on the pool (caller participates).
/// Tasks may run in any order and concurrently; the call returns after
/// all of them completed. When tasks throw, the exception of the
/// LOWEST-INDEX failing task is rethrown on the caller — the one the
/// serial in-order fallback raises — so which error surfaces never
/// depends on timing. Serial in-order fallback when the knob is 1 or
/// the pool is busy with another caller's job (see busy_fallbacks).
void run_tasks(std::size_t count, const std::function<void(std::size_t)>& task);

/// Contiguous block partition of [0, n): number of blocks for a grain.
inline std::size_t block_count(std::size_t n, std::size_t grain) {
  if (grain == 0) grain = 1;
  return n == 0 ? 0 : (n - 1) / grain + 1;
}

}  // namespace detail

/// Calls body(begin, end) for each block of the contiguous partition of
/// [0, n) with the given grain, distributing blocks over the pool. The
/// partition depends only on (n, grain). Blocks may execute in any order
/// and concurrently — per-block writes must be disjoint. A throwing
/// block rethrows on the caller as in detail::run_tasks.
template <typename Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t blocks = detail::block_count(n, grain);
  if (blocks == 1 || num_threads() <= 1) {
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t begin = b * grain;
      body(begin, std::min(n, begin + grain));
    }
    return;
  }
  detail::run_tasks(blocks, [&](std::size_t b) {
    const std::size_t begin = b * grain;
    body(begin, std::min(n, begin + grain));
  });
}

/// Runs task(0) .. task(count - 1) on the pool — the heterogeneous-task
/// counterpart of parallel_for (each index is one whole task, not a
/// block of a range). Tasks may run in any order and concurrently, and
/// the call returns after all completed; per-task writes must be
/// disjoint. Serial in-order fallback when the knob is 1, count == 1,
/// the pool is busy, or inside a pool task — callers whose tasks are
/// pure functions of their index get bit-identical results, and the
/// same exception (the lowest-index task's), at any thread count.
template <typename Task>
void parallel_tasks(std::size_t count, Task&& task) {
  if (count == 0) return;
  if (count == 1 || num_threads() <= 1) {
    for (std::size_t t = 0; t < count; ++t) task(t);
    return;
  }
  detail::run_tasks(count, [&](std::size_t t) { task(t); });
}

/// Deterministic map/reduce over the contiguous block partition of
/// [0, n): `block(begin, end) -> T` runs per block (possibly in
/// parallel), then `join(accumulator, block_result)` runs serially in
/// ascending block order starting from `init`. Because the partition and
/// the join order are independent of the thread count, the result is
/// bit-identical to a serial run whenever `block` is pure.
template <typename T, typename BlockFn, typename JoinFn>
T parallel_reduce(std::size_t n, std::size_t grain, T init, BlockFn&& block,
                  JoinFn&& join) {
  if (n == 0) return init;
  if (grain == 0) grain = 1;
  const std::size_t blocks = detail::block_count(n, grain);
  std::vector<T> partial(blocks);
  parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    partial[begin / grain] = block(begin, end);
  });
  T result = std::move(init);
  for (T& p : partial) join(result, std::move(p));
  return result;
}

/// Grain that yields at most `max_blocks` blocks over n items, but never
/// below `min_grain` items per block (so tiny inputs stay serial).
inline std::size_t grain_for(std::size_t n, std::size_t max_blocks,
                             std::size_t min_grain) {
  if (max_blocks == 0) max_blocks = 1;
  const std::size_t grain = (n + max_blocks - 1) / max_blocks;
  return grain < min_grain ? min_grain : grain;
}

}  // namespace dmv::par
