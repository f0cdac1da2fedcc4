// Fixed-size thread pool + deterministic data-parallel helpers.
//
// Every parallel stage in the pipeline follows one rule: shard the input by
// a structure that depends only on the INPUT (contiguous index chunks, or a
// fixed hash-shard count), compute shard results independently, then merge
// in shard order. Because the shard structure never depends on how many
// threads execute it, the output is bit-identical at any thread count —
// `threads=1` is an exact sequential fallback, not a different algorithm.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

namespace snmpv3fp::util {

// Worker-count default: SNMPFP_THREADS env var when set (> 0), otherwise
// std::thread::hardware_concurrency(), never below 1.
std::size_t default_thread_count();

struct ParallelOptions {
  // 0 = default_thread_count(). 1 = run inline on the calling thread.
  std::size_t threads = 0;

  std::size_t resolved_threads() const {
    return threads == 0 ? default_thread_count() : threads;
  }
};

// A small fixed-size pool of workers. Batches submitted through run_tasks
// are index spaces [0, count); workers (and the submitting thread, which
// participates) claim indices atomically. run_tasks blocks until the whole
// batch finished and rethrows the first exception a task threw. Tasks
// submitted from inside a pool worker run inline to avoid deadlock.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_; }

  void run_tasks(std::size_t count,
                 const std::function<void(std::size_t)>& task);

  // Process-wide pool used by parallel_for / parallel_map. Sized to
  // default_thread_count() but never below 2, so races are exercised (and
  // TSan-visible) even on single-core CI machines.
  static ThreadPool& shared();

 private:
  struct Impl;
  Impl* impl_;
  std::size_t workers_;
};

// Splits [begin, end) into at most resolved_threads() contiguous chunks and
// runs chunk_fn(chunk_index, chunk_begin, chunk_end) for each. Chunks are
// only a scheduling granularity: merging per-chunk results in chunk order
// reproduces sequential left-to-right order for any chunk count. With one
// chunk (threads=1, or a short range) chunk_fn runs inline, in order.
void parallel_for_chunks(
    std::size_t begin, std::size_t end, const ParallelOptions& options,
    const std::function<void(std::size_t, std::size_t, std::size_t)>&
        chunk_fn);

// Convenience per-index form of parallel_for_chunks.
void parallel_for(std::size_t begin, std::size_t end,
                  const ParallelOptions& options,
                  const std::function<void(std::size_t)>& fn);

// Ordered map: out[i] = fn(i). Results land in index order regardless of
// which thread computed them. Each chunk emplaces into its own reserved
// vector and the chunks are moved into place in chunk order, so no slot is
// ever default-constructed first and assigned over (the intermediate-copy
// churn the old `out[i] = fn(i)` form showed up as in allocation profiles).
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t count, const ParallelOptions& options,
                            Fn&& fn) {
  const std::size_t threads = std::max<std::size_t>(
      options.resolved_threads(), 1);
  std::vector<std::vector<T>> parts(std::min(std::max<std::size_t>(count, 1),
                                             threads));
  parallel_for_chunks(
      0, count, options,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        auto& local = parts[chunk];
        local.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) local.emplace_back(fn(i));
      });
  std::vector<T> out;
  out.reserve(count);
  for (auto& part : parts)
    for (auto& value : part) out.push_back(std::move(value));
  return out;
}

// SplitMix64-style mixer for deriving independent per-shard seeds from a
// campaign seed: hash_combine(seed, shard) never collides with the parent
// stream in practice and is stable across platforms. Inline: it keys
// every per-probe derivation (probe ids, dead-space offsets).
inline std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (value + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Optional instrumentation for a BoundedQueue (attach with
// set_telemetry). Plain atomics so util stays independent of the obs
// layer; core/overlap.cpp publishes these into the metrics registry.
// Stall time is wall-clock microseconds a side spent blocked on the
// queue — producer stalls mean the consumer is the bottleneck and vice
// versa — so overlap backpressure shows up in timeline and trace.
struct QueueTelemetry {
  std::atomic<std::uint64_t> items{0};              // total pushes accepted
  std::atomic<std::uint64_t> producer_stall_us{0};  // push() blocked (full)
  std::atomic<std::uint64_t> consumer_stall_us{0};  // pop() blocked (empty)
  std::atomic<std::uint64_t> max_depth{0};          // high-water item count
  std::atomic<std::int64_t> depth{0};               // current item count
};

// Bounded single-producer/single-consumer handoff queue for overlapping
// pipeline stages (producer fills blocks while the consumer drains them).
// push blocks when `capacity` items are in flight — backpressure, so the
// producer can never run unboundedly ahead of the consumer. close() wakes
// a blocked pop, which then returns nullopt once the queue drains.
// Determinism: the queue only changes *when* items are processed, never
// their order — items pop in push order.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 1)) {}

  // Execution-only instrumentation; attach before the first push/pop.
  void set_telemetry(QueueTelemetry* telemetry) { telemetry_ = telemetry; }

  void push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (telemetry_ != nullptr && items_.size() >= capacity_ && !closed_) {
      const auto blocked_at = std::chrono::steady_clock::now();
      not_full_.wait(lock,
                     [&] { return items_.size() < capacity_ || closed_; });
      telemetry_->producer_stall_us.fetch_add(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - blocked_at)
              .count(),
          std::memory_order_relaxed);
    } else {
      not_full_.wait(lock,
                     [&] { return items_.size() < capacity_ || closed_; });
    }
    if (closed_) return;  // producer-after-close: drop (consumer is gone)
    items_.push_back(std::move(item));
    if (telemetry_ != nullptr) {
      telemetry_->items.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t depth = items_.size();
      telemetry_->depth.store(static_cast<std::int64_t>(depth),
                              std::memory_order_relaxed);
      std::uint64_t prev =
          telemetry_->max_depth.load(std::memory_order_relaxed);
      while (depth > prev && !telemetry_->max_depth.compare_exchange_weak(
                                 prev, depth, std::memory_order_relaxed)) {
      }
    }
    not_empty_.notify_one();
  }

  // Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (telemetry_ != nullptr && items_.empty() && !closed_) {
      const auto blocked_at = std::chrono::steady_clock::now();
      not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
      telemetry_->consumer_stall_us.fetch_add(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - blocked_at)
              .count(),
          std::memory_order_relaxed);
    } else {
      not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    if (telemetry_ != nullptr)
      telemetry_->depth.store(static_cast<std::int64_t>(items_.size()),
                              std::memory_order_relaxed);
    not_full_.notify_one();
    return item;
  }

  // Producer is done (or the consumer aborts): unblocks both sides.
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  const std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  QueueTelemetry* telemetry_ = nullptr;
};

// Runs `tasks` concurrently on dedicated threads (the calling thread takes
// the first task) and joins them all; rethrows the first exception in task
// order. Unlike ThreadPool::run_tasks this never queues behind pool work
// and never inlines when nested, so producer/consumer stage pairs that
// block on a BoundedQueue cannot deadlock against pool scheduling. Meant
// for a handful of long-lived stage drivers, not data parallelism.
void run_overlapped(const std::vector<std::function<void()>>& tasks);

}  // namespace snmpv3fp::util
