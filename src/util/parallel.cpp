#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

namespace snmpv3fp::util {

std::size_t default_thread_count() {
  static const std::size_t count = [] {
    if (const char* env = std::getenv("SNMPFP_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 1 : hw);
  }();
  return count;
}

namespace {

// One run_tasks call. Indices are claimed with fetch_add; after a task
// throws, remaining indices are claimed but skipped so the batch drains
// quickly and the first exception is rethrown to the submitter.
struct Batch {
  std::function<void(std::size_t)> task;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr exception;
  std::mutex mutex;
  std::condition_variable finished;

  // Claims and runs indices until the batch is exhausted.
  void work() {
    for (;;) {
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) return;
      if (!failed.load(std::memory_order_acquire)) {
        try {
          task(index);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!exception) exception = std::current_exception();
          failed.store(true, std::memory_order_release);
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
        std::lock_guard<std::mutex> lock(mutex);
        finished.notify_all();
      }
    }
  }

  bool complete() const {
    return done.load(std::memory_order_acquire) == count;
  }
};

thread_local bool tls_in_worker = false;

}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable work_ready;
  std::deque<std::shared_ptr<Batch>> queue;
  std::vector<std::thread> threads;
  bool stopping = false;

  void worker_loop() {
    tls_in_worker = true;
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock, [&] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) return;
        batch = queue.front();
        // A batch stays queued until its index space is exhausted so every
        // idle worker can join it; the claimer that sees the end pops it.
        if (batch->next.load(std::memory_order_relaxed) >= batch->count) {
          queue.pop_front();
          continue;
        }
      }
      batch->work();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : impl_(new Impl), workers_(threads == 0 ? 1 : threads) {
  impl_->threads.reserve(workers_);
  for (std::size_t i = 0; i < workers_; ++i)
    impl_->threads.emplace_back([this] { impl_->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_ready.notify_all();
  for (auto& thread : impl_->threads) thread.join();
  delete impl_;
}

void ThreadPool::run_tasks(std::size_t count,
                           const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  // Inline when called from a worker (nested parallelism) — claiming pool
  // workers from a pool worker can deadlock once the pool is saturated.
  if (tls_in_worker || count == 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->task = task;
  batch->count = count;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->queue.push_back(batch);
  }
  impl_->work_ready.notify_all();
  // The submitting thread participates instead of blocking idle.
  batch->work();
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->finished.wait(lock, [&] { return batch->complete(); });
    if (batch->exception) std::rethrow_exception(batch->exception);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max<std::size_t>(default_thread_count(), 2));
  return pool;
}

void parallel_for_chunks(
    std::size_t begin, std::size_t end, const ParallelOptions& options,
    const std::function<void(std::size_t, std::size_t, std::size_t)>&
        chunk_fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t threads = std::max<std::size_t>(options.resolved_threads(), 1);
  const std::size_t chunks = std::min(threads, n);
  if (chunks <= 1) {
    chunk_fn(0, begin, end);
    return;
  }
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  ThreadPool::shared().run_tasks(chunks, [&](std::size_t chunk) {
    // First `extra` chunks take one more item; offsets stay contiguous.
    const std::size_t chunk_begin =
        begin + chunk * base + std::min(chunk, extra);
    const std::size_t chunk_end = chunk_begin + base + (chunk < extra ? 1 : 0);
    chunk_fn(chunk, chunk_begin, chunk_end);
  });
}

void parallel_for(std::size_t begin, std::size_t end,
                  const ParallelOptions& options,
                  const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(begin, end, options,
                      [&](std::size_t, std::size_t chunk_begin,
                          std::size_t chunk_end) {
                        for (std::size_t i = chunk_begin; i < chunk_end; ++i)
                          fn(i);
                      });
}

void run_overlapped(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  std::vector<std::exception_ptr> errors(tasks.size());
  std::vector<std::thread> threads;
  threads.reserve(tasks.size() - 1);
  for (std::size_t i = 1; i < tasks.size(); ++i)
    threads.emplace_back([&, i] {
      try {
        tasks[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  try {
    tasks[0]();
  } catch (...) {
    errors[0] = std::current_exception();
  }
  for (auto& thread : threads) thread.join();
  for (auto& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace snmpv3fp::util
