// Fixed-size worker pool for running independent jobs off the caller's
// thread. Each submitted task gets a future that carries its return value —
// or rethrows, at future.get(), any exception the task raised. Shutdown
// (explicit or via the destructor) drains every task that was accepted
// before the pool stopped; submissions racing with shutdown fail with
// std::runtime_error rather than being silently dropped.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace tvacr::common {

class ThreadPool {
  public:
    /// Spawns `workers` threads (at least one).
    explicit ThreadPool(std::size_t workers);

    /// Equivalent to shutdown(): drains accepted tasks, then joins.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t worker_count() const noexcept { return worker_count_; }

    /// Wall-clock timing of one executed task. Timestamps are nanoseconds on
    /// the steady clock, relative to pool construction. start_ns is taken as
    /// the task leaves the queue, under the queue's lock, so tasks start in
    /// submission order.
    struct TaskTiming {
        std::uint64_t sequence = 0;  // submission order, starting at 0
        std::size_t worker = 0;      // index of the worker that ran the task
        std::int64_t enqueue_ns = 0;
        std::int64_t start_ns = 0;
        std::int64_t finish_ns = 0;
        [[nodiscard]] std::int64_t queue_wait_ns() const noexcept { return start_ns - enqueue_ns; }
        [[nodiscard]] std::int64_t run_ns() const noexcept { return finish_ns - start_ns; }
    };

    /// Profiling hook, invoked on the worker thread after each task returns
    /// (including tasks whose future carries an exception). Install before
    /// submitting work; do not change it while tasks are in flight. The
    /// observer fires *after* the task's future is satisfied, so waiters on
    /// the future must synchronise with observer side effects separately
    /// (MatrixRunner counts observed tasks atomically for this reason).
    using TaskObserver = std::function<void(const TaskTiming&)>;
    void set_observer(TaskObserver observer);

    /// Enqueues `task` and returns the future for its result. Exceptions the
    /// task throws surface at future.get(). Throws std::runtime_error if the
    /// pool is shutting down.
    template <typename F>
    [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F task) {
        using R = std::invoke_result_t<F>;
        auto packaged = std::make_shared<std::packaged_task<R()>>(std::move(task));
        std::future<R> future = packaged->get_future();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
            tasks_.push(Entry{[packaged]() { (*packaged)(); }, next_sequence_++, now_ns()});
        }
        ready_.notify_one();
        return future;
    }

    /// Stops accepting tasks, runs everything already queued, joins the
    /// workers. Idempotent and safe to call while other threads submit (they
    /// observe the stop and get std::runtime_error).
    void shutdown();

  private:
    struct Entry {
        std::function<void()> fn;
        std::uint64_t sequence = 0;
        std::int64_t enqueue_ns = 0;
    };

    void worker_loop(std::size_t worker_index);
    [[nodiscard]] std::int64_t now_ns() const;

    std::mutex mutex_;
    std::condition_variable ready_;
    std::queue<Entry> tasks_;
    bool stopping_ = false;
    std::size_t worker_count_ = 0;
    std::uint64_t next_sequence_ = 0;
    std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
    TaskObserver observer_;
    std::vector<std::thread> workers_;
};

}  // namespace tvacr::common

namespace tvacr {
using common::ThreadPool;
}  // namespace tvacr
